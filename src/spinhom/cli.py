"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (bad partition, violated
precondition, unknown or missing argument or option value, a --p that is
not an odd prime, an unreadable or malformed decomposition matrix), 2
when a verification suite reports failures or checks nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import barcores, branching, classify, dimensions, families, ladders, tableaux, verify, wreath
from .partitions import PSTRICT, SHAPES, PartitionError, check_odd_prime, format_partition, parse_partition, strict_partitions_of


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_reg(args) -> int:
    lam = parse_partition(args.partition)
    print(format_partition(ladders.regularize(lam, args.p)))
    return 0


def cmd_core(args) -> int:
    lam = parse_partition(args.partition)
    result = barcores.bar_core(lam, args.p)
    _emit({"core": list(result.core), "weight": result.weight})
    return 0


def cmd_block(args) -> int:
    core = parse_partition(args.core)
    members = barcores.block_members(core, args.weight, args.p, args.filter)
    for lam in members:
        print(format_partition(lam))
    return 0


def cmd_branch(args) -> int:
    lam = parse_partition(args.partition)
    p, i = args.p, args.i
    op = args.op
    if op == "tilde-e":
        _emit({"result": list(branching.tilde_e(lam, i, p))})
    elif op == "tilde-f":
        _emit({"result": list(branching.tilde_f(lam, i, p))})
    elif op in ("down", "up"):
        res = branching.extremal(lam, i, p, op)
        _emit({"result": list(res.result), "count": res.count})
    elif op in ("normal-down", "normal-up"):
        _emit({"result": list(branching.normal_extremal(lam, i, p, op.split("-")[1]))})
    else:  # multiset: argparse admits only these seven ops
        pairs = branching.branch_multiset(lam, i, p, args.direction)
        _emit({"coeffs": [[list(mu), c] for mu, c in pairs]})
    return 0


def cmd_dim(args) -> int:
    report = dimensions.spin_dim(parse_partition(args.partition))
    _emit({"dim": report.dim, "g": report.g, "two_exp": report.two_exp})
    return 0


def cmd_ddeg(args) -> int:
    lam = parse_partition(args.partition)
    _emit({"ddeg": dimensions.ddeg(lam, args.p)})
    return 0


def cmd_witness(args) -> int:
    lam = parse_partition(args.partition)
    w = dimensions.degree_witness(lam, args.p)
    _emit({"witness": None if w is None else list(w)})
    return 0


def cmd_sst(args) -> int:
    lam = parse_partition(args.partition)
    if args.count_only:
        _emit({"count": tableaux.count_sst(lam)})
        return 0
    for tab in tableaux.enumerate_sst(lam):
        obj = {"rows": [list(row) for row in tab.rows]}
        if args.residue_words:
            obj["residues"] = list(tab.residue_word(args.p))
        _emit(obj)
    return 0


def cmd_lr(args) -> int:
    alpha, beta, nu = parse_partition(args.alpha), parse_partition(args.beta), parse_partition(args.nu)
    if args.gamma is None:
        _emit({"coefficient": wreath.lr2(alpha, beta, nu)})
    else:
        _emit({"coefficient": wreath.lr3(alpha, beta, parse_partition(args.gamma), nu)})
    return 0


def cmd_cartan(args) -> int:
    if args.d < 1:
        raise PartitionError(f"--d must be at least 1, got {args.d}")
    if args.char3:
        if args.decomp is None or args.mu is None:
            raise PartitionError("--char3 needs --decomp FILE and --mu")
        if args.nu is not None or args.pi is not None:
            raise PartitionError("--nu and --pi do not apply with --char3")
        matrix = wreath.load_decomp_matrix(args.decomp)
        if matrix.p != 3:
            raise PartitionError(f"--char3 needs a p=3 matrix, got p={matrix.p}")
        if matrix.d != args.d:
            raise PartitionError(f"matrix has degree {matrix.d}, expected {args.d}")
        value = wreath.wreath_cartan_p(parse_partition(args.mu), matrix)
        _emit({"value": value, "threshold": 2 * args.d + 1})
        return 0
    if args.decomp is not None or args.mu is not None:
        raise PartitionError("--decomp and --mu need --char3")
    nu = parse_partition(args.nu) if args.nu else (args.d,)
    pi = parse_partition(args.pi) if args.pi else nu
    for flag, label in (("--nu", nu), ("--pi", pi)):
        if sum(label) != args.d:
            raise PartitionError(f"{flag} {format_partition(label)} has size {sum(label)}, expected {args.d}")
    _emit({"value": wreath.wreath_cartan0(nu, pi), "threshold": 2 * args.d + 1})
    return 0


def cmd_classify(args) -> int:
    lam = parse_partition(args.partition)
    verdict = classify.classify_homogeneous(lam)
    payload = {"status": verdict.status, "reason": verdict.reason}
    if args.context != "homogeneity":
        iv = classify.classify_irreducible(lam, args.context)
        payload.update(context=iv.context, labels=list(iv.labels), irreducible=iv.irreducible, proven=iv.proven)
    if args.format == "json":
        _emit(payload)
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")
    return 0


def cmd_enumerate(args) -> int:
    if args.n < 0:
        raise PartitionError(f"--n must be non-negative, got {args.n}")
    kept = (classify.PROVEN_HOM, classify.CONJ_HOM) if args.include_conjectural else (classify.PROVEN_HOM,)
    for lam in strict_partitions_of(args.n):
        special = classify.special_decompose(lam) is not None
        if args.special == "exclude" and special:
            continue
        if args.special == "only" and not special:
            continue
        verdict = classify.classify_homogeneous(lam)
        if args.filter == "homogeneous" and verdict.status not in kept:
            continue
        print(f"{format_partition(lam)}\t{verdict.status}\t{verdict.reason}")
    return 0


def cmd_family(args) -> int:
    if args.id == "sigma-tau":
        _emit({"sigma": list(families.sigma(args.l)), "tau": list(families.tau(args.l))})
        return 0
    fam = families.family(args.id)
    if args.l < fam.first_index:
        raise PartitionError(f"family {fam.name} starts at l={fam.first_index}, got l={args.l}")
    _emit({
        "lam": list(fam.lam(args.l)),
        "mu": list(fam.mu(args.l)),
        "ratio_kind": fam.ratio_kind,
        "ratio": str(fam.ratio(args.l)),
    })
    return 0


def cmd_verify(args) -> int:
    options = dict(p=args.p, max_n=args.max_n, threads=args.threads, seed=args.seed, max_l=args.max_l)
    if args.suite == "all":
        # every suite's tasks on one runner, so workers share whole suites
        results = verify.run_suites(verify.suites_at(args.p), **options)
    else:
        results = {args.suite: verify.run_suite(args.suite, **options)}
    bad = 0
    empty = []
    for name, rows in results.items():
        print(f"# suite {name}: {len(rows)} checks")
        for row in rows:
            print("\t".join(row))
        bad += len(verify.failures(rows))
        if not rows:
            empty.append(name)
    print(f"# failures: {bad}", file=sys.stderr)
    for name in empty:
        print(f"error: suite {name} checked nothing", file=sys.stderr)
    return 0 if bad == 0 and not empty else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a rejected argument is bad input: one line, exit 1
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinhom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the arguments several subcommands share, declared once
    shared = {"partition": {}, "--p": {"type": int, "default": 3}}

    def add(name, fn, help, *common):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(fn=fn)
        for arg in common:
            sp.add_argument(arg, **shared[arg])
        return sp

    add("reg", cmd_reg, "regularise a p-strict partition", "partition", "--p")
    add("core", cmd_core, "p-bar core and weight", "partition", "--p")

    sp = add("block", cmd_block, "list the partitions of a block", "--p")
    sp.add_argument("--core", required=True)
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--filter", choices=list(SHAPES), default=PSTRICT)

    sp = add("branch", cmd_branch, "branching operators", "partition", "--p")
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--op", required=True,
                    choices=["tilde-e", "tilde-f", "down", "up", "normal-down", "normal-up", "multiset"])
    sp.add_argument("--direction", choices=["down", "up"], default="down",
                    help="direction for --op multiset")

    add("dim", cmd_dim, "bar-length dimension", "partition")
    add("ddeg", cmd_ddeg, "reduced degree", "partition", "--p")
    add("witness", cmd_witness, "smaller-degree partner in the regularisation fibre", "partition", "--p")

    sp = add("sst", cmd_sst, "standard shifted tableaux as JSON lines", "partition", "--p")
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--residue-words", action="store_true")

    sp = add("lr", cmd_lr, "Littlewood-Richardson coefficients")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--gamma")
    sp.add_argument("--nu", required=True)

    sp = add("cartan", cmd_cartan, "wreath-product Cartan values")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--nu")
    sp.add_argument("--pi")
    sp.add_argument("--char3", action="store_true")
    sp.add_argument("--decomp", help="decomposition matrix file for --char3")
    sp.add_argument("--mu", help="p-regular column label for --char3")

    sp = add("classify", cmd_classify, "homogeneity / irreducibility verdict", "partition")
    sp.add_argument("--context", choices=["homogeneity", *classify.CONTEXTS], default="homogeneity")
    sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = add("enumerate", cmd_enumerate, "classify every strict partition of n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--filter", choices=["homogeneous", "all"], default="all")
    sp.add_argument("--special", choices=["include", "exclude", "only"], default="include")
    sp.add_argument("--include-conjectural", action="store_true")

    sp = add("family", cmd_family, "named degree / chain families by id and l")
    sp.add_argument("--id", required=True)
    sp.add_argument("--l", type=int, required=True)

    sp = add("verify", cmd_verify, "run a verification suite (TSV rows)", "--p")
    sp.add_argument("--suite", required=True, choices=list(verify.SUITES) + ["all"])
    sp.add_argument("--max-n", type=int, default=None)
    sp.add_argument("--max-l", type=int, default=12, help="family index bound for the degrees suite")
    sp.add_argument("--threads", type=int, default=1, help="worker processes, 1 to the CPU count")
    sp.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "p"):
            check_odd_prime(args.p)
        return args.fn(args)
    except ValueError as exc:  # PartitionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
