"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (bad partition, violated
precondition, unknown option value, a --p that is not an odd prime), 2
when a verification suite reports failures or checks nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import barcores, branching, classify, dimensions, families, ladders, tableaux, verify, wreath
from .partitions import PartitionError, check_odd_prime, format_partition, parse_partition, strict_partitions_of


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
    elif op == "multiset":
        pairs = branching.branch_multiset(lam, i, p, args.direction)
        _emit({"coeffs": [[list(mu), c] for mu, c in pairs]})
    else:
        raise PartitionError(f"unknown op {op!r}")
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
        matrix = wreath.load_decomp_matrix(args.decomp)
        if matrix.d != args.d:
            raise PartitionError(f"matrix has degree {matrix.d}, expected {args.d}")
        value = wreath.wreath_cartan_p(parse_partition(args.mu), matrix).value
        _emit({"value": value, "threshold": 2 * args.d + 1})
        return 0
    nu = parse_partition(args.nu) if args.nu else (args.d,)
    pi = parse_partition(args.pi) if args.pi else nu
    _emit({"value": wreath.wreath_cartan0(nu, pi).value, "threshold": 2 * args.d + 1})
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
    threads = args.threads or int(os.environ.get("SPINHOM_THREADS", "1"))
    names = verify.suites_at(args.p) if args.suite == "all" else [args.suite]
    bad = 0
    empty = []
    for name in names:
        rows = verify.run_suite(
            name, p=args.p, max_n=args.max_n, threads=threads, seed=args.seed, max_l=args.max_l
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinhom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("reg", cmd_reg, help="regularise a p-strict partition")
    sp.add_argument("partition")
    sp.add_argument("--p", type=int, default=3)

    sp = add("core", cmd_core, help="p-bar core and weight")
    sp.add_argument("partition")
    sp.add_argument("--p", type=int, default=3)

    sp = add("block", cmd_block, help="list the partitions of a block")
    sp.add_argument("--core", required=True)
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--filter", choices=["strict", "pstrict", "restricted"], default="pstrict")

    sp = add("branch", cmd_branch, help="branching operators")
    sp.add_argument("partition")
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--op", required=True,
                    choices=["tilde-e", "tilde-f", "down", "up", "normal-down", "normal-up", "multiset"])
    sp.add_argument("--direction", choices=["down", "up"], default="down",
                    help="direction for --op multiset")

    sp = add("dim", cmd_dim, help="bar-length dimension")
    sp.add_argument("partition")

    sp = add("ddeg", cmd_ddeg, help="reduced degree")
    sp.add_argument("partition")
    sp.add_argument("--p", type=int, default=3)

    sp = add("witness", cmd_witness, help="smaller-degree partner in the regularisation fibre")
    sp.add_argument("partition")
    sp.add_argument("--p", type=int, default=3)

    sp = add("sst", cmd_sst, help="standard shifted tableaux as JSON lines")
    sp.add_argument("partition")
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--residue-words", action="store_true")

    sp = add("lr", cmd_lr, help="Littlewood-Richardson coefficients")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--gamma")
    sp.add_argument("--nu", required=True)

    sp = add("cartan", cmd_cartan, help="wreath-product Cartan values")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--nu")
    sp.add_argument("--pi")
    sp.add_argument("--char3", action="store_true")
    sp.add_argument("--decomp", help="decomposition matrix file for --char3")
    sp.add_argument("--mu", help="p-regular column label for --char3")

    sp = add("classify", cmd_classify, help="homogeneity / irreducibility verdict")
    sp.add_argument("partition")
    sp.add_argument("--context", choices=["homogeneity", "super", "sn", "an"], default="homogeneity")
    sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = add("enumerate", cmd_enumerate, help="classify every strict partition of n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--filter", choices=["homogeneous", "all"], default="all")
    sp.add_argument("--special", choices=["include", "exclude", "only"], default="include")
    sp.add_argument("--include-conjectural", action="store_true")

    sp = add("family", cmd_family, help="named degree / chain families by id and l")
    sp.add_argument("--id", required=True)
    sp.add_argument("--l", type=int, required=True)

    sp = add("verify", cmd_verify, help="run a verification suite (TSV rows)")
    sp.add_argument("--suite", required=True, choices=list(verify.SUITES) + ["all"])
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--max-n", type=int, default=None)
    sp.add_argument("--max-l", type=int, default=12, help="family index bound for the degrees suite")
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "p"):
            check_odd_prime(args.p)
        return args.fn(args)
    except PartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
