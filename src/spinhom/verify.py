"""Exhaustive verification suites over small partitions.

Each suite walks every partition in its range, re-evaluates a family of
exact identities or cross-checks, and yields one row per check:

    (subject, check, detail, lhs, rhs, ok)

Rows are plain strings ready for TSV output; a suite passes when no row
has ok == "FAIL".  ``SUITES`` maps each suite to its function and its
default ``max_n``.  The degrees, wreath and classification suites check
p = 3 facts only and are refused at any other p.  Every suite's main
sweep runs to ``max_n`` as given, and the ladders suite is that sweep
alone; these checks stop at a fixed cap whatever ``max_n`` asks for:

* branching: homogeneous-case matches n <= 25, tilde inverses n <= 18;
* blocks: core confluence n <= 20, Morris-Yaseen and block counts n <= 16;
* degrees: sums of squares n <= 10, g against tableau counts n <= 12;
* tableaux: enumeration rows n <= 12, residue words n <= 10;
* wreath: every row d <= 8; cartan0 symmetry, char-3 rows and the
  sampled lower bounds d <= 6;
* classification: soundness and closure n <= 28, phi-zero agreement
  n <= 25, the module list n <= 20.

The sigma/tau chains, block closed forms and patterned tableaux use fixed
ranges and run at p = 3 only; the degree families (every declared
range and equality index) and staircase witnesses (l <= 8) follow
``max_l``.

Suites fan out over partitions (the staircase witnesses over their
regularisation fibres) with a process pool when ``threads`` is above
one; rows are merged back in submission order, so output is identical
for every thread count.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations, groupby
from math import factorial
from typing import Callable, Iterable, Sequence

from . import barcores, branching, classify, dimensions, families, ladders, tableaux, wreath
from .partitions import (
    Partition,
    check_odd_prime,
    conjugate,
    contains,
    format_partition,
    is_odd_partition,
    is_restricted,
    is_strict,
    l_p,
    p_strict_partitions_of,
    partitions_of,
    run_down,
    scaled_add,
    join,
    strict_partitions_of,
)

Row = tuple[str, str, str, str, str, str]


def _row(subject, check, detail, lhs, rhs, ok: bool) -> Row:
    return (str(subject), str(check), str(detail), str(lhs), str(rhs), "ok" if ok else "FAIL")


def _holds(subject, check, detail, ok: bool) -> Row:
    """Row of a predicate check: lhs is the predicate's value, rhs True."""
    return _row(subject, check, detail, ok, True, ok)


def _equal(subject, check, detail, lhs, rhs) -> Row:
    return _row(subject, check, detail, lhs, rhs, lhs == rhs)


def _require_threads(threads: int) -> None:
    # a pool forks all its workers at once, so cap them at the CPU count
    cpus = os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        raise ValueError(f"threads must be between 1 and {cpus}, got {threads}")


def _fan_out(fn: Callable[[tuple], list[Row]], items: Sequence[tuple], threads: int) -> list[Row]:
    """The rows of fn over items, in order; over a process pool when threads > 1."""
    _require_threads(threads)
    if threads == 1 or len(items) <= 1:
        chunks = map(fn, items)
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * threads))))
    return [row for chunk in chunks for row in chunk]


# ---------------------------------------------------------------------------
# ladders


def _ladder_rows(args: tuple[Partition, int]) -> list[Row]:
    lam, p = args
    name = format_partition(lam)
    rows = [_row(name, idr.identity, idr.l, idr.lhs, idr.rhs, idr.ok) for idr in ladders.check_ladder_identities(lam, p)]
    reg = ladders.regularize(lam, p)
    rows.append(_holds(name, "reg_profile", "", ladders.ladder_profile(lam, p) == ladders.ladder_profile(reg, p)))
    rows.append(_holds(name, "reg_idempotent", "", ladders.regularize(reg, p) == reg))
    rows.append(_holds(name, "reg_restricted", "", is_restricted(reg, p)))
    if is_restricted(lam, p):
        rows.append(_holds(name, "reg_fixed_point", "", reg == lam))
    if is_strict(lam):
        same = all(
            branching.boundary_nodes(lam, i, p, "strict") == branching.boundary_nodes(lam, i, p, "pstrict")
            for i in range(1, (p - 1) // 2 + 1)
        )
        rows.append(_holds(name, "strict_add_badd_nonzero", "", same))
    return rows


def suite_ladders(p: int, max_n: int, threads: int = 1, seed: int = 0) -> list[Row]:
    items = [(lam, p) for n in range(max_n + 1) for lam in p_strict_partitions_of(n, p)]
    return _fan_out(_ladder_rows, items, threads)


# ---------------------------------------------------------------------------
# branching


def _branching_strict_rows(args: tuple[Partition, int, int]) -> list[Row]:
    lam, p, max_n = args
    name = format_partition(lam)
    rows = []
    half = (p - 1) // 2
    for i in range(half + 1):
        obstruction = branching.ladder_obstruction(lam, i, p)
        overshoot = branching.dn(lam, i, p)
        if i == half:
            rows.append(_equal(name, "dn_half_equivalence", f"i={i}", obstruction, overshoot))
        if obstruction:
            rows.append(_row(name, "dn_implication", f"i={i}", obstruction, overshoot, overshoot))
        if i != 0:
            agree = branching.boundary_nodes(lam, i, p, "strict") == branching.boundary_nodes(lam, i, p, "pstrict")
            rows.append(_holds(name, "senses_coincide", f"i={i}", agree))
    if p == 3 and all(a % 3 != 1 for a in lam):
        up = branching.extremal(branching.extremal(lam, 0, 3, "up").result, 1, 3, "up").result
        rows.append(_holds(name, "chain_up_avoids_1_mod_3", "", all(a % 3 != 1 for a in up)))
        rows.append(_equal(name, "chain_up_length_last", "", (len(up), up[-1] if up else 0), (len(lam) + 1, 2)))
    if p == 3 and sum(lam) <= min(max_n, 25):
        verdict = classify.classify_homogeneous(lam)
        if verdict.status == classify.PROVEN_HOM:
            reg = ladders.regularize(lam, 3)
            for i in range(2):
                rows.append(_equal(name, "homog_eps_match", f"i={i}", branching.eps_hat(lam, i, 3), branching.eps_i(reg, i, 3)))
                down = branching.extremal(lam, i, 3, "down").result
                rows.append(_equal(name, "homog_restriction_match", f"i={i}", ladders.regularize(down, 3), branching.normal_extremal(reg, i, 3, "down")))
                rows.append(_equal(name, "homog_phi_match", f"i={i}", branching.phi_hat(lam, i, 3), branching.phi_i(reg, i, 3)))
                up = branching.extremal(lam, i, 3, "up").result
                rows.append(_equal(name, "homog_induction_match", f"i={i}", ladders.regularize(up, 3), branching.normal_extremal(reg, i, 3, "up")))
    return rows


def _branching_restricted_rows(args: tuple[Partition, int]) -> list[Row]:
    mu, p = args
    name = format_partition(mu)
    rows = []
    for i in range((p - 1) // 2 + 1):
        sig = branching.signature(mu, i, p)
        if sig.eps:
            back = branching.tilde_f(branching.tilde_e(mu, i, p), i, p)
            rows.append(_equal(name, "tilde_f_after_e", f"i={i}", back, mu))
        if sig.phi:
            back = branching.tilde_e(branching.tilde_f(mu, i, p), i, p)
            rows.append(_equal(name, "tilde_e_after_f", f"i={i}", back, mu))
    return rows


def suite_branching(p: int, max_n: int, threads: int = 1, seed: int = 0) -> list[Row]:
    strict_items = [(lam, p, max_n) for n in range(max_n + 1) for lam in strict_partitions_of(n)]
    rows = _fan_out(_branching_strict_rows, strict_items, threads)
    restricted_items = [
        (mu, p)
        for n in range(min(max_n, 18) + 1)
        for mu in p_strict_partitions_of(n, p)
        if is_restricted(mu, p)
    ]
    rows += _fan_out(_branching_restricted_rows, restricted_items, threads)
    if p == 3:
        for l in range(1, 9):
            got = branching.extremal(families.sigma(l), 1, 3, "up").result
            rows.append(_equal(f"sigma({l})", "chain_sigma_to_tau", "", got, families.tau(l)))
        for l in range(2, 9):
            got = branching.extremal(families.tau(l), 0, 3, "up").result
            rows.append(_equal(f"tau({l})", "chain_tau_to_sigma", "", got, families.sigma(l + 1)))
    return rows


# ---------------------------------------------------------------------------
# blocks


def _all_cores(lam: Partition, p: int) -> set[Partition]:
    moves = barcores.bar_removals(lam, p)
    if not moves:
        return {lam}
    out: set[Partition] = set()
    for move in moves:
        out |= _all_cores(move.result, p)
    return out


def _blocks_confluence_rows(args: tuple[Partition, int]) -> list[Row]:
    lam, p = args
    cores = _all_cores(lam, p)
    core = barcores.bar_core(lam, p).core
    return [_row(format_partition(lam), "core_confluence", "", sorted(cores), [core], cores == {core})]


def suite_blocks(p: int, max_n: int, threads: int = 1, seed: int = 0) -> list[Row]:
    conf_items = [(lam, p) for n in range(min(max_n, 20) + 1) for lam in p_strict_partitions_of(n, p)]
    rows = _fan_out(_blocks_confluence_rows, conf_items, threads)
    for n in range(min(max_n, 16) + 1):
        contents = {lam: ladders.content(lam, p) for lam in strict_partitions_of(n)}
        for lam, mu in combinations(contents, 2):
            rows.append(_equal(
                f"{format_partition(lam)}|{format_partition(mu)}", "morris_yaseen", f"n={n}",
                barcores.same_block(lam, mu, p), contents[lam] == contents[mu],
            ))
        everyone = list(p_strict_partitions_of(n, p))
        by_core: dict[Partition, int] = {}
        for lam in everyone:
            bc = barcores.bar_core(lam, p)
            by_core[bc.core] = by_core.get(bc.core, 0) + 1
        total = 0
        for core, count in sorted(by_core.items()):
            weight = (n - sum(core)) // p
            # block_members refuses a non-core; report it as a row so the suite runs on
            if not barcores.is_bar_core(core, p):
                rows.append(_equal(format_partition(core), "block_member_count", f"n={n},d={weight}", "not a bar core", count))
                continue
            members = barcores.block_members(core, weight, p, "pstrict")
            rows.append(_equal(format_partition(core), "block_member_count", f"n={n},d={weight}", len(members), count))
            total += len(members)
        rows.append(_equal(f"n={n}", "block_partition_of_set", "", total, len(everyone)))
    if p == 3:
        for l in range(1, 5):
            nu = run_down(3 * l - 2, 1)
            for d in range(0, min(l, 3) + 1):
                got = set(barcores.block_members(nu, d, 3, "pstrict"))
                want = set()
                for a_size in range(d + 1):
                    for alpha in partitions_of(a_size):
                        if len(alpha) > len(nu):
                            continue
                        for beta in partitions_of(d - a_size):
                            want.add(join(scaled_add(nu, 3, alpha), tuple(3 * b for b in beta)))
                rows.append(_row(format_partition(nu), "block_closed_form", f"d={d}", len(got), len(want), got == want))
                restricted_members = set(barcores.block_members(nu, d, 3, "restricted"))
                want_restricted = {m for m in want if is_restricted(m, 3)}
                alpha_empty = {join(nu, tuple(3 * b for b in beta)) for beta in partitions_of(d)}
                rows.append(_row(format_partition(nu), "block_restricted_iff_alpha_empty", f"d={d}", sorted(restricted_members), sorted(alpha_empty & want), restricted_members == want_restricted == (alpha_empty & want)))
                mu = join(nu, (3 * d,) if d else ())
                fibre = barcores.reg_preimages(mu, 3)
                want_fibre = {join(scaled_add(nu, 3, (1,) * (d - i)), (3 * i,) if i else ()) for i in range(d + 1)}
                rows.append(_row(format_partition(mu), "reg_fibre_closed_form", f"d={d}", sorted(fibre), sorted(want_fibre), set(fibre) == want_fibre))
                msum = 0
                for lamf in fibre:
                    m = dimensions.regn_multiplicity(lamf, 3)
                    msum += m.s_to_d * m.p_to_s
                rows.append(_equal(format_partition(mu), "fibre_multiplicity_sum", f"d={d}", msum, 2 * d + 1))
    return rows


# ---------------------------------------------------------------------------
# degrees


def _staircase_witness_rows(args: tuple[int, tuple[tuple[int, ...], ...]]) -> list[Row]:
    l, tups = args
    rows = []
    for tup in tups:
        lam = families.staircase_adjusted(l, tup)
        witness = dimensions.degree_witness(lam, 3)
        rows.append(_row(format_partition(lam), "staircase_witness", f"l={l},a={tup}", witness, "found", witness is not None))
    return rows


def suite_degrees(p: int, max_n: int, threads: int = 1, seed: int = 0, max_l: int = 12) -> list[Row]:
    rows: list[Row] = []
    for n in range(1, min(max_n, 10) + 1):
        total = 0
        for lam in strict_partitions_of(n):
            d = dimensions.spin_dim(lam).dim
            total += d * d // (2 if is_odd_partition(lam) else 1)
        rows.append(_equal(f"n={n}", "sum_of_squares", "", total, factorial(n)))
    for n in range(min(max_n, 12) + 1):
        for lam in strict_partitions_of(n):
            rows.append(_equal(format_partition(lam), "g_equals_tableau_count", "", dimensions.spin_dim(lam).g, tableaux.count_sst(lam)))
    for name in sorted(families.FAMILIES):
        fam = families.family(name)
        lo, hi = fam.formula_range
        hi = min(hi, max_l)
        if fam.ratio_kind == "direct":
            for l in range(lo, hi + 1):
                rows.append(_equal(name, "ratio_formula", f"l={l}", dimensions.ddeg_ratio(fam.lam(l), fam.mu(l), 3), fam.ratio(l)))
        else:
            for l in range(lo, hi):
                got = dimensions.ddeg_ratio(fam.lam(l + 1), fam.mu(l + 1), 3) / dimensions.ddeg_ratio(fam.lam(l), fam.mu(l), 3)
                rows.append(_equal(name, "ratio_step_formula", f"l={l}", got, fam.ratio(l)))
        glo, ghi = fam.greater_range
        listed = list(range(glo, min(ghi, max_l) + 1)) + [x for x in fam.extra_greater if x <= max_l]
        for l in [x for x in fam.equal_at if x <= max_l and x not in listed] + listed:
            r = dimensions.ddeg_ratio(fam.lam(l), fam.mu(l), 3)
            if l in fam.equal_at:
                rows.append(_equal(name, "ratio_equal_at", f"l={l}", r, 1))
            else:
                rows.append(_row(name, "ratio_greater", f"l={l}", r, "> 1", r > 1))
            rows.append(_equal(name, "same_regularisation", f"l={l}", ladders.regularize(fam.lam(l), 3), ladders.regularize(fam.mu(l), 3)))
    # one job per regularisation fibre, so no two workers rank the same fibre
    jobs = [
        (l, tuple(tups))
        for l in range(3, min(8, max_l) + 1)
        for _, tups in groupby(families.admissible_row_tuples(l), lambda tup: ladders.regularize(families.staircase_adjusted(l, tup), 3))
    ]
    rows += _fan_out(_staircase_witness_rows, jobs, threads)
    return rows


# ---------------------------------------------------------------------------
# tableaux


def suite_tableaux(p: int, max_n: int, threads: int = 1, seed: int = 0) -> list[Row]:
    rows: list[Row] = []
    for n in range(min(max_n, 12) + 1):
        for lam in strict_partitions_of(n):
            name = format_partition(lam)
            tabs = list(tableaux.enumerate_sst(lam))
            g = dimensions.spin_dim(lam).g
            distinct = len(set(tabs)) == len(tabs)
            rows.append(_row(name, "enumeration_count", "", len(tabs), g, len(tabs) == g and distinct))
            rows.append(_holds(name, "enumeration_standard", "", all(t.is_standard() for t in tabs)))
            if tabs and sum(lam) <= 10:
                words_ok = all(
                    sorted(t.residue_word(p)) == sorted(k for k, v in ladders.content(lam, p).items() for _ in range(v))
                    for t in tabs
                )
                rows.append(_holds(name, "residue_word_content", "", words_ok))
    if p == 3:
        for l in (3, 4):
            nu = run_down(3 * l - 2, 1)
            for d in range(1, min(l, 3) + 1):
                lam = scaled_add(nu, 3, (1,) * d)
                tab = tableaux.find_patterned_tableau(lam, nu, 3)
                rows.append(_holds(format_partition(lam), "patterned_tableau", f"l={l},d={d}", tab is not None))
    return rows


# ---------------------------------------------------------------------------
# wreath


def suite_wreath(p: int, max_n: int, threads: int = 1, seed: int = 0) -> list[Row]:
    rows: list[Row] = []
    max_d = min(max_n, 8)
    for n in range(max_d + 1):
        for nu in partitions_of(n):
            nu_c = conjugate(nu)
            for a in range(n + 1):
                for alpha in partitions_of(a):
                    alpha_c = conjugate(alpha)
                    for beta in partitions_of(n - a):
                        x = wreath.lr2(alpha, beta, nu)
                        y = wreath.lr2(beta, alpha, nu)
                        if x != y:
                            rows.append(_row(format_partition(nu), "lr2_symmetry", f"{alpha}|{beta}", x, y, False))
                        z = wreath.lr2(alpha_c, conjugate(beta), nu_c)
                        if x != z:
                            rows.append(_row(format_partition(nu), "lr2_conjugation", f"{alpha}|{beta}", x, z, False))
        rows.append(_row(f"|nu|={n}", "lr2_symmetry_conjugation", "", "all", "all", True))
    for d in range(1, min(max_d, 6) + 1):
        parts = list(partitions_of(d))
        sym_ok = all(
            wreath.wreath_cartan0(nu, pi) == wreath.wreath_cartan0(pi, nu)
            for nu in parts
            for pi in parts
        )
        rows.append(_holds(f"d={d}", "cartan0_symmetry", "", sym_ok))
    for d in range(1, max_d + 1):
        for nu in partitions_of(d):
            v = wreath.wreath_cartan0(nu, nu)
            if nu in ((d,), (1,) * d):
                rows.append(_equal(format_partition(nu), "cartan0_diagonal_equality", f"d={d}", v, 2 * d + 1))
            else:
                rows.append(_row(format_partition(nu), "cartan0_diagonal_strict", f"d={d}", v, f"> {2 * d + 1}", v > 2 * d + 1))
    for d in range(3, min(max_d, 6) + 1):
        matrix = wreath.bundled_decomp_matrix(d)
        for mu in matrix.columns:
            v = wreath.wreath_cartan_p(mu, matrix)
            rows.append(_row(format_partition(mu), "cartan3_diagonal_strict", f"d={d}", v, f"> {2 * d + 1}", v > 2 * d + 1))
    rng = random.Random(seed)
    candidates = [nu for d in range(3, min(max_d, 6) + 1) for nu in partitions_of(d) if (2, 1) != nu and contains(nu, (2, 1))]
    for nu in rng.sample(candidates, min(6, len(candidates))):
        d = sum(nu)
        bound = 0
        for beta in ((), (1,), (2, 1)):
            b = sum(beta)
            for a in range(d - b + 1):
                for alpha in partitions_of(a):
                    for gamma in partitions_of(d - b - a):
                        bound += wreath.lr3(alpha, beta, gamma, nu) ** 2
        v = wreath.wreath_cartan0(nu, nu)
        rows.append(_row(format_partition(nu), "cartan0_lower_bound", f"d={d}", v, f">= {bound}", v >= bound))
    return rows


# ---------------------------------------------------------------------------
# classification


def _classification_rows(args: tuple[Partition, int]) -> list[Row]:
    lam, max_n = args
    name = format_partition(lam)
    n = sum(lam)
    rows = []
    verdict = classify.classify_homogeneous(lam)
    if n <= min(max_n, 28) and verdict.status == classify.PROVEN_HOM:
        cert = classify.homogeneity_obstruction(lam)
        rows.append(_row(name, "soundness_no_certificate", verdict.reason, cert, None, cert is None))
        for i in (0, 1) if lam else ():
            down = branching.extremal(lam, i, 3, "down").result
            sub = classify.classify_homogeneous(down)
            rows.append(_row(name, "restriction_closure", f"i={i}", sub.status, "not ProvenNotHomogeneous", sub.status != classify.PROVEN_NOT))
            up = branching.extremal(lam, i, 3, "up").result
            sup = classify.classify_homogeneous(up)
            rows.append(_row(name, "induction_closure", f"i={i}", sup.status, "not ProvenNotHomogeneous", sup.status != classify.PROVEN_NOT))
    special = classify.special_decompose(lam)
    if special is not None and verdict.proven:
        # the settled special cases coincide with the column-valuation test
        rows.append(_equal(name, "special_verdict_matches_carter", "", verdict.status == classify.PROVEN_HOM, classify.carter3(special.alpha)))
    if n <= min(max_n, 25):
        for i in (0, 1):
            if branching.phi_hat(lam, i, 3) == 0:
                down = branching.extremal(lam, i, 3, "down").result
                sub = classify.classify_homogeneous(down)
                if verdict.proven and sub.proven:
                    agree = (verdict.status == classify.PROVEN_HOM) == (sub.status == classify.PROVEN_HOM)
                    rows.append(_row(name, "phi_zero_verdict_agrees", f"i={i}", verdict.status, sub.status, agree))
    if verdict.homogeneous:
        lp = l_p(lam, 3)
        rows.append(_row(name, "homogeneous_lp_bound", verdict.status, lp, "<= 1", lp <= 1))
    return rows


def matches_module_list(lam: Partition, context: str) -> bool:
    """Membership in the explicit irreducible-module patterns (2)-(5)."""
    odd = is_odd_partition(lam)
    rest = classify.core_join_three(lam)
    if context == "sn":
        if odd and len(lam) == 1 and lam[0] % 6 == 0:
            return True
        if odd and rest is not None and is_odd_partition(rest):
            return True
        return lam in {(2, 1), (3, 2, 1), (5, 3, 2, 1), (5, 4, 3, 1)}
    if context == "an":
        if not odd and len(lam) == 1 and lam[0] % 3 == 0 and lam[0] % 2 == 1:
            return True
        if not odd and rest is not None and not is_odd_partition(rest):
            return True
        return lam in {
            (2, 1),
            (4, 3, 2),
            (4, 3, 2, 1),
            (5, 4, 3, 2),
            (5, 4, 3, 2, 1),
            (7, 4, 3, 2, 1),
            (8, 5, 3, 2, 1),
        }
    raise ValueError(context)


def suite_classification(p: int, max_n: int, threads: int = 1, seed: int = 0) -> list[Row]:
    items = [(lam, max_n) for n in range(max_n + 1) for lam in strict_partitions_of(n)]
    rows = _fan_out(_classification_rows, items, threads)
    for n in range(1, min(max_n, 20) + 1):
        for lam in strict_partitions_of(n):
            special = classify.special_decompose(lam) is not None
            for context in ("sn", "an"):
                verdict = classify.classify_irreducible(lam, context)
                if not verdict.proven:
                    continue
                listed = matches_module_list(lam, context)
                if verdict.irreducible:
                    rows.append(_row(format_partition(lam), "module_list_covers", context, "irreducible", "special or listed", special or listed))
                if listed:
                    rows.append(_holds(format_partition(lam), "module_list_irreducible", context, verdict.irreducible))
    return rows


# ---------------------------------------------------------------------------
# runner

# name -> (suite, default max_n at p = 3, at any other p or None if p = 3
# only); ``spinhom verify --suite all`` runs the suites in this order
SUITES: dict[str, tuple[Callable[..., list[Row]], int, int | None]] = {
    "ladders": (suite_ladders, 25, 18),
    "branching": (suite_branching, 20, 16),
    "blocks": (suite_blocks, 16, 16),
    "degrees": (suite_degrees, 12, None),
    "tableaux": (suite_tableaux, 12, 12),
    "wreath": (suite_wreath, 8, None),
    "classification": (suite_classification, 30, None),
}


def suites_at(p: int) -> list[str]:
    """The names of the suites defined at p, in ``SUITES`` order."""
    return [name for name, (_, _, max_n_other) in SUITES.items() if p == 3 or max_n_other is not None]


def run_suite(
    name: str,
    p: int = 3,
    max_n: int | None = None,
    threads: int = 1,
    seed: int = 0,
    max_l: int = 12,
) -> list[Row]:
    """Rows of one suite; ``max_n`` defaults to the suite's entry in ``SUITES``.

    ``threads`` must lie between 1 and the CPU count.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    check_odd_prime(p)
    if name not in suites_at(p):
        raise ValueError(f"suite {name} is defined at p=3 only, got p={p}")
    _require_threads(threads)
    fn, max_n_p3, max_n_other = SUITES[name]
    if max_n is None:
        max_n = max_n_p3 if p == 3 else max_n_other
    extra = {"max_l": max_l} if name == "degrees" else {}
    return fn(p, max_n, threads=threads, seed=seed, **extra)


def failures(rows: Iterable[Row]) -> list[Row]:
    return [row for row in rows if row[5] == "FAIL"]
