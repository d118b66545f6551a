from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import p_strict, run_under_python_o
from spinhom import barcores, families
from spinhom.barcores import (
    BarCoreResult,
    bar_additions,
    bar_core,
    bar_removals,
    block_members,
    is_bar_core,
    reg_preimages,
    same_block,
)
from spinhom.classify import classify_homogeneous
from spinhom.ladders import content, ladder_profile, regularize
from spinhom.partitions import (
    PartitionError,
    is_p_strict,
    is_restricted,
    is_strict,
    join,
    p_strict_partitions_of,
    partitions_of,
    restricted_partitions_of,
    scaled_add,
    strict_partitions_of,
)


@pytest.mark.parametrize("lam", [(4,), (2, 1)])
def test_bar_removal_guard_raises_runtime_error(monkeypatch, lam):
    # the input passes the p-strict check, the lowered or pair-deleted result
    # is made to fail it; bar_core and classify_homogeneous take the first
    # removal alone, which is that corrupted one
    import spinhom.barcores as barcores

    monkeypatch.setattr(barcores, "is_p_strict", lambda mu, p: mu == lam)
    bar_core.cache_clear()  # memoised: a stored lam would skip the removals
    for call in (bar_removals, bar_core, lambda lam, p: classify_homogeneous(lam)):
        with pytest.raises(RuntimeError, match="not 3-strict"):
            call(lam, 3)


def test_bar_core_guard_raises_runtime_error(monkeypatch):
    # a removal that drops four nodes instead of three breaks the size count
    import spinhom.barcores as barcores

    moves = {(5,): [barcores.BarRemoval("decrease", (1,))], (1,): []}
    bar_core.cache_clear()  # memoised: a stored (5,) would skip the patched removals
    monkeypatch.setattr(barcores, "_bar_moves", lambda lam, p: iter(moves[lam]))
    with pytest.raises(RuntimeError, match="does not account"):
        bar_core((5,), 3)


def test_bar_core_never_stores_a_failure():
    bar_core.cache_clear()
    for _ in range(2):
        with pytest.raises(PartitionError, match="is not 3-strict"):
            bar_core((2, 2), 3)
    assert bar_core.cache_info().currsize == 0
    assert bar_core((9, 5, 4, 2), 3) == bar_core.__wrapped__((9, 5, 4, 2), 3) == BarCoreResult((2,), 6)
    assert bar_core((9, 5, 4, 2), 3) is bar_core((9, 5, 4, 2), 3)


def test_bar_removals_examples():
    assert bar_removals((4, 1), 3) == []
    assert [(m.kind, m.result) for m in bar_removals((3,), 3)] == [("decrease", ())]
    assert [(m.kind, m.result) for m in bar_removals((2, 1), 3)] == [("delete_pair", ())]
    with pytest.raises(PartitionError):
        bar_removals((2, 2), 3)


def test_bar_removal_results_stay_p_strict():
    for p in (3, 5):
        for n in range(14):
            for lam in p_strict_partitions_of(n, p):
                for move in bar_removals(lam, p):
                    assert sum(move.result) == n - p


def test_bar_core_examples():
    assert bar_core((4, 1), 3) == BarCoreResult((4, 1), 0)
    assert bar_core((3, 3), 3) == BarCoreResult((), 2)
    result = bar_core((9, 5, 4, 2), 3)
    assert (20 - sum(result.core)) % 3 == 0
    assert result.weight == (20 - sum(result.core)) // 3


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((3, 5, 7)).flatmap(lambda p: st.tuples(st.just(p), p_strict(p))))
def test_bar_core_keeps_content_modulo_bars(case):
    # every p-bar holds the residues of the row (p,), and (Morris-Yaseen) the
    # content of a p-bar core pins it, so any removal order ends at this core
    p, lam = case
    result = bar_core(lam, p)
    assert is_bar_core(result.core, p)
    bars = Counter({k: result.weight * v for k, v in content((p,), p).items()})
    assert Counter(content(lam, p)) == Counter(content(result.core, p)) + bars, lam


def test_three_bar_cores_closed_form():
    # the 3-bar cores are the two staircase families
    for n in range(20):
        found = {lam for lam in strict_partitions_of(n) if is_bar_core(lam, 3)}
        want = set()
        for l in range(0, 8):
            for start in (3 * l - 1, 3 * l - 2):
                cand = tuple(range(start, 0, -3))
                if sum(cand) == n:
                    want.add(cand)
        assert found == want, n


def test_same_block():
    assert same_block((12, 7, 2), (8, 6, 4, 2, 1), 3)
    assert same_block((5, 2), (5, 2), 3)
    assert same_block((6,), (5, 1), 3) == (bar_core((6,), 3).core == bar_core((5, 1), 3).core)
    with pytest.raises(PartitionError):
        same_block((3,), (2,), 3)


def test_bar_additions_invert_removals():
    for p in (3, 5):
        for n in range(12):
            for lam in p_strict_partitions_of(n, p):
                ups = bar_additions(lam, p)
                for mu in ups:
                    assert any(m.result == lam for m in bar_removals(mu, p))
                # completeness: every mu of size n+p removing to lam is listed
                for mu in p_strict_partitions_of(n + p, p):
                    if any(m.result == lam for m in bar_removals(mu, p)):
                        assert mu in ups, (lam, mu)


def _bar_additions_through_removals(lam, p):
    """Every p-strict candidate whose full list of removals holds lam."""
    candidates = {tuple(sorted(lam[:r] + (lam[r] + p,) + lam[r + 1 :], reverse=True)) for r in range(len(lam))}
    candidates.add(tuple(sorted(lam + (p,), reverse=True)))
    candidates |= {tuple(sorted(lam + (a, p - a), reverse=True)) for a in range(p // 2 + 1, p)}
    return sorted(
        (mu for mu in candidates if is_p_strict(mu, p) and any(m.result == lam for m in bar_removals(mu, p))),
        reverse=True,
    )


def test_bar_additions_match_the_filter_through_bar_removals():
    for p in (3, 5):
        for n in range(12):
            for lam in p_strict_partitions_of(n, p):
                assert bar_additions(lam, p) == _bar_additions_through_removals(lam, p), (lam, p)


def test_is_bar_core_tests_p_strictness_once(monkeypatch):
    import spinhom.partitions as partitions

    calls = []

    def spy(lam, p):
        calls.append(lam)
        return is_p_strict(lam, p)

    monkeypatch.setattr(partitions, "is_p_strict", spy)
    monkeypatch.setattr(barcores, "is_p_strict", spy)
    assert is_bar_core((4, 1), 3)
    assert calls == [(4, 1)]
    calls.clear()
    assert not is_bar_core((2, 2), 3)
    assert calls == [(2, 2)]


def test_block_members_against_filter():
    for p in (3, 5):
        for n in range(13):
            everyone = list(p_strict_partitions_of(n, p))
            seen = []
            cores = {bar_core(lam, p).core for lam in everyone}
            for core in cores:
                weight = (n - sum(core)) // p
                members = block_members(core, weight, p, "pstrict")
                assert members == sorted(
                    (lam for lam in everyone if bar_core(lam, p).core == core), reverse=True
                )
                seen += members
            assert sorted(seen) == sorted(everyone)


def test_block_members_filters_and_errors():
    mem = block_members((4, 1), 2, 3, "pstrict")
    want = set()
    for da in range(3):
        for alpha in partitions_of(da):
            if len(alpha) > 2:
                continue
            for beta in partitions_of(2 - da):
                want.add(join(scaled_add((4, 1), 3, alpha), tuple(3 * b for b in beta)))
    assert set(mem) == want
    assert block_members((4, 1), 2, 3, "strict") == [m for m in mem if is_strict(m)]
    assert block_members((4, 1), 2, 3, "restricted") == [m for m in mem if is_restricted(m, 3)]
    assert block_members((4, 1), 0, 3) == [(4, 1)]
    with pytest.raises(PartitionError):
        block_members((3,), 1, 3)  # (3) is not a core
    with pytest.raises(PartitionError):
        block_members((4, 1), 1, 3, "weird")


def test_reg_preimages_examples():
    assert set(reg_preimages((6, 4, 1), 3)) == {(7, 4), (7, 3, 1), (6, 4, 1)}
    assert reg_preimages((2,), 3) == [(2,)]
    assert (12, 7, 2) in reg_preimages((8, 6, 4, 2, 1), 3)
    with pytest.raises(PartitionError):
        reg_preimages((3,), 3)  # not restricted


def test_reg_preimages_rejects_a_member_with_a_foreign_profile(monkeypatch):
    # the fibre of (6, 4, 1) at p = 3 is (7, 4), (7, 3, 1), (6, 4, 1); the
    # search budgets with the true profile, and the check sees (7, 3, 1)
    # carry one node more in ladder 40
    real = barcores.ladder_profile
    def foreign(lam, p):
        profile = real(lam, p)
        return {**profile, 40: 1} if lam == (7, 3, 1) else profile
    monkeypatch.setattr(barcores, "ladder_profile", foreign)
    with pytest.raises(RuntimeError, match="ladder profile"):
        reg_preimages((6, 4, 1), 3)


def test_reg_preimages_rejects_a_fibre_that_regularises_elsewhere(monkeypatch):
    monkeypatch.setattr(barcores, "regularize", lambda lam, p: lam)
    with pytest.raises(RuntimeError, match="regularises elsewhere"):
        reg_preimages((6, 4, 1), 3)


def _fibre_search_reference(mu, p):
    # the fibre search before its budget prune, kept as the reference:
    # it recurses into every row and tests the row's entry condition on entry
    target = ladder_profile(mu, p)
    if not target:
        return [()]
    max_l = max(target)
    remaining = [0] * (max_l + 1)
    for l, k in target.items():
        remaining[l] = k
    budget = sum(remaining)
    out = []

    def rec(r, prev, acc):
        nonlocal budget
        base = (p - 1) * (r - 1)
        if budget == 0:
            out.append(tuple(acc))
            return
        if base > max_l or remaining[base] != 1:
            return
        consumed = []
        acc.append(0)
        for c in range(1, prev):
            l = base + ((p - 1) * c) // p
            if l > max_l or remaining[l] == 0:
                break
            remaining[l] -= 1
            budget -= 1
            consumed.append(l)
            if not any(remaining[base : base + p - 1]):
                acc[-1] = c
                rec(r + 1, c, acc)
        acc.pop()
        for l in consumed:
            remaining[l] += 1
            budget += 1

    rec(1, sum(mu) + p, [])
    return sorted(out, reverse=True)


@pytest.mark.parametrize("p,max_n", [(3, 30), (5, 22), (7, 28)])
def test_reg_preimages_match_the_unpruned_search(p, max_n):
    # every fibre met by a strict partition of n <= max_n; the brute-force
    # oracle below stops at n = 15, where no fibre is large.  At p = 7 the
    # one-row lookahead reads a window of 6 ladders
    fibres = {regularize(lam, p) for n in range(max_n + 1) for lam in strict_partitions_of(n)}
    assert len(fibres) == {3: 500, 5: 285, 7: 952}[p]
    for mu in fibres:
        assert reg_preimages(mu, p) == _fibre_search_reference(mu, p), (p, mu)


def test_reg_preimages_match_the_unpruned_search_on_staircase_fibres():
    # the 12 fibres of the staircase family for l = 3..8, two per l, the
    # largest fibres the degree witnesses rank and where the ladder
    # capacity test cuts the most
    fibres = {
        regularize(families.staircase_adjusted(l, tup), 3)
        for l in range(3, 9)
        for tup in families.admissible_row_tuples(l)
    }
    sizes = []
    for mu in fibres:
        fibre = reg_preimages(mu, 3)
        assert fibre == _fibre_search_reference(mu, 3), mu
        sizes.append(len(fibre))
    assert sorted(sizes) == [13, 13, 35, 35, 96, 96, 267, 267, 750, 750, 2123, 2123]


@st.composite
def _strict_between(draw, lo, hi):
    """A strict partition of some n in lo..hi: distinct parts of at most 30
    under a first part that takes up the rest of n."""
    n = draw(st.integers(lo, hi))
    rest = sorted(draw(st.lists(st.integers(1, 30), unique=True, max_size=10)), reverse=True)
    while rest and sum(rest) + rest[0] >= n:
        rest.pop(0)
    return (n - sum(rest), *rest)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((3, 5, 7)), _strict_between(35, 60))
def test_reg_preimages_hold_every_strict_partition_past_the_exhaustive_range(p, lam):
    # the exhaustive comparisons stop at n = 30, 22 and 28
    mu = regularize(lam, p)
    fibre = reg_preimages(mu, p)
    assert lam in fibre
    assert fibre == _fibre_search_reference(mu, p)


@pytest.mark.parametrize("p,max_n", [(3, 15), (5, 12)])
def test_reg_preimages_match_brute_force(p, max_n):
    for n in range(max_n + 1):
        fibres = {}
        for lam in strict_partitions_of(n):
            fibres.setdefault(regularize(lam, p), set()).add(lam)
        for mu, fibre in fibres.items():
            assert set(reg_preimages(mu, p)) == fibre, (p, mu)


def test_reg_preimages_of_fewer_than_p_nodes_is_the_singleton_fibre():
    # every part is below p, so each row fills its own window of p - 1
    # ladders: the brute-force fibre is [mu], which the shortcut returns
    count = 0
    for p in (3, 5, 7, 11, 13, 17):
        for n in range(p):
            for mu in restricted_partitions_of(n, p):
                target = ladder_profile(mu, p)
                fibre = [lam for lam in strict_partitions_of(n) if ladder_profile(lam, p) == target]
                assert reg_preimages(mu, p) == fibre == [mu], (p, mu)
                count += 1
    assert count == 306


# the corruptions of the guard and confluence tests, for a -O interpreter
# that need not load pytest and hypothesis
_CORRUPTED_UNDER_O = """
from spinhom import barcores, classify, verify
real_is_p_strict, real_removals, real_core = barcores.is_p_strict, barcores.bar_removals, barcores.bar_core
barcores.is_p_strict = lambda mu, p: mu == (4,)
for call in (barcores.bar_core, lambda lam, p: classify.classify_homogeneous(lam)):
    try:
        print(call((4,), 3))
    except RuntimeError as exc:
        print(type(exc).__name__, exc)
barcores.is_p_strict = real_is_p_strict
barcores.bar_core = lambda lam, p: barcores.BarCoreResult(real_removals(lam, p)[0].result, 1)
print(list(verify._blocks_confluence_rows((9,), 3)))
barcores.bar_core = real_core
extra = [barcores.BarRemoval("decrease", (2,))]
barcores.bar_removals = lambda lam, p: real_removals(lam, p) + (extra if lam == (7,) else [])
print(list(verify._blocks_confluence_rows((10,), 3)))
"""


def test_bar_move_guards_fire_under_python_o():
    # the guards are raises, not asserts, so -O keeps them
    proc = run_under_python_o(_CORRUPTED_UNDER_O)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["RuntimeError lowering part 4 of (4,) by 3 gives (1,), not 3-strict"] * 2 + [
        "[('9', 'core_confluence', '', '[()]', '[(6,)]', 'FAIL')]",
        "[('10', 'core_confluence', '', '[(1,), (2,)]', '[(1,)]', 'FAIL')]",
    ]


# the corruptions of the two reg_preimages guard tests above, for a -O
# interpreter: a foreign profile on (7, 3, 1), then an identity regularize
_FIBRE_CORRUPTED_UNDER_O = """
from spinhom import barcores
def show():
    try:
        print(barcores.reg_preimages((6, 4, 1), 3))
    except RuntimeError as exc:
        print(type(exc).__name__, exc)
real_profile = barcores.ladder_profile
barcores.ladder_profile = lambda lam, p: {**real_profile(lam, p), 40: 1} if lam == (7, 3, 1) else real_profile(lam, p)
show()
barcores.ladder_profile = real_profile
barcores.regularize = lambda lam, p: lam
show()
"""


def test_reg_preimages_guards_fire_under_python_o():
    proc = run_under_python_o(_FIBRE_CORRUPTED_UNDER_O)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "RuntimeError fibre search for (6, 4, 1) at p=3 returned (7, 3, 1), whose ladder profile is not (6, 4, 1)'s",
        "RuntimeError fibre search for (6, 4, 1) at p=3 returned (7, 4), which regularises elsewhere",
    ]
