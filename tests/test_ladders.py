from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import p_strict
from spinhom import ladders
from spinhom.branching import boundary_nodes
from spinhom.ladders import (
    check_ladder_identities,
    content,
    is_p_odd,
    ladder_index,
    ladder_positions,
    ladder_profile,
    max_relevant_ladder,
    regularize,
    residue,
)
from spinhom.partitions import (
    PartitionError,
    is_restricted,
    p_strict_partitions_of,
    part,
)


def test_residue_diagram_p5():
    rows = ["".join(str(residue(r, c, 5)) for c in range(1, a + 1)) for r, a in enumerate((8, 7, 3), 1)]
    assert rows == ["01210012", "0121001", "012"]


def test_residue_examples():
    assert residue(1, 4, 5) == 1
    assert residue(2, 1, 3) == 0
    assert residue(1, 3, 3) == 0


def test_ladder_diagram_p3():
    assert "".join(str(ladder_index(1, c, 3)) for c in range(1, 11)) == "0122344566"
    assert "".join(str(ladder_index(2, c, 3)) for c in range(1, 8)) == "2344566"
    assert ladder_index(1, 1, 3) == 0
    assert ladder_index(2, 1, 3) == 2
    assert ladder_index(1, 5, 3) == 3


def test_ladders_single_residue():
    for p in (3, 5, 7):
        for l in range(0, 80):
            assert len({residue(r, c, p) for r, c in ladder_positions(l, p)}) == 1, (p, l)


def test_ladder_positions_ascending():
    for p in (3, 5):
        for l in range(0, 25):
            pos = ladder_positions(l, p)
            cols = [c for _, c in pos]
            assert cols == sorted(cols)
            assert all(ladder_index(r, c, p) == l for r, c in pos)
            # memoised: one shared tuple, equal to a fresh computation
            assert isinstance(pos, tuple) and ladder_positions(l, p) is pos
            assert pos == ladder_positions.__wrapped__(l, p)


def test_regularize_never_stores_a_failure():
    regularize.cache_clear()
    for _ in range(2):
        with pytest.raises(PartitionError):
            regularize((2, 2), 3)
    assert regularize.cache_info().currsize == 0
    assert regularize((3, 3), 3) == regularize.__wrapped__((3, 3), 3) == regularize((3, 3), 3)
    assert regularize.cache_info().hits == 1


def test_content():
    assert content((2, 1), 3) == {0: 2, 1: 1}
    assert content((), 3) == {}
    c5 = content((8, 7, 3), 5)
    assert sum(v for k, v in c5.items() if k != 0) == 11
    assert is_p_odd((8, 7, 3), 5)
    with pytest.raises(PartitionError):
        content((2, 2), 3)


def _nodes(lam):
    for r, a in enumerate(lam, 1):
        for c in range(1, a + 1):
            yield r, c


@pytest.mark.parametrize("p,max_n", [(3, 24), (5, 18), (7, 14)])
def test_row_kernels_match_node_by_node_counts(p, max_n):
    # reference counts that visit the nodes one at a time
    for n in range(max_n + 1):
        for lam in p_strict_partitions_of(n, p):
            profile = ladder_profile(lam, p)
            assert profile == Counter(ladder_index(r, c, p) for r, c in _nodes(lam)), lam
            assert list(profile) == sorted(profile), lam
            assert content(lam, p) == Counter(residue(r, c, p) for r, c in _nodes(lam)), lam
            odd = sum(1 for r, c in _nodes(lam) if residue(r, c, p) != 0) % 2 == 1
            assert is_p_odd(lam, p) == odd, lam


def test_regularize_fill_guard_fires_on_a_hole(monkeypatch):
    # ladder 1 at p = 3 is the single position (1, 2); moving it to (1, 3)
    # leaves row 1 with two nodes in columns 1 and 3
    real = ladders.ladder_positions
    monkeypatch.setattr(ladders, "ladder_positions", lambda l, p: ((1, 3),) if (l, p) == (1, 3) else real(l, p))
    regularize.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="does not fill initial row segments"):
            regularize((2,), 3)
    finally:
        regularize.cache_clear()


def _regularize_by_node_moves(lam, p):
    # independent oracle: collect the node multiset per ladder, then fill
    # each ladder's leftmost free slots one node at a time
    profile = Counter()
    for r, a in enumerate(lam, 1):
        for c in range(1, a + 1):
            profile[ladder_index(r, c, p)] += 1
    filled = set()
    for l in sorted(profile):
        placed = 0
        for pos in ladder_positions(l, p):
            if placed == profile[l]:
                break
            filled.add(pos)
            placed += 1
        assert placed == profile[l]
    rows = Counter(r for r, _ in filled)
    out = tuple(rows[r] for r in range(1, max(rows, default=0) + 1))
    assert all((r, c) in filled for r, a in enumerate(out, 1) for c in range(1, a + 1))
    return out


def test_regularize_examples():
    assert regularize((12, 7, 2), 3) == (8, 6, 4, 2, 1)
    assert regularize((3,), 3) == (2, 1)
    assert regularize((9, 7), 3) == _regularize_by_node_moves((9, 7), 3)


@pytest.mark.parametrize("p,max_n", [(3, 14), (5, 12)])
def test_regularize_properties(p, max_n):
    for n in range(max_n + 1):
        for lam in p_strict_partitions_of(n, p):
            assert regularize(lam, p) == _regularize_by_node_moves(lam, p), lam


def _strict_nodes_in_ladder(lam, p, l):
    """Strictly addable and removable nodes of lam in ladder l, over all residues."""
    counts = [0, 0]
    for i in range((p - 1) // 2 + 1):
        for k, found in enumerate(boundary_nodes(lam, i, p, "strict")):
            counts[k] += sum(1 for r, c in found if ladder_index(r, c, p) == l)
    return tuple(counts)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((3, 5)).flatmap(lambda p: st.tuples(st.just(p), p_strict(p))))
def test_regularize_keeps_profile_and_is_idempotent(case):
    p, lam = case
    reg = regularize(lam, p)
    assert ladder_profile(reg, p) == ladder_profile(lam, p)
    assert is_restricted(reg, p) and regularize(reg, p) == reg


def test_ladder_stats_examples():
    assert _strict_nodes_in_ladder((5, 4, 3, 2, 1), 3, 8)[1] == 1  # the removable node in the bottom row
    assert _strict_nodes_in_ladder((), 3, 5) == (0, 0)
    assert sum(_strict_nodes_in_ladder((9, 5, 4, 2), 3, l)[0] for l in range(0, 30, 2)) == 5
    assert _strict_nodes_in_ladder((5, 4, 3), 3, -2) == (0, 0)


def test_ladder_stats_str_zz():
    strs = ladders._row_end_counts((4, 3, 2), 3)[0]
    assert strs[4] == 1
    zzs = ladders._row_end_counts((5, 4, 3), 5)[1]
    assert zzs[4] == 1 and zzs[3] == 0
    assert ladders._row_end_counts((5, 4, 3), 3)[0][-2] == zzs[-2] == 0


def test_regularisation_zz_counts_are_built_only_where_zzreglem_runs(monkeypatch):
    # zzreglem, the one reader of the regularisation's zz counts, needs p >= 5
    calls = []
    real = ladders._row_end_counts

    def spy(lam, p):
        calls.append(lam)
        return real(lam, p)

    monkeypatch.setattr(ladders, "_row_end_counts", spy)
    lam = (6, 6, 2)
    check_ladder_identities(lam, 3)
    assert calls == [lam]
    calls.clear()
    lam = (10, 3)
    check_ladder_identities(lam, 5)
    assert calls == [lam, regularize(lam, 5)] and calls[1] != lam


def _str_count(lam, p, l):
    # reference: the per-ladder definition, rescanning every row for ladder l
    if l < 0:
        return 0
    total = 0
    for r in range(2, len(lam) + 1):
        c = lam[r - 1]
        if c % p != 0:
            continue
        if part(lam, r - 1) == c + 1 and part(lam, r + 1) == c - 1:
            if ladder_index(r, c, p) == l:
                total += 1
    return total


def _zz_count(lam, p, l):
    # reference: the per-ladder definition, rescanning every row for ladder l
    if l < 0:
        return 0
    total = 0
    for r in range(1, len(lam) + 1):
        c = lam[r - 1]
        if part(lam, r + 1) == c - 1 and ladder_index(r, c, p) == l:
            total += 1
    return total


# the ranges reach the smallest str node, rows (p+1, p, p-1), at p = 5 and 7
@pytest.mark.parametrize("p,max_n", [(3, 18), (5, 18), (7, 24)])
def test_row_end_counts_match_the_per_ladder_definitions(p, max_n):
    for n in range(max_n + 1):
        for lam in p_strict_partitions_of(n, p):
            strs, zzs = ladders._row_end_counts(lam, p)
            for l in range(-p, max_relevant_ladder(lam, p) + 1):
                assert (strs[l], zzs[l]) == (_str_count(lam, p, l), _zz_count(lam, p, l)), (lam, l)


def test_identities_spot():
    for lam in [(), (1,), (3, 2, 1), (5, 4, 3, 2, 1), (9, 5, 4, 2), (12, 7, 2), (3, 3, 1), (6, 3, 3)]:
        rows = check_ladder_identities(lam, 3)
        assert rows and all(row.ok for row in rows), lam
    for lam in [(), (8, 7, 3), (5, 5, 2), (10, 5, 4, 2)]:
        rows = check_ladder_identities(lam, 5)
        assert rows and all(row.ok for row in rows), lam


def test_identities_include_delta_correction():
    rows = check_ladder_identities((3, 2, 1), 3)
    at_zero = [row for row in rows if row.l == 0 and row.identity == "lads"]
    assert at_zero and at_zero[0].ok


def test_identities_exhaustive_small():
    # the statement-level formulas hold at a prime the ladders suite never runs at
    for n in range(11):
        for lam in p_strict_partitions_of(n, 7):
            assert all(row.ok for row in check_ladder_identities(lam, 7)), lam
