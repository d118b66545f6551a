from functools import lru_cache

import pytest

from spinhom import ladders, tableaux, verify
from spinhom.dimensions import spin_dim
from spinhom.ladders import content
from spinhom.partitions import PartitionError, move_nodes, scaled_add, strict_partitions_of
from spinhom.tableaux import (
    ShiftedTableau,
    count_sst,
    enumerate_sst,
    find_patterned_tableau,
)


def test_single_row_single_tableau():
    tabs = list(enumerate_sst((5,)))
    assert tabs == [ShiftedTableau(((1, 2, 3, 4, 5),))]


def test_small_counts():
    assert count_sst((2, 1)) == 1
    assert count_sst((3, 2, 1)) == 2
    assert len(list(enumerate_sst((3, 2, 1)))) == 2


def test_count_sst_rejects_non_strict_shapes():
    # check twice: a failure must not leave a count behind
    for _ in range(2):
        for lam in ((3, 3), (1, 1), (4, 2, 2)):
            with pytest.raises(PartitionError, match=r"is not strict$"):
                count_sst(lam)


def test_enumeration_deterministic():
    first = list(enumerate_sst((5, 3, 1)))
    second = list(enumerate_sst((5, 3, 1)))
    assert first == second


def _enumerate_by_copies(lam):
    # reference: recurse on the corner holding n, copying every row at every level
    n = sum(lam)
    if n == 0:
        yield ShiftedTableau(())
        return
    corners = [
        r
        for r in range(1, len(lam) + 1)
        if lam[r - 1] - 1 > (lam[r] if r < len(lam) else 0) or (lam[r - 1] == 1 and r == len(lam))
    ]
    for r in corners:
        smaller = tuple(a - (k == r) for k, a in enumerate(lam, start=1) if a - (k == r) > 0)
        for sub in _enumerate_by_copies(smaller):
            rows = [list(row) for row in sub.rows]
            while len(rows) < r:
                rows.append([])
            rows[r - 1].append(n)
            yield ShiftedTableau(tuple(tuple(row) for row in rows))


def test_enumeration_matches_the_copying_recursion_in_order():
    for n in range(13):
        for lam in strict_partitions_of(n):
            assert list(enumerate_sst(lam)) == list(_enumerate_by_copies(lam)), lam


def _patterned_family():
    for l in (3, 4):
        nu = tuple(range(3 * l - 2, 0, -3))
        for d in range(1, min(l, 3) + 1):
            yield scaled_add(nu, 3, (1,) * d), nu


def test_patterned_tableaux_unchanged_by_the_in_place_enumeration(monkeypatch):
    found = [find_patterned_tableau(lam, nu, 3) for lam, nu in _patterned_family()]
    monkeypatch.setattr(tableaux, "enumerate_sst", _enumerate_by_copies)
    assert found == [find_patterned_tableau(lam, nu, 3) for lam, nu in _patterned_family()]
    assert None not in found


def test_patterned_search_draws_one_prefix_filling(monkeypatch):
    # the search reads only how far each row is filled, so one filling of
    # the prefix decides it; (9, 6, 3) has 136136 of them
    drawn = 0
    real = tableaux.enumerate_sst

    def spy(lam):
        nonlocal drawn
        for tab in real(lam):
            drawn += 1
            yield tab

    monkeypatch.setattr(tableaux, "enumerate_sst", spy)
    assert find_patterned_tableau((12, 9, 6), (9, 6, 3), 7) is None
    assert drawn == 1


def test_residue_words():
    (tab,) = enumerate_sst((2, 1))
    assert tab.residue_word(3) == (0, 1, 0)
    for lam in ((4, 2, 1), (5, 3)):
        want = sorted(k for k, v in content(lam, 3).items() for _ in range(v))
        for tab in enumerate_sst(lam):
            assert sorted(tab.residue_word(3)) == want


def test_patterned_tableau_families():
    for lam, nu in _patterned_family():
        d = (sum(lam) - sum(nu)) // 3
        tab = find_patterned_tableau(lam, nu, 3)
        assert tab is not None, lam
        word = tab.residue_word(3)
        base = sum(nu)
        for j in range(d):
            assert sorted(word[base + 3 * j : base + 3 * j + 3]) == [0, 0, 1]
        # the prefix entries really fill the core shape
        assert sorted(v for row, a in zip(tab.rows, nu) for v in row[:a]) == list(range(1, base + 1))


def test_patterned_tableau_full_prefix():
    tab = find_patterned_tableau((4, 3, 1), (4, 3, 1), 3)
    assert tab is not None and tab.shape == (4, 3, 1)


def test_patterned_tableau_guard_raises_runtime_error(monkeypatch):
    # the search finds a filling, which is then made to fail the standardness check
    monkeypatch.setattr(ShiftedTableau, "is_standard", lambda self: False)
    with pytest.raises(RuntimeError, match="not a standard shifted tableau"):
        find_patterned_tableau((4, 3, 1), (4, 3, 1), 3)


def test_patterned_tableau_malformed_region():
    with pytest.raises(PartitionError):
        find_patterned_tableau((5, 3, 1), (4, 3, 1), 3)
    with pytest.raises(PartitionError):
        find_patterned_tableau((4, 3, 1), (5,), 3)


def _is_standard_by_entries(rows):
    # reference: the entry-by-entry check the neighbour comparison replaced
    shape = tuple(len(row) for row in rows)
    if any(shape[k] <= shape[k + 1] for k in range(len(shape) - 1)):
        return False
    if sorted(v for row in rows for v in row) != list(range(1, sum(shape) + 1)):
        return False
    for r in range(1, len(shape) + 1):
        for c in range(1, shape[r - 1] + 1):
            if c < shape[r - 1] and not rows[r - 1][c - 1] < rows[r - 1][c]:
                return False
            if r < len(shape) and c <= shape[r] and c + 1 <= shape[r - 1]:
                if not rows[r - 1][c] < rows[r][c - 1]:
                    return False
    return True


def _swapped(rows, a, b):
    swap = {a: b, b: a}
    return tuple(tuple(swap.get(v, v) for v in row) for row in rows)


def test_is_standard_matches_the_entry_by_entry_check():
    seen = {True: 0, False: 0}
    for n in range(10):
        for lam in strict_partitions_of(n):
            for tab in enumerate_sst(lam):
                variants = [tab.rows] + [_swapped(tab.rows, k, k + 1) for k in range(1, n)]
                variants += [_swapped(tab.rows, 1, n), tab.rows + ((),), tab.rows[:-1]]
                for rows in variants:
                    want = _is_standard_by_entries(rows)
                    assert ShiftedTableau(rows).is_standard() == want, rows
                    seen[want] += 1
    # non-strict shapes, repeated and missing entries
    for rows in (((1, 2), (3, 4)), ((1, 2, 3), (4, 5, 6)), ((1, 1, 2),), ((1, 2, 4),), ((), ()), ((2, 3), (1,))):
        assert ShiftedTableau(rows).is_standard() == _is_standard_by_entries(rows) is False, rows
    assert seen[True] and seen[False]


def test_tableau_rows_read_the_content_once_per_shape(monkeypatch):
    calls = []
    real = ladders.content

    def spy(lam, p):
        calls.append(lam)
        return real(lam, p)

    monkeypatch.setattr(ladders, "content", spy)
    rows = list(verify._tableau_rows((5, 3, 1), 3))
    assert rows and all(row[-1] == "ok" for row in rows)
    assert calls == [(5, 3, 1)]


@lru_cache(maxsize=None)
def _count_by_recursion(lam):
    """The former recursive ``count_sst``: the reference for the level-by-level count."""
    if sum(lam) == 0:
        return 1
    return sum(_count_by_recursion(move_nodes(lam, ((r, lam[r - 1]),), -1)) for r in tableaux._strict_corners(lam))


def test_count_sst_matches_the_recursion():
    for n in range(17):
        for lam in strict_partitions_of(n):
            assert count_sst(lam) == _count_by_recursion(lam), lam


def test_count_sst_of_a_large_shape_needs_no_stack():
    assert count_sst((1200,)) == 1
    assert count_sst((40, 30)) == spin_dim((40, 30)).g
