import pytest

from spinhom.ladders import content
from spinhom.partitions import PartitionError, scaled_add
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
    # memoised, so check twice: a failure must not be stored as a count
    for _ in range(2):
        for lam in ((3, 3), (1, 1), (4, 2, 2)):
            with pytest.raises(PartitionError, match=r"is not strict$"):
                count_sst(lam)


def test_enumeration_deterministic():
    first = list(enumerate_sst((5, 3, 1)))
    second = list(enumerate_sst((5, 3, 1)))
    assert first == second


def test_residue_words():
    (tab,) = enumerate_sst((2, 1))
    assert tab.residue_word(3) == (0, 1, 0)
    for lam in ((4, 2, 1), (5, 3)):
        want = sorted(k for k, v in content(lam, 3).items() for _ in range(v))
        for tab in enumerate_sst(lam):
            assert sorted(tab.residue_word(3)) == want


def test_patterned_tableau_families():
    for l in (3, 4):
        nu = tuple(range(3 * l - 2, 0, -3))
        for d in range(1, min(l, 3) + 1):
            lam = scaled_add(nu, 3, (1,) * d)
            tab = find_patterned_tableau(lam, nu, 3)
            assert tab is not None, (l, d)
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
