from fractions import Fraction

import pytest

from spinhom.branching import extremal
from spinhom.dimensions import ddeg_ratio
from spinhom.families import (
    FAMILIES,
    admissible_row_tuples,
    family,
    run_down,
    sigma,
    staircase_adjusted,
    tau,
)
from spinhom.ladders import regularize
from spinhom.partitions import PartitionError, is_strict


def test_run_down():
    assert run_down(10, 4) == (10, 7, 4)
    assert run_down(4, 7) == ()
    assert run_down(5, 5) == (5,)
    with pytest.raises(PartitionError):
        run_down(9, 4)



def test_sigma_and_tau_need_a_positive_l():
    for fn in (sigma, tau):
        with pytest.raises(PartitionError, match="^l must be positive$"):
            fn(0)

def test_sigma_tau_shapes():
    assert sigma(1) == (4, 3, 1)
    assert sigma(2) == (6, 4, 3, 1)
    assert sigma(3) == (7, 6, 4, 3, 1)
    assert sigma(4) == (10, 7, 6, 4, 3, 1)
    assert tau(1) == (5, 3, 2)
    assert tau(2) == (6, 5, 3, 2)
    assert tau(3) == (8, 6, 5, 3, 2)
    for l in range(1, 10):
        assert len(sigma(l)) == len(tau(l)) == l + 2
        assert is_strict(sigma(l)) and is_strict(tau(l))


def test_sigma_tau_chain():
    for l in range(1, 9):
        assert extremal(sigma(l), 1, 3, "up").result == tau(l), l
    for l in range(2, 9):
        assert extremal(tau(l), 0, 3, "up").result == sigma(l + 1), l


def test_chain_start_has_no_zero_step_preimage():
    # no partition maps onto sigma(2) = (6,4,3,1) by adding all addable
    # 0-nodes: the first row of any such image is 1 mod 3, but 6 is not
    assert sigma(2)[0] % 3 != 1
    got = extremal(tau(1), 0, 3, "up").result
    assert got != sigma(2)
    assert got[0] % 3 == 1


def test_family_registry():
    assert set(FAMILIES) == {f"deglem{k}" for k in (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12)}
    with pytest.raises(PartitionError):
        family("deglem3")


def test_family_shapes_sample():
    fam = family("deglem2")
    assert fam.lam(3) == (9, 6, 3)
    assert fam.mu(3) == (8, 7, 3)
    fam = family("deglem12")
    assert fam.lam(1) == (3, 1)
    assert fam.mu(1) == (4,)
    assert fam.ratio(1) == 1
    fam = family("deglem11")
    assert fam.mu(3) == (13, 7, 4)
    fam = family("deglem1")
    assert fam.lam(3) == (10, 6, 4, 3, 1)


def test_family_sizes_and_regs():
    for name, fam in FAMILIES.items():
        for l in list(range(fam.greater_from, 13)) + list(fam.extra_greater):
            lam, mu = fam.lam(l), fam.mu(l)
            assert is_strict(lam) and is_strict(mu), (name, l)
            assert sum(lam) == sum(mu), (name, l)
            assert regularize(lam, 3) == regularize(mu, 3), (name, l)


def test_equal_at_is_never_a_greater_index():
    # the degrees suite lists equal_at, then the greater indices, with no filter between them
    for name, fam in FAMILIES.items():
        for l in fam.equal_at:
            assert l < fam.greater_from and l not in fam.extra_greater, (name, l)


def test_family_formula_spot():
    fam = family("deglem2")
    got = ddeg_ratio(fam.lam(4), fam.mu(4), 3) / ddeg_ratio(fam.lam(3), fam.mu(3), 3)
    assert got == fam.ratio(3) == Fraction(3 * 3 * 13 * 17, 5 * 5 * 7 * 11)


def test_admissible_tuples():
    tuples_3 = set(admissible_row_tuples(3))
    assert tuples_3 == {(1, 1, 0, 2), (2, 1, 0, 2), (0, 2, 0, 2)}
    for l in range(3, 7):
        for tup in admissible_row_tuples(l):
            assert len(tup) == l + 1
            assert all(a in (0, 1, 2) for a in tup)
            assert any(tup[r] != 1 for r in range(3, l + 1))
            for r in range(1, l + 1):
                if tup[r] == 2:
                    assert tup[r - 1] == 0
            for r in range(l + 1):
                if tup[r] == 0:
                    assert r < l and tup[r + 1] == 2


def test_staircase_adjusted():
    assert staircase_adjusted(3, (1, 1, 0, 2)) == (9, 6, 2, 1)
    assert staircase_adjusted(3, (0, 2, 0, 2)) == (8, 7, 2, 1)
    with pytest.raises(PartitionError):
        staircase_adjusted(3, (1, 1, 0))
