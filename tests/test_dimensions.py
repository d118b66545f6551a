from fractions import Fraction
from math import factorial

import pytest

from spinhom.barcores import reg_preimages
from spinhom.dimensions import (
    DimensionReport,
    RegnMultiplicities,
    _ranked_fibre,
    ddeg,
    ddeg_ratio,
    degree_witness,
    regn_multiplicity,
    spin_dim,
)
from spinhom.ladders import regularize
from spinhom.partitions import PartitionError, is_odd_partition, strict_partitions_of


def test_spin_dim_frozen_values():
    assert spin_dim((2, 1)) == DimensionReport(2, 1, 1)
    assert spin_dim((3, 2, 1)).dim == 8
    assert spin_dim((5, 1)).dim == 16
    assert spin_dim((4, 2)).dim == 20
    for n in (1, 2, 5, 8, 11):
        assert spin_dim((n,)).dim == 2 ** ((n - 1 + 1) // 2)
    with pytest.raises(PartitionError):
        spin_dim((3, 3))


def test_sum_of_squares_identity():
    for n in range(1, 11):
        total = 0
        for lam in strict_partitions_of(n):
            d = spin_dim(lam).dim
            if is_odd_partition(lam):
                assert d * d % 2 == 0
                total += d * d // 2
            else:
                total += d * d
        assert total == factorial(n), n


def test_regn_multiplicity():
    assert regn_multiplicity((2, 1), 3) == RegnMultiplicities(1, 1, 1, 1)
    assert regn_multiplicity((3,), 3) == RegnMultiplicities(1, 2, 0, 1)
    for n in range(1, 16):
        for lam in strict_partitions_of(n):
            for p in (3, 5):
                m = regn_multiplicity(lam, p)
                lp = sum(1 for a in lam if a % p == 0)
                assert m.s_to_d * m.p_to_s == 1 << lp


def test_ddeg():
    assert ddeg((4, 2), 3) == 20
    assert ddeg((3,), 3) == 2
    for n in range(1, 15):
        for lam in strict_partitions_of(n):
            for p in (3, 5):
                assert ddeg(lam, p) * regn_multiplicity(lam, p).s_to_d == spin_dim(lam).dim


def test_ddeg_ratio():
    assert ddeg_ratio((6, 4, 1), (7, 4), 3) == Fraction(11, 10)
    assert ddeg_ratio((5, 2), (5, 2), 3) == 1


def test_degree_witness():
    w = degree_witness((9, 6, 3), 3)
    assert w is not None
    assert ddeg(w, 3) < ddeg((9, 6, 3), 3)
    assert regularize(w, 3) == regularize((9, 6, 3), 3)
    assert ddeg((8, 7, 3), 3) < ddeg((9, 6, 3), 3)

    # restricted partition alone in its fibre has no witness
    assert degree_witness((2, 1), 3) is None
    with pytest.raises(PartitionError):
        degree_witness((3, 3), 3)  # 3-strict, not strict

    lam = (10, 6, 4, 3, 1)
    w = degree_witness(lam, 3)
    assert w is not None
    assert regularize((13, 7, 4), 3) == regularize(lam, 3)
    assert ddeg((13, 7, 4), 3) < ddeg(lam, 3)


def test_degree_witness_canonical_choice():
    """The least smaller ddeg in the fibre, the greatest partition among
    ties, whichever member of a fibre is asked first (n <= 20, p = 3, 5)."""
    for p in (3, 5):
        fibres = {regularize(lam, p) for n in range(21) for lam in strict_partitions_of(n)}
        for mu in fibres:
            fibre = reg_preimages(mu, p)
            score = {nu: ddeg(nu, p) for nu in fibre}
            want = {}
            for lam in fibre:
                smaller = [nu for nu in fibre if nu != lam and score[nu] < score[lam]]
                least = min((score[nu] for nu in smaller), default=None)
                want[lam] = max((nu for nu in smaller if score[nu] == least), default=None)
            for order in (fibre, fibre[::-1]):
                _ranked_fibre.cache_clear()
                assert [degree_witness(lam, p) for lam in order] == [want[lam] for lam in order], (mu, p)
