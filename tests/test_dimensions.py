from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from spinhom import dimensions
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
from spinhom.tableaux import count_sst


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
    assert regn_multiplicity((2, 1), 3) == RegnMultiplicities(1, 1)
    assert regn_multiplicity((3,), 3) == RegnMultiplicities(1, 2)
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


def test_ddeg_checks_the_shape_and_counts_l_p_once(monkeypatch):
    counted = {"require_shape": 0, "l_p": 0}

    def spy(name):
        real = getattr(dimensions, name)

        def wrapped(*args):
            counted[name] += 1
            return real(*args)

        return wrapped

    for name in counted:
        monkeypatch.setattr(dimensions, name, spy(name))
    assert ddeg((6, 4, 1), 3) == 3168
    assert counted == {"require_shape": 1, "l_p": 1}
    with pytest.raises(PartitionError, match=r"^\(3, 3\) is not strict$"):
        ddeg((3, 3), 3)


def test_ddeg_and_regn_multiplicity_raise_one_exponent_error(monkeypatch):
    # a flipped p-parity makes (l_p + x - y)/2 a half-integer
    real = dimensions.is_p_odd
    monkeypatch.setattr(dimensions, "is_p_odd", lambda lam, p: not real(lam, p))
    message = r"^regularisation exponents -1/2, 1/2 of \(4, 2\) at p=3$"
    with pytest.raises(RuntimeError, match=message):
        ddeg((4, 2), 3)
    with pytest.raises(RuntimeError, match=message):
        regn_multiplicity((4, 2), 3)


def test_ddeg_refuses_a_multiplicity_that_misses_the_dimension(monkeypatch):
    # swapping the two parities keeps the exponents whole when l_p is odd,
    # but flips x - y, so 2^ddeg-exponent * s_to_d is no longer dim
    x, y = dimensions.is_odd_partition, dimensions.is_p_odd
    monkeypatch.setattr(dimensions, "is_odd_partition", lambda lam: y(lam, 3))
    monkeypatch.setattr(dimensions, "is_p_odd", lambda lam, p: x(lam))
    assert regn_multiplicity((3,), 3) == RegnMultiplicities(2, 1)
    with pytest.raises(RuntimeError, match=r"^ddeg 2 times the multiplicity is not dim 2 on \(3,\) at p=3$"):
        ddeg((3,), 3)


def test_ddeg_and_spin_dim_refuse_a_bar_length_remainder(monkeypatch):
    real = dimensions.perm
    monkeypatch.setattr(dimensions, "perm", lambda n, k: real(n, k) + 1)
    message = r"^bar-length product 4/3 is not a positive integer on \(2, 1\)$"
    with pytest.raises(RuntimeError, match=message):
        ddeg((2, 1), 3)
    with pytest.raises(RuntimeError, match=message):
        spin_dim((2, 1))


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 40), unique=True, max_size=8))
def test_g_counts_standard_shifted_tableaux(parts):
    parts.sort()
    while sum(parts) > 40:
        parts.pop()
    lam = tuple(reversed(parts))
    assert spin_dim(lam).g == count_sst(lam)


def test_degree_witness_reads_its_own_ddeg_from_the_ranked_fibre(monkeypatch):
    calls = []

    def spy(lam, p):
        calls.append(lam)
        return ddeg(lam, p)

    monkeypatch.setattr(dimensions, "ddeg", spy)
    _ranked_fibre.cache_clear()
    assert degree_witness((9, 6, 3), 3) == (8, 7, 3)
    assert sorted(calls) == sorted(reg_preimages(regularize((9, 6, 3), 3), 3)) and len(calls) == 13
    calls.clear()
    assert degree_witness((8, 7, 3), 3) is None  # the same fibre: no ddeg at all
    assert calls == []


def test_ranked_fibre_member_map_is_ddeg():
    fibres = {regularize(lam, 3) for n in range(23) for lam in strict_partitions_of(n)}
    for mu in fibres:
        ranked = _ranked_fibre(mu, 3)
        assert ranked == {nu: ddeg(nu, 3) for nu in reg_preimages(mu, 3)}, mu
        assert list(ranked.values()) == sorted(ranked.values())


def test_degree_witness_refuses_a_partition_missing_from_its_fibre(monkeypatch):
    monkeypatch.setattr(dimensions, "reg_preimages", lambda mu, p: [(8, 7, 3)])
    _ranked_fibre.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=r"^\(9, 6, 3\) is missing from its regularisation fibre at p=3$"):
            degree_witness((9, 6, 3), 3)
    finally:
        _ranked_fibre.cache_clear()


def test_a_large_p_witness_costs_no_more_memory_than_the_partition():
    import tracemalloc

    p = 1000003
    _ranked_fibre.cache_clear()
    regularize.cache_clear()
    tracemalloc.start()
    try:
        got = degree_witness((5, 4), p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the fibre of a partition of fewer than p nodes is found without search
    assert peak < 1 << 20
    assert got is None
