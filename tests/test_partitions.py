import pytest
from hypothesis import given, strategies as st

from spinhom import barcores, branching, classify, dimensions, ladders, tableaux, verify
from spinhom.partitions import (
    SHAPES,
    PartitionError,
    check_odd_prime,
    conjugate,
    format_partition,
    has_shape,
    is_p_strict,
    is_odd_partition,
    is_restricted,
    is_strict,
    join,
    l_p,
    move_nodes,
    parse_partition,
    partitions_of,
    p_strict_partitions_of,
    require_shape,
    restricted_partitions_of,
    scaled_add,
    strict_partitions_of,
)

partitions = st.lists(st.integers(1, 12), max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_parse_examples():
    assert parse_partition("18,17..5,1") == (18, 17, 14, 11, 8, 5, 1)
    assert parse_partition("") == ()
    assert parse_partition("∅") == ()
    assert parse_partition("5,3,4") == (5, 4, 3)


@pytest.mark.parametrize("bad", ["1,x", "0", "3,-1", "7..6", "5,,1", "2..5", "5..2..1", "a..2"])
def test_parse_rejects(bad):
    # "0" is the empty partition, everything else malformed
    if bad == "0":
        assert parse_partition(bad) == ()
    else:
        with pytest.raises(PartitionError):
            parse_partition(bad)


@given(partitions)
def test_format_parse_round_trip(lam):
    assert parse_partition(format_partition(lam)) == lam


def test_shape_flags():
    assert all(has_shape((5, 4, 3, 2, 1), shape, 3) for shape in SHAPES)
    assert [has_shape((3, 3), shape, 3) for shape in SHAPES] == [False, True, False]
    assert not any(has_shape((2, 2), shape, 3) for shape in SHAPES)
    # a bare multiple of p is p-strict but not restricted
    assert has_shape((3,), "pstrict", 3)
    assert not has_shape((3,), "restricted", 3)
    assert has_shape((6, 4, 1), "restricted", 3)


def test_check_odd_prime():
    for p in (3, 5, 7, 11, 13, 97):
        check_odd_prime(p)
    for p in (-3, 0, 1, 2, 4, 9, 15, 25, 49, 91):
        with pytest.raises(PartitionError, match="odd prime"):
            check_odd_prime(p)
    # entry points check p before anything reads it
    with pytest.raises(PartitionError, match="odd prime"):
        verify.run_suite("ladders", p=9, max_n=2)


def test_strict_implies_p_strict():
    for p in (3, 5):
        for n in range(21):
            for lam in strict_partitions_of(n):
                assert is_p_strict(lam, p)


def test_scaled_add():
    assert scaled_add((4, 1), 3, (1, 1)) == (7, 4)
    assert scaled_add((5, 2), 0, (9, 9)) == (5, 2)
    assert scaled_add((2, 1), 3, (2,)) == (8, 1)
    with pytest.raises(PartitionError):
        scaled_add((2, 1), 3, (0, 5))


def test_join_examples():
    assert join((4, 1), (3,)) == (4, 3, 1)
    assert join((3, 1), (3,)) == (3, 3, 1)
    assert join((5, 2), ()) == (5, 2)


@given(partitions, partitions, partitions)
def test_join_commutative_associative(a, b, c):
    assert join(a, b) == join(b, a)
    assert join(join(a, b), c) == join(a, join(b, c))


def test_conjugate():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for n in range(21):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_parity_stats():
    assert is_odd_partition((6,)) and l_p((6,), 3) == 1
    assert not is_odd_partition((5, 1)) and l_p((5, 1), 3) == 0
    assert not is_odd_partition((4, 2)) and l_p((4, 2), 5) == 0
    assert l_p((9, 6, 5, 3), 3) == 3 and l_p((10, 5, 4), 5) == 2 and l_p((), 3) == 0


def test_enumeration_counts():
    # distinct-part counts 1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10
    assert [sum(1 for _ in strict_partitions_of(n)) for n in range(11)] == [
        1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10,
    ]
    for n in range(12):
        for lam in p_strict_partitions_of(n, 3):
            assert is_p_strict(lam, 3)
        assert set(restricted_partitions_of(n, 3)) <= set(p_strict_partitions_of(n, 3))



def test_enumerators_share_one_order():
    # the strict and p-strict streams are the full stream, filtered, in the same order
    for n in range(16):
        every = list(partitions_of(n))
        assert every == sorted(set(every), reverse=True)
        assert list(strict_partitions_of(n)) == [lam for lam in every if is_strict(lam)]
        for p in (3, 5):
            assert list(p_strict_partitions_of(n, p)) == [lam for lam in every if is_p_strict(lam, p)]


def test_move_nodes():
    assert move_nodes((4, 1), [(1, 3), (1, 4)], -1) == (2, 1)  # last column first
    assert move_nodes((4, 1), [(2, 1)], -1) == (4,)
    assert move_nodes((4, 1), [(1, 6), (3, 1), (2, 2), (1, 5)], 1) == (6, 2, 1)
    assert move_nodes((), [(1, 1), (2, 1)], 1) == (1, 1)  # one new row after another
    assert move_nodes((4, 1), [], -1) == (4, 1)


@pytest.mark.parametrize(
    "lam, nodes, step",
    [
        ((4, 1), [(1, 3)], -1),  # not the end of row 1
        ((4, 1), [(1, 4), (1, 4)], -1),  # the same cell twice
        ((4, 1), [(3, 1)], -1),  # no row 3
        ((4, 1), [(1, 6)], 1),  # not the next cell of row 1
        ((4, 1), [(4, 1)], 1),  # two rows below the last
    ],
)
def test_move_nodes_refuses_a_cell_off_its_row_end(lam, nodes, step):
    with pytest.raises(RuntimeError, match="of its row"):
        move_nodes(lam, nodes, step)


def test_move_nodes_rejects_a_bad_step():
    with pytest.raises(PartitionError, match="step must be"):
        move_nodes((4, 1), [(1, 4)], 0)


# every public entry point that checks its input's shape class, with the
# exact text it raises; the domains of boundary_nodes' modes and
# block_members' filters stay as narrow as they were
SHAPE_ERRORS = [
    ("ladders.content", lambda: ladders.content((2, 2), 3), "(2, 2) is not 3-strict"),
    ("ladders.regularize", lambda: ladders.regularize((2, 2), 3), "(2, 2) is not 3-strict"),
    ("ladders.check_ladder_identities", lambda: ladders.check_ladder_identities((4, 4), 5), "(4, 4) is not 5-strict"),
    ("barcores.bar_removals", lambda: barcores.bar_removals((2, 2), 3), "(2, 2) is not 3-strict"),
    ("barcores.bar_core", lambda: barcores.bar_core((2, 2), 3), "(2, 2) is not 3-strict"),
    ("barcores.reg_preimages", lambda: barcores.reg_preimages((3,), 3), "(3,) is not restricted 3-strict"),
    ("barcores.block_members", lambda: barcores.block_members((4, 1), 2, 3, "bogus"), "unknown shape filter 'bogus'"),
    ("branching.boundary_nodes strict", lambda: branching.boundary_nodes((3, 3), 0, 3, "strict"), "(3, 3) is not strict"),
    ("branching.boundary_nodes pstrict", lambda: branching.boundary_nodes((2, 2), 0, 3, "pstrict"), "(2, 2) is not 3-strict"),
    ("branching.boundary_nodes mode", lambda: branching.boundary_nodes((2, 1), 0, 3, "restricted"), "unknown mode 'restricted'"),
    ("branching.boundary_nodes residue", lambda: branching.boundary_nodes((2, 1), 2, 3, "strict"), "residue 2 out of range for p=3"),
    ("branching.signature", lambda: branching.signature((3,), 0, 3), "(3,) is not restricted 3-strict"),
    ("branching.tilde_e", lambda: branching.tilde_e((3,), 0, 3), "(3,) is not restricted 3-strict"),
    ("branching.extremal", lambda: branching.extremal((3, 3), 0, 3, "down"), "(3, 3) is not strict"),
    ("branching.branch_multiset", lambda: branching.branch_multiset((3, 3), 0, 3, "down"), "(3, 3) is not strict"),
    ("branching.branch_multiset residue", lambda: branching.branch_multiset((5, 4), 9, 3, "down"), "residue 9 out of range for p=3"),
    ("classify.classify_homogeneous", lambda: classify.classify_homogeneous((3, 3)), "(3, 3) is not strict"),
    ("classify.homogeneity_obstruction", lambda: classify.homogeneity_obstruction((3, 3)), "(3, 3) is not strict"),
    ("classify.classify_irreducible", lambda: classify.classify_irreducible((3, 3), "sn"), "(3, 3) is not strict"),
    ("classify.classify_irreducible context", lambda: classify.classify_irreducible((2, 1), "bogus"), "unknown context 'bogus'"),
    ("dimensions.spin_dim", lambda: dimensions.spin_dim((3, 3)), "(3, 3) is not strict"),
    ("dimensions.regn_multiplicity", lambda: dimensions.regn_multiplicity((3, 3), 3), "(3, 3) is not strict"),
    ("dimensions.degree_witness", lambda: dimensions.degree_witness((3, 3), 3), "(3, 3) is not strict"),
    ("tableaux.enumerate_sst", lambda: list(tableaux.enumerate_sst((3, 3))), "(3, 3) is not strict"),
    ("tableaux.count_sst", lambda: tableaux.count_sst((3, 3)), "(3, 3) is not strict"),
    ("tableaux.find_patterned_tableau", lambda: tableaux.find_patterned_tableau((3, 3), (), 3), "(3, 3) is not strict"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in SHAPE_ERRORS], ids=[case[0] for case in SHAPE_ERRORS])
def test_shape_error_messages(call, message):
    with pytest.raises(PartitionError) as exc:
        call()
    assert str(exc.value) == message


def test_require_shape_table():
    assert list(SHAPES) == ["strict", "pstrict", "restricted"]
    for lam, p in (((5, 4, 3, 2, 1), 3), ((3, 3), 3), ((2, 2), 3), ((3,), 3), ((6, 4, 1), 3), ((5, 5, 1), 5)):
        for shape in SHAPES:
            if has_shape(lam, shape, p):
                require_shape(lam, shape, p)
            else:
                with pytest.raises(PartitionError, match=r"is not "):
                    require_shape(lam, shape, p)
    with pytest.raises(PartitionError, match="unknown shape 'bogus'"):
        has_shape((1,), "bogus", 3)


# reference copies of the index loops the shape predicates replaced
def _is_strict_loop(lam):
    return all(lam[k] > lam[k + 1] for k in range(len(lam) - 1))


def _is_p_strict_loop(lam, p):
    return all(lam[k] > lam[k + 1] or lam[k] % p == 0 for k in range(len(lam) - 1))


def _is_restricted_loop(lam, p):
    if not _is_p_strict_loop(lam, p):
        return False
    for k in range(len(lam)):
        nxt = lam[k + 1] if k + 1 < len(lam) else 0
        gap = lam[k] - nxt
        if gap < p:
            continue
        if gap == p and lam[k] % p != 0:
            continue
        return False
    return True


def test_shape_predicates_match_the_index_loops():
    refused = [(3, 3), (2, 2), (4, 4), (3,), (4, 1, 1), (6, 6, 3, 3), (1, 2), (3, 6)]
    cases = [lam for n in range(17) for lam in partitions_of(n)] + refused
    assert () in cases
    for lam in cases:
        for seq in (lam, list(lam)):
            assert is_strict(seq) == _is_strict_loop(lam), lam
            for p in (3, 5, 7):
                assert is_p_strict(seq, p) == _is_p_strict_loop(lam, p), (lam, p)
                assert is_restricted(seq, p) == _is_restricted_loop(lam, p), (lam, p)
