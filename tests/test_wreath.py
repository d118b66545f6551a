"""Littlewood-Richardson checks against an independent symmetric-function
oracle: Schur polynomials are expanded as explicit monomial dictionaries
via semistandard tableaux, products are expanded back into the Schur
basis by repeatedly stripping the lex-leading term."""

import hashlib
from itertools import product

import pytest

from spinhom import verify
from spinhom.characters import chi
from spinhom.partitions import PartitionError, conjugate, contains, partitions_of
from spinhom.wreath import (
    DecompMatrix,
    _class_weights,
    _skew_lr,
    _wreath_form,
    bundled_decomp_matrix,
    is_p_regular,
    lr2,
    lr3,
    parse_decomp_matrix,
    projective_character,
    wreath_cartan0,
    wreath_cartan_p,
)


def _ssyt_weights(lam, nvars):
    """Yield the content vector of every semistandard tableau of shape lam."""
    rows = len(lam)
    if rows == 0:
        yield (0,) * nvars
        return
    current = [[] for _ in range(rows)]
    weight = [0] * nvars

    def rec(r, c):
        if r == rows:
            yield tuple(weight)
            return
        if c == lam[r]:
            yield from rec(r + 1, 0)
            return
        lo = current[r][c - 1] if c else 1
        if r > 0:
            lo = max(lo, current[r - 1][c] + 1)  # strict down columns
        for v in range(lo, nvars + 1):
            current[r].append(v)
            weight[v - 1] += 1
            yield from rec(r, c + 1)
            weight[v - 1] -= 1
            current[r].pop()

    yield from rec(0, 0)


def schur_poly(lam, nvars):
    poly = {}
    for w in _ssyt_weights(lam, nvars):
        poly[w] = poly.get(w, 0) + 1
    return poly


def poly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return out


def schur_expand(poly, nvars):
    """Expand a symmetric polynomial in the Schur basis by leading terms."""
    poly = dict(poly)
    out = {}
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        lam = tuple(a for a in lead if a > 0)
        assert list(lead) == sorted(lead, reverse=True)
        out[lam] = coeff
        for k, v in schur_poly(lam, nvars).items():
            poly[k] = poly.get(k, 0) - coeff * v
            if poly[k] == 0:
                del poly[k]
    return out


def test_lr2_against_polynomials():
    nvars = 6
    for total in range(0, 7):
        for a in range(total + 1):
            for alpha in partitions_of(a):
                for beta in partitions_of(total - a):
                    expansion = schur_expand(
                        poly_mul(schur_poly(alpha, nvars), schur_poly(beta, nvars)), nvars
                    )
                    for nu in partitions_of(total):
                        assert lr2(alpha, beta, nu) == expansion.get(nu, 0), (alpha, beta, nu)


def test_lr3_against_polynomials():
    nvars = 6
    for total in (4, 5, 6):
        for a, b in product(range(total + 1), repeat=2):
            c = total - a - b
            if c < 0:
                continue
            for alpha in partitions_of(a):
                for beta in partitions_of(b):
                    for gamma in partitions_of(c):
                        triple = poly_mul(
                            poly_mul(schur_poly(alpha, nvars), schur_poly(beta, nvars)),
                            schur_poly(gamma, nvars),
                        )
                        expansion = schur_expand(triple, nvars)
                        for nu in partitions_of(total):
                            assert lr3(alpha, beta, gamma, nu) == expansion.get(nu, 0)


def test_lr_frozen_values():
    assert lr2((1,), (1,), (2,)) == 1
    assert lr2((2,), (1,), (2, 1)) == 1
    assert lr3((1,), (1,), (1,), (2, 1)) == 2
    assert lr3((2,), (1,), (), (2, 1)) == 1
    assert lr3((9,), (1,), (), (2, 1)) == 0  # size mismatch
    # single-row target: one triple of rows only
    for a in range(4):
        for b in range(4 - a):
            assert lr3((a,) if a else (), (b,) if b else (), (3 - a - b,) if 3 - a - b else (), (3,)) == 1


WREATH_MEMOS = (lr2, _skew_lr, chi, _class_weights, partitions_of)


def _clear_wreath_memos():
    for memo in WREATH_MEMOS:
        memo.cache_clear()


def test_skew_shape_memo_rows_match_the_polynomials():
    nvars = 6
    _clear_wreath_memos()
    assert all(memo.cache_info().currsize == 0 for memo in WREATH_MEMOS)
    for total in range(7):
        expected = {}  # (alpha, nu) -> {beta: c^nu_{alpha, beta}}, non-zero only
        for a in range(total + 1):
            for alpha in partitions_of(a):
                for beta in partitions_of(total - a):
                    product_ = poly_mul(schur_poly(alpha, nvars), schur_poly(beta, nvars))
                    for nu, c in schur_expand(product_, nvars).items():
                        expected.setdefault((alpha, nu), {})[beta] = c
        for nu in partitions_of(total):
            for a in range(total + 1):
                for alpha in partitions_of(a):
                    if contains(nu, alpha):
                        assert _skew_lr(alpha, nu) == expected.get((alpha, nu), {}), (alpha, nu)


def test_lr2_on_large_skew_shapes():
    # a staircase over a staircase is 16 disconnected cells, one per row
    assert lr2(tuple(range(15, 0, -1)), (8, 5, 3), tuple(range(16, 0, -1))) == 112112
    assert lr2((8, 6, 4, 2), (10, 8, 6, 4, 2, 2), (14, 12, 10, 8, 6, 2)) == 126
    # one row of 990 cells: a single filling, and no stack frame per cell
    assert lr2((1,), (990,), (991,)) == 1


def test_memoisation_contract():
    _clear_wreath_memos()
    cold = wreath_cartan0((2, 1), (2, 1))
    warm = wreath_cartan0((2, 1), (2, 1))
    assert cold == warm == 19


def test_wreath_suite_lists_each_partition_size_once():
    # the wreath suite and the wreath module share one partitions_of memo,
    # so a cold run lists the partitions of each d = 0..8 once
    _clear_wreath_memos()
    assert not verify.failures(verify.run_suite("wreath", max_n=8))
    assert partitions_of.cache_info().misses <= 9


def _cartan0_by_triple_sum(nu, pi):
    """c(nu, pi) summed over every triple, straight from lr3."""
    d = sum(nu)
    total = 0
    for a in range(d + 1):
        for b in range(d - a + 1):
            for alpha in partitions_of(a):
                for beta in partitions_of(b):
                    for gamma in partitions_of(d - a - b):
                        total += lr3(alpha, beta, gamma, nu) * lr3(alpha, conjugate(beta), gamma, pi)
    return total


def test_cartan0_matches_reference_triple_sum():
    pairs = [(nu, pi) for d in range(6) for nu in partitions_of(d) for pi in partitions_of(d)]
    pairs += [(nu, nu) for d in (6, 7) for nu in partitions_of(d)]
    expected = {pair: _cartan0_by_triple_sum(*pair) for pair in pairs}
    _clear_wreath_memos()
    cold = {pair: wreath_cartan0(*pair) for pair in pairs}
    warm = {pair: wreath_cartan0(*pair) for pair in pairs}
    assert cold == warm == expected


def test_cartan0_values():
    assert wreath_cartan0((3,), (3,)) == 7
    assert wreath_cartan0((2, 1), (2, 1)) == 19
    assert wreath_cartan0((3,), (2, 1)) == 8
    with pytest.raises(PartitionError):
        wreath_cartan0((2,), (3,))


def test_cartan0_lower_bound_with_small_betas():
    for d in (3, 4, 5, 6):
        for nu in partitions_of(d):
            if not (len(nu) >= 2 and nu[0] >= 2):
                continue  # (2, 1) must fit inside nu
            bound = 0
            for beta in ((), (1,), (2, 1)):
                rest = d - sum(beta)
                if rest < 0:
                    continue
                for a in range(rest + 1):
                    for alpha in partitions_of(a):
                        for gamma in partitions_of(rest - a):
                            bound += lr3(alpha, beta, gamma, nu) ** 2
            assert wreath_cartan0(nu, nu) >= bound


def test_parse_decomp_matrix():
    text = "\n".join([
        "# comment",
        "p=3 d=3",
        "3 : 3=1",
        "2,1 : 3=1, 2,1=1",
        "1,1,1 : 2,1=1",
    ])
    m = parse_decomp_matrix(text)
    assert m.p == 3 and m.d == 3
    assert m.mult((2, 1), (3,)) == 1
    assert m.mult((1, 1, 1), (2, 1)) == 1
    assert m.mult((1, 1, 1), (3,)) == 0
    assert m.columns == ((3,), (2, 1))
    # the bundled matrices: columns greatest first, and a sha256 prefix of
    # every column's multiplicities over all rows of its degree
    pinned = {
        1: (((1,),), "42b66ea101ca99a0"),
        2: (((2,), (1, 1)), "5d4993e5091f0db7"),
        3: (((3,), (2, 1)), "0f20ccee5fe8ea26"),
        4: (((4,), (3, 1), (2, 2), (2, 1, 1)), "d6f3bb6972faa802"),
        5: (((5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1)), "df2307cbb9940b42"),
        6: (((6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 1, 1)), "80cf829cd0d4e11e"),
    }
    for d, (columns, digest) in pinned.items():
        matrix = bundled_decomp_matrix(d)
        assert matrix.columns == columns, d
        table = [(col, [matrix.mult(row, col) for row in partitions_of(d)]) for col in columns]
        assert hashlib.sha256(repr(table).encode()).hexdigest()[:16] == digest, d


def test_parse_decomp_matrix_rejects():
    with pytest.raises(PartitionError):
        parse_decomp_matrix("p=3 d=3\n3 : 3=0\n")  # diagonal zero
    with pytest.raises(PartitionError):
        parse_decomp_matrix("p=3 d=3\n3 : 1,1,1=1\n")  # column not 3-regular
    with pytest.raises(PartitionError):
        parse_decomp_matrix("p=3 d=3\n2,2 : 3=1\n")  # row size mismatch
    with pytest.raises(PartitionError):
        parse_decomp_matrix("")
    with pytest.raises(PartitionError):
        parse_decomp_matrix("p=3 d=3\n3 = 1\n")


def test_is_p_regular():
    assert is_p_regular((2, 2), 3)
    assert not is_p_regular((1, 1, 1), 3)
    assert is_p_regular((), 3)


def test_bundled_matrices_consistency():
    """Columns of the degree-d matrix induce to projective columns of the
    degree-(d+1) matrix: inducing a projective column (sum over rows of
    its Specht multiset, each row branched by single-box addition) must
    decompose exactly into columns of the next matrix."""
    def single_box_ups(lam):
        ups = set()
        for r in range(len(lam) + 1):
            rows = list(lam) + ([0] if r == len(lam) else [])
            rows[r] += 1
            if all(rows[k] >= rows[k + 1] for k in range(len(rows) - 1)):
                ups.add(tuple(a for a in rows if a > 0))
        return ups

    for d in range(1, 6):
        small = bundled_decomp_matrix(d)
        big = bundled_decomp_matrix(d + 1)
        for col in small.columns:
            induced = {}
            for row in partitions_of(d):
                mult = small.mult(row, col)
                if not mult:
                    continue
                for up in single_box_ups(row):
                    induced[up] = induced.get(up, 0) + mult
            # greedily strip projective columns of the big matrix
            remaining = dict(induced)
            while remaining:
                top = max(remaining)
                coeff = remaining[top]
                assert top in big.columns, (d, col, top)
                for row in partitions_of(d + 1):
                    m = big.mult(row, top)
                    if m:
                        remaining[row] = remaining.get(row, 0) - coeff * m
                        assert remaining[row] >= 0, (d, col, top, row)
                        if remaining[row] == 0:
                            del remaining[row]


def test_cartan_char3():
    m3 = bundled_decomp_matrix(3)
    assert wreath_cartan_p((3,), m3) == 42
    for d in range(3, 7):
        matrix = bundled_decomp_matrix(d)
        for mu in matrix.columns:
            assert wreath_cartan_p(mu, matrix) > 2 * d + 1, (d, mu)
    with pytest.raises(PartitionError):
        wreath_cartan_p((1, 1, 1), m3)


def _vanishes_3_singular(mu, matrix):
    phi = projective_character(mu, matrix)
    return all(v == 0 for rho, v in zip(partitions_of(matrix.d), phi) if any(part % 3 == 0 for part in rho))


def test_projective_characters_vanish_on_3_singular_classes():
    columns = [(matrix, mu) for matrix in map(bundled_decomp_matrix, range(1, 7)) for mu in matrix.columns]
    assert len(columns) == 21
    assert all(_vanishes_3_singular(mu, matrix) for matrix, mu in columns)
    # one entry more in s5_p3, at row (5) and column (4, 1), breaks it
    m5 = bundled_decomp_matrix(5)
    entries = dict(m5.entries)
    entries[(5,), (4, 1)] = m5.mult((5,), (4, 1)) + 1
    assert not _vanishes_3_singular((4, 1), DecompMatrix(m5.p, m5.d, entries, m5.columns))


def test_wreath_form_refuses_a_remainder():
    # at d = 2 the weights are 1 on (2) and 9 on (1, 1): 1 * 1 * 1 / 2! has a remainder
    assert _class_weights(2) == (1, 9)
    assert _wreath_form(2, [1, 1], [1, 1]) == 5
    with pytest.raises(RuntimeError, match="remainder 1 of 2"):
        _wreath_form(2, [1, 0], [1, 0])


def test_cartan_char3_small_degrees_semisimple():
    # below degree 3 the characteristic-3 values collapse to the
    # characteristic-0 diagonal (identity decomposition matrices)
    for d in (1, 2):
        matrix = bundled_decomp_matrix(d)
        for mu in matrix.columns:
            assert wreath_cartan_p(mu, matrix) == wreath_cartan0(mu, mu) == 2 * d + 1
