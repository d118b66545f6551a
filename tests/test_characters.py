"""The character table of S_d against the orthogonality relations and the
hook-length formula, and the wreath suite against a wrong sign."""

from math import factorial, prod

from spinhom import characters, verify
from spinhom.characters import chi, odd_parts, rim_hooks, z
from spinhom.partitions import conjugate, partitions_of


def test_class_sizes_add_up_to_the_group_order():
    for d in range(9):
        assert sum(factorial(d) // z(rho) for rho in partitions_of(d)) == factorial(d)
    assert z((3, 3, 2, 1, 1)) == 3**2 * 2 * 2 * 1 * 2
    assert odd_parts((3, 3, 2, 1, 1)) == 4 and odd_parts(()) == 0


def test_column_orthogonality():
    for d in range(9):
        classes = partitions_of(d)
        for rho in classes:
            for sigma in classes:
                total = sum(chi(lam, rho) * chi(lam, sigma) for lam in classes)
                assert total == (z(rho) if rho == sigma else 0), (rho, sigma)


def test_degrees_are_hook_length_counts():
    for d in range(11):
        for lam in partitions_of(d):
            cols = conjugate(lam)
            hooks = prod(lam[r] - c + cols[c] - r - 1 for r in range(len(lam)) for c in range(lam[r]))
            assert chi(lam, (1,) * d) == factorial(d) // hooks, lam


def test_rim_hooks_of_a_small_shape():
    # hook lengths 4, 2, 1 / 1: one 2-hook in row 1, no 3-hook, and the
    # whole shape as a 4-hook over two rows
    assert rim_hooks((3, 1), 2) == [(1, (1, 1))]
    assert rim_hooks((3, 1), 3) == []
    assert rim_hooks((3, 1), 4) == [(-1, ())]
    # (2, 2): a vertical domino (sign -1) and a horizontal one
    assert rim_hooks((2, 2), 2) == [(-1, (1, 1)), (1, (2,))]


def test_a_flipped_sign_fails_the_wreath_suite(monkeypatch):
    # one Murnaghan-Nakayama sign flipped: removing the last cell of row 1
    # of (2, 1) counts -1, so chi^(2,1) reads 0 at the identity
    real = characters.rim_hooks

    def flipped(nu, k):
        return [(-sign if (nu, k, rest) == ((2, 1), 1, (1, 1)) else sign, rest) for sign, rest in real(nu, k)]

    monkeypatch.setattr(characters, "rim_hooks", flipped)
    chi.cache_clear()  # no character computed with either sign rule is kept
    try:
        failed = verify.failures(verify.run_suite("wreath", max_n=8))
    finally:
        monkeypatch.undo()
        chi.cache_clear()
    assert ("2,1", "cartan0_diagonal_strict", "d=3", "1", "> 7", "FAIL") in failed
    # a class sum with a remainder is a row too, not an exception
    assert ("d=4", "cartan_class_sum", "_cartan0_symmetry_rows") in {row[:3] for row in failed}
