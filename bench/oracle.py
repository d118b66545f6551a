"""Independent oracle for the benchmark's output checks.

Nothing here imports ``spinhom``: every value is derived again from its
textbook definition, by a different route than the library takes.

* strict-partition counts per n: coefficients of prod_k (1 + q^k);
* strict partitions: generated smallest part first;
* ladder profiles: node (r, c) lies on ladder floor((p-1)c/p) + (p-1)(r-1);
* g: n! over the product of shifted hook lengths, read off the shifted
  diagram cell by cell (not Schur's bar-length product);
* ddeg: 2^ceil((n - l - l_p)/2) * g, with l the number of parts and l_p
  the number of parts divisible by p.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod


def strict_counts(max_n: int) -> list[int]:
    """Number of strict partitions of n for n = 0..max_n, from prod (1 + q^k)."""
    coeffs = [1] + [0] * max_n
    for k in range(1, max_n + 1):
        for n in range(max_n, k - 1, -1):
            coeffs[n] += coeffs[n - k]
    return coeffs


def strict_partitions(n: int) -> list[tuple[int, ...]]:
    """Every strict partition of n, built from the smallest part upwards."""
    out: list[tuple[int, ...]] = []

    def grow(rest: int, least: int, parts: list[int]) -> None:
        if rest == 0:
            out.append(tuple(reversed(parts)))
            return
        for a in range(least, rest + 1):
            parts.append(a)
            grow(rest - a, a + 1, parts)
            parts.pop()

    grow(n, 1, [])
    return out


def ladder_profile(lam: tuple[int, ...], p: int = 3) -> tuple[tuple[int, int], ...]:
    """Sorted (ladder, node count) pairs of the Young diagram of lam."""
    counts: Counter[int] = Counter()
    for r, a in enumerate(lam, start=1):
        for c in range(1, a + 1):
            counts[((p - 1) * c) // p + (p - 1) * (r - 1)] += 1
    return tuple(sorted(counts.items()))


def shifted_hooks(lam: tuple[int, ...]) -> list[int]:
    """Hook lengths of the shifted diagram of the strict partition lam.

    Row i occupies columns i .. i + lam_i - 1.  The hook of (i, j) is the
    cell, its arm to the right, its leg below in column j, and the whole
    of row j + 1 when that row exists.
    """
    length = len(lam)
    cells = {(i, j) for i in range(1, length + 1) for j in range(i, i + lam[i - 1])}
    hooks = []
    for i, j in sorted(cells):
        arm = i + lam[i - 1] - 1 - j
        leg = sum(1 for k in range(i + 1, length + 1) if (k, j) in cells)
        beyond = lam[j] if j < length else 0
        hooks.append(arm + leg + 1 + beyond)
    return hooks


def g(lam: tuple[int, ...]) -> int:
    """Number of standard shifted tableaux of shape lam, by the hook formula."""
    n = sum(lam)
    denom = prod(shifted_hooks(lam))
    if factorial(n) % denom:
        raise ArithmeticError(f"hook product of {lam} does not divide {n}!")
    return factorial(n) // denom


def dim(lam: tuple[int, ...]) -> int:
    """Dimension 2^ceil((n - l)/2) * g."""
    return 2 ** -(-(sum(lam) - len(lam)) // 2) * g(lam)


def ddeg(lam: tuple[int, ...], p: int = 3) -> int:
    """Reduced degree 2^ceil((n - l - l_p)/2) * g."""
    lp = sum(1 for a in lam if a % p == 0)
    return 2 ** -(-(sum(lam) - len(lam) - lp) // 2) * g(lam)


def fibre(lam: tuple[int, ...], p: int = 3) -> list[tuple[int, ...]]:
    """Strict partitions of |lam| with the ladder profile of lam, decreasing."""
    want = ladder_profile(lam, p)
    return sorted((mu for mu in strict_partitions(sum(lam)) if ladder_profile(mu, p) == want), reverse=True)


def witness(lam: tuple[int, ...], members: list[tuple[int, ...]], p: int = 3) -> tuple[int, ...] | None:
    """Lexicographically greatest member of least ddeg below ddeg(lam), or None."""
    own = ddeg(lam, p)
    smaller = [(ddeg(mu, p), mu) for mu in members if mu != lam and ddeg(mu, p) < own]
    if not smaller:
        return None
    least = min(val for val, _ in smaller)
    return max(mu for val, mu in smaller if val == least)
