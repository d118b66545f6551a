"""Ordinary characters of the symmetric groups.

A conjugacy class of S_d is a cycle type rho, a partition of d.  ``z``
is the order of its centraliser, so the class holds d!/z(rho)
permutations, and ``odd_parts`` counts its odd cycles.  ``chi`` is the
irreducible character chi^nu at rho, by the Murnaghan-Nakayama rule:
remove a rim hook of length rho[0] from nu in every way, each with the
sign (-1)^(rows it spans - 1), and recurse on the rest of rho.

Rim hooks are read off a beta-set of nu (the first-column hook lengths
nu[i] + len(nu) - 1 - i): a rim hook of length k is a bead b with b - k
free and non-negative, its removal moves the bead to b - k, and the
rows it spans less one are the beads strictly between.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import factorial

from .partitions import Partition


def z(rho: Partition) -> int:
    """Order of the centraliser in S_d of a permutation of cycle type rho."""
    out = 1
    for part, run in groupby(rho):
        m = len(tuple(run))
        out *= part**m * factorial(m)
    return out


def odd_parts(rho: Partition) -> int:
    """The number of odd parts of rho."""
    return sum(part & 1 for part in rho)


def rim_hooks(nu: Partition, k: int) -> list[tuple[int, Partition]]:
    """(sign, nu less the hook) for each rim hook of length k of nu."""
    top = len(nu) - 1
    beta = [part + top - i for i, part in enumerate(nu)]
    beads = set(beta)
    out = []
    for i, b in enumerate(beta):
        if b < k or b - k in beads:
            continue
        moved = sorted((*beta[:i], b - k, *beta[i + 1:]), reverse=True)
        between = sum(b - k < c < b for c in beta[i + 1:])
        out.append(((-1) ** between, tuple(part for j, x in enumerate(moved) if (part := x - top + j))))
    return out


@lru_cache(maxsize=None)
def chi(nu: Partition, rho: Partition) -> int:
    """The irreducible character chi^nu of S_d at the class rho, |nu| = |rho| = d."""
    if not rho:
        return int(not nu)
    rest = rho[1:]
    return sum(sign * chi(smaller, rest) for sign, smaller in rim_hooks(nu, rho[0]))
