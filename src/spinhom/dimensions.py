"""Exact dimension arithmetic for strict-partition labelled characters.

The dimension of the character labelled by a strict partition lam of n
is given by Schur's bar-length product formula

    dim = 2^ceil((n - l)/2) * n! / prod(lam_r!)
          * prod_{r<s} (lam_r - lam_s) / prod_{r<s} (lam_r + lam_s),

with l = l(lam).  Writing g for the factor after the power of two, g is
a positive integer (checked on every call) equal to the number of
standard shifted tableaux of shape lam.

Dividing the dimension by the regularisation multiplicity
2^((l_p + x - y)/2) (x the spin parity of lam, y its p-parity) leaves
the reduced degree

    ddeg = 2^ceil((n - l - l_p)/2) * g,

the statistic compared inside a regularisation fibre: a strict partner
with the same regularisation and smaller ddeg certifies inhomogeneity.
Every quantity here is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, prod

from .barcores import reg_preimages
from .ladders import is_p_odd, regularize
from .partitions import Partition, PartitionError, is_strict, parity_stats


@dataclass(frozen=True)
class DimensionReport:
    dim: int
    g: int
    two_exp: int


def _tableau_factor(lam: Partition) -> int:
    """n!/prod(lam_r!) * prod(lam_r - lam_s)/prod(lam_r + lam_s), exactly."""
    pairs = list(combinations(lam, 2))
    num = factorial(sum(lam)) * prod(a - b for a, b in pairs)
    den = prod(factorial(a) for a in lam) * prod(a + b for a, b in pairs)
    g, rem = divmod(num, den)
    if rem or g < 1:
        raise RuntimeError(f"bar-length product {num}/{den} is not a positive integer on {lam}")
    return g


def spin_dim(lam: Partition) -> DimensionReport:
    if not is_strict(lam):
        raise PartitionError(f"{lam} is not strict")
    n = sum(lam)
    two_exp = (n - len(lam) + 1) // 2
    g = _tableau_factor(lam)
    return DimensionReport((1 << two_exp) * g, g, two_exp)


@dataclass(frozen=True)
class RegnMultiplicities:
    s_to_d: int
    p_to_s: int
    x: int
    y: int


def regn_multiplicity(lam: Partition, p: int) -> RegnMultiplicities:
    """The two regularisation-column multiplicities, both powers of two.

    Their product is 2^l_p(lam); the exponents (l_p +- (x - y))/2 are
    non-negative integers (checked, not assumed).
    """
    if not is_strict(lam):
        raise PartitionError(f"{lam} is not strict")
    stats = parity_stats(lam, p)
    x = stats.x
    y = 1 if is_p_odd(lam, p) else 0
    up, down = stats.l_p + x - y, stats.l_p + y - x
    if up % 2 or up < 0 or down < 0:
        raise RuntimeError(f"regularisation exponents {up}/2, {down}/2 of {lam} at p={p}")
    return RegnMultiplicities(1 << (up // 2), 1 << (down // 2), x, y)


def ddeg(lam: Partition, p: int) -> int:
    """Reduced degree: dimension divided by the regularisation multiplicity."""
    report = spin_dim(lam)
    stats = parity_stats(lam, p)
    exp = (sum(lam) - len(lam) - stats.l_p + 1) // 2
    value = (1 << exp) * report.g
    if value * regn_multiplicity(lam, p).s_to_d != report.dim:
        raise RuntimeError(f"ddeg {value} times the multiplicity is not dim {report.dim} on {lam} at p={p}")
    return value


def ddeg_ratio(lam: Partition, mu: Partition, p: int) -> Fraction:
    """ddeg(lam)/ddeg(mu) as an exact rational in lowest terms."""
    return Fraction(ddeg(lam, p), ddeg(mu, p))


@lru_cache(maxsize=None)
def _ranked_fibre(mu: Partition, p: int) -> tuple[tuple[int, Partition], ...]:
    """(ddeg, nu) over the fibre of mu, least ddeg first; the stable sort
    keeps reg_preimages' greatest-first order among equal ddeg."""
    return tuple(sorted(((ddeg(nu, p), nu) for nu in reg_preimages(mu, p)), key=lambda entry: entry[0]))


def degree_witness(lam: Partition, p: int) -> Partition | None:
    """A strict partner with the same regularisation and smaller ddeg, or None.

    The partner has the least ddeg in lam's regularisation fibre, and is
    the lexicographically greatest among equal ddeg.  Each fibre is
    enumerated and ranked once per process.
    """
    own = ddeg(lam, p)  # raises PartitionError unless lam is strict
    least, nu = _ranked_fibre(regularize(lam, p), p)[0]
    return nu if least < own else None
