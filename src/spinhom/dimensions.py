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

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, starmap
from math import factorial, perm, prod
from operator import add, sub
from typing import NamedTuple

from .barcores import reg_preimages
from .ladders import is_p_odd, regularize
from .partitions import STRICT, Partition, is_odd_partition, l_p, require_shape


class DimensionReport(NamedTuple):
    dim: int
    g: int
    two_exp: int


def _tableau_factor(lam: Partition) -> int:
    """n!/prod(lam_r!) * prod(lam_r - lam_s)/prod(lam_r + lam_s), exactly;
    n!/lam_1! is the product lam_1 + 1, ..., n, so no n! is formed."""
    pairs = list(combinations(lam, 2))
    num = perm(sum(lam), sum(lam[1:])) * prod(starmap(sub, pairs))
    den = prod(map(factorial, lam[1:])) * prod(starmap(add, pairs))
    g, rem = divmod(num, den)
    if rem or g < 1:
        raise RuntimeError(f"bar-length product {num}/{den} is not a positive integer on {lam}")
    return g


def spin_dim(lam: Partition) -> DimensionReport:
    require_shape(lam, STRICT)
    n = sum(lam)
    two_exp = (n - len(lam) + 1) // 2
    g = _tableau_factor(lam)
    return DimensionReport((1 << two_exp) * g, g, two_exp)


class RegnMultiplicities(NamedTuple):
    s_to_d: int
    p_to_s: int


def _regn_exponents(lam: Partition, p: int, lp: int) -> tuple[int, int]:
    """(l_p + x - y)/2 and (l_p + y - x)/2, x the spin parity of lam and y
    its p-parity, given lp = l_p(lam): the one statement of the rule that
    ``regn_multiplicity`` and ``ddeg`` read.  Raises unless both are
    non-negative integers."""
    x, y = is_odd_partition(lam), is_p_odd(lam, p)
    up, down = lp + x - y, lp + y - x
    if up % 2 or up < 0 or down < 0:
        raise RuntimeError(f"regularisation exponents {up}/2, {down}/2 of {lam} at p={p}")
    return up // 2, down // 2


def regn_multiplicity(lam: Partition, p: int) -> RegnMultiplicities:
    """The two regularisation-column multiplicities, both powers of two.

    Their product is 2^l_p(lam); the exponents (l_p +- (x - y))/2 are
    non-negative integers (checked by ``_regn_exponents``, not assumed).
    """
    require_shape(lam, STRICT)
    up, down = _regn_exponents(lam, p, l_p(lam, p))
    return RegnMultiplicities(1 << up, 1 << down)


def ddeg(lam: Partition, p: int) -> int:
    """Reduced degree: dimension divided by the regularisation multiplicity.

    One pass over lam: one shape check, one l_p, one tableau factor, and
    the multiplicity's exponent from the rule ``regn_multiplicity`` reads.
    """
    require_shape(lam, STRICT)
    n, l, lp = sum(lam), len(lam), l_p(lam, p)
    g = _tableau_factor(lam)
    up, _ = _regn_exponents(lam, p, lp)
    value = g << (n - l - lp + 1) // 2
    dim = g << (n - l + 1) // 2
    if value << up != dim:
        raise RuntimeError(f"ddeg {value} times the multiplicity is not dim {dim} on {lam} at p={p}")
    return value


def ddeg_ratio(lam: Partition, mu: Partition, p: int) -> Fraction:
    """ddeg(lam)/ddeg(mu) as an exact rational in lowest terms."""
    return Fraction(ddeg(lam, p), ddeg(mu, p))


@lru_cache(maxsize=None)
def _ranked_fibre(mu: Partition, p: int) -> dict[Partition, int]:
    """The fibre of mu as a map nu -> ddeg(nu), least ddeg first.

    The stable sort keeps reg_preimages' greatest-first order among equal
    ddeg.  Keyed by fibre and unbounded: each fibre met is enumerated, and
    each member's ddeg computed, once per process.
    """
    return dict(sorted(((nu, ddeg(nu, p)) for nu in reg_preimages(mu, p)), key=lambda entry: entry[1]))


def degree_witness(lam: Partition, p: int) -> Partition | None:
    """A strict partner with the same regularisation and smaller ddeg, or None.

    The partner has the least ddeg in lam's regularisation fibre, and is
    the lexicographically greatest among equal ddeg.  lam's own ddeg is
    read from its ranked fibre, so ddeg is computed only while a fibre is
    ranked, once per fibre and process.
    """
    require_shape(lam, STRICT)
    ranked = _ranked_fibre(regularize(lam, p), p)
    if lam not in ranked:
        raise RuntimeError(f"{lam} is missing from its regularisation fibre at p={p}")
    nu, least = next(iter(ranked.items()))
    return nu if least < ranked[lam] else None
