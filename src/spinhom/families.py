"""Named partition families used by the degree and extremal-chain suites.

``run_down(a, b)``, from ``partitions``, is the arithmetic run a, a-3,
..., b (empty when a < b).  Each degree family ("deglem1" ..
"deglem12", no number 3) pairs a partition lam(l) with a comparison
partner mu(l) inside the same regularisation fibre and carries the exact
closed form of either the direct ratio ddeg(lam)/ddeg(mu) or the
consecutive-ratio quotient r(l+1)/r(l), each claimed for every l from
its start; the degrees suite recomputes both sides exactly at every l up
to its ``max_l``.

``sigma``/``tau`` are the two interleaved ladders of shapes ending in
(6,4,3,1) and (6,5,3,2): adding all strictly-addable 1-nodes maps
sigma(l) to tau(l), and adding all strictly-addable 0-nodes maps tau(l)
to sigma(l+1), for every l >= 2.  For small l the shapes are read as
length-(l+2) suffixes of the limiting sequences, which matches how the
containment arguments use them; note no partition at all maps onto
sigma(2) = (6,4,3,1) under a full 0-node addition, since such an image
always has first part congruent to 1 mod 3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .partitions import Partition, PartitionError, is_strict, run_down


def _suffix(head: Partition, tail: Partition, length: int) -> Partition:
    full = head + tail
    return full[len(full) - length:]


def sigma(l: int) -> Partition:
    """(3l-2, ..., 7, 6, 4, 3, 1), read as a length-(l+2) suffix for small l."""
    if l < 1:
        raise PartitionError("l must be positive")
    return _suffix(run_down(3 * l - 2, 7), (6, 4, 3, 1), l + 2)


def tau(l: int) -> Partition:
    """(3l-1, ..., 8, 6, 5, 3, 2), read as a length-(l+2) suffix for small l."""
    if l < 1:
        raise PartitionError("l must be positive")
    return _suffix(run_down(3 * l - 1, 8), (6, 5, 3, 2), l + 2)


class DegreeFamily(NamedTuple):
    """One lam/mu pair family with its exact ratio bookkeeping.

    ``ratio_kind`` is "direct" when ``ratio`` gives
    ddeg(lam(l))/ddeg(mu(l)) itself, or "consecutive" when it gives the
    quotient r(l+1)/r(l) of those ratios.  Each claim holds for every l
    from its start on: the closed form from ``formula_from``,
    ddeg(lam(l)) > ddeg(mu(l)) from ``greater_from`` and at the indices
    in ``extra_greater``; ``equal_at`` lists the l with exact equality,
    none of them a greater index.  Every family's pair shares its
    regularisation at every such l.
    """

    name: str
    lam: Callable[[int], Partition]
    mu: Callable[[int], Partition]
    ratio_kind: str
    ratio: Callable[[int], Fraction]
    formula_from: int
    greater_from: int
    equal_at: tuple[int, ...] = ()
    extra_greater: tuple[int, ...] = ()

    @property
    def first_index(self) -> int:
        """The smallest l at which the family claims anything."""
        return min(self.formula_from, self.greater_from, *self.extra_greater)


def _deglem1_mu(l: int) -> Partition:
    return (3 * l + 4,) + run_down(3 * l - 2, 7) + (3, 1)


def _deglem12_ratio(l: int) -> Fraction:
    num = den = 1
    for k in range(3 * l + 5, 6 * l, 3):
        num *= k
    for k in range(3 * l + 4, 6 * l - 1, 3):
        den *= k
    return Fraction(num, den)


FAMILIES: dict[str, DegreeFamily] = {fam.name: fam for fam in (
    DegreeFamily(
        "deglem1",
        lambda l: run_down(3 * l + 1, 10) + (6, 4, 3, 1),
        _deglem1_mu,
        "consecutive",
        lambda l: Fraction((l + 1) * (3 * l + 1) * (3 * l + 8), l * (3 * l + 5) * (3 * l + 7)),
        formula_from=3, greater_from=4,
        equal_at=(3,),
    ),
    DegreeFamily(
        "deglem2",
        lambda l: run_down(3 * l, 3),
        lambda l: (3 * l - 1, 3 * l - 2) + run_down(3 * l - 6, 3),
        "consecutive",
        lambda l: Fraction(l * l * (6 * l - 5) * (6 * l - 1), (2 * l - 1) ** 2 * (3 * l - 2) * (3 * l + 2)),
        formula_from=3, greater_from=3,
    ),
    DegreeFamily(
        "deglem4",
        lambda l: (3 * l - 1, 3 * l - 2) + run_down(3 * l - 6, 3),
        lambda l: (3 * l - 1, 3 * l - 2, 3 * l - 7, 3 * l - 8) + run_down(3 * l - 12, 3),
        "consecutive",
        lambda l: Fraction(
            (l - 2) ** 2 * (2 * l - 1) ** 2 * (6 * l - 17) * (6 * l - 13) * (6 * l - 11) * (6 * l - 7),
            (2 * l - 5) ** 2 * (2 * l - 3) ** 2 * (3 * l - 8) * (3 * l - 4) * (6 * l - 5) * (6 * l - 1),
        ),
        formula_from=7, greater_from=7,
    ),
    DegreeFamily(
        "deglem5",
        lambda l: (3 * l, 3 * l - 3, 3 * l - 7, 3 * l - 8) + run_down(3 * l - 12, 3),
        lambda l: (3 * l, 3 * l - 3, 3 * l - 5) + run_down(3 * l - 9, 6) + (2,),
        "consecutive",
        lambda l: Fraction(
            (l - 3) * l ** 3 * (2 * l - 5) ** 2 * (2 * l - 1) * (3 * l - 7) * (3 * l - 5)
            * (3 * l - 4) ** 2 * (3 * l + 5) * (6 * l - 11) ** 2 * (6 * l - 7) * (6 * l + 1),
            (l - 2) ** 4 * (l + 2) * (2 * l - 3) ** 2 * (3 * l - 8) * (3 * l - 1)
            * (3 * l + 1) ** 2 * (6 * l - 17) * (6 * l - 13) * (6 * l - 5) ** 2 * (6 * l - 1),
        ),
        formula_from=4, greater_from=4,
    ),
    DegreeFamily(
        "deglem6",
        lambda l: (3 * l + 1, 3 * l - 3, 3 * l - 7, 3 * l - 8) + run_down(3 * l - 12, 3),
        lambda l: (3 * l + 1, 3 * l - 3, 3 * l - 5) + run_down(3 * l - 9, 6) + (2,),
        "consecutive",
        lambda l: Fraction(
            (l - 3) * (l - 1) ** 2 * l * (l + 2) * (2 * l - 5) ** 2 * (3 * l - 7) * (3 * l - 5)
            * (3 * l - 1) ** 2 * (3 * l + 1) * (3 * l + 4) * (6 * l - 11) ** 2 * (6 * l - 7),
            (l - 2) ** 4 * (l + 1) ** 2 * (2 * l - 3) * (3 * l - 8) * (3 * l - 2) ** 3
            * (3 * l + 7) * (6 * l - 17) * (6 * l - 13) * (6 * l - 5) * (6 * l - 1),
        ),
        formula_from=7, greater_from=7,
        extra_greater=(4,),
    ),
    DegreeFamily(
        "deglem7",
        lambda l: (3 * l - 1, 3 * l - 2, 3 * l - 7, 3 * l - 8) + run_down(3 * l - 12, 3),
        lambda l: (3 * l - 1, 3 * l - 2, 3 * l - 6, 3 * l - 8) + run_down(3 * l - 12, 6) + (2,),
        "consecutive",
        lambda l: Fraction(
            (l - 4) * (l - 1) ** 3 * (l + 1) * (2 * l - 5) ** 2 * (3 * l - 10) * (3 * l - 8)
            * (3 * l - 4) * (3 * l - 1) * (3 * l + 2) * (6 * l - 1),
            (l - 3) * (l - 2) ** 2 * l ** 3 * (2 * l - 1) * (3 * l - 11) ** 2 * (3 * l - 5)
            * (3 * l + 5) * (6 * l - 13) * (6 * l - 7),
        ),
        formula_from=6, greater_from=6,
    ),
    DegreeFamily(
        "deglem8",
        lambda l: (3 * l, 3 * l - 4, 3 * l - 5) + run_down(3 * l - 9, 3) if l >= 3 else (6, 2, 1),
        lambda l: ((3 * l - 1, 3 * l - 2) + run_down(3 * l - 6, 3)) if l <= 7
        else (3 * l, 3 * l - 3, 3 * l - 5) + run_down(3 * l - 9, 6) + (2,),
        "consecutive",
        lambda l: Fraction(
            (l - 3) * l ** 3 * (2 * l - 3) ** 2 * (2 * l + 1) * (3 * l - 7) * (3 * l - 5)
            * (3 * l - 2) ** 2 * (3 * l - 1) * (3 * l + 5),
            (l - 2) * (l - 1) ** 3 * (l + 2) * (2 * l - 1) ** 2 * (3 * l - 8) ** 2
            * (3 * l + 1) ** 3 * (6 * l - 7),
        ),
        formula_from=8, greater_from=2,
    ),
    DegreeFamily(
        "deglem9",
        lambda l: (6 * l + 6,) + run_down(6 * l + 4, 3 * l + 7) + (3 * l + 3,) + run_down(3 * l + 1, 4),
        lambda l: (6 * l + 6,) + run_down(6 * l + 4, 3 * l + 4) + (3 * l,) + run_down(3 * l - 2, 4),
        "direct",
        lambda l: Fraction(
            (l + 1) * (3 * l - 1) * (6 * l + 7) * (9 * l + 8) * (9 * l + 10),
            3 * l * (l + 2) * (6 * l + 1) * (9 * l + 7) ** 2,
        ),
        formula_from=1, greater_from=1,
    ),
    DegreeFamily(
        "deglem10",
        lambda l: run_down(6 * l - 4, 3 * l + 5) + (3 * l + 2, 3 * l) + run_down(3 * l - 4, 2),
        lambda l: run_down(6 * l - 4, 3 * l + 5) + (3 * l + 3, 3 * l - 1) + run_down(3 * l - 4, 2),
        "direct",
        lambda l: Fraction(
            (l + 1) * (3 * l - 4) * (6 * l - 1) * (9 * l - 1),
            (l - 1) * (3 * l - 1) * (6 * l + 5) * (9 * l - 2),
        ),
        formula_from=6, greater_from=6,
    ),
    DegreeFamily(
        "deglem11",
        lambda l: (3 * l,) + run_down(3 * l - 2, 4) + (3, 1),
        lambda l: run_down(3 * l + 1, 10) + (6, 4, 3, 1) if l >= 4 else (13, 7, 4),
        "consecutive",
        lambda l: Fraction(
            l * (3 * l + 7) * (3 * l + 10) * (6 * l + 5),
            (l + 2) * (3 * l + 2) * (3 * l + 11) * (6 * l + 1),
        ),
        formula_from=4, greater_from=3,
    ),
    DegreeFamily(
        "deglem12",
        lambda l: (3 * l,) + run_down(3 * l - 2, 1),
        lambda l: run_down(3 * l + 1, 4),
        "direct",
        _deglem12_ratio,
        formula_from=1, greater_from=2,
        equal_at=(1,),
    ),
)}


def family(name: str) -> DegreeFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise PartitionError(f"unknown family {name!r}") from None


def admissible_row_tuples(l: int) -> Iterator[tuple[int, ...]]:
    """Adjustment tuples (a_1, ..., a_{l+1}) of the staircase family.

    Entries lie in {0, 1, 2}; a 2 in position r >= 2 forces a 0 just
    before it, a 0 forces a 2 just after it (and cannot sit in the last
    slot), and some position r >= 4 must differ from 1.
    """
    def rec(prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == l + 1:
            if prefix[-1] == 0:
                return
            if all(prefix[r] == 1 for r in range(3, l + 1)):
                return
            yield tuple(prefix)
            return
        for a in (0, 1, 2):
            if a == 2 and prefix and prefix[-1] != 0:
                continue
            if prefix and prefix[-1] == 0 and a != 2:
                continue
            prefix.append(a)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([])


def staircase_adjusted(l: int, tup: tuple[int, ...]) -> Partition:
    """The strict partition with parts 3(l+1-r) - 1 + a_r, zero parts dropped."""
    if len(tup) != l + 1:
        raise PartitionError("tuple length must be l+1")
    parts = tuple(3 * (l + 1 - r) - 1 + a for r, a in enumerate(tup, start=1))
    out = tuple(a for a in parts if a > 0)
    if not is_strict(out):
        raise PartitionError(f"tuple {tup} does not give a strict partition")
    return out
