"""Partitions and their basic arithmetic.

A partition is stored as a plain tuple of weakly decreasing positive
integers; the empty partition is ``()``.  Everything here is pure and
works on tuples, so values can be hashed, cached and compared freely.

Three shape classes recur throughout the package, always relative to an
odd prime p:

* strict: strictly decreasing parts;
* p-strict: for every row r, either ``lam[r] > lam[r+1]`` or
  ``lam[r]`` is divisible by p (so repeats are allowed only among parts
  divisible by p);
* restricted p-strict: p-strict, and every gap satisfies
  ``lam[r] - lam[r+1] < p``, or ``== p`` with ``lam[r]`` not divisible
  by p.  The gap condition is applied to the last part as well (against
  a trailing zero), so e.g. (3,) is p-strict but not restricted at p=3.

``SHAPES`` names the three classes, and ``require_shape`` is the one
check every entry point makes of its input's class.  ``move_nodes``
is the one way a shape gains or loses nodes (r, c), row and column
1-based, and checks each against the end of its row.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import gt, itemgetter, le
from typing import Iterable, Iterator

Partition = tuple[int, ...]
Node = tuple[int, int]

EMPTY: Partition = ()


class PartitionError(ValueError):
    """Raised for malformed partition input or violated preconditions."""


def check_odd_prime(p: int) -> None:
    """Raise PartitionError unless p is an odd prime.

    Entry points check p once; per-node functions such as
    ``ladders.ladder_index`` run millions of times and do not.
    """
    if p < 3 or p % 2 == 0 or any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)):
        raise PartitionError(f"p must be an odd prime, got {p}")


def run_down(a: int, b: int) -> Partition:
    """The sequence a, a-3, ..., b; empty when a < b."""
    if a >= b and (a - b) % 3 != 0:
        raise PartitionError(f"run {a}..{b} endpoints differ mod 3")
    return tuple(range(a, b - 1, -3))


def parse_partition(text: str) -> Partition:
    """Parse the canonical comma form, e.g. ``"5,4,3"``.

    The empty string (or the symbol for the empty partition) parses to ().
    A token ``a..b`` abbreviates ``run_down(a, b)``, the run a, a-3, ...,
    b, and requires a >= b with a == b (mod 3).  Input order is
    irrelevant: the parts are sorted decreasingly, so the parser accepts
    any ordering and strictness is a separate check (``require_shape``).
    """
    text = text.strip()
    if text in ("", "-", "0", "∅"):
        return EMPTY
    parts: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise PartitionError("empty token in partition string")
        if ".." in tok:
            lo_hi = tok.split("..")
            if len(lo_hi) != 2:
                raise PartitionError(f"malformed range token {tok!r}")
            try:
                a, b = int(lo_hi[0]), int(lo_hi[1])
            except ValueError as exc:
                raise PartitionError(f"malformed range token {tok!r}") from exc
            if a < b:
                raise PartitionError(f"range {tok!r} must decrease")
            parts.extend(run_down(a, b))
        else:
            try:
                parts.append(int(tok))
            except ValueError as exc:
                raise PartitionError(f"malformed token {tok!r}") from exc
    if any(a <= 0 for a in parts):
        bad = next(a for a in parts if a <= 0)
        raise PartitionError(f"non-positive part {bad}")
    return tuple(sorted(parts, reverse=True))


def format_partition(lam: Partition) -> str:
    """Canonical text form: comma separated parts, or the empty symbol."""
    if not lam:
        return "∅"
    return ",".join(str(a) for a in lam)


def part(lam: Partition, r: int) -> int:
    """Part in row r (1-based); zero beyond the length."""
    return lam[r - 1] if 1 <= r <= len(lam) else 0


def is_strict(lam: Partition) -> bool:
    """Every part exceeds the next one; one C-level pass of ``gt`` over
    neighbouring parts."""
    return all(map(gt, lam, lam[1:]))


def is_p_strict(lam: Partition, p: int) -> bool:
    """Every part exceeds the next one or is divisible by p; one pass
    over neighbouring parts."""
    for a, b in zip(lam, lam[1:]):
        if a <= b and a % p:
            return False
    return True


def is_restricted(lam: Partition, p: int) -> bool:
    """p-strict, and each part exceeds the next one (the last part: 0) by
    less than p, or by exactly p when p does not divide it.

    Any sequence of ints is accepted: the trailing zero is appended to a
    new tuple, never to lam.
    """
    if not is_p_strict(lam, p):
        return False
    for a, b in zip(lam, (*lam[1:], 0)):
        if a - b > p or a - b == p and not a % p:
            return False
    return True


STRICT = "strict"
PSTRICT = "pstrict"
RESTRICTED = "restricted"

# name -> message noun of each shape class, in the order the CLI lists them
SHAPES: dict[str, str] = {
    STRICT: "strict",
    PSTRICT: "{p}-strict",
    RESTRICTED: "restricted {p}-strict",
}


def has_shape(lam: Partition, shape: str, p: int | None = None) -> bool:
    """True if lam is in the named class of ``SHAPES`` (p unused for strict)."""
    if shape == STRICT:
        return is_strict(lam)
    if shape == PSTRICT:
        return is_p_strict(lam, p)
    if shape == RESTRICTED:
        return is_restricted(lam, p)
    raise PartitionError(f"unknown shape {shape!r}")


def require_shape(lam: Partition, shape: str, p: int | None = None) -> None:
    """Raise PartitionError, e.g. ``(3, 3) is not strict``, unless lam has the shape."""
    if not has_shape(lam, shape, p):
        raise PartitionError(f"{lam} is not {SHAPES[shape].format(p=p)}")


def l_p(lam: Partition, p: int) -> int:
    """The number of parts of lam divisible by p."""
    return sum(1 for a in lam if a % p == 0)


def is_odd_partition(lam: Partition) -> bool:
    """Spin parity: True when lam has an odd number of even parts."""
    return sum(1 for a in lam if a % 2 == 0) % 2 == 1


def scaled_add(lam: Partition, m: int, mu: Partition) -> Partition:
    """Componentwise lam + m*mu; the result must again be a partition."""
    if m < 0:
        raise PartitionError("scale factor must be non-negative")
    n = max(len(lam), len(mu))
    comps = tuple(part(lam, r) + m * part(mu, r) for r in range(1, n + 1))
    if any(comps[k] < comps[k + 1] for k in range(len(comps) - 1)):
        raise PartitionError(f"componentwise sum {comps} is not weakly decreasing")
    return tuple(a for a in comps if a > 0)


def join(lam: Partition, mu: Partition) -> Partition:
    """Multiset union of the parts, sorted decreasingly."""
    return tuple(sorted(lam + mu, reverse=True))


@lru_cache(maxsize=None)
def conjugate(alpha: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths of alpha."""
    if not alpha:
        return EMPTY
    return tuple(sum(1 for a in alpha if a >= c) for c in range(1, alpha[0] + 1))


def contains(lam: Partition, mu: Partition) -> bool:
    """Diagram containment: mu_r <= lam_r for every row."""
    return len(mu) <= len(lam) and all(map(le, mu, lam))


def move_nodes(lam: Partition, nodes: Iterable[Node], step: int) -> Partition:
    """Add (step +1) or remove (step -1) the nodes of lam one at a time, in
    column order with removals last column first; emptied rows are dropped
    and the caller checks the result's shape.  RuntimeError unless each
    cell, at its turn, is the next cell of its row (the row below the last
    starts empty) or its row's current end."""
    if step not in (1, -1):
        raise PartitionError(f"step must be +1 or -1, got {step}")
    rows = list(lam)
    for r, c in sorted(nodes, key=itemgetter(1, 0), reverse=step < 0):
        if step > 0 and r == len(rows) + 1:
            rows.append(0)
        if not (1 <= r <= len(rows) and c >= 1 and rows[r - 1] == (c - 1 if step > 0 else c)):
            end = "next cell" if step > 0 else "end"
            raise RuntimeError(f"node {(r, c)} is not the {end} of its row in {tuple(rows)}")
        rows[r - 1] += step
    return tuple(a for a in rows if a)


# ---------------------------------------------------------------------------
# enumeration helpers (workhorses of the exhaustive verification suites)


def _descending(n: int, top: int, m: int) -> Iterator[Partition]:
    """Partitions of n into parts at most top, lexicographically decreasing,
    repeating only parts m divides (m = 1: all, p: p-strict, > n: strict)."""
    if n == 0:
        yield EMPTY
        return
    for head in range(min(top, n), 0, -1):
        nxt = head if head % m == 0 else head - 1
        for tail in (_descending(n - head, nxt, m) if head < n else (EMPTY,)):  # no generator per leaf
            yield (head,) + tail


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, largest part first, lexicographically decreasing;
    a memoised tuple, since only small n (wreath labels, closed forms) ask."""
    return tuple(_descending(n, n, 1))


def strict_partitions_of(n: int) -> Iterator[Partition]:
    yield from _descending(n, n, n + 1)


def p_strict_partitions_of(n: int, p: int) -> Iterator[Partition]:
    """All p-strict partitions of n (repeats only among parts divisible by p)."""
    yield from _descending(n, n, p)


def restricted_partitions_of(n: int, p: int) -> Iterator[Partition]:
    for lam in p_strict_partitions_of(n, p):
        if is_restricted(lam, p):
            yield lam
