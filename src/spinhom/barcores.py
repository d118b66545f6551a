"""p-bar removal, bar cores and weights, blocks, and regularisation fibres.

Removing a p-bar from a p-strict partition means either lowering one
part by p (allowed when the part is at least p and either divisible by
p or the lowered value is not already a part) or deleting two parts
summing to p.  Iterating to a fixed point is confluent; the fixed point
is the p-bar core and the number of removals the p-bar weight.

Two p-strict partitions of the same size label objects of one block
exactly when their bar cores agree, equivalently (Morris-Yaseen) when
their residue contents agree.  ``block_members`` enumerates a block by
forward bar addition from its core; ``reg_preimages`` enumerates the
strict partitions with a prescribed regularisation by matching ladder
profiles directly, which stays fast even when the ambient block is
huge, and checks its output through those profiles, with a single
``regularize`` per fibre.  Its search prunes on the budget: below a row
of length c the strictly shorter rows hold at most c(c-1)/2 nodes, so a
partial partition with more of the profile left to place is dropped,
and it looks one row ahead: the next row alone can reach the p-1 ladders
from its first cell, so their nodes left must read 1..1 0..0, and a
first 0 at offset k fixes that row at k cells and the nodes left at
k(k+1)/2 or fewer.

``bar_core`` and ``is_bar_core`` read only the first removal of
``_bar_moves``, the generator behind ``bar_removals``.  p-strictness is
checked once per question: ``bar_removals`` and ``bar_core`` require it,
``is_bar_core`` and ``bar_additions`` test it, and ``_bar_moves`` trusts
its caller and checks each result it makes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .ladders import _MEMO_SIZE, ladder_profile, regularize
from .partitions import PSTRICT, RESTRICTED, SHAPES, Partition, PartitionError, has_shape, is_p_strict, require_shape


class BarRemoval(NamedTuple):
    kind: str  # "decrease" or "delete_pair"
    result: Partition


def _bar_moves(lam: Partition, p: int) -> Iterator[BarRemoval]:
    """The single p-bar removals from lam, lowered parts first, each
    result checked p-strict as it is made.

    lam must be p-strict; the caller has checked it.  A caller that
    needs only the first removal, or only whether there is one, stops
    after it and pays for that one alone.
    """
    parts = set(lam)
    for r, a in enumerate(lam, start=1):
        if a < p:
            continue
        if a % p != 0 and (a - p) in parts:
            continue
        rest = list(lam)
        rest[r - 1] = a - p
        result = tuple(sorted((x for x in rest if x > 0), reverse=True))
        if not is_p_strict(result, p):
            raise RuntimeError(f"lowering part {a} of {lam} by {p} gives {result}, not {p}-strict")
        yield BarRemoval("decrease", result)
    for r in range(len(lam)):
        for s in range(r + 1, len(lam)):
            if lam[r] + lam[s] == p:
                rest = [x for k, x in enumerate(lam) if k not in (r, s)]
                result = tuple(rest)
                if not is_p_strict(result, p):
                    raise RuntimeError(f"deleting parts {lam[r]}, {lam[s]} of {lam} gives {result}, not {p}-strict")
                yield BarRemoval("delete_pair", result)


def bar_removals(lam: Partition, p: int) -> list[BarRemoval]:
    """All single p-bar removals from lam, each yielding a p-strict result."""
    require_shape(lam, PSTRICT, p)
    return list(_bar_moves(lam, p))


class BarCoreResult(NamedTuple):
    core: Partition
    weight: int


@lru_cache(maxsize=_MEMO_SIZE)
def bar_core(lam: Partition, p: int) -> BarCoreResult:
    """Iterate bar removal to its fixed point (order independent).

    Each step takes the first removal alone; lam is checked p-strict
    once, and each later shape was checked as the move before made it.
    Memoised on the last ``_MEMO_SIZE`` (64) arguments, enough for every
    strict partition of one n <= 16; every check runs on each miss, and
    an input that raises is never stored.
    """
    require_shape(lam, PSTRICT, p)
    current = lam
    weight = 0
    while (move := next(_bar_moves(current, p), None)) is not None:
        current = move.result
        weight += 1
    if sum(lam) != sum(current) + p * weight:
        raise RuntimeError(f"bar core {current} of weight {weight} does not account for {lam} at p={p}")
    return BarCoreResult(current, weight)


def is_bar_core(lam: Partition, p: int) -> bool:
    """True if lam is p-strict and has no p-bar removal; stops at the first one."""
    return is_p_strict(lam, p) and next(_bar_moves(lam, p), None) is None


def same_block(lam: Partition, mu: Partition, p: int) -> bool:
    """Equal bar cores; both partitions must have the same size."""
    if sum(lam) != sum(mu):
        raise PartitionError("block comparison needs equal sizes")
    return bar_core(lam, p).core == bar_core(mu, p).core


def bar_additions(lam: Partition, p: int) -> list[Partition]:
    """All p-strict partitions with a single bar removal back to lam."""
    candidates: set[Partition] = set()
    for r in range(len(lam)):
        grown = list(lam)
        grown[r] += p
        candidates.add(tuple(sorted(grown, reverse=True)))
    candidates.add(tuple(sorted(lam + (p,), reverse=True)))
    for a in range(p // 2 + 1, p):
        candidates.add(tuple(sorted(lam + (a, p - a), reverse=True)))
    out = []
    for mu in candidates:
        if is_p_strict(mu, p) and any(move.result == lam for move in _bar_moves(mu, p)):
            out.append(mu)
    return sorted(out, reverse=True)


def block_members(core: Partition, weight: int, p: int, shape: str = PSTRICT) -> list[Partition]:
    """All partitions with the given bar core and weight, filtered by shape.

    The block is grown by iterated bar addition from its core, which
    keeps the enumeration proportional to the output size.  ``shape``
    names one of the classes in ``partitions.SHAPES``.
    """
    if shape not in SHAPES:
        raise PartitionError(f"unknown shape filter {shape!r}")
    if not is_bar_core(core, p):
        raise PartitionError(f"{core} is not a {p}-bar core")
    if weight < 0:
        raise PartitionError("weight must be non-negative")
    frontier = {core}
    for _ in range(weight):
        frontier = {mu for lam in frontier for mu in bar_additions(lam, p)}
    return sorted((lam for lam in frontier if has_shape(lam, shape, p)), reverse=True)


def reg_preimages(mu: Partition, p: int) -> list[Partition]:
    """All strict partitions whose regularisation is mu, greatest first.

    Regularisation is a function of the ladder profile alone, so the
    fibre consists of the strict partitions with the same profile;
    they are found by a row-by-row search with the profile as budget.
    Ladders below (p-1)*(r-1) are untouchable from row r on, which
    prunes hard.  The search descends below a row of length c only while
    the budget left is at most c(c-1)/2: the rows below are strictly
    shorter, so they hold at most (c-1) + (c-2) + ... + 1 nodes, and a
    larger budget can never be spent.

    Before it descends from row r to row r+1 it looks one row ahead.
    With below = (p-1)*r, the ladders below .. below+p-2 are reached from
    row r+1 on by row r+1 alone (row r+2 starts at ladder below+p-1),
    one cell each, from its first cell (r+1, 1) onwards.  So the nodes
    left on them must read 1..1 0..0: k ones, then zeros.  When k < p-1
    the first 0, at offset k, stops row r+1 after exactly k cells, and
    the rows below it are strictly shorter, so at most
    k + (k-1) + ... + 1 = k(k+1)/2 nodes may be left; in every case
    row r+1 has at least k cells and fewer than c, so k < c.  The window
    is read within ``remaining``; ladders past the largest one of mu hold
    no node, so a window cut short ends in zeros.

    The fibre is checked once, through profiles: every member must be
    p-strict with exactly mu's profile, and one member must regularise
    to mu.  ``regularize`` reads a p-strict input only through its
    ladder profile, so on such members it returns one value (or raises
    on all of them alike); this check therefore fails on exactly the
    fibres where regularising every member would fail.

    A mu of fewer than p nodes is its own fibre, returned without search:
    every part is below p, so cell (r, c) lies on ladder (p-1)(r-1) + c - 1,
    each row has its own window of ladders, and the profile fixes every row.
    """
    require_shape(mu, RESTRICTED, p)
    if sum(mu) < p:
        return [mu]
    target = ladder_profile(mu, p)
    max_l = max(target)
    remaining = [0] * (max_l + 1)
    for l, k in target.items():
        remaining[l] = k
    budget = sum(remaining)
    out: list[Partition] = []

    def rec(r: int, prev: int, acc: list[int]) -> None:
        # invariant on entry: the budget is positive, every ladder below
        # base = (p-1)(r-1) is exhausted and ladder base has one node left
        nonlocal budget
        base = (p - 1) * (r - 1)
        below = base + p - 1  # the ladder of the next row's first cell
        consumed: list[int] = []
        acc.append(0)
        for c in range(1, prev):
            l = base + ((p - 1) * c) // p
            if l > max_l or remaining[l] == 0:
                break
            remaining[l] -= 1
            budget -= 1
            consumed.append(l)
            acc[-1] = c
            if budget == 0:
                # longer extensions would need fresh budget, so stop here
                out.append(tuple(acc))
            elif (
                budget <= c * (c - 1) // 2
                and below <= max_l
                and remaining[below] == 1
                # rows below row r can no longer reach ladders under below
                and not any(remaining[base:below])
            ):
                # the next row alone reaches below .. below + p - 2, one
                # cell each from its first, so they must read 1..1 0..0: k
                # ones, none above 1 and none after the k-th; all p - 1
                # ones need no more test, and a first 0 at k caps the budget
                window = remaining[below:below + p - 1]
                k = window.count(1)
                if k < c and (
                    k == p - 1
                    or (budget <= k * (k + 1) // 2 and sum(window) == k and not any(window[k:]))
                ):
                    rec(r + 1, c, acc)
        acc.pop()
        for l in consumed:
            remaining[l] += 1
            budget += 1

    # ladder 0 is the single cell (1, 1), so the entry invariant holds at row 1
    rec(1, sum(mu) + p, [])
    result = sorted(out, reverse=True)
    for lam in result:
        if not is_p_strict(lam, p) or ladder_profile(lam, p) != target:
            raise RuntimeError(f"fibre search for {mu} at p={p} returned {lam}, whose ladder profile is not {mu}'s")
    if result and regularize(result[0], p) != mu:
        raise RuntimeError(f"fibre search for {mu} at p={p} returned {result[0]}, which regularises elsewhere")
    return result
