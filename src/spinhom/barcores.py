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
huge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ladders import ladder_profile, regularize
from .partitions import (
    Partition,
    PartitionError,
    is_p_strict,
    is_restricted,
    is_strict,
)


@dataclass(frozen=True)
class BarRemoval:
    kind: str  # "decrease" or "delete_pair"
    rows: tuple[int, ...]
    result: Partition


def bar_removals(lam: Partition, p: int) -> list[BarRemoval]:
    """All single p-bar removals from lam, each yielding a p-strict result."""
    if not is_p_strict(lam, p):
        raise PartitionError(f"{lam} is not {p}-strict")
    out: list[BarRemoval] = []
    parts = set(lam)
    for r, a in enumerate(lam, start=1):
        if a < p:
            continue
        if a % p != 0 and (a - p) in parts:
            continue
        rest = list(lam)
        rest[r - 1] = a - p
        result = tuple(sorted((x for x in rest if x > 0), reverse=True))
        assert is_p_strict(result, p)
        out.append(BarRemoval("decrease", (r,), result))
    for r in range(len(lam)):
        for s in range(r + 1, len(lam)):
            if lam[r] + lam[s] == p:
                rest = [x for k, x in enumerate(lam) if k not in (r, s)]
                result = tuple(rest)
                assert is_p_strict(result, p)
                out.append(BarRemoval("delete_pair", (r + 1, s + 1), result))
    return out


@dataclass(frozen=True)
class BarCoreResult:
    core: Partition
    weight: int


def bar_core(lam: Partition, p: int) -> BarCoreResult:
    """Iterate bar removal to its fixed point (order independent)."""
    current = lam
    weight = 0
    while True:
        moves = bar_removals(current, p)
        if not moves:
            break
        current = moves[0].result
        weight += 1
    assert sum(lam) == sum(current) + p * weight
    return BarCoreResult(current, weight)


def is_bar_core(lam: Partition, p: int) -> bool:
    return is_p_strict(lam, p) and not bar_removals(lam, p)


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
        if not is_p_strict(mu, p):
            continue
        if any(move.result == lam for move in bar_removals(mu, p)):
            out.append(mu)
    return sorted(out, reverse=True)


def block_members(core: Partition, weight: int, p: int, shape: str = "pstrict") -> list[Partition]:
    """All partitions with the given bar core and weight, filtered by shape.

    The block is grown by iterated bar addition from its core, which
    keeps the enumeration proportional to the output size.  ``shape``
    is one of "pstrict", "strict", "restricted".
    """
    if shape not in ("pstrict", "strict", "restricted"):
        raise PartitionError(f"unknown shape filter {shape!r}")
    if not is_bar_core(core, p):
        raise PartitionError(f"{core} is not a {p}-bar core")
    if weight < 0:
        raise PartitionError("weight must be non-negative")
    frontier = {core}
    for _ in range(weight):
        frontier = {mu for lam in frontier for mu in bar_additions(lam, p)}
    if shape == "strict":
        frontier = {lam for lam in frontier if is_strict(lam)}
    elif shape == "restricted":
        frontier = {lam for lam in frontier if is_restricted(lam, p)}
    return sorted(frontier, reverse=True)


def reg_preimages(mu: Partition, p: int) -> list[Partition]:
    """All strict partitions whose regularisation is mu, greatest first.

    Regularisation is a function of the ladder profile alone, so the
    fibre consists of the strict partitions with the same profile;
    they are found by a row-by-row search with the profile as budget.
    Ladders below (p-1)*(r-1) are untouchable from row r on, which
    prunes hard.
    """
    if not is_restricted(mu, p):
        raise PartitionError(f"{mu} is not restricted {p}-strict")
    target = ladder_profile(mu, p)
    if not target:
        return [()]
    max_l = max(target)
    remaining = [0] * (max_l + 1)
    for l, k in target.items():
        remaining[l] = k
    budget = sum(remaining)
    out: list[Partition] = []

    def rec(r: int, prev: int, acc: list[int]) -> None:
        # invariant on entry: every ladder below (p-1)(r-1) is exhausted
        nonlocal budget
        base = (p - 1) * (r - 1)
        if budget == 0:
            out.append(tuple(acc))
            # longer extensions would need fresh budget, so stop here
            return
        if base > max_l or remaining[base] != 1:
            # the only open position of ladder (p-1)(r-1) is (r, 1)
            return
        window = range(base, min(base + p - 1, max_l + 1))
        cap = prev - 1
        consumed: list[int] = []
        acc.append(0)
        for c in range(1, cap + 1):
            l = base + ((p - 1) * c) // p
            if l > max_l or remaining[l] == 0:
                break
            remaining[l] -= 1
            budget -= 1
            consumed.append(l)
            # rows below row r can no longer reach ladders under base + p - 1
            if all(remaining[k] == 0 for k in window):
                acc[-1] = c
                rec(r + 1, c, acc)
        acc.pop()
        for l in consumed:
            remaining[l] += 1
            budget += 1

    rec(1, sum(mu) + p, [])
    result = sorted(out, reverse=True)
    for lam in result:
        if regularize(lam, p) != mu:
            raise RuntimeError(f"fibre search for {mu} at p={p} returned {lam}, which regularises elsewhere")
    return result
