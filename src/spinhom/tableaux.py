"""Standard shifted tableaux, residue words, and patterned fillings.

A standard shifted tableau of a strict shape lam is a bijection t from
the nodes of lam to 1..n with

    t(r, c) < t(r, c+1)    and    t(r, c+1) < t(r+1, c)

for all admissible nodes.  The count of such tableaux equals the odd
factor g of the bar-length formula, which the tests exploit as a
cross-check.  Enumeration fills one grid in place, from n down to 1,
depth first from an explicit stack rather than by recursion: entry k
goes into each row end whose removal leaves a strict shape, tried in
ascending row order, and a tableau is built only when the grid is full,
so the stream order is deterministic.
"""

from __future__ import annotations

from operator import lt
from typing import Iterator, NamedTuple, Sequence

from .ladders import residue
from .partitions import STRICT, Partition, PartitionError, contains, is_strict, move_nodes, require_shape


class ShiftedTableau(NamedTuple):
    rows: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> Partition:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def is_standard(self) -> bool:
        """Strict shape, entries 1..n once each, and every neighbour pair in
        order: along each row, and t(r, c+1) < t(r+1, c) between each row
        and the next (the row above shifted one cell left)."""
        rows = self.rows
        if not is_strict(self.shape):
            return False
        if sorted(v for row in rows for v in row) != list(range(1, self.size + 1)):
            return False
        return all(all(map(lt, row, row[1:])) for row in rows) and all(
            all(map(lt, upper[1:], lower)) for upper, lower in zip(rows, rows[1:])
        )

    def residue_word(self, p: int) -> tuple[int, ...]:
        """Entry-ordered residues: position k holds the residue of t^{-1}(k)."""
        word = [0] * self.size
        for r, row in enumerate(self.rows, start=1):
            for c, v in enumerate(row, start=1):
                word[v - 1] = residue(r, c, p)
        return tuple(word)


def _strict_corners(lam: Sequence[int]) -> list[int]:
    """Rows whose last node can go while leaving a strict shape.

    Trailing empty rows are allowed, so the unfilled part of a shape can
    be passed as it stands.
    """
    out = []
    for r in range(1, len(lam) + 1):
        below = lam[r] if r < len(lam) else 0
        if lam[r - 1] - 1 > below or (lam[r - 1] == 1 and below == 0):
            out.append(r)
    return out


def enumerate_sst(lam: Partition) -> Iterator[ShiftedTableau]:
    """Every standard shifted tableau of shape lam, exactly once.

    Depth-first from an explicit stack, so a shape of any size costs no
    interpreter stack: ``stack[i]`` iterates over the rows still to try
    for entry n - i, and ``rows[i]`` is the row that entry sits in.
    """
    require_shape(lam, STRICT)
    n = sum(lam)
    if n == 0:
        yield ShiftedTableau(())
        return
    grid = [[0] * a for a in lam]
    cur = list(lam)  # the part of the shape still unfilled
    stack = [iter(_strict_corners(cur))]
    rows: list[int] = []
    while stack:
        if len(rows) == len(stack):  # take back this level's entry before its next row
            cur[rows.pop() - 1] += 1
        r = next(stack[-1], None)
        if r is None:
            stack.pop()
            continue
        k = n - len(rows)
        cur[r - 1] -= 1
        grid[r - 1][cur[r - 1]] = k
        rows.append(r)
        if k == 1:
            yield ShiftedTableau(tuple(map(tuple, grid)))
        else:
            stack.append(iter(_strict_corners(cur)))


def count_sst(lam: Partition) -> int:
    """The number of standard shifted tableaux of the strict shape lam.

    Counted level by level, without recursion, so a shape of any size
    costs no stack: after k levels ``ways`` maps each shape left once the
    entries n, n - 1, ..., n - k + 1 are placed (each at a row end whose
    removal leaves a strict shape) to the number of ways to place them,
    and after n levels only the empty shape is left.  No bar-length
    product is used: this is the independent side of the
    ``g_equals_tableau_count`` check.
    """
    require_shape(lam, STRICT)
    ways = {lam: 1}
    for _ in range(sum(lam)):
        below: dict[Partition, int] = {}
        for mu, w in ways.items():
            for r in _strict_corners(mu):
                nu = move_nodes(mu, ((r, mu[r - 1]),), -1)
                below[nu] = below.get(nu, 0) + w
        ways = below
    return ways[()]


def find_patterned_tableau(
    lam: Partition, prefix_shape: Partition, p: int
) -> ShiftedTableau | None:
    """A standard shifted tableau of shape lam whose entries split into a
    prefix filling ``prefix_shape`` and consecutive triples beyond it.

    Entries 1..|prefix| must fill ``prefix_shape``; afterwards entries
    arrive in blocks of three occupying three adjacent columns of one
    row, and each block's residues must be 0, 0, 1 in some order.  The
    region outside the prefix must split rowwise into such triples
    (every row difference divisible by three), otherwise the region is
    malformed.  Returns the first tableau found by depth-first search,
    or None.

    One prefix filling decides the search: the triple search reads only
    how far each row is filled, never the prefix entries, so the first
    filling of ``prefix_shape`` succeeds exactly when any filling does,
    and gives the tableau any search over all fillings would find first.
    """
    require_shape(lam, STRICT)
    if not contains(lam, prefix_shape):
        raise PartitionError("prefix shape must sit inside the outer shape")
    filled = list(prefix_shape) + [0] * (len(lam) - len(prefix_shape))
    if any((lam[r] - filled[r]) % 3 != 0 for r in range(len(lam))):
        raise PartitionError("region outside the prefix must split into row triples")
    prefix = next(enumerate_sst(prefix_shape))
    rows = [list(row) for row in prefix.rows] + [[] for _ in range(len(lam) - len(prefix.rows))]
    n = sum(lam)

    def rec(next_entry: int) -> bool:
        if next_entry > n:
            return True
        for r in range(1, len(lam) + 1):
            c = filled[r - 1] + 1
            if c + 2 > lam[r - 1]:
                continue
            if sorted(residue(r, c + k, p) for k in range(3)) != [0, 0, 1]:
                continue
            # entries grow along rows and along the shifted columns, so a
            # block (r, c..c+2) may start once row r reaches c-1 and row r-1
            # reaches c+3 (row r-1 always extends that far inside lam)
            if r >= 2 and filled[r - 2] < min(c + 3, lam[r - 2]):
                continue
            rows[r - 1].extend(range(next_entry, next_entry + 3))
            filled[r - 1] += 3
            if rec(next_entry + 3):
                return True
            filled[r - 1] -= 3
            del rows[r - 1][-3:]
        return False

    if not rec(sum(prefix_shape) + 1):
        return None
    tab = ShiftedTableau(tuple(tuple(row) for row in rows))
    if not (tab.is_standard() and tab.shape == lam):
        raise RuntimeError(f"patterned filling {tab.rows} of {lam} is not a standard shifted tableau")
    return tab
