"""Addable and removable nodes, signatures, and the branching operators.

Two senses of addable/removable are in play for a residue i:

* the p-strict sense ("pstrict" mode): an i-node counts if it can be
  added/removed, possibly together with other i-nodes, leaving a
  p-strict partition;
* the strict sense ("strict" mode): the same with "strict partition"
  in place of "p-strict" (input and output).

For i != 0 the two senses agree on strict partitions; for i = 0 they
differ, and the difference drives everything downstream.

Because same-residue columns come in runs of length at most two, a
joint addition/removal touches each row in at most two cells, and its
per-row amounts are constrained only between consecutive rows: an upper
row a and a lower row b must have a > b, or a == b where the mode allows
equal rows.  That constraint is monotone (it keeps holding as a grows
or b shrinks), and leaving a row unchanged is always consistent with
its neighbours because lam itself is valid.  So a growing row can only
clash with the row above it, which clashes least when grown as far as
it can go; one pass down the rows, carrying that farthest length,
decides every row, and shrinking is the mirror image, one pass up.
Each row's feasible amounts form a range from 0, and its boundary
nodes are the cells up to the farthest one.  The sweep tests a cell's
residue inline, (c - 1) mod p in {i, p - 1 - i} as in ``ladders.residue``,
and keeps no per-prime state, so a large p costs no more memory than lam.

Each pass yields its nodes by ascending column without a sort: a lower
row's boundary cells lie left of the upper row's.  i-columns come
singly, except for i = 0, whose columns c = 0, 1 (mod p) come in pairs,
and no three are adjacent; so a lower row that reached a boundary column
of the row above would end level with it at a length of +-1 (mod p),
which neither mode allows, or the upper row's cells would need three
adjacent i-columns.  Growing, the pass meets the rows top-down, so it
lists each row's cells by descending column and reverses the list once;
shrinking, it meets them bottom-up, already in order.
``boundary_nodes`` checks this rather than assume it: each list must
increase strictly in column, and the two lists must share no column.

On restricted p-strict partitions the i-signature (boundary nodes read
by increasing column, "+" for addable, "-" for removable) reduces by
cancelling adjacent "+-" pairs to -^eps +^phi; the surviving nodes are
the normal and conormal ones, and removing the rightmost normal /
adding the leftmost conormal node gives the operators tilde_e and
tilde_f.

``normal_extremal`` (tilde_e or tilde_f to exhaustion) moves every
normal (conormal) node of one signature at once.  Removing the
rightmost normal node turns its "-" into a "+" to the right of every
remaining "-", so the remaining normal nodes stay normal; dually for
the leftmost conormal node.  Checked against the iterated operators on
every restricted mu, i and direction for p = 3, 5, 7, 11 up to n = 45,
36, 30, 26 (46848 cases), where each tilde operator's node was also
always a row end (24919 cases).  Every node move here goes through the
checked ``partitions.move_nodes``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .ladders import _MEMO_SIZE, ladder_index, regularize, residue
from .partitions import (
    PSTRICT,
    RESTRICTED,
    STRICT,
    Node,
    Partition,
    PartitionError,
    is_odd_partition,
    is_restricted,
    is_strict,
    move_nodes,
    require_shape,
)


def _require_residue(i: int, p: int) -> None:
    if not 0 <= i <= (p - 1) // 2:
        raise PartitionError(f"residue {i} out of range for p={p}")


def _require_direction(direction: str) -> None:
    if direction not in ("down", "up"):
        raise PartitionError(f"direction must be 'down' or 'up', got {direction!r}")


def _boundary_pass(lam: Partition, i: int, p: int, mode: str, direction: int) -> list[Node]:
    """The boundary i-nodes of lam in one direction, by ascending column.

    direction +1 grows rows (one phantom row below), -1 shrinks them.
    Row r may change by 0, 1 or 2 cells, all of them i-nodes, and the
    changed shape must be a partition of the mode's class; the row's
    nodes are the cells up to the farthest change realised by at least
    one valid joint move.  One pass decides every row (see the module
    docstring): down the rows when growing, carrying the farthest length
    the row above can reach, and up them when shrinking, carrying the
    shortest length of the row below.  An upper row of length a and a
    lower one of length b fit when a > b, or a == b where the mode allows
    equal rows (a % p == 0 when p-strict, a == 0 when strict).
    """
    pstrict = mode == PSTRICT
    twin = p - 1 - i
    nodes: list[Node] = []
    if direction > 0:
        carried = lam[0] + 3 if lam else 3  # nothing above row 1 bounds it
        r = 0
        for a in lam + (0,):
            r += 1
            c = a + 1  # the new cell c ends the row at length c, under the row above's carried
            if (
                ((col := a % p) == i or col == twin)
                and (carried > c or carried == c and not (c % p if pstrict else c))
            ):
                d = c + 1
                if (
                    ((col := c % p) == i or col == twin)
                    and (carried > d or carried == d and not (d % p if pstrict else d))
                ):
                    nodes.append((r, d))
                    c = d
                nodes.append((r, a + 1))
                carried = c
            else:
                carried = a
        nodes.reverse()  # listed top-down, each row by descending column
    else:
        carried = 0  # the row below the last one is empty
        r = len(lam) + 1
        for a in reversed(lam):
            r -= 1
            up = a - 1  # removing cell a leaves length up, over the row below's carried
            if (
                ((col := up % p) == i or col == twin)
                and (up > carried or up == carried and not (up % p if pstrict else up))
            ):
                down = up - 1
                if (
                    down >= 0
                    and ((col := down % p) == i or col == twin)
                    and (down > carried or down == carried and not (down % p if pstrict else down))
                ):
                    nodes.append((r, up))
                    up = down
                nodes.append((r, a))
                carried = up
            else:
                carried = a
    return nodes


@lru_cache(maxsize=_MEMO_SIZE)
def boundary_nodes(lam: Partition, i: int, p: int, mode: str) -> tuple[tuple[Node, ...], tuple[Node, ...]]:
    """Addable and removable i-nodes of lam in the given sense.

    Each direction's nodes come from one ``_boundary_pass``.  Both tuples
    come back ordered by strictly increasing column, and across the two
    all columns are distinct (both checked), which is what makes the
    signature reading order well defined.  Memoised on the last
    ``_MEMO_SIZE`` (64) arguments; every check runs on each miss, and an
    input that raises is never stored.
    """
    if mode not in (STRICT, PSTRICT):
        raise PartitionError(f"unknown mode {mode!r}")
    require_shape(lam, mode, p)
    _require_residue(i, p)
    addables = _boundary_pass(lam, i, p, mode, +1)
    removables = _boundary_pass(lam, i, p, mode, -1)
    for nodes in (addables, removables):
        prev = 0
        for _, c in nodes:
            if c <= prev:
                raise RuntimeError(f"boundary {i}-nodes of {lam} are not in column order (p={p}, mode={mode})")
            prev = c
    if addables and removables and not {c for _, c in addables}.isdisjoint([c for _, c in removables]):
        raise RuntimeError(f"boundary {i}-nodes of {lam} share a column (p={p}, mode={mode})")
    return tuple(addables), tuple(removables)


# ---------------------------------------------------------------------------
# signatures and the tilde operators


class SignatureReport(NamedTuple):
    raw: str
    reduced: str
    normals: tuple[Node, ...]
    conormals: tuple[Node, ...]

    @property
    def eps(self) -> int:
        return len(self.normals)

    @property
    def phi(self) -> int:
        return len(self.conormals)


@lru_cache(maxsize=None)
def signature(mu: Partition, i: int, p: int) -> SignatureReport:
    """The i-signature of a restricted p-strict partition.

    A restricted mu labels a regularisation fibre, and every member of
    the fibre asks for its signature (``eps_i``, ``normal_extremal`` and
    the tilde operators read it in turn), so the memo is keyed by fibre
    and unbounded: one entry per (mu, i, p) met.  Every check runs on
    each miss, and an input that raises is never stored.
    """
    require_shape(mu, RESTRICTED, p)
    adds, rems = boundary_nodes(mu, i, p, PSTRICT)
    entries = sorted(
        [(rc, "+") for rc in adds] + [(rc, "-") for rc in rems], key=lambda e: e[0][1]
    )
    raw = "".join(sign for _, sign in entries)
    stack: list[int] = []  # indices into entries of surviving signs
    for k, (_, sign) in enumerate(entries):
        if sign == "-" and stack and entries[stack[-1]][1] == "+":
            stack.pop()
        else:
            stack.append(k)
    reduced = "".join(entries[k][1] for k in stack)
    if "+-" in reduced:
        raise RuntimeError(f"reduced {i}-signature {reduced} of {mu} is not of the form -...+")
    normals = tuple(entries[k][0] for k in stack if entries[k][1] == "-")
    conormals = tuple(entries[k][0] for k in stack if entries[k][1] == "+")
    return SignatureReport(raw, reduced, normals, conormals)


def _restricted_move(mu: Partition, i: int, p: int, nodes: tuple[Node, ...], direction: str) -> Partition:
    """Remove ("down") or add ("up") the given i-nodes; the result must be restricted."""
    out = move_nodes(mu, nodes, -1 if direction == "down" else 1)
    if not is_restricted(out, p):
        op = "tilde_e" if direction == "down" else "tilde_f"
        raise RuntimeError(f"{op} of {mu} at i={i} gives {out}, not restricted {p}-strict")
    return out


def _tilde(mu: Partition, i: int, p: int, direction: str) -> Partition:
    """tilde_e ("down") or tilde_f ("up") of mu."""
    sig = signature(mu, i, p)
    nodes = sig.normals[-1:] if direction == "down" else sig.conormals[:1]
    if not nodes:
        raise PartitionError(f"{mu} has no {'normal' if direction == 'down' else 'conormal'} {i}-node")
    return _restricted_move(mu, i, p, nodes, direction)


def tilde_e(mu: Partition, i: int, p: int) -> Partition:
    """Remove the rightmost normal i-node."""
    return _tilde(mu, i, p, "down")


def tilde_f(mu: Partition, i: int, p: int) -> Partition:
    """Add the leftmost conormal i-node."""
    return _tilde(mu, i, p, "up")


def eps_i(mu: Partition, i: int, p: int) -> int:
    return signature(mu, i, p).eps


def phi_i(mu: Partition, i: int, p: int) -> int:
    return signature(mu, i, p).phi


def normal_extremal(mu: Partition, i: int, p: int, direction: str) -> Partition:
    """tilde_e ("down") or tilde_f ("up") to exhaustion, as one move (module docstring)."""
    _require_direction(direction)
    sig = signature(mu, i, p)
    return _restricted_move(mu, i, p, sig.normals if direction == "down" else sig.conormals, direction)


# ---------------------------------------------------------------------------
# extremal node moves on strict partitions


class ExtremalResult(NamedTuple):
    result: Partition
    count: int


def extremal(lam: Partition, i: int, p: int, direction: str) -> ExtremalResult:
    """Remove all strictly-removable / add all strictly-addable i-nodes.

    The joint move must itself leave a strict partition; that the full
    set of boundary nodes can be moved at once is checked rather than
    assumed (``move_nodes`` checks each cell against its row's end).
    """
    _require_direction(direction)
    adds, rems = boundary_nodes(lam, i, p, STRICT)
    moved = adds if direction == "up" else rems
    out = move_nodes(lam, moved, 1 if direction == "up" else -1)
    if not is_strict(out):
        raise PartitionError(f"joint {direction} move of all {i}-nodes breaks strictness: {lam}")
    return ExtremalResult(out, len(moved))


def eps_hat(lam: Partition, i: int, p: int) -> int:
    return extremal(lam, i, p, "down").count


def phi_hat(lam: Partition, i: int, p: int) -> int:
    return extremal(lam, i, p, "up").count


def branch_multiset(lam: Partition, i: int, p: int, direction: str) -> list[tuple[Partition, int]]:
    """Single i-node moves with their characteristic-zero multiplicities.

    Each strict partition obtainable from lam by removing ("down") or
    adding ("up") one i-node appears with coefficient 2 when lam is odd
    and the neighbour is even, and 1 otherwise.
    """
    require_shape(lam, STRICT)
    _require_residue(i, p)
    _require_direction(direction)
    lam_odd = is_odd_partition(lam)
    out: list[tuple[Partition, int]] = []
    step = -1 if direction == "down" else 1
    for r, base in enumerate(lam if step < 0 else lam + (0,), start=1):
        c = base if step < 0 else base + 1
        if residue(r, c, p) == i:
            mu = move_nodes(lam, ((r, c),), step)
            if is_strict(mu):
                out.append((mu, 2 if lam_odd and not is_odd_partition(mu) else 1))
    return out


def ladder_obstruction(lam: Partition, i: int, p: int) -> bool:
    """A strictly-removable i-node with a strictly-addable i-node in a
    longer (higher-index) ladder."""
    adds, rems = boundary_nodes(lam, i, p, STRICT)
    if not adds or not rems:
        return False
    max_add = max(ladder_index(r, c, p) for r, c in adds)
    min_rem = min(ladder_index(r, c, p) for r, c in rems)
    return max_add > min_rem


def dn(lam: Partition, i: int, p: int) -> bool:
    """True when removing all strict i-nodes overshoots the normal-node
    count of the regularisation: eps_hat(lam) > eps_i(lam^reg)."""
    return eps_hat(lam, i, p) > eps_i(regularize(lam, p), i, p)
