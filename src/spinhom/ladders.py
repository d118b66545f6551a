"""Node residues, ladders, regularisation, and the per-ladder identities.

For an odd prime p the residue of a node (r, c) depends only on the
column: with b = (c-1) mod p it is min(b, p-1-b), an element of
I = {0, ..., (p-1)/2}.  The l-th ladder is the set of nodes with

    floor((p-1) * c / p) + (p-1) * (r-1) == l,

and all nodes of one ladder share one residue.  Regularisation slides
every node of a p-strict partition to the leftmost free position of its
ladder; the result is restricted p-strict with the same ladder profile.

The per-ladder counts (lad, add, badd, rem, brem, str, zz) satisfy a
family of exact identities that ``check_ladder_identities`` evaluates
ladder by ladder; it builds each count as a ladder -> count ``Counter``
in one pass per partition, and the verification suites run the
identities exhaustively over small partitions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .partitions import PSTRICT, STRICT, Partition, is_restricted, is_strict, part, require_shape

# Entries kept by the memos of ``regularize``, ``branching.boundary_nodes``,
# ``branching.signature`` and ``barcores.bar_core``.  The residue checks of
# one partition and the signatures of its regularisation reuse a handful of
# recent entries, and a block sweep over pairs of one n reuses the bar
# cores of every strict partition of n (at most 64 for n <= 16); an
# unbounded memo keeps every partition ever seen and grows the resident set
# for little gain.
_MEMO_SIZE = 64


def residue(r: int, c: int, p: int) -> int:
    """Residue of the node (r, c): folded column residue, independent of r."""
    b = (c - 1) % p
    return min(b, p - 1 - b)


def ladder_index(r: int, c: int, p: int) -> int:
    return ((p - 1) * c) // p + (p - 1) * (r - 1)


def content(lam: Partition, p: int) -> dict[int, int]:
    """Residue multiset of all nodes, as a residue -> count dict.

    Counted per row: the columns 1..a of a row of length a run q = a // p
    times through every class b = (c-1) mod p, and once more through the
    first a % p classes.
    """
    require_shape(lam, PSTRICT, p)
    counts: Counter[int] = Counter()
    for a in lam:
        q, s = divmod(a, p)
        for b in range(p):
            counts[residue(1, b + 1, p)] += q + (b < s)
    return {i: k for i, k in counts.items() if k}


def is_p_odd(lam: Partition, p: int) -> bool:
    """True if lam has an odd number of nodes of non-zero residue.

    Residue 0 sits in the columns c = 0 or 1 (mod p), so a row of length
    a has a // p + (a + p - 1) // p nodes of residue 0.
    """
    zero = sum(a // p + (a + p - 1) // p for a in lam)
    return (sum(lam) - zero) % 2 == 1


@lru_cache(maxsize=None)
def ladder_positions(l: int, p: int) -> tuple[tuple[int, int], ...]:
    """All positions of ladder l in the quarter plane, by ascending column.

    Within a ladder the column increases as the row decreases, so this
    order runs from the bottom-left end upwards.  Memoised without a
    bound: the ladders of partitions of n are the few dozen l <= (p-1)*n.
    """
    out = []
    r_max = l // (p - 1) + 1
    for r in range(r_max, 0, -1):
        m = l - (p - 1) * (r - 1)
        if m < 0:
            continue
        # columns c with floor((p-1)c/p) == m form a window of width 1 or 2
        c = (m * p + p - 2) // (p - 1)  # smallest c with (p-1)c/p >= m
        while ((p - 1) * c) // p == m:
            if c >= 1:
                out.append((r, c))
            c += 1
    return tuple(out)


@lru_cache(maxsize=None)
def _row_ladders(a: int, p: int) -> tuple[tuple[int, int], ...]:
    """(ladder offset, node count) of a row of length a, by ascending offset.

    The node (r, c) lies in ladder offset + (p-1)*(r-1).  Memoised without
    a bound: one entry per row length and prime met.
    """
    return tuple(Counter(((p - 1) * c) // p for c in range(1, a + 1)).items())


def ladder_profile(lam: Partition, p: int) -> dict[int, int]:
    """Ladder -> node count, by ascending ladder, summed row by row."""
    counts: dict[int, int] = {}
    for r, a in enumerate(lam):
        base = (p - 1) * r
        for offset, k in _row_ladders(a, p):
            l = base + offset
            counts[l] = counts.get(l, 0) + k
    return counts


@lru_cache(maxsize=_MEMO_SIZE)
def regularize(lam: Partition, p: int) -> Partition:
    """Slide all nodes to the leftmost free positions of their ladders.

    The input must be p-strict; the output is restricted p-strict and
    has the same number of nodes in every ladder.  Memoised on the last
    ``_MEMO_SIZE`` (64) arguments; every check runs on each miss, and an
    input that raises is never stored.

    The nodes placed in one row sit in distinct positive columns, so they
    fill the initial segment 1..a of the row exactly when the widest of
    them is column a: the fill guard compares the two per row.
    """
    require_shape(lam, PSTRICT, p)
    profile = ladder_profile(lam, p)
    row_cells: Counter[int] = Counter()
    widest: Counter[int] = Counter()
    for l, k in profile.items():
        for r, c in ladder_positions(l, p)[:k]:
            row_cells[r] += 1
            if c > widest[r]:
                widest[r] = c
    out = tuple(row_cells[r] for r in range(1, max(row_cells, default=0) + 1))
    if any(widest[r] != a for r, a in enumerate(out, start=1)):
        raise RuntimeError(f"regularisation of {lam} at p={p} does not fill initial row segments")
    if not is_restricted(out, p):
        raise RuntimeError(f"regularisation {out} of {lam} is not restricted {p}-strict")
    return out


def _row_end_counts(lam: Partition, p: int) -> tuple[Counter, Counter]:
    """The str and zz counts of lam per ladder, from one pass over its rows.

    The last node (r, c) of a row counts in zz when row r+1 has length
    c-1, and in str when moreover r >= 2, p divides c and row r-1 has
    length c+1.
    """
    strs: Counter[int] = Counter()
    zzs: Counter[int] = Counter()
    for r, c in enumerate(lam, start=1):
        if part(lam, r + 1) != c - 1:
            continue
        l = ladder_index(r, c, p)
        zzs[l] += 1
        if r >= 2 and c % p == 0 and lam[r - 2] == c + 1:
            strs[l] += 1
    return strs, zzs


def _boundary_by_ladder(lam: Partition, p: int, mode: str) -> tuple[Counter, Counter]:
    from .branching import boundary_nodes  # local import: branching builds on this module

    adds: Counter[int] = Counter()
    rems: Counter[int] = Counter()
    for i in range(0, (p - 1) // 2 + 1):
        a, r = boundary_nodes(lam, i, p, mode)
        for rr, cc in a:
            adds[ladder_index(rr, cc, p)] += 1
        for rr, cc in r:
            rems[ladder_index(rr, cc, p)] += 1
    return adds, rems


@dataclass(frozen=True)
class IdentityRow:
    identity: str
    l: int
    lhs: int
    rhs: int
    ok: bool


def max_relevant_ladder(lam: Partition, p: int) -> int:
    """Upper bound on ladder indices carrying any statistic of lam."""
    top = ladder_index(len(lam) + 1, 1, p)
    if lam:
        top = max(top, ladder_index(1, lam[0] + p, p))
        top = max(top, ladder_index(len(lam), lam[-1] + p, p))
        for r, a in enumerate(lam, start=1):
            top = max(top, ladder_index(r, a + p, p))
    return top + p


def check_ladder_identities(lam: Partition, p: int) -> list[IdentityRow]:
    """Evaluate every applicable per-ladder identity of lam.

    Three families, by the residue class of l mod (p-1):

    * residue (p-1)/2 ladders ("arladd1"),
    * residue 0 ladders ("lads", with the strict refinement using the
      str statistic when lam is strict),
    * other non-zero residues ("zzlem", p >= 5 only), plus the
      regularisation inequality on zz ("zzreglem").

    Every count is a per-ladder ``Counter`` built in one pass over lam
    (and over its regularisation for zzreglem, at p >= 5 only), so an
    identity reads ``counter[l]``; a ``Counter`` reads 0 at a negative
    ladder, which holds no nodes.  The l == 0 case of the residue-0
    identity carries a -1 correction.
    """
    require_shape(lam, PSTRICT, p)
    strict = is_strict(lam)
    badds, brems = _boundary_by_ladder(lam, p, PSTRICT)
    sadds, srems = _boundary_by_ladder(lam, p, STRICT) if strict else (Counter(), Counter())
    lad = Counter(ladder_profile(lam, p))
    strs, zzs = _row_end_counts(lam, p)
    half = (p - 1) // 2
    # only zzreglem reads the regularisation's zz counts, and it needs p >= 5
    reg_zzs = _row_end_counts(regularize(lam, p), p)[1] if half >= 2 else Counter()

    rows: list[IdentityRow] = []
    for l in range(0, max_relevant_ladder(lam, p) + 1):
        m = l % (p - 1)
        if m == half:
            lhs = brems[l - p + 1] - badds[l]
            if p == 3:
                rhs = lad[l] - lad[l - 1] + lad[l - 2]
            else:
                rhs = lad[l] - lad[l - 1] - lad[l - p + 2] + lad[l - p + 1]
            rows.append(IdentityRow("arladd1", l, lhs, rhs, lhs == rhs))
        if m == 0:
            base = lad[l] - 2 * lad[l - 1] - 2 * lad[l - p + 2] + lad[l - p + 1] - (1 if l == 0 else 0)
            lhs = brems[l - p + 1] - badds[l]
            rows.append(IdentityRow("lads", l, lhs, base, lhs == base))
            if strict:
                lhs_s = srems[l - p + 1] - sadds[l]
                rhs_s = base - strs[l] + strs[l - p + 1]
                rows.append(IdentityRow("lads_strict", l, lhs_s, rhs_s, lhs_s == rhs_s))
        if half >= 2 and m != 0 and m != half:
            # k is the largest index below l with k + l divisible by p-1
            k = l - ((2 * l - 1) % (p - 1) + 1)
            lhs = brems[k] - badds[l]
            if m == 1:
                rhs = lad[l] - lad[l - 1] + lad[k] - zzs[k] + zzs[l - p + 1]
            else:
                rhs = lad[l] - lad[l - 1] - lad[k + 1] + lad[k] - zzs[k] + zzs[l - p + 1]
            rows.append(IdentityRow("zzlem", l, lhs, rhs, lhs == rhs))
            rows.append(IdentityRow("zzreglem", l, reg_zzs[l], zzs[l], reg_zzs[l] <= zzs[l]))
    return rows
