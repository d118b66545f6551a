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
in one loop over the ladders; it builds each count as a flat per-ladder
list in one pass per partition and returns each identity as a plain
``(identity, l, lhs, rhs, ok)`` tuple, and the verification suites run
the identities exhaustively over small partitions.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from .partitions import PSTRICT, STRICT, Partition, is_restricted, is_strict, part, require_shape

# Entries kept by the partition-keyed memos: ``ladder_profile``, ``regularize``,
# ``branching.boundary_nodes`` and ``barcores.bar_core``.  The residue checks
# of one partition reuse a handful of recent entries, and a block sweep over
# pairs of one n reuses the bar cores of every strict partition of n (at most
# 64 for n <= 16); an unbounded memo would keep every partition ever seen and
# grow the resident set for little gain.  Fibre-keyed memos
# (``branching.signature`` on a restricted mu, ``dimensions._ranked_fibre``)
# are unbounded instead: every member of a fibre asks for the same entry, and
# a shuffled sweep returns to a fibre long after 64 other calls, so they keep
# one entry per fibre met.
_MEMO_SIZE = 64


def residue(r: int, c: int, p: int) -> int:
    """Residue of the node (r, c): folded column residue, independent of r."""
    b = (c - 1) % p
    return min(b, p - 1 - b)


def ladder_index(r: int, c: int, p: int) -> int:
    return ((p - 1) * c) // p + (p - 1) * (r - 1)


def content(lam: Partition, p: int) -> dict[int, int]:
    """Residue multiset of all nodes, as a residue -> count dict.

    Folded from the ladder profile: every node of ladder l has residue
    min(m, p-1-m) with m = l mod (p-1).  For the node (r, c) write
    c - 1 = qp + b; then l = (p-1)(q + r - 1) + b, so m = b, except that
    b = p-1 gives m = 0, which is residue 0 either way.
    """
    require_shape(lam, PSTRICT, p)
    counts: dict[int, int] = {}
    for l, k in ladder_profile(lam, p).items():
        m = l % (p - 1)
        i = min(m, p - 1 - m)
        counts[i] = counts.get(i, 0) + k
    return counts


def is_p_odd(lam: Partition, p: int) -> bool:
    """True if lam has an odd number of nodes of non-zero residue.

    Residue 0 sits in the columns c = 0 or 1 (mod p), so a row of length
    a has a // p + (a + p - 1) // p nodes of residue 0.
    """
    zero = sum(a // p + (a + p - 1) // p for a in lam)
    return (sum(lam) - zero) % 2 == 1


def ladder_positions(l: int, p: int) -> tuple[tuple[int, int], ...]:
    """All positions of ladder l in the quarter plane, by ascending column.

    Within a ladder the column increases as the row decreases, so this
    order runs from the bottom-left end upwards.  Not memoised: its one
    caller, the memoised ``_ladder_fill``, asks once per entry it stores.
    """
    out = []
    r_max = l // (p - 1) + 1
    for r in range(r_max, 0, -1):
        m = l - (p - 1) * (r - 1)  # r <= l // (p-1) + 1 keeps m >= 0
        # columns c with floor((p-1)c/p) == m form a window of width 1 or 2
        c = (m * p + p - 2) // (p - 1)  # smallest c with (p-1)c/p >= m
        while ladder_index(1, c, p) == m:
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
    return tuple(Counter(ladder_index(1, c, p) for c in range(1, a + 1)).items())


@lru_cache(maxsize=_MEMO_SIZE)
def ladder_profile(lam: Partition, p: int) -> Mapping[int, int]:
    """Ladder -> node count, by ascending ladder, summed row by row.

    Memoised on the last ``_MEMO_SIZE`` (64) arguments: the identity
    checks, both regularisations and the profile check of one partition
    in the ladders suite read one profile each of lam and of its
    regularisation.  The memo hands every caller the same object, so it
    is a read-only view.
    """
    counts: dict[int, int] = {}
    get = counts.get
    base = 0  # ladder of the row's first cell
    for a in lam:
        for offset, k in _row_ladders(a, p):
            l = base + offset
            counts[l] = get(l, 0) + k
        base += p - 1
    return MappingProxyType(counts)


@lru_cache(maxsize=None)
def _ladder_fill(l: int, k: int, p: int) -> tuple[tuple[int, int, int], ...]:
    """(row index from 0, cells, widest column) of each row that the first
    k positions of ladder l meet, for ``regularize``.

    Memoised without a bound: a partition of n meets one entry per
    non-empty ladder, and the ladders and fill counts of all strict
    partitions of n <= 34 at p = 3 make 61 entries.
    """
    rows: dict[int, list[int]] = {}
    for r, c in ladder_positions(l, p)[:k]:
        entry = rows.setdefault(r - 1, [0, 0])
        entry[0] += 1
        entry[1] = max(entry[1], c)
    return tuple((r, cells, widest) for r, (cells, widest) in rows.items())


@lru_cache(maxsize=_MEMO_SIZE)
def regularize(lam: Partition, p: int) -> Partition:
    """Slide all nodes to the leftmost free positions of their ladders.

    The input must be p-strict; the output is restricted p-strict and
    has the same number of nodes in every ladder.  Memoised on the last
    ``_MEMO_SIZE`` (64) arguments; every check runs on each miss, and an
    input that raises is never stored.

    Each ladder l holding k nodes fills its first k positions; the row
    counts and widest columns of that fill come from the per-ladder fill
    memo ``_ladder_fill`` (keyed on l, k and p), and are summed into one
    list per row.  The nodes placed in one row sit in distinct positive
    columns, so they fill the initial segment 1..a of the row exactly
    when the widest of them is column a: the fill guard compares the two
    per row.
    """
    require_shape(lam, PSTRICT, p)
    profile = ladder_profile(lam, p)
    # the profile runs by ascending ladder, and ladder l reaches row l // (p-1) + 1
    height = next(reversed(profile), 0) // (p - 1) + 1
    cells = [0] * height
    widest = [0] * height
    for l, k in profile.items():
        for r, n, c in _ladder_fill(l, k, p):
            cells[r] += n
            if c > widest[r]:
                widest[r] = c
    while cells and not cells[-1]:
        cells.pop()
    if widest[: len(cells)] != cells:
        raise RuntimeError(f"regularisation of {lam} at p={p} does not fill initial row segments")
    out = tuple(cells)
    if not is_restricted(out, p):
        raise RuntimeError(f"regularisation {out} of {lam} is not restricted {p}-strict")
    return out


def _row_end_counts(lam: Partition, p: int, size: int) -> tuple[list[int], list[int]]:
    """The str and zz counts of lam per ladder, from one pass over its rows,
    as lists laid out like ``_padded``.

    The last node (r, c) of a row counts in zz when row r+1 has length
    c-1, and in str when moreover r >= 2, p divides c and row r-1 has
    length c+1.
    """
    strs = [0] * size
    zzs = [0] * size
    q = p - 1
    for r, c in enumerate(lam, start=1):
        if part(lam, r + 1) != c - 1:
            continue
        # (r, c) lies in ladder q*c // p + q*(r - 1), at index ladder + p
        j = q * c // p + q * r + 1
        zzs[j] += 1
        if r >= 2 and c % p == 0 and lam[r - 2] == c + 1:
            strs[j] += 1
    return strs, zzs


def _padded(counts: dict[int, int], size: int, p: int) -> list[int]:
    """A ladder -> count map as a list of the given size, ladder l at index
    l + p; the p leading zeros make every ladder below 0 read 0."""
    out = [0] * size
    for l, k in counts.items():
        out[l + p] = k
    return out


def _boundary_by_ladder(lam: Partition, p: int, mode: str, size: int) -> tuple[list[int], list[int]]:
    """The add and rem counts of lam per ladder, over every residue, as
    lists laid out like ``_padded``."""
    from .branching import boundary_nodes  # local import: branching builds on this module

    adds = [0] * size
    rems = [0] * size
    q = p - 1
    # (r, c) lies in ladder q*c // p + q*(r - 1), at index ladder + p = q*c // p + q*r + 1
    for i in range(0, (p - 1) // 2 + 1):
        a, r = boundary_nodes(lam, i, p, mode)
        for rr, cc in a:
            adds[q * cc // p + q * rr + 1] += 1
        for rr, cc in r:
            rems[q * cc // p + q * rr + 1] += 1
    return adds, rems


def max_relevant_ladder(lam: Partition, p: int) -> int:
    """Upper bound on ladder indices carrying any statistic of lam."""
    top = ladder_index(len(lam) + 1, 1, p)
    for r, a in enumerate(lam, start=1):
        top = max(top, ladder_index(r, a + p, p))
    return top + p


def check_ladder_identities(lam: Partition, p: int) -> list[tuple[str, int, int, int, bool]]:
    """Evaluate every applicable per-ladder identity of lam, as rows

        (identity, l, lhs, rhs, ok)

    by ascending ladder l, where ok says whether the identity holds.
    Three families, by the residue class of l mod (p-1):

    * residue (p-1)/2 ladders ("arladd1"),
    * residue 0 ladders ("lads", with the strict refinement using the
      str statistic when lam is strict),
    * other non-zero residues ("zzlem", p >= 5 only), plus the
      regularisation inequality on zz ("zzreglem").

    Every count is a flat per-ladder list built in one pass over lam (and
    over its regularisation for zzreglem, at p >= 5 only), holding ladder
    l at index j = l + p; an identity at ladder l reads each count at j
    and at offsets below it.  The p leading zeros of each list stand for
    the negative ladders, which hold no nodes, and reach every offset an
    identity reads (at most p - 1 below l).  The lists reach ladder
    ``max_relevant_ladder``, past every node and boundary node of lam.
    One loop walks j, and the first two families share their left-hand
    side brem(l - p + 1) - badd(l).  The l == 0 case of the residue-0
    identity carries a -1 correction.
    """
    require_shape(lam, PSTRICT, p)
    strict = is_strict(lam)
    size = max_relevant_ladder(lam, p) + p + 1
    badds, brems = _boundary_by_ladder(lam, p, PSTRICT, size)
    sadds, srems = _boundary_by_ladder(lam, p, STRICT, size) if strict else ([], [])
    lad = _padded(ladder_profile(lam, p), size, p)
    strs, zzs = _row_end_counts(lam, p, size)
    q = p - 1
    half = q // 2
    # only zzreglem reads the regularisation's zz counts, and it needs p >= 5
    reg_zzs = _row_end_counts(regularize(lam, p), p, size)[1] if half >= 2 else []

    rows = []
    append = rows.append
    for j in range(p, size):
        l = j - p
        m = l % q
        if m == 0 or m == half:
            lhs = brems[j - q] - badds[j]
            if m == half:
                if p == 3:
                    rhs = lad[j] - lad[j - 1] + lad[j - 2]
                else:
                    rhs = lad[j] - lad[j - 1] - lad[j - q + 1] + lad[j - q]
                append(("arladd1", l, lhs, rhs, lhs == rhs))
            else:
                base = lad[j] - 2 * lad[j - 1] - 2 * lad[j - q + 1] + lad[j - q] - (1 if l == 0 else 0)
                append(("lads", l, lhs, base, lhs == base))
                if strict:
                    lhs_s = srems[j - q] - sadds[j]
                    rhs_s = base - strs[j] + strs[j - q]
                    append(("lads_strict", l, lhs_s, rhs_s, lhs_s == rhs_s))
        else:
            # only at p >= 5: at p = 3 every ladder has residue 0 or (p-1)/2.
            # k is the index of the largest ladder below l whose sum with l
            # is divisible by p-1
            k = j - ((2 * l - 1) % q + 1)
            lhs = brems[k] - badds[j]
            if m == 1:
                rhs = lad[j] - lad[j - 1] + lad[k] - zzs[k] + zzs[j - q]
            else:
                rhs = lad[j] - lad[j - 1] - lad[k + 1] + lad[k] - zzs[k] + zzs[j - q]
            append(("zzlem", l, lhs, rhs, lhs == rhs))
            append(("zzreglem", l, reg_zzs[j], zzs[j], reg_zzs[j] <= zzs[j]))
    return rows
