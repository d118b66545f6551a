"""Littlewood-Richardson coefficients and wreath-product Cartan values.

``lr2`` counts LR skew tableaux of shape nu/alpha and content beta
(column-strict fillings whose reverse reading word is a lattice word);
``lr3`` composes two-factor coefficients.  The characteristic-zero
diagonal Cartan invariant of the rank-d wreath model is

    c(nu, pi) = sum over (alpha, beta, gamma), sizes summing to d, of
                lr3(alpha, beta, gamma; nu) * lr3(alpha, beta', gamma; pi),

whose diagonal equals 2d+1 exactly for the row and the column shape and
exceeds it otherwise.  Each label's row of non-zero ``lr3`` values is
summed once per process from the non-zero ``lr2`` terms alone and
memoised, and c(nu, pi) is a sparse dot product of two rows.  ``lr2``
is memoised too, and the partition lists and conjugates come from the
memoised ``partitions.partitions_of`` and ``partitions.conjugate``;
``lr3`` itself, a dense sum over every intermediate shape, answers
single queries and is not memoised.  The characteristic-3 analogue
conjugates by an ingested decomposition matrix: matrices are read from
a small text format, never computed.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .partitions import Partition, PartitionError, check_odd_prime, conjugate, contains, format_partition, parse_partition, partitions_of


@lru_cache(maxsize=None)
def lr2(alpha: Partition, beta: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^nu_{alpha, beta}."""
    if sum(alpha) + sum(beta) != sum(nu):
        return 0
    if not contains(nu, alpha):
        return 0
    if not beta:
        return 1
    # cells of nu/alpha in reverse reading order: rows top to bottom,
    # each row right to left
    cells = []
    for r in range(len(nu)):
        inner = alpha[r] if r < len(alpha) else 0
        for c in range(nu[r] - 1, inner - 1, -1):
            cells.append((r, c))
    k = len(beta)

    def rec(idx: int, counts: tuple[int, ...], fill: dict) -> int:
        if idx == len(cells):
            return 1 if list(counts) == list(beta) else 0
        r, c = cells[idx]
        total = 0
        for v in range(k):
            if counts[v] >= beta[v]:
                continue
            # lattice condition on the reverse reading word
            if v > 0 and counts[v] >= counts[v - 1]:
                continue
            # rows weakly increase left to right
            right = fill.get((r, c + 1))
            if right is not None and v > right:
                continue
            # columns strictly increase downwards
            up = fill.get((r - 1, c))
            if up is not None and v <= up:
                continue
            fill[(r, c)] = v
            new_counts = counts[:v] + (counts[v] + 1,) + counts[v + 1:]
            total += rec(idx + 1, new_counts, fill)
            del fill[(r, c)]
        return total

    return rec(0, (0,) * k, {})


def lr3(alpha: Partition, beta: Partition, gamma: Partition, nu: Partition) -> int:
    """Three-factor coefficient via associativity of the two-factor one."""
    if sum(alpha) + sum(beta) + sum(gamma) != sum(nu):
        return 0
    total = 0
    for sigma in partitions_of(sum(alpha) + sum(beta)):
        left = lr2(alpha, beta, sigma)
        if left:
            total += left * lr2(sigma, gamma, nu)
    return total


@lru_cache(maxsize=None)
def _lr3_row(nu: Partition) -> dict[tuple[Partition, Partition, Partition], int]:
    """The non-zero lr3(alpha, beta, gamma; nu), keyed by (alpha, beta, gamma).

    The associativity sum of ``lr3``, taken over its non-zero terms only:
    sigma runs over the partitions inside nu, and each non-zero
    lr2(sigma, gamma; nu) meets each non-zero lr2(alpha, beta; sigma).
    """
    d = sum(nu)
    row: dict[tuple[Partition, Partition, Partition], int] = {}
    for s in range(d + 1):
        for sigma in partitions_of(s):
            if not contains(nu, sigma):
                continue
            outer = [(gamma, c) for gamma in partitions_of(d - s) if (c := lr2(sigma, gamma, nu))]
            for a in range(s + 1):
                for alpha in partitions_of(a):
                    for beta in partitions_of(s - a):
                        inner = lr2(alpha, beta, sigma)
                        if inner:
                            for gamma, c in outer:
                                key = (alpha, beta, gamma)
                                row[key] = row.get(key, 0) + inner * c
    return row


def wreath_cartan0(nu: Partition, pi: Partition) -> int:
    """Characteristic-zero composition multiplicity c(nu, pi).

    A dot product of the memoised lr3 rows of nu and pi, over the
    non-zero entries of nu's row, with the middle factor conjugated.
    """
    if sum(pi) != sum(nu):
        raise PartitionError("both labels must have the same size")
    other = _lr3_row(pi)
    total = 0
    for (alpha, beta, gamma), v in _lr3_row(nu).items():
        total += v * other.get((alpha, conjugate(beta), gamma), 0)
    return total


# ---------------------------------------------------------------------------
# ingested decomposition matrices


def is_p_regular(lam: Partition, p: int) -> bool:
    """No part repeated p or more times."""
    return all(lam.count(a) < p for a in set(lam))


class DecompMatrix(NamedTuple):
    """A decomposition matrix as ``parse_decomp_matrix`` builds it, once:
    ``entries`` maps each listed ``(row, col)`` to its multiplicity, and
    ``columns`` holds the column labels, greatest first."""

    p: int
    d: int
    entries: dict[tuple[Partition, Partition], int]
    columns: tuple[Partition, ...]

    def mult(self, row: Partition, col: Partition) -> int:
        return self.entries.get((row, col), 0)


def parse_decomp_matrix(text: str) -> DecompMatrix:
    """Parse the line-based matrix format.

    Line 1 is ``p=<odd prime> d=<int>``; every further non-comment line
    reads ``<partition> : <col>=<mult>[, <col>=<mult>]*`` with
    partitions in canonical comma form.  Multiplicities are
    non-negative, column labels must be p-regular and the diagonal
    entries of p-regular rows must equal one.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise PartitionError("empty decomposition matrix file")
    header = lines[0].split()
    try:
        fields = dict(tok.split("=") for tok in header)
        p, d = int(fields["p"]), int(fields["d"])
    except (ValueError, KeyError) as exc:
        raise PartitionError(f"bad header line {lines[0]!r}") from exc
    check_odd_prime(p)
    entries: dict[tuple[Partition, Partition], int] = {}
    for ln in lines[1:]:
        if ":" not in ln:
            raise PartitionError(f"missing ':' in line {ln!r}")
        row_text, rhs = ln.split(":", 1)
        row = parse_partition(row_text)
        if sum(row) != d:
            raise PartitionError(f"row label {row_text.strip()!r} is not a partition of {d}")
        # multiplicities terminate each entry, so split on ',' and regroup
        chunk: list[str] = []
        for tok in rhs.split(","):
            chunk.append(tok.strip())
            if "=" in tok:
                col_text, mult_text = ",".join(chunk).rsplit("=", 1)
                col = parse_partition(col_text)
                if not is_p_regular(col, p):
                    raise PartitionError(f"column label {col} is not {p}-regular")
                mult = int(mult_text)
                if mult < 0:
                    raise PartitionError(f"negative multiplicity {mult} in line {ln!r}")
                entries[(row, col)] = mult
                chunk = []
        if chunk:
            raise PartitionError(f"dangling tokens {chunk} in line {ln!r}")
    labels = {c for (_, c) in entries}
    for col in labels:
        if entries.get((col, col), 0) != 1:
            raise PartitionError(f"diagonal entry for {col} must be 1")
    return DecompMatrix(p, d, entries, tuple(sorted(labels, reverse=True)))


def load_decomp_matrix(source: str | Path) -> DecompMatrix:
    try:
        text = Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise PartitionError(f"cannot read decomposition matrix {source}: {exc.strerror or exc}") from exc
    return parse_decomp_matrix(text)


def bundled_decomp_matrix(d: int) -> DecompMatrix:
    """Decomposition matrix shipped with the package (p=3, d <= 6)."""
    return load_decomp_matrix(Path(__file__).with_name("data") / "decomp" / f"s{d}_p3.txt")


def wreath_cartan_p(mu: Partition, matrix: DecompMatrix) -> int:
    """Characteristic-p diagonal Cartan value for a p-regular label mu.

    Conjugates the characteristic-zero Cartan matrix by the ingested
    decomposition matrix: sum over rows nu, pi of
    d(nu, mu) * c(nu, pi) * d(pi, mu).
    """
    if mu not in matrix.columns:
        raise PartitionError(f"{format_partition(mu)} is not a column of the matrix")
    rows = [nu for nu in partitions_of(matrix.d) if matrix.mult(nu, mu)]
    total = 0
    for nu in rows:
        for pi in rows:
            total += matrix.mult(nu, mu) * wreath_cartan0(nu, pi) * matrix.mult(pi, mu)
    return total
