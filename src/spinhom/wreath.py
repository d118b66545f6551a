"""Littlewood-Richardson coefficients and wreath-product Cartan values.

``lr2`` counts LR skew tableaux of shape nu/alpha and content beta
(column-strict fillings whose reverse reading word is a lattice word);
``lr3`` composes two-factor coefficients by associativity and answers
single queries unmemoised.  ``lr2`` reads a memo per skew shape nu/alpha
that maps each content beta to its number of LR fillings.  The memo is
built row by row, top to bottom: the fillings of the rows above row r
reach row r only through their content (the lattice condition) and the
entries of row r - 1 over row r's cells (column strictness), so partial
fillings that agree on both are merged into one state with a count, and
each state is extended by every filling of row r.  A row's filling is
weakly increasing, so it is the number m_v of each entry v, chosen from
the largest v down: m_v > 0 needs v above the entry over the rightmost
cell left, and the lattice condition holds through the row when the
count of v stays at most the count of v - 1 before the row.  Disconnected
shapes, such as a staircase over a staircase, then cost one state per
content, not one search per tableau.

The characteristic-zero Cartan invariant of the rank-d wreath model is

    c(nu, pi) = sum over (alpha, beta, gamma) of
                lr3(alpha, beta, gamma; nu) * lr3(alpha, beta', gamma; pi)
              = sum over rho |- d of 3^o(rho) chi^nu(rho) chi^pi(rho) / z_rho,

with o(rho) the number of odd parts of rho.  Proof: omega is an
isometry with omega s_beta = s_beta', so the triple sum is
<Delta3 s_nu, (1 x omega x 1) Delta3 s_pi>, and Delta3 is adjoint to the
product, so it is <s_nu, phi(s_pi)> for the ring map
phi = m o (1 x omega x 1) o Delta3.  p_k is primitive and
omega p_k = (-1)^(k-1) p_k, so phi(p_k) = (2 + (-1)^(k-1)) p_k: 3 for
odd k and 1 for even k, hence phi(p_rho) = 3^o(rho) p_rho.  Expanding
s_nu and s_pi in power sums, <p_rho, p_sigma> = z_rho [rho = sigma], gives
the class sum.  It is computed as sum 3^o(rho) chi^nu chi^pi d!/z_rho,
over the class sizes d!/z_rho, divided exactly by d!.  At nu = pi = (d)
it is [x^d] (1 + x)/(1 - x)^2 = 2d + 1, and at the column by omega; every
other diagonal value exceeds 2d + 1.  The characteristic-3 analogue
conjugates by an ingested decomposition matrix, and is the same sum
over the projective character Phi_mu = sum_nu d(nu, mu) chi^nu.
Matrices are read from a small text format, never computed.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from pathlib import Path
from typing import NamedTuple

from .characters import chi, odd_parts, z
from .partitions import Partition, PartitionError, check_odd_prime, contains, format_partition, parse_partition, partitions_of


@lru_cache(maxsize=None)
def _skew_lr(alpha: Partition, nu: Partition) -> dict[Partition, int]:
    """The number of LR fillings of nu/alpha of each content beta; alpha inside nu."""
    rows = len(nu)
    inner = alpha + (0,) * (rows - len(alpha))
    # (content so far, entries of the last row over the next row's cells,
    # -1 over a cell of alpha) -> the number of partial fillings
    states = {((0,) * rows, (-1,) * (nu[0] - inner[0]) if rows else ()): 1}
    for r in range(rows):
        a, width = inner[r], nu[r] - inner[r]
        # the next row reads `pad` cells of alpha, then this row's entries [lo:hi]
        lo, hi = (inner[r + 1], nu[r + 1]) if r + 1 < rows else (0, 0)
        pad, lo, hi = max(0, min(a, hi) - lo), max(lo - a, 0), max(hi - a, 0)
        merged: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (counts, above), ways in states.items():
            # (content, cells of the row still free, entries right of them),
            # entries chosen from the largest down; an entry v > 0 needs a
            # v - 1 read before it, so a row above, and v rows above it
            partial = [(counts, width, ())]
            for v in range(min(r, sum(map(bool, counts))), 0, -1):
                grown = []
                for cnt, free, tail in partial:
                    grown.append((cnt, free, tail))
                    if free and v > above[free - 1]:
                        for m in range(1, min(free, cnt[v - 1] - cnt[v]) + 1):
                            grown.append(((*cnt[:v], cnt[v] + m, *cnt[v + 1:]), free - m, (v,) * m + tail))
                partial = grown
            for cnt, free, tail in partial:
                if free:  # the rest are 0s, so only cells of alpha above them
                    if above[free - 1] >= 0:
                        continue
                    cnt, tail = (cnt[0] + free, *cnt[1:]), (0,) * free + tail
                key = (cnt, (-1,) * pad + tail[lo:hi])
                merged[key] = merged.get(key, 0) + ways
        states = merged
    out: dict[Partition, int] = {}
    for (counts, _), ways in states.items():
        beta = tuple(c for c in counts if c)
        out[beta] = out.get(beta, 0) + ways
    return out


@lru_cache(maxsize=None)
def lr2(alpha: Partition, beta: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^nu_{alpha, beta}."""
    if sum(alpha) + sum(beta) != sum(nu) or not contains(nu, alpha):
        return 0
    return _skew_lr(alpha, nu).get(beta, 0)


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
def _class_weights(d: int) -> tuple[int, ...]:
    """3^o(rho) d!/z_rho for each class rho of S_d, in ``partitions_of(d)`` order."""
    order = factorial(d)
    return tuple(3 ** odd_parts(rho) * (order // z(rho)) for rho in partitions_of(d))


def _wreath_form(d: int, left: list[int], right: list[int]) -> int:
    """sum over rho |- d of 3^o(rho) left(rho) right(rho) / z_rho, for two
    class functions of S_d listed in ``partitions_of(d)`` order."""
    order = factorial(d)
    value, rest = divmod(sum(w * x * y for w, x, y in zip(_class_weights(d), left, right)), order)
    if rest:
        raise RuntimeError(f"wreath form at d={d} is not an integer: remainder {rest} of {order}")
    return value


def _character(nu: Partition) -> list[int]:
    return [chi(nu, rho) for rho in partitions_of(sum(nu))]


def wreath_cartan0(nu: Partition, pi: Partition) -> int:
    """Characteristic-zero composition multiplicity c(nu, pi), by the class sum."""
    if sum(pi) != sum(nu):
        raise PartitionError("both labels must have the same size")
    return _wreath_form(sum(nu), _character(nu), _character(pi))


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


def projective_character(mu: Partition, matrix: DecompMatrix) -> list[int]:
    """Phi_mu = sum over rows nu of d(nu, mu) chi^nu, in ``partitions_of(d)``
    order: the character of the projective indecomposable module of the
    p-regular column mu, which vanishes on every p-singular class."""
    if mu not in matrix.columns:
        raise PartitionError(f"{format_partition(mu)} is not a column of the matrix")
    rows = [(nu, m) for nu in partitions_of(matrix.d) if (m := matrix.mult(nu, mu))]
    return [sum(m * chi(nu, rho) for nu, m in rows) for rho in partitions_of(matrix.d)]


def wreath_cartan_p(mu: Partition, matrix: DecompMatrix) -> int:
    """Characteristic-p diagonal Cartan value for a p-regular label mu.

    The Cartan matrix of characteristic zero conjugated by the ingested
    decomposition matrix, sum over rows nu, pi of d(nu, mu) c(nu, pi)
    d(pi, mu): the class sum of Phi_mu with itself.
    """
    phi = projective_character(mu, matrix)
    return _wreath_form(matrix.d, phi, phi)
