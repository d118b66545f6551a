"""Homogeneity and irreducibility classification at p = 3.

A strict partition is homogeneous when the modular reduction of its
character has all composition factors isomorphic.  The classifier is
table driven:

* non-special partitions (parts not all sharing one non-zero residue
  mod 3) are homogeneous exactly when they are a single row of size
  divisible by 3 (at least 6), a 3-bar core with a part 3 adjoined, or
  one of ten exceptional partitions;
* special partitions lam = nu + 3*alpha (nu the 3-bar core with the
  same length and residue class) are settled when alpha is empty, a
  single row, (1,1), (3,1) (homogeneous) or (2,1), a rectangle of
  height at least 2 other than (1,1), a shape whose last column has
  height at least 3, or one whose last two columns both have height 2
  (not homogeneous); every remaining special shape gets a conjectural
  verdict equal to the 3-Carter property of alpha.

``homogeneity_obstruction`` is the independent cross-check: it hunts
for any of four certificates that are impossible for a homogeneous
partition, so a certificate on a partition classified homogeneous is a
bug by construction.  ``classify_irreducible`` converts homogeneity
verdicts into irreducibility of the labelled modules for the three
module contexts via spin parity and the count of parts divisible by 3.
"""

from __future__ import annotations

from typing import NamedTuple

from .barcores import is_bar_core
from .branching import eps_i, extremal, ladder_obstruction, normal_extremal
from .dimensions import degree_witness
from .ladders import regularize
from .partitions import STRICT, Partition, PartitionError, conjugate, is_odd_partition, l_p, require_shape, run_down

PROVEN_HOM = "ProvenHomogeneous"
PROVEN_NOT = "ProvenNotHomogeneous"
CONJ_HOM = "ConjecturallyHomogeneous"
CONJ_NOT = "ConjecturallyNotHomogeneous"

EXCEPTIONAL_HOMOGENEOUS: frozenset[Partition] = frozenset(
    {
        (2, 1),
        (3, 2, 1),
        (4, 3, 2),
        (4, 3, 2, 1),
        (5, 3, 2, 1),
        (5, 4, 3, 1),
        (5, 4, 3, 2),
        (5, 4, 3, 2, 1),
        (7, 4, 3, 2, 1),
        (8, 5, 3, 2, 1),
    }
)


class SpecialDecomposition(NamedTuple):
    core: Partition
    alpha: Partition


def special_decompose(lam: Partition) -> SpecialDecomposition | None:
    """Write lam as core + 3*alpha when all parts share a non-zero residue."""
    if not lam:
        return None
    residues = {a % 3 for a in lam}
    if len(residues) != 1 or residues == {0}:
        return None
    i = residues.pop()
    l = len(lam)
    core = run_down(3 * (l - 1) + i, i)
    alpha = tuple((lam[r] - core[r]) // 3 for r in range(l))
    alpha = tuple(a for a in alpha if a > 0)
    if not all((lam[r] - core[r]) % 3 == 0 and lam[r] >= core[r] for r in range(l)):
        raise RuntimeError(f"{lam} is not its 3-core {core} plus three times a partition")
    return SpecialDecomposition(core, alpha)


def carter3(alpha: Partition) -> bool:
    """Hook lengths in each column share their 3-adic valuation.

    Column c, of height h, holds the hooks alpha[r] - c + h - r for r
    from 0; their set of valuations must have one element.
    """
    def val3(m: int) -> int:
        v = 0
        while m % 3 == 0:
            m //= 3
            v += 1
        return v

    return all(
        len({val3(alpha[r] - c + h - r) for r in range(h)}) == 1
        for c, h in enumerate(conjugate(alpha), start=1)
    )


class Verdict(NamedTuple):
    status: str
    reason: str

    @property
    def proven(self) -> bool:
        return self.status in (PROVEN_HOM, PROVEN_NOT)

    @property
    def homogeneous(self) -> bool:
        return self.status in (PROVEN_HOM, CONJ_HOM)


def core_join_three(lam: Partition) -> Partition | None:
    """lam without its part 3, when lam has a part 3 and that leaves a 3-bar core; else None."""
    if 3 not in lam:
        return None
    rest = tuple(a for a in lam if a != 3)
    return rest if is_bar_core(rest, 3) else None


def classify_homogeneous(lam: Partition) -> Verdict:
    """Homogeneity verdict of a strict partition at p = 3."""
    require_shape(lam, STRICT)
    if is_bar_core(lam, 3):
        return Verdict(PROVEN_HOM, "BarCore_weight0")
    special = special_decompose(lam)
    if special is None:
        if len(lam) == 1 and lam[0] % 3 == 0 and lam[0] >= 6:
            return Verdict(PROVEN_HOM, "H1_row")
        if core_join_three(lam) is not None:
            return Verdict(PROVEN_HOM, "H2_core_join_3")
        if lam in EXCEPTIONAL_HOMOGENEOUS:
            return Verdict(PROVEN_HOM, "H3_exceptional")
        return Verdict(PROVEN_NOT, "Theorem_list")
    alpha = special.alpha
    if len(alpha) <= 1:
        return Verdict(PROVEN_HOM, "Special_l1")
    if alpha == (1, 1):
        return Verdict(PROVEN_HOM, "Special_rect_1_2")
    if len(set(alpha)) == 1:
        # rectangles of height >= 2 other than (1, 1)
        return Verdict(PROVEN_NOT, "Special_rect_not")
    cols = conjugate(alpha)
    if cols[alpha[0] - 1] >= 3:
        return Verdict(PROVEN_NOT, "Special_lastcol_ge3")
    if alpha[0] >= 2 and cols[alpha[0] - 1] == 2 and cols[alpha[0] - 2] == 2:
        return Verdict(PROVEN_NOT, "Special_two_cols_len2")
    if alpha == (2, 1):
        return Verdict(PROVEN_NOT, "Special_known_small")
    if alpha == (3, 1):
        return Verdict(PROVEN_HOM, "Special_known_small")
    return Verdict(CONJ_HOM if carter3(alpha) else CONJ_NOT, "Carter_conjecture")


# ---------------------------------------------------------------------------
# independent certificates of inhomogeneity


class Certificate(NamedTuple):
    kind: str  # "Obstruction_certificate", "Eps_mismatch", "Restriction_mismatch", "Degree_witness"
    witness: Partition | None = None


def homogeneity_obstruction(lam: Partition) -> Certificate | None:
    """First found certificate incompatible with homogeneity, if any.

    Checked in order, over every residue: a removable node below an
    addable one in a longer ladder; a mismatch between the strict and
    regularised node counts; a mismatch between restricting then
    regularising and regularising then removing normal nodes; and a
    same-fibre partner of smaller reduced degree.

    The regularisation ``reg`` is computed on first use, by the first
    eps check reached: after the i = 0 ladder obstruction, when it does
    not fire.  Most partitions stop at that first test and never
    regularise.
    """
    require_shape(lam, STRICT)
    reg = None
    for i in (0, 1):
        if ladder_obstruction(lam, i, 3):
            return Certificate("Obstruction_certificate")
        if reg is None:
            reg = regularize(lam, 3)
        down = extremal(lam, i, 3, "down")
        if down.count != eps_i(reg, i, 3):
            return Certificate("Eps_mismatch")
        if regularize(down.result, 3) != normal_extremal(reg, i, 3, "down"):
            return Certificate("Restriction_mismatch")
    witness = degree_witness(lam, 3)
    if witness is not None:
        return Certificate("Degree_witness", witness=witness)
    return None


# ---------------------------------------------------------------------------
# module-level irreducibility


class IrredVerdict(NamedTuple):
    context: str  # "super", "sn", "an"
    labels: tuple[str, ...]
    irreducible: bool
    proven: bool


# context -> spin parity -> (module labels, bound on l_p)
CONTEXTS: dict[str, dict[str, tuple[tuple[str, ...], int]]] = {
    "super": {"odd": (("S^lam [type Q]",), 0), "even": (("S^lam [type M]",), 1)},
    "sn": {"odd": (("S^{lam,+}", "S^{lam,-}"), 1), "even": (("S^lam",), 0)},
    "an": {"odd": (("T^lam",), 0), "even": (("T^{lam,+}", "T^{lam,-}"), 1)},
}


def classify_irreducible(lam: Partition, context: str) -> IrredVerdict:
    """Irreducibility of the modules labelled by lam in the given context.

    The criterion is always "homogeneous and l_p small", where the
    bound on l_p (0 or 1) is read from ``CONTEXTS`` by context and spin
    parity.  A conjectural homogeneity verdict propagates whenever it is
    the deciding factor.
    """
    verdict = classify_homogeneous(lam)
    if context not in CONTEXTS:
        raise PartitionError(f"unknown context {context!r}")
    labels, bound = CONTEXTS[context]["odd" if is_odd_partition(lam) else "even"]
    if l_p(lam, 3) > bound:
        return IrredVerdict(context, labels, False, True)
    return IrredVerdict(context, labels, verdict.homogeneous, verdict.proven)
