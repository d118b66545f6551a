"""Acceptance gate: one test (or test group) per numbered criterion.

Criterion 1 checks the worked examples by hand.  Criteria 2 to 8b read
the ``verify`` rows of the session fixture ``contract_rows``: each picks
its checks by name (and by subject size where its range is below the
run's), asserts that none fails, and pins the number of rows of each
check, so a suite that silently checks less fails here too.  The runs
are listed in ``conftest.py``, the caps inside each suite in the
``verify`` docstring and the default ranges in ``verify.SUITES``.  All
arithmetic is exact.  Each criterion prints a PASS line on success (run
with ``-s`` to stream them); a failing assertion is the FAIL line.

The unit tests do not repeat these sweeps, so the criteria also pin the
checks that stand in for them: ``reg_profile``, ``reg_idempotent``,
``reg_restricted``, ``reg_fixed_point`` and ``strict_add_badd_nonzero``
(criterion 2); ``senses_coincide``, ``tilde_f_after_e``,
``tilde_e_after_f`` and ``homog_eps_match`` (3); ``enumeration_count``
and ``enumeration_standard`` (4); ``cartan0_symmetry`` (5);
``core_confluence`` and ``morris_yaseen`` (6).  The ladder identities,
the dn predicates, the chain rows, the cartan0 diagonal rows, the
tableau counts, soundness and phi-zero agreement were pinned already.

Criterion 8 note: the extremal chain is verified at every index where
its defining shapes exist.  The l = 1 step of the 0-direction half is
provably unsatisfiable (no partition at all maps onto (6, 4, 3, 1)
under a full 0-node addition, since such images have first part 1 mod
3), and the matching test asserts the stated identity anyway; it is the
one expected red in this suite.  See the repository notes for the full
analysis.
"""

import time
from collections import Counter

from spinhom import verify
from spinhom.branching import extremal, signature, tilde_e, tilde_f
from spinhom.families import sigma, tau
from spinhom.ladders import ladder_index, regularize, residue
from spinhom.partitions import parse_partition
from spinhom.wreath import bundled_decomp_matrix


def _ok(criterion: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def _checked(rows, want: dict[str, int], max_n: int | None = None) -> int:
    """The number of rows of the checks in ``want`` (subjects of size at
    most ``max_n``), after asserting none fails and each count is pinned."""
    picked = [row for row in rows if row[1] in want and (max_n is None or sum(parse_partition(row[0])) <= max_n)]
    assert verify.failures(picked) == []
    assert Counter(row[1] for row in picked) == Counter(want)
    return len(picked)


def test_criterion_1_worked_examples():
    t0 = time.monotonic()
    rows = ["".join(str(residue(r, c, 5)) for c in range(1, a + 1)) for r, a in enumerate((8, 7, 3), 1)]
    assert rows == ["01210012", "0121001", "012"]
    assert "".join(str(ladder_index(1, c, 3)) for c in range(1, 11)) == "0122344566"
    assert "".join(str(ladder_index(2, c, 3)) for c in range(1, 8)) == "2344566"
    assert regularize((12, 7, 2), 3) == (8, 6, 4, 2, 1)
    sig = signature((5, 4, 3, 2, 1), 0, 3)
    assert sig.raw == "-+-++" and sig.reduced == "-++"
    assert tilde_e((5, 4, 3, 2, 1), 0, 3) == (5, 4, 3, 2)
    assert tilde_f((5, 4, 3, 2, 1), 0, 3) == (6, 4, 3, 2, 1)
    down = extremal((9, 5, 4, 2), 0, 3, "down")
    up = extremal((9, 5, 4, 2), 0, 3, "up")
    assert down.result == (8, 5, 3, 2) and down.count == 2
    assert up.result == (10, 7, 4, 3, 1) and up.count == 5
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"worked examples took {elapsed:.3f}s"
    _ok("1", f"(worked examples bit-exact in {elapsed * 1000:.0f} ms)")


def test_criterion_2_ladder_identity_suite(contract_rows):
    rows3, rows5 = contract_rows["ladders", 3], contract_rows["ladders", 5]
    assert verify.failures(rows3 + rows5) == []
    checked = _checked(rows3, {"arladd1": 10371, "lads": 10781, "lads_strict": 6457})
    checked += _checked(rows5, {"arladd1": 1313, "lads": 1475, "lads_strict": 1325, "zzlem": 2691, "zzreglem": 2691})
    regular = ("reg_profile", "reg_idempotent", "reg_restricted")
    swept = _checked(rows3, {**dict.fromkeys(regular, 1454), "reg_fixed_point": 260, "strict_add_badd_nonzero": 904})
    swept += _checked(rows5, {**dict.fromkeys(regular, 278), "reg_fixed_point": 160, "strict_add_badd_nonzero": 253})
    _ok("2", f"({checked} identity instances, {swept} regularisation and node-sense rows, zero failures)")


def test_criterion_3_obstruction_predicates(contract_rows):
    want = {"dn_half_equivalence": 371, "dn_implication": 207}
    checked = _checked(contract_rows["branching", 3], want, max_n=20)
    swept = _checked(contract_rows["branching", 3], {"senses_coincide": 904, "tilde_f_after_e": 104, "tilde_e_after_f": 123,
                                                     "homog_eps_match": 150})
    swept += _checked(contract_rows["branching", 5], {"senses_coincide": 338, "tilde_f_after_e": 151, "tilde_e_after_f": 184})
    _ok("3", f"({checked} equivalence and implication rows to n=20, {swept} sense, tilde-inverse and "
             "homogeneous-eps rows, zero counterexamples)")


def test_criterion_4_dimension_engine(contract_rows):
    want = {"sum_of_squares": 10, "g_equals_tableau_count": 70, "ratio_formula": 31, "ratio_step_formula": 54,
            "ratio_greater": 99, "ratio_equal_at": 2, "same_regularisation": 101}
    checked = _checked(contract_rows["degrees", 3], want)
    checked += _checked(contract_rows["tableaux", 3], {"enumeration_count": 70, "enumeration_standard": 70})
    _ok("4", f"({checked} rows: sum-of-squares to 10, tableau counts and enumerations to 12, family closed forms to l=12)")


def test_criterion_5_wreath_cartan(contract_rows):
    for d in range(3, 7):
        matrix = bundled_decomp_matrix(d)
        assert matrix.d == d and matrix.p == 3
    want = {"cartan0_diagonal_equality": 15, "cartan0_diagonal_strict": 51, "cartan3_diagonal_strict": 18, "cartan0_symmetry": 6}
    checked = _checked(contract_rows["wreath", 3], want)
    _ok("5", f"({checked} rows: diagonal law to d=8 exact; symmetry to d=6; ingested char-3 bound for 3<=d<=6)")


def test_criterion_6_block_combinatorics(contract_rows):
    closed = ("block_closed_form", "block_restricted_iff_alpha_empty", "reg_fibre_closed_form", "fibre_multiplicity_sum")
    checked = _checked(contract_rows["blocks", 3], {**dict.fromkeys(closed, 13), "core_confluence": 226, "morris_yaseen": 1511})
    checked += _checked(contract_rows["blocks", 5], {"core_confluence": 183, "morris_yaseen": 1511})
    checked += _checked(contract_rows["tableaux", 3], {"patterned_tableau": 6})
    _ok("6", f"({checked} rows: block closed forms, core confluence, Morris-Yaseen, fibres with multiplicity 2d+1, "
             "patterned tableaux)")


def test_criterion_7_classifier_coherence(contract_rows):
    rows = contract_rows["classification", 3]
    certified = _checked(rows, {"soundness_no_certificate": 86})
    checked = _checked(rows, {"restriction_closure": 170, "phi_zero_verdict_agrees": 323, "homogeneous_lp_bound": 108,
                              "module_list_covers": 93, "module_list_irreducible": 23})
    _ok("7", f"({certified} proven-homogeneous partitions certified to n=28; {checked} coherence rows to n=30)")


def test_criterion_8_chain_identities_exhaustive(contract_rows):
    want = {"chain_up_avoids_1_mod_3": 110, "chain_up_length_last": 110}
    checked = _checked(contract_rows["branching", 3], want, max_n=22)
    _ok("8b", f"({checked} no-parts-1-mod-3 chain identity rows, exhaustive to n=22)")


def test_criterion_8_sigma_tau_chain_one_step(contract_rows):
    checked = _checked(contract_rows["branching", 3], {"chain_sigma_to_tau": 8, "chain_tau_to_sigma": 7})
    _ok("8a", f"({checked} rows: sigma->tau for 1<=l<=8, tau->sigma for 2<=l<=8, exact)")


def test_criterion_8_sigma_tau_chain_l1_zero_step():
    """Expected red: the l = 1 zero-direction step of the chain.

    Any partition produced by adding all strictly-addable 0-nodes has
    first part congruent to 1 mod 3 (row one always grows to the next
    such column), but sigma(2) = (6, 4, 3, 1) starts with 6.  Hence NO
    partition maps onto sigma(2), and in particular tau(1) does not;
    the identity below is stated for l >= 1 but cannot hold at l = 1.
    The assertion is kept as stated rather than weakened.
    """
    got = extremal(tau(1), 0, 3, "up").result
    print(f"ACCEPTANCE 8c: FAIL expected (tau(1) 0-step gives {got}, sigma(2) = {sigma(2)}; "
          "no 0-step preimage of sigma(2) exists)")
    assert got == sigma(2), (
        "degenerate chain start: no partition reaches sigma(2) by a full 0-node "
        "addition; see notes/decisions ledger"
    )
