import hashlib
import json
import random
from collections import Counter

import pytest

from spinhom import classify, dimensions
from spinhom.branching import boundary_nodes, ladder_obstruction, signature
from spinhom.classify import (
    CONJ_HOM,
    CONJ_NOT,
    EXCEPTIONAL_HOMOGENEOUS,
    PROVEN_HOM,
    PROVEN_NOT,
    IrredVerdict,
    SpecialDecomposition,
    Verdict,
    carter3,
    classify_homogeneous,
    classify_irreducible,
    homogeneity_obstruction,
    special_decompose,
)
from spinhom.ladders import regularize
from spinhom.partitions import (
    PartitionError,
    conjugate,
    is_odd_partition,
    l_p,
    partitions_of,
    run_down,
    scaled_add,
    strict_partitions_of,
)
from spinhom.verify import matches_module_list
from spinhom.wreath import is_p_regular


def test_special_decompose():
    assert special_decompose((7, 4)) == SpecialDecomposition((4, 1), (1, 1))
    assert special_decompose((4, 1)) == SpecialDecomposition((4, 1), ())
    assert special_decompose((6, 3)) is None
    assert special_decompose((5, 2)) == SpecialDecomposition((5, 2), ())
    assert special_decompose((2, 1)) is None
    assert special_decompose(()) is None
    dec = special_decompose((11, 5, 2))
    assert dec is not None
    assert scaled_add(dec.core, 3, dec.alpha) == (11, 5, 2)


def test_special_decompose_guard_raises_runtime_error():
    # a strict input always decomposes; (1, 1) shares a residue but sits below its core (4, 1)
    with pytest.raises(RuntimeError, match="3-core"):
        special_decompose((1, 1))


def test_carter3():
    assert carter3(())
    assert carter3((7,))
    assert not carter3((2, 1))
    assert not carter3((1, 1, 1))
    assert carter3((3, 1))
    assert carter3((1, 1))
    # any column of height 3 and the double-column pattern fail
    assert not carter3((2, 2, 2))
    assert not carter3((3, 3))


def _carter3_pairwise(alpha):
    """Carter's test as rows r < s compared at every column of row s."""
    def val3(m):
        v = 0
        while m % 3 == 0:
            m //= 3
            v += 1
        return v

    conj = conjugate(alpha)

    def hook(r, c):
        return alpha[r - 1] - c + conj[c - 1] - r + 1

    for s in range(2, len(alpha) + 1):
        for r in range(1, s):
            for c in range(1, alpha[s - 1] + 1):
                if val3(hook(r, c)) != val3(hook(s, c)):
                    return False
    return True


def test_carter3_matches_the_pairwise_row_loop():
    for n in range(21):
        for alpha in partitions_of(n):
            assert carter3(alpha) == _carter3_pairwise(alpha), alpha


def test_classify_examples():
    assert classify_homogeneous((6, 4, 3, 2, 1)) == Verdict(PROVEN_NOT, "Theorem_list")
    assert classify_homogeneous((8, 5, 3, 2, 1)) == Verdict(PROVEN_HOM, "H3_exceptional")
    assert classify_homogeneous((10, 7)) == Verdict(PROVEN_NOT, "Special_rect_not")
    assert classify_homogeneous((6,)) == Verdict(PROVEN_HOM, "H1_row")
    assert classify_homogeneous((9,)) == Verdict(PROVEN_HOM, "H1_row")
    assert classify_homogeneous((3,)) == Verdict(PROVEN_HOM, "H2_core_join_3")
    assert classify_homogeneous((5, 3, 2)) == Verdict(PROVEN_HOM, "H2_core_join_3")
    assert classify_homogeneous((4, 1)) == Verdict(PROVEN_HOM, "BarCore_weight0")
    assert classify_homogeneous(()) == Verdict(PROVEN_HOM, "BarCore_weight0")
    assert classify_homogeneous((10, 1)) == Verdict(PROVEN_HOM, "Special_l1")
    assert classify_homogeneous((7, 4)) == Verdict(PROVEN_HOM, "Special_rect_1_2")
    assert classify_homogeneous((13, 10, 1)) == Verdict(PROVEN_NOT, "Special_rect_not")
    assert classify_homogeneous((16, 13, 10, 4)) == Verdict(PROVEN_NOT, "Special_lastcol_ge3")
    assert classify_homogeneous((16, 13, 4)) == Verdict(PROVEN_NOT, "Special_two_cols_len2")
    assert classify_homogeneous((13, 7, 1)) == Verdict(PROVEN_NOT, "Special_known_small")
    assert classify_homogeneous((16, 7, 1)) == Verdict(PROVEN_HOM, "Special_known_small")
    with pytest.raises(PartitionError):
        classify_homogeneous((3, 3))


def test_one_row_family():
    # single rows are always homogeneous, whatever the residue
    for m in range(1, 30):
        assert classify_homogeneous((m,)).status == PROVEN_HOM


def test_two_row_hook_family():
    # (m, 1) with m + 1 >= 5: homogeneous exactly when m + 1 is not 0 or 1 mod 3
    for m in range(4, 25):
        verdict = classify_homogeneous((m, 1))
        want = (m + 1) % 3 == 2
        assert verdict.homogeneous == want, m
        assert verdict.proven


def test_conjectural_verdicts():
    # smallest shapes outside every settled case
    v = classify_homogeneous(scaled_add((10, 7, 4, 1), 3, (2, 2, 1)))
    assert v.status in (CONJ_HOM, CONJ_NOT) and v.reason == "Carter_conjecture"
    assert v.status == (CONJ_HOM if carter3((2, 2, 1)) else CONJ_NOT)
    v41 = classify_homogeneous(scaled_add((13, 10, 7, 4, 1), 3, (4, 1)))
    assert v41.status == (CONJ_HOM if carter3((4, 1)) else CONJ_NOT)


def test_peel_and_carter_disagree_on_sixteen_open_hooks():
    # every special lam = core + 3*alpha with n <= 60, built from its core
    open_lines = []
    for i in (1, 2):
        l = 1
        while sum(core := run_down(3 * (l - 1) + i, i)) <= 60:
            for k in range((60 - sum(core)) // 3 + 1):
                for alpha in partitions_of(k):
                    if len(alpha) > l:
                        continue
                    lam = scaled_add(core, 3, alpha)
                    assert special_decompose(lam) == (core, alpha), lam
                    verdict = classify_homogeneous(lam)
                    if verdict.reason == "Carter_conjecture":
                        open_lines.append((lam, alpha, verdict.status))
            l += 1
    assert Counter(status for _, _, status in open_lines) == {CONJ_HOM: 168, CONJ_NOT: 508}
    hooks = [line for line in open_lines if len(line[1]) >= 2 and line[1][0] >= 2 and set(line[1][1:]) == {1}]
    assert len(hooks) == 146
    # Peel: for odd p the hook Specht module S^(a,1^r) is irreducible iff p does not divide a + r
    disagree = [line for line in hooks if ((line[1][0] + len(line[1]) - 1) % 3 != 0) != carter3(line[1])]
    assert len(disagree) == 16
    assert all(status == CONJ_NOT and not is_p_regular(alpha, 3) for _, alpha, status in disagree)
    assert Counter(alpha for _, alpha, _ in disagree) == {
        (2, 1, 1, 1): 4, (4, 1, 1, 1): 3, (5, 1, 1, 1): 3, (7, 1, 1, 1): 2,
        (8, 1, 1, 1): 2, (3, 1, 1, 1, 1): 1, (4, 1, 1, 1, 1): 1,
    }
    smallest = min((lam for lam, _, _ in disagree), key=lambda lam: (sum(lam), lam))
    assert smallest == (16, 10, 7, 4) and sum(smallest) == 37


def test_exceptional_list_is_homogeneous_and_nonspecial():
    for lam in EXCEPTIONAL_HOMOGENEOUS:
        assert special_decompose(lam) is None
        assert classify_homogeneous(lam).status == PROVEN_HOM


def test_obstruction_examples():
    cert = homogeneity_obstruction((9, 6, 3))
    assert cert is not None and cert.kind == "Degree_witness" and cert.witness == (8, 7, 3)
    assert homogeneity_obstruction((8, 5, 3, 2, 1)) is None
    assert homogeneity_obstruction((6,)) is None


def test_classify_irreducible_examples():
    verdict = classify_irreducible((6,), "sn")
    assert verdict.irreducible and verdict.proven
    assert verdict.labels == ("S^{lam,+}", "S^{lam,-}")
    assert not classify_irreducible((6,), "an").irreducible  # l_3 = 1 > bound 0 for odd
    assert not classify_irreducible((4, 3, 2), "sn").irreducible
    assert classify_irreducible((4, 3, 2), "an").irreducible
    assert classify_irreducible((2, 1), "an") == IrredVerdict("an", ("T^lam",), True, True)
    assert classify_irreducible((2, 1), "sn").irreducible
    with pytest.raises(PartitionError):
        classify_irreducible((5,), "weird")


def test_super_bounds():
    # odd partitions need l_3 = 0 as supermodules, even ones allow 1
    assert is_odd_partition((3, 2, 1)) and l_p((3, 2, 1), 3) == 1
    assert classify_irreducible((3, 2, 1), "super").irreducible is False
    assert classify_irreducible((3, 2, 1), "sn").irreducible is True
    assert classify_irreducible((4, 3, 2), "super").irreducible  # even, l_3 = 1


def test_module_list_membership():
    assert matches_module_list((6,), "sn")
    assert matches_module_list((3,), "an")
    assert matches_module_list((9,), "an")
    assert not matches_module_list((9,), "sn")
    assert matches_module_list((5, 3, 2, 1), "sn")
    assert matches_module_list((8, 5, 3, 2, 1), "an")
    assert not matches_module_list((8, 5, 3, 2, 1), "sn")


def test_obstruction_same_with_cold_and_warm_memos():
    memos = (boundary_nodes, signature, regularize, dimensions._ranked_fibre)
    lams = [lam for n in range(23) for lam in strict_partitions_of(n)]
    cold = []
    for lam in lams:
        for memo in memos:
            memo.cache_clear()
        cold.append(homogeneity_obstruction(lam))
    warm = [homogeneity_obstruction(lam) for lam in lams]
    assert warm == cold
    assert [homogeneity_obstruction(lam) for lam in reversed(lams)] == cold[::-1]
    assert boundary_nodes.cache_info().hits and regularize.cache_info().hits
    assert signature.cache_info().hits


def test_certify_outputs_pinned():
    # verdict and certificate of every strict partition of n <= 30, as the
    # bench's certify workload reports them (the n <= 34 digest is c93d6d25b49fe7c4)
    rows = []
    for n in range(31):
        for lam in strict_partitions_of(n):
            verdict = classify_homogeneous(lam)
            cert = homogeneity_obstruction(lam)
            rows.append([
                list(lam), verdict.status, verdict.reason,
                None if cert is None else cert.kind,
                None if cert is None or cert.witness is None else list(cert.witness),
            ])
    assert len(rows) == 2035
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == "a90b3dba48b414fd"


def test_obstruction_regularises_only_past_the_first_ladder_test(monkeypatch):
    calls = []
    real = classify.regularize

    def spy(lam, p):
        calls.append(lam)
        return real(lam, p)

    monkeypatch.setattr(classify, "regularize", spy)
    for lam in ((5, 1), (4, 2)):
        assert ladder_obstruction(lam, 0, 3)
        assert homogeneity_obstruction(lam).kind == "Obstruction_certificate"
    assert calls == []
    # past the first ladder test lam is regularised once, then each
    # restriction check regularises its own removal
    lam = (8, 5, 3, 2, 1)
    assert homogeneity_obstruction(lam) is None
    assert calls.count(lam) == 1 and calls[0] == lam and len(calls) == 3


def test_one_certificate_sweep_computes_each_signature_once():
    # signature is keyed by fibre: a shuffled sweep that returns to a fibre
    # long after 64 other calls still finds its signatures stored
    lams = [lam for n in range(27) for lam in strict_partitions_of(n)]
    random.Random(1).shuffle(lams)
    for memo in (boundary_nodes, signature, regularize, dimensions._ranked_fibre):
        memo.cache_clear()
    for lam in lams:
        homogeneity_obstruction(lam)
    info = signature.cache_info()
    assert info.misses == info.currsize > 64
