import hashlib
import os
from collections import Counter

import pytest

from spinhom import barcores, verify
from spinhom.families import FAMILIES, admissible_row_tuples, staircase_adjusted
from spinhom.ladders import regularize


def test_suite_rows_are_tsv_safe():
    for row in verify.run_suite("ladders", p=3, max_n=6):
        assert len(row) == 6
        assert all("\t" not in field and "\n" not in field for field in row)


def test_determinism_across_thread_counts():
    sequential = verify.suite_ladders(3, 10, threads=1)
    parallel = verify.suite_ladders(3, 10, threads=max(2, min(4, os.cpu_count() or 2)))
    assert sequential == parallel
    for name in verify.SUITES:
        sequential = verify.run_suite(name, p=3, max_n=8, max_l=4, threads=1)
        parallel = verify.run_suite(name, p=3, max_n=8, max_l=4, threads=2)
        assert sequential == parallel, name


def test_unknown_suite():
    with pytest.raises(ValueError):
        verify.run_suite("nope")


@pytest.mark.parametrize("p", [0, 1, 2, 4, 9])
def test_run_suite_rejects_p_not_an_odd_prime(p):
    with pytest.raises(ValueError, match="odd prime"):
        verify.run_suite("ladders", p=p, max_n=3)


@pytest.mark.parametrize("p", [5, 7])
def test_p3_only_suites_are_refused_at_other_p(p):
    assert verify.suites_at(3) == list(verify.SUITES)
    assert verify.suites_at(p) == ["ladders", "branching", "blocks", "tableaux"]
    for name in ("degrees", "wreath", "classification"):
        with pytest.raises(ValueError, match="defined at p=3 only"):
            verify.run_suite(name, p=p, max_n=3, max_l=3)


def test_wreath_suite_seeded_sample_is_stable():
    a = verify.suite_wreath(3, 6, seed=0)
    b = verify.suite_wreath(3, 6, seed=0)
    assert a == b


def test_suites_clean_at_pinned_ranges(contract_rows):
    """Every suite at its contract range, read from the session runs."""
    for run, rows in contract_rows.items():
        assert rows, run
        assert verify.failures(rows) == [], run


# sha256 of each contract run's rows, one TSV line per row as ``verify``
# prints them; a change meant to alter rows updates its pin and says why
ROW_HASHES = {
    ("ladders", 3): "2cc0b29553e51ec0de8549c2fe0a1c7e3331d14383c23eb287b433ec399bc60f",
    ("ladders", 5): "6c1b993ae4914c67d7f73bb0ab40af2824e902e44745898b5fed6c72c78523af",
    ("branching", 3): "fcda030af776900aafbd10e0a40baf8a4c629826ca4b25a79f1ea49ae4d2429f",
    ("branching", 5): "f844c4d8e042efdfac4f2b0b1d49d3236e859723824896ffddebba962cc7aa3d",
    ("blocks", 3): "cc9e33e5e07dfd49448b95f3632b44b6880b3bf8986f10df0dd3f359532617b2",
    ("blocks", 5): "5b5389b2e72f73f2a56093fba41529a5d4d1b9c2b1c4919faa4597974488678a",
    ("degrees", 3): "02882b63ae41b29dc889925afa3afb81cab3a89f4e22e83c1f08c5715ab8738b",
    ("tableaux", 3): "69c813533f8d0723261bb1389ec21739f99e91e0f4c6a00f3ad6c77cf6e8206b",
    ("wreath", 3): "7f10ce79e7c982f012f7f0d552657edde94a1e7a7ba6b4b316b71c9ba86959d6",
    ("classification", 3): "07f2bbb8ae2a6cc1a8d9493b083d9008198e4a9b03842e0d4bb1a84a4d6c72d8",
}


def test_contract_rows_match_their_pinned_hashes(contract_rows):
    got = {
        run: hashlib.sha256("".join("\t".join(row) + "\n" for row in rows).encode()).hexdigest()
        for run, rows in contract_rows.items()
    }
    assert got == ROW_HASHES


def test_degrees_suite_full_invariants(contract_rows):
    """The full-scale run reaches the staircase witnesses at l = 8 (that
    no row fails is asserted for every contract run above)."""
    rows = contract_rows["degrees", 3]
    assert any(row[1] == "staircase_witness" and "l=8" in row[2] for row in rows)


def test_degrees_suite_checks_every_equal_at_index(contract_rows):
    equal_rows = {(row[0], row[2]) for row in contract_rows["degrees", 3] if row[1] == "ratio_equal_at"}
    declared = {(name, f"l={l}") for name, fam in FAMILIES.items() for l in fam.equal_at if l <= 12}
    assert declared and equal_rows == declared
    small = verify.suite_degrees(3, 4, max_l=2)
    assert {(row[0], row[2]) for row in small if row[1] == "ratio_equal_at"} == {("deglem12", "l=1")}


def test_degrees_suite_sends_one_job_per_fibre(monkeypatch):
    # a worker ranks each fibre it sees, so no fibre may be split across jobs
    jobs = []
    real = verify._fan_out

    def spy(fn, items, threads):
        jobs.extend(items)
        return real(fn, items, threads)

    monkeypatch.setattr(verify, "_fan_out", spy)
    verify.suite_degrees(3, 4, max_l=5)
    fibres = [{regularize(staircase_adjusted(l, tup), 3) for tup in tups} for l, tups in jobs]
    assert len(jobs) == 6 and all(len(fibre) == 1 for fibre in fibres)
    assert len(set().union(*fibres)) == 6
    assert [tup for _, tups in jobs for tup in tups] == [tup for l in (3, 4, 5) for tup in admissible_row_tuples(l)]


def test_core_confluence_fails_on_a_bar_core_that_stops_early(monkeypatch):
    # each confluence row's lhs is the one core every removal order
    # reaches, so a bar_core stopping after two removals must fail the rows
    # past weight two; the suite then reports its "cores" that are no bar
    # core as failed member counts and goes on to its remaining checks
    def early(lam, p):
        current, weight = lam, 0
        while weight < 2 and (moves := barcores.bar_removals(current, p)):
            current, weight = moves[0].result, weight + 1
        return barcores.BarCoreResult(current, weight)

    monkeypatch.setattr(barcores, "bar_core", early)
    rows = verify.suite_blocks(3, 12)
    failed = verify.failures(rows)
    assert len(rows) == 457
    assert Counter(row[1] for row in failed) == {
        "morris_yaseen": 108, "core_confluence": 50, "block_member_count": 11, "block_partition_of_set": 4,
    }
    assert ("9", "core_confluence", "", "[()]", "[(3,)]", "FAIL") in failed
    assert ("2,1", "block_member_count", "n=9,d=2", "not a bar core", "7", "FAIL") in failed
