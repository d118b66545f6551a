import os

import pytest

from spinhom import barcores, verify
from spinhom.families import FAMILIES, admissible_row_tuples, staircase_adjusted
from spinhom.ladders import regularize
from spinhom.partitions import PartitionError


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
    # each row's lhs is the one core every removal order reaches, so a
    # bar_core stopping after two removals must fail the rows past weight
    # two; suite_blocks then stops at block_members, which refuses such a
    # "core", so its confluence rows are read where the suite builds them
    def early(lam, p):
        current, weight = lam, 0
        while weight < 2 and (moves := barcores.bar_removals(current, p)):
            current, weight = moves[0].result, weight + 1
        return barcores.BarCoreResult(current, weight)

    rows = []
    real = verify._fan_out

    def spy(fn, items, threads):
        out = real(fn, items, threads)
        rows.extend(out)
        return out

    monkeypatch.setattr(verify, "_fan_out", spy)
    monkeypatch.setattr(barcores, "bar_core", early)
    with pytest.raises(PartitionError, match="is not a 3-bar core"):
        verify.suite_blocks(3, 12)
    failed = verify.failures(rows)
    assert len(rows) == 86 and {row[1] for row in rows} == {"core_confluence"}
    assert len(failed) == 50
    assert ("9", "core_confluence", "", "[()]", "[(3,)]", "FAIL") in failed
