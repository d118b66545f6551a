import os

import pytest

from spinhom import verify


@pytest.mark.parametrize("name", verify.SUITES)
def test_suites_clean_at_reduced_scale(name):
    rows = verify.run_suite(name, p=3, max_n=8, max_l=4)
    assert rows
    assert verify.failures(rows) == []


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


def test_suites_clean_at_pinned_ranges():
    """Every module-invariant suite at its contract range (degrees has
    its own full-scale test below)."""
    threads = min(4, os.cpu_count() or 1)
    jobs = [
        ("ladders", 3, 25),
        ("ladders", 5, 18),
        ("branching", 3, 25),
        ("branching", 5, 16),
        ("blocks", 3, 16),
        ("blocks", 5, 16),
        ("tableaux", 3, 12),
        ("wreath", 3, 8),
        ("classification", 3, 30),
    ]
    for name, p, max_n in jobs:
        rows = verify.run_suite(name, p=p, max_n=max_n, threads=threads)
        assert verify.failures(rows) == [], (name, p, max_n)


def test_degrees_suite_full_invariants():
    """Full-scale run: every degree-family closed form to l = 12 and a
    same-fibre smaller-degree partner for every admissible staircase
    adjustment through l = 8."""
    threads = min(4, os.cpu_count() or 1)
    rows = verify.suite_degrees(3, 12, threads=threads, max_l=12)
    assert verify.failures(rows) == []
    assert any(row[1] == "staircase_witness" and "l=8" in row[2] for row in rows)
