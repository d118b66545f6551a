import hashlib
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from spinhom import barcores, verify
from spinhom.families import FAMILIES, admissible_row_tuples, staircase_adjusted
from spinhom.ladders import check_ladder_identities, regularize
from spinhom.partitions import PartitionError, format_partition, p_strict_partitions_of


def test_suite_rows_are_tsv_safe():
    for row in verify.run_suite("ladders", p=3, max_n=6):
        assert len(row) == 6
        assert all("\t" not in field and "\n" not in field for field in row)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ladder_suite_identity_rows_are_the_kernel_rows(p):
    # the suite formats each identity row inline; it must match _row field by field
    for n in range(13):
        for lam in p_strict_partitions_of(n, p):
            want = [verify._row(format_partition(lam), *row) for row in check_ladder_identities(lam, p)]
            got = list(verify._ladder_rows(lam, p))
            assert got[: len(want)] == want, lam
            assert got[len(want)][1] == "reg_profile", lam


def test_determinism_across_thread_counts():
    tasks = verify.suite_ladders(3, 10)
    sequential = verify.run_tasks(tasks, 1)
    parallel = verify.run_tasks(tasks, max(2, min(4, os.cpu_count() or 2)))
    assert sequential == parallel
    each = {}
    for name in verify.SUITES:
        each[name] = verify.run_suite(name, p=3, max_n=8, max_l=4, threads=1)
        parallel = verify.run_suite(name, p=3, max_n=8, max_l=4, threads=2)
        assert each[name] == parallel, name
    # every suite's tasks on one run split back into the same suites
    assert verify.run_suites(list(verify.SUITES), p=3, max_n=8, max_l=4, threads=2) == each


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
    a = verify.run_tasks(verify.suite_wreath(3, 6, seed=0), 1)
    b = verify.run_tasks(verify.suite_wreath(3, 6, seed=0), 1)
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
    ("ladders", 7): "487bb67f6f9bc9641e2f6e3870850d65261763f3caf7498798601bed88538e0c",
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


def test_degrees_rows_at_max_l_5_pinned():
    # the benchmark's verify workloads run the degrees suite at --max-l 5
    rows = verify.run_suite("degrees", p=3, max_n=12, max_l=5)
    got = hashlib.sha256("".join("\t".join(row) + "\n" for row in rows).encode()).hexdigest()
    assert len(rows) == 175 and got == "6f3efe7b9a4c4e9c6d63a23354dbd5161658484a19f09925ae023e747011900f"


def test_degree_families_run_past_twelve_to_max_l(contract_rows):
    rows = verify.run_suite("degrees", p=3, max_n=12, max_l=14)
    at_12 = contract_rows["degrees", 3]
    assert len(rows) == 623 and not Counter(at_12) - Counter(rows)
    added = Counter(row[1] for row in rows) - Counter(row[1] for row in at_12)
    assert added == {"ratio_formula": 6, "ratio_step_formula": 16, "ratio_greater": 22, "same_regularisation": 22}
    assert not verify.failures(rows)


def test_degrees_suite_full_invariants(contract_rows):
    """The full-scale run reaches the staircase witnesses at l = 8 (that
    no row fails is asserted for every contract run above)."""
    rows = contract_rows["degrees", 3]
    assert any(row[1] == "staircase_witness" and "l=8" in row[2] for row in rows)


def test_degrees_suite_checks_every_equal_at_index(contract_rows):
    equal_rows = {(row[0], row[2]) for row in contract_rows["degrees", 3] if row[1] == "ratio_equal_at"}
    declared = {(name, f"l={l}") for name, fam in FAMILIES.items() for l in fam.equal_at if l <= 12}
    assert declared and equal_rows == declared
    small = verify.run_suite("degrees", p=3, max_n=4, max_l=2)
    assert {(row[0], row[2]) for row in small if row[1] == "ratio_equal_at"} == {("deglem12", "l=1")}


@pytest.mark.parametrize("p", [3, 5])
def test_every_task_is_a_sweep_chunk(p):
    # every suite makes its tasks through _sweep, so each runs one check over a chunk of items
    for name in verify.suites_at(p):
        extra = {"max_l": 5} if name == "degrees" else {"seed": 0} if name == "wreath" else {}
        tasks = verify.SUITES[name][0](p, 12, **extra)
        assert tasks and all(fn is verify._each for fn, _ in tasks), name


def test_degrees_suite_sends_one_job_per_fibre():
    # a worker ranks each fibre it sees, so no fibre may be split across tasks
    jobs = [
        fibre
        for _, (check, fibres, _) in verify.suite_degrees(3, 4, max_l=5)
        if check is verify._staircase_witness_rows
        for fibre in fibres
    ]
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
    rows = verify.run_suite("blocks", p=3, max_n=12)
    failed = verify.failures(rows)
    assert len(rows) == 457
    assert Counter(row[1] for row in failed) == {
        "morris_yaseen": 108, "core_confluence": 50, "block_member_count": 11, "block_partition_of_set": 4,
    }
    assert ("9", "core_confluence", "", "[()]", "[(3,)]", "FAIL") in failed
    assert ("2,1", "block_member_count", "n=9,d=2", "not a bar core", "7", "FAIL") in failed


def test_core_confluence_fails_on_a_removal_to_a_foreign_core(monkeypatch):
    # one extra removal (7,) -> (2,) makes the core (2,) reachable from (7,)
    # and from every partition whose removals pass through it; bar_core takes
    # first removals alone and still ends at (1,), so exactly those rows fail
    real = barcores.bar_removals
    extra = [barcores.BarRemoval("decrease", (2,))]
    monkeypatch.setattr(barcores, "bar_removals", lambda lam, p: real(lam, p) + (extra if lam == (7,) else []))
    rows = verify.run_suite("blocks", p=3, max_n=12)
    failed = verify.failures(rows)
    assert len(rows) == 450
    # (10,), (7, 3) and (7, 2, 1) are the partitions of n <= 12 with a removal to (7,)
    assert failed == [
        (lam, "core_confluence", "", "[(1,), (2,)]", "[(1,)]", "FAIL") for lam in ("7", "10", "7,3", "7,2,1")
    ]
    assert ("4", "core_confluence", "", "[(1,)]", "[(1,)]", "ok") in rows



def test_lr2_summary_row_fails_after_a_failing_coefficient(monkeypatch):
    # one coefficient made asymmetric: c^{2,1}_{2,1} reads 2, c^{2,1}_{1,2} stays 1
    real = verify.wreath.lr2
    monkeypatch.setattr(
        verify.wreath, "lr2", lambda alpha, beta, nu: real(alpha, beta, nu) + ((alpha, beta, nu) == ((2,), (1,), (2, 1)))
    )
    rows = list(verify._lr2_rows(3))
    assert ("2,1", "lr2_symmetry", "(2,)|(1,)", "2", "1", "FAIL") in rows
    assert rows[-1] == ("|nu|=3", "lr2_symmetry_conjugation", "", "all", "all", "FAIL")
    assert list(verify._lr2_rows(2))[-1][5] == "ok"

# the tasks below run only on forked workers; in the parent they would end
# or stall the test session, so they refuse to run there
PARENT = os.getpid()


def _in_worker() -> None:
    if os.getpid() == PARENT:
        raise AssertionError("a task ran in the parent")


def _exits_unreported() -> list:
    _in_worker()
    os._exit(1)


def _sleeps() -> list:
    _in_worker()
    time.sleep(60)
    return []


def _numbered(i: int) -> list:
    return [(str(i), "numbered", "", "", "", "ok")]


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """A run that stalls raises TimeoutError after 60 s instead of hanging."""

    def stalled(signum, frame):
        raise TimeoutError("the runner stalled")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_task_error_in_a_worker_is_raised_again_in_the_parent(deadline):
    # a partition that is not 3-strict: its task raises in the worker
    tasks = verify.suite_ladders(3, 8) + [(verify._ladder_rows, ((2, 2), 3))] + verify.suite_ladders(3, 4)
    with pytest.raises(PartitionError) as serial:
        verify.run_tasks(tasks, 1)
    with pytest.raises(PartitionError) as forked:
        verify.run_tasks(tasks, 2)
    assert type(forked.value) is PartitionError
    assert str(forked.value) == str(serial.value)
    assert "in require_shape" in str(forked.value.__cause__)
    _assert_no_child_left()


def test_a_worker_failure_carries_its_traceback_in_a_fresh_interpreter():
    # pytest has always loaded traceback, so only a fresh interpreter shows
    # that a failing worker imports it and that a clean run never does
    script = """
import sys
from spinhom import verify
from spinhom.partitions import PartitionError
verify.run_tasks(verify.suite_ladders(3, 6), 2)
if "traceback" in sys.modules:
    sys.exit("a clean forked run loaded traceback")
try:
    verify.run_tasks(verify.suite_ladders(3, 8) + [(verify._ladder_rows, ((2, 2), 3))], 2)
except PartitionError as exc:
    print(exc.__cause__)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "in require_shape" in proc.stdout, proc.stdout


def test_a_worker_that_ends_without_reporting_fails_the_run(deadline):
    # a run that lost a task's rows must raise, never return fewer rows
    tasks = verify.suite_ladders(3, 8) + [(_exits_unreported, ())] + verify.suite_ladders(3, 4)
    with pytest.raises(RuntimeError, match="unreported"):
        verify.run_tasks(tasks, 2)
    _assert_no_child_left()


def test_an_interrupted_run_kills_and_reaps_its_workers(monkeypatch, deadline):
    # the first wait is interrupted, as by Ctrl-C, while both workers sleep
    real = os.waitpid
    calls = []

    def interrupted(pid, options):
        calls.append(pid)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return real(pid, options)

    monkeypatch.setattr(os, "waitpid", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify.run_tasks([(_sleeps, ())] * 2, 2)
    assert time.monotonic() - start < 30
    monkeypatch.undo()
    _assert_no_child_left()


def test_a_queue_longer_than_a_pipe_holds_runs_in_task_order(deadline):
    # 20000 indices fill more than a 64 KiB pipe, so the parent must fork
    # before it queues them, or it stalls
    tasks = [(_numbered, (i,)) for i in range(20000)]
    assert verify.run_tasks(tasks, 2) == verify.run_tasks(tasks, 1)
    _assert_no_child_left()


def test_workers_never_write_the_parents_buffered_output():
    # stdout to a pipe is block-buffered, so "before" is still in the
    # buffer when the workers are forked; a worker that flushed it on exit
    # would print it again
    code = "from spinhom import verify; print('before'); verify.run_tasks(verify.suite_ladders(3, 6), 2); print('after')"
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stdout == b"before\nafter\n"
