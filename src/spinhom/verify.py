"""Exhaustive verification suites over small partitions.

Each suite walks every partition in its range, re-evaluates a family of
exact identities or cross-checks, and yields one row per check:

    (subject, check, detail, lhs, rhs, ok)

Rows are plain strings ready for TSV output; a suite passes when no row
has ok == "FAIL".  ``SUITES`` maps each suite to its function and its
default ``max_n``.  The degrees, wreath and classification suites check
p = 3 facts only and are refused at any other p.  Every suite's main
sweep runs to ``max_n`` as given, and the ladders suite is that sweep
alone; these checks stop at a fixed cap whatever ``max_n`` asks for:

* branching: homogeneous-case matches n <= 25, tilde inverses n <= 18;
* blocks: core confluence n <= 20, Morris-Yaseen and block counts n <= 16;
* degrees: sums of squares n <= 10, g against tableau counts n <= 12;
* tableaux: enumeration rows n <= 12, residue words n <= 10;
* wreath: every row d <= 8; cartan0 symmetry, char-3 rows and the
  sampled lower bounds d <= 6.  A Cartan class sum with a remainder
  is a FAIL row of its item, not an exception;
* classification: soundness and closure n <= 28, phi-zero agreement
  n <= 25, the module list n <= 20.

The sigma/tau chains, block closed forms and patterned tableaux use fixed
ranges and run at p = 3 only; the degree families (every declared
range and equality index) and staircase witnesses (l <= 8) follow
``max_l``.

Every check is a generator that yields the rows of one item: a
partition, an n, a family name, an l, a fibre ``(l, tups)`` or a label.
A suite function is a list of ``_sweep(check, items, *args)`` calls,
each making about ``_SWEEP_TASKS`` picklable ``(function, args)`` tasks
that run the check over a chunk of its items in order; with fewer items
than that a chunk is one item.  ``run_tasks`` runs a task list, in a
loop at one thread and on forked workers above one, and returns each
task's rows in task order, so output is identical for every thread count.
``run_suites`` hands the tasks of several suites to one ``run_tasks``
call, so workers share whole suites, not one suite at a time.
"""

from __future__ import annotations

import os
import pickle
import random
import select
import signal
import struct
import tempfile
from collections import Counter
from contextlib import suppress
from functools import wraps
from itertools import combinations, groupby
from math import factorial
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from . import barcores, branching, classify, dimensions, families, ladders, tableaux, wreath
from .partitions import (
    Partition,
    check_odd_prime,
    conjugate,
    contains,
    format_partition,
    is_odd_partition,
    is_restricted,
    is_strict,
    l_p,
    p_strict_partitions_of,
    partitions_of,
    restricted_partitions_of,
    run_down,
    scaled_add,
    join,
    strict_partitions_of,
)

Row = tuple[str, str, str, str, str, str]
# a task: fn(*args) yields rows; fn is a module-level function and args
# are plain values, so a task pickles
Task = tuple[Callable[..., Iterable[Row]], tuple]

# tasks per per-partition sweep: enough that no chunk is a long tail for
# two to eight workers, few enough that a task's own cost stays small
_SWEEP_TASKS = 48


def _row(subject, check, detail, lhs, rhs, ok: bool) -> Row:
    return (str(subject), str(check), str(detail), str(lhs), str(rhs), "ok" if ok else "FAIL")


def _holds(subject, check, detail, ok: bool) -> Row:
    """Row of a predicate check: lhs is the predicate's value, rhs True."""
    return _row(subject, check, detail, ok, True, ok)


def _equal(subject, check, detail, lhs, rhs) -> Row:
    return _row(subject, check, detail, lhs, rhs, lhs == rhs)


def _each(fn: Callable[..., Iterator[Row]], items: tuple, args: tuple) -> Iterator[Row]:
    for item in items:
        yield from fn(item, *args)


def _sweep(fn: Callable[..., Iterator[Row]], items: Iterable, *args) -> list[Task]:
    """About ``_SWEEP_TASKS`` tasks running fn(item, *args) over items in order."""
    items = tuple(items)
    chunk = max(1, -(-len(items) // _SWEEP_TASKS))
    return [(_each, (fn, items[i : i + chunk], args)) for i in range(0, len(items), chunk)]


# ---------------------------------------------------------------------------
# the task runner

_INDEX = struct.Struct("=I")


def _require_threads(threads: int) -> None:
    # each worker is a process of its own, so cap them at the CPU count
    cpus = os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        raise ValueError(f"threads must be between 1 and {cpus}, got {threads}")
    if threads > 1 and not hasattr(os, "fork"):
        raise ValueError("threads above 1 need os.fork, which this platform lacks")


def run_tasks(tasks: Sequence[Task], threads: int) -> list[list[Row]]:
    """The rows of each task, in task order.

    At one thread the tasks run in a plain loop.  Above one, ``threads``
    forked workers take task indices from one pipe and spool a pickled
    ``(index, rows)`` per task to a temporary file each; the parent only
    dispatches, reaps every worker and merges.  The first failing task's
    exception is raised again here with its type and message, its cause
    carrying the worker's traceback, and a worker that ends without
    reporting every task it took makes the call raise, so a run never
    returns fewer rows than its tasks made.  Only a failing worker
    imports ``traceback``, so neither the parent nor any worker of a
    clean run loads it.  A task's rows are listed inside its task, so a
    check that raises midway fails that task in both paths.  The workers
    are forked, so they inherit the tasks and every memo as they stand;
    forking is safe only in a process that runs no other thread, as the
    CLI does.
    """
    _require_threads(threads)
    if threads == 1 or len(tasks) <= 1:
        return [list(fn(*args)) for fn, args in tasks]
    return _run_forked(tasks, min(threads, len(tasks)))


def _run_forked(tasks: Sequence[Task], workers: int) -> list[list[Row]]:
    queue_r, queue_w = os.pipe()
    spools = [tempfile.TemporaryFile() for _ in range(workers)]
    pids: list[int] = []
    try:
        for spool in spools:
            pid = os.fork()
            if pid == 0:
                _work(tasks, queue_r, queue_w, spool)
            pids.append(pid)
        os.close(queue_r)
        queue_r = -1
        # every worker exists before the first write, so a queue longer than
        # the pipe holds drains as it fills; a write of at most PIPE_BUF
        # bytes is atomic, so no worker's read splits an index
        queue = b"".join(_INDEX.pack(i) for i in range(len(tasks)))
        with suppress(BrokenPipeError):  # every worker has ended; the reaping below says how
            for start in range(0, len(queue), select.PIPE_BUF):
                os.write(queue_w, queue[start : start + select.PIPE_BUF])
        os.close(queue_w)
        queue_w = -1
        codes = []
        while pids:  # a reaped pid leaves the list, so the finally skips it
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1]))
            pids.pop(0)
        results: list = [None] * len(tasks)
        errors = []
        for spool in spools:
            spool.seek(0)
            # a worker that died mid-record leaves it truncated
            with suppress(EOFError, pickle.UnpicklingError):
                while True:
                    index, payload, *trace = pickle.load(spool)
                    if trace:
                        errors.append((index, payload, trace[0]))
                    else:
                        results[index] = payload
        if errors:
            # the first failing task in task order, as a serial run raises it
            index, exc, trace = min(errors, key=lambda error: error[0])
            raise exc from RuntimeError(f"task {index} failed in a verify worker:\n{trace}")
        missing = results.count(None)
        if missing or any(codes):
            raise RuntimeError(f"a verify worker ended with exit codes {codes}, leaving {missing} of {len(tasks)} tasks unreported")
        return results
    finally:
        # an error or an interrupt leaves no worker behind
        for pid in pids:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in (queue_r, queue_w):
            if fd >= 0:
                os.close(fd)
        for spool in spools:
            spool.close()


def _work(tasks: Sequence[Task], queue_r: int, queue_w: int, spool) -> NoReturn:
    """A forked worker: run each task index the queue hands out and spool
    its pickled ``(index, rows)``, or ``(index, exception, traceback)``
    and stop.  ``traceback`` is imported on that failure path alone: the
    success path imports nothing, so no worker of a clean run loads it.
    It ends with ``os._exit``, so nothing the parent had buffered (stdout
    included) is written twice; the exit code is 0 once the spool is
    flushed."""
    code = 1
    try:
        os.close(queue_w)
        while record := os.read(queue_r, _INDEX.size):
            (index,) = _INDEX.unpack(record)
            fn, args = tasks[index]
            try:
                reply = pickle.dumps((index, list(fn(*args))), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # the parent raises it again
                import traceback

                spool.write(pickle.dumps((index, exc, traceback.format_exc()), pickle.HIGHEST_PROTOCOL))
                break
            spool.write(reply)
        spool.flush()
        code = 0
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# ladders


def _ladder_rows(lam: Partition, p: int) -> Iterator[Row]:
    name = format_partition(lam)
    # each identity row as ``_row`` would build it, with one str per integer
    for identity, l, lhs, rhs, ok in ladders.check_ladder_identities(lam, p):
        yield (name, identity, str(l), str(lhs), str(rhs), "ok" if ok else "FAIL")
    reg = ladders.regularize(lam, p)
    yield _holds(name, "reg_profile", "", ladders.ladder_profile(lam, p) == ladders.ladder_profile(reg, p))
    yield _holds(name, "reg_idempotent", "", ladders.regularize(reg, p) == reg)
    yield _holds(name, "reg_restricted", "", is_restricted(reg, p))
    if is_restricted(lam, p):
        yield _holds(name, "reg_fixed_point", "", reg == lam)
    if is_strict(lam):
        same = all(
            branching.boundary_nodes(lam, i, p, "strict") == branching.boundary_nodes(lam, i, p, "pstrict")
            for i in range(1, (p - 1) // 2 + 1)
        )
        yield _holds(name, "strict_add_badd_nonzero", "", same)


def suite_ladders(p: int, max_n: int) -> list[Task]:
    return _sweep(_ladder_rows, (lam for n in range(max_n + 1) for lam in p_strict_partitions_of(n, p)), p)


# ---------------------------------------------------------------------------
# branching


def _branching_strict_rows(lam: Partition, p: int) -> Iterator[Row]:
    name = format_partition(lam)
    half = (p - 1) // 2
    for i in range(half + 1):
        obstruction = branching.ladder_obstruction(lam, i, p)
        overshoot = branching.dn(lam, i, p)
        if i == half:
            yield _equal(name, "dn_half_equivalence", f"i={i}", obstruction, overshoot)
        if obstruction:
            yield _row(name, "dn_implication", f"i={i}", obstruction, overshoot, overshoot)
        if i != 0:
            agree = branching.boundary_nodes(lam, i, p, "strict") == branching.boundary_nodes(lam, i, p, "pstrict")
            yield _holds(name, "senses_coincide", f"i={i}", agree)
    if p == 3 and all(a % 3 != 1 for a in lam):
        up = branching.extremal(branching.extremal(lam, 0, 3, "up").result, 1, 3, "up").result
        yield _holds(name, "chain_up_avoids_1_mod_3", "", all(a % 3 != 1 for a in up))
        yield _equal(name, "chain_up_length_last", "", (len(up), up[-1] if up else 0), (len(lam) + 1, 2))
    if p == 3 and sum(lam) <= 25:
        verdict = classify.classify_homogeneous(lam)
        if verdict.status == classify.PROVEN_HOM:
            reg = ladders.regularize(lam, 3)
            for i in range(2):
                yield _equal(name, "homog_eps_match", f"i={i}", branching.eps_hat(lam, i, 3), branching.eps_i(reg, i, 3))
                down = branching.extremal(lam, i, 3, "down").result
                yield _equal(name, "homog_restriction_match", f"i={i}", ladders.regularize(down, 3), branching.normal_extremal(reg, i, 3, "down"))
                yield _equal(name, "homog_phi_match", f"i={i}", branching.phi_hat(lam, i, 3), branching.phi_i(reg, i, 3))
                up = branching.extremal(lam, i, 3, "up").result
                yield _equal(name, "homog_induction_match", f"i={i}", ladders.regularize(up, 3), branching.normal_extremal(reg, i, 3, "up"))


def _branching_restricted_rows(mu: Partition, p: int) -> Iterator[Row]:
    name = format_partition(mu)
    for i in range((p - 1) // 2 + 1):
        sig = branching.signature(mu, i, p)
        if sig.eps:
            yield _equal(name, "tilde_f_after_e", f"i={i}", branching.tilde_f(branching.tilde_e(mu, i, p), i, p), mu)
        if sig.phi:
            yield _equal(name, "tilde_e_after_f", f"i={i}", branching.tilde_e(branching.tilde_f(mu, i, p), i, p), mu)


def _sigma_to_tau_rows(l: int) -> Iterator[Row]:
    yield _equal(f"sigma({l})", "chain_sigma_to_tau", "", branching.extremal(families.sigma(l), 1, 3, "up").result, families.tau(l))


def _tau_to_sigma_rows(l: int) -> Iterator[Row]:
    yield _equal(f"tau({l})", "chain_tau_to_sigma", "", branching.extremal(families.tau(l), 0, 3, "up").result, families.sigma(l + 1))


def suite_branching(p: int, max_n: int) -> list[Task]:
    tasks = _sweep(_branching_strict_rows, (lam for n in range(max_n + 1) for lam in strict_partitions_of(n)), p)
    tasks += _sweep(_branching_restricted_rows, (mu for n in range(min(max_n, 18) + 1) for mu in restricted_partitions_of(n, p)), p)
    if p == 3:
        tasks += _sweep(_sigma_to_tau_rows, range(1, 9)) + _sweep(_tau_to_sigma_rows, range(2, 9))
    return tasks


# ---------------------------------------------------------------------------
# blocks


def _all_cores(lam: Partition, p: int) -> set[Partition]:
    """Every bar core some order of bar removals reaches from lam.

    The cores reached from a partition do not depend on the path that
    led to it, so each partition on the way is expanded once, through a
    memo that lives for this call.
    """
    memo: dict[Partition, frozenset[Partition]] = {}

    def reach(mu: Partition) -> frozenset[Partition]:
        if mu not in memo:
            moves = barcores.bar_removals(mu, p)
            memo[mu] = frozenset().union(*(reach(move.result) for move in moves)) if moves else frozenset((mu,))
        return memo[mu]

    return set(reach(lam))


def _blocks_confluence_rows(lam: Partition, p: int) -> Iterator[Row]:
    cores = _all_cores(lam, p)
    core = barcores.bar_core(lam, p).core
    yield _row(format_partition(lam), "core_confluence", "", sorted(cores), [core], cores == {core})


def _block_count_rows(n: int, p: int) -> Iterator[Row]:
    contents = {lam: ladders.content(lam, p) for lam in strict_partitions_of(n)}
    for lam, mu in combinations(contents, 2):
        yield _equal(
            f"{format_partition(lam)}|{format_partition(mu)}", "morris_yaseen", f"n={n}",
            barcores.same_block(lam, mu, p), contents[lam] == contents[mu],
        )
    by_core = Counter(barcores.bar_core(lam, p).core for lam in p_strict_partitions_of(n, p))
    total = 0
    for core, count in sorted(by_core.items()):
        weight = (n - sum(core)) // p
        # block_members refuses a non-core; report it as a row so the suite runs on
        if not barcores.is_bar_core(core, p):
            yield _equal(format_partition(core), "block_member_count", f"n={n},d={weight}", "not a bar core", count)
            continue
        members = barcores.block_members(core, weight, p, "pstrict")
        yield _equal(format_partition(core), "block_member_count", f"n={n},d={weight}", len(members), count)
        total += len(members)
    yield _equal(f"n={n}", "block_partition_of_set", "", total, by_core.total())


def _block_closed_form_rows(l: int) -> Iterator[Row]:
    nu = run_down(3 * l - 2, 1)
    for d in range(0, min(l, 3) + 1):
        got = set(barcores.block_members(nu, d, 3, "pstrict"))
        want = set()
        for a_size in range(d + 1):
            for alpha in partitions_of(a_size):
                if len(alpha) > len(nu):
                    continue
                for beta in partitions_of(d - a_size):
                    want.add(join(scaled_add(nu, 3, alpha), tuple(3 * b for b in beta)))
        yield _row(format_partition(nu), "block_closed_form", f"d={d}", len(got), len(want), got == want)
        restricted_members = set(barcores.block_members(nu, d, 3, "restricted"))
        want_restricted = {m for m in want if is_restricted(m, 3)}
        alpha_empty = {join(nu, tuple(3 * b for b in beta)) for beta in partitions_of(d)}
        yield _row(format_partition(nu), "block_restricted_iff_alpha_empty", f"d={d}", sorted(restricted_members), sorted(alpha_empty & want), restricted_members == want_restricted == (alpha_empty & want))
        mu = join(nu, (3 * d,) if d else ())
        fibre = barcores.reg_preimages(mu, 3)
        want_fibre = {join(scaled_add(nu, 3, (1,) * (d - i)), (3 * i,) if i else ()) for i in range(d + 1)}
        yield _row(format_partition(mu), "reg_fibre_closed_form", f"d={d}", sorted(fibre), sorted(want_fibre), set(fibre) == want_fibre)
        msum = 0
        for lamf in fibre:
            m = dimensions.regn_multiplicity(lamf, 3)
            msum += m.s_to_d * m.p_to_s
        yield _equal(format_partition(mu), "fibre_multiplicity_sum", f"d={d}", msum, 2 * d + 1)


def suite_blocks(p: int, max_n: int) -> list[Task]:
    tasks = _sweep(_blocks_confluence_rows, (lam for n in range(min(max_n, 20) + 1) for lam in p_strict_partitions_of(n, p)), p)
    tasks += _sweep(_block_count_rows, range(min(max_n, 16) + 1), p)
    if p == 3:
        tasks += _sweep(_block_closed_form_rows, range(1, 5))
    return tasks


# ---------------------------------------------------------------------------
# degrees


def _sum_of_squares_rows(n: int) -> Iterator[Row]:
    total = 0
    for lam in strict_partitions_of(n):
        d = dimensions.spin_dim(lam).dim
        total += d * d // (2 if is_odd_partition(lam) else 1)
    yield _equal(f"n={n}", "sum_of_squares", "", total, factorial(n))


def _g_rows(n: int) -> Iterator[Row]:
    for lam in strict_partitions_of(n):
        yield _equal(format_partition(lam), "g_equals_tableau_count", "", dimensions.spin_dim(lam).g, tableaux.count_sst(lam))


def _family_rows(name: str, max_l: int) -> Iterator[Row]:
    fam = families.family(name)
    lo, hi = fam.formula_range
    hi = min(hi, max_l)
    if fam.ratio_kind == "direct":
        for l in range(lo, hi + 1):
            yield _equal(name, "ratio_formula", f"l={l}", dimensions.ddeg_ratio(fam.lam(l), fam.mu(l), 3), fam.ratio(l))
    else:
        for l in range(lo, hi):
            got = dimensions.ddeg_ratio(fam.lam(l + 1), fam.mu(l + 1), 3) / dimensions.ddeg_ratio(fam.lam(l), fam.mu(l), 3)
            yield _equal(name, "ratio_step_formula", f"l={l}", got, fam.ratio(l))
    glo, ghi = fam.greater_range
    listed = list(range(glo, min(ghi, max_l) + 1)) + [x for x in fam.extra_greater if x <= max_l]
    for l in [x for x in fam.equal_at if x <= max_l and x not in listed] + listed:
        r = dimensions.ddeg_ratio(fam.lam(l), fam.mu(l), 3)
        if l in fam.equal_at:
            yield _equal(name, "ratio_equal_at", f"l={l}", r, 1)
        else:
            yield _row(name, "ratio_greater", f"l={l}", r, "> 1", r > 1)
        yield _equal(name, "same_regularisation", f"l={l}", ladders.regularize(fam.lam(l), 3), ladders.regularize(fam.mu(l), 3))


def _staircase_witness_rows(fibre: tuple[int, tuple[tuple[int, ...], ...]]) -> Iterator[Row]:
    l, tups = fibre
    for tup in tups:
        lam = families.staircase_adjusted(l, tup)
        witness = dimensions.degree_witness(lam, 3)
        yield _row(format_partition(lam), "staircase_witness", f"l={l},a={tup}", witness, "found", witness is not None)


def suite_degrees(p: int, max_n: int, max_l: int) -> list[Task]:
    tasks = _sweep(_sum_of_squares_rows, range(1, min(max_n, 10) + 1))
    tasks += _sweep(_g_rows, range(min(max_n, 12) + 1))
    tasks += _sweep(_family_rows, sorted(families.FAMILIES), max_l)
    # one item per regularisation fibre, so no two workers rank the same fibre
    tasks += _sweep(_staircase_witness_rows, (
        (l, tuple(tups))
        for l in range(3, min(8, max_l) + 1)
        for _, tups in groupby(families.admissible_row_tuples(l), lambda tup: ladders.regularize(families.staircase_adjusted(l, tup), 3))
    ))
    return tasks


# ---------------------------------------------------------------------------
# tableaux


def _tableau_rows(lam: Partition, p: int) -> Iterator[Row]:
    name = format_partition(lam)
    tabs = list(tableaux.enumerate_sst(lam))
    g = dimensions.spin_dim(lam).g
    distinct = len(set(tabs)) == len(tabs)
    yield _row(name, "enumeration_count", "", len(tabs), g, len(tabs) == g and distinct)
    yield _holds(name, "enumeration_standard", "", all(t.is_standard() for t in tabs))
    if tabs and sum(lam) <= 10:
        word = sorted(k for k, v in ladders.content(lam, p).items() for _ in range(v))
        words_ok = all(sorted(t.residue_word(p)) == word for t in tabs)
        yield _holds(name, "residue_word_content", "", words_ok)


def _patterned_rows(l: int) -> Iterator[Row]:
    nu = run_down(3 * l - 2, 1)
    for d in range(1, min(l, 3) + 1):
        lam = scaled_add(nu, 3, (1,) * d)
        yield _holds(format_partition(lam), "patterned_tableau", f"l={l},d={d}", tableaux.find_patterned_tableau(lam, nu, 3) is not None)


def suite_tableaux(p: int, max_n: int) -> list[Task]:
    tasks = _sweep(_tableau_rows, (lam for n in range(min(max_n, 12) + 1) for lam in strict_partitions_of(n)), p)
    if p == 3:
        tasks += _sweep(_patterned_rows, (3, 4))
    return tasks


# ---------------------------------------------------------------------------
# wreath


def _lr2_rows(n: int) -> Iterator[Row]:
    failed = False
    for nu in partitions_of(n):
        nu_c = conjugate(nu)
        for a in range(n + 1):
            for alpha in partitions_of(a):
                alpha_c = conjugate(alpha)
                for beta in partitions_of(n - a):
                    x = wreath.lr2(alpha, beta, nu)
                    y = wreath.lr2(beta, alpha, nu)
                    if x != y:
                        failed = True
                        yield _row(format_partition(nu), "lr2_symmetry", f"{alpha}|{beta}", x, y, False)
                    z = wreath.lr2(alpha_c, conjugate(beta), nu_c)
                    if x != z:
                        failed = True
                        yield _row(format_partition(nu), "lr2_conjugation", f"{alpha}|{beta}", x, z, False)
    # the summary fails with any row it sums up
    yield _row(f"|nu|={n}", "lr2_symmetry_conjugation", "", "all", "all", not failed)


def _class_sums(check: Callable[[int | Partition], Iterator[Row]]) -> Callable[[int | Partition], Iterator[Row]]:
    """A Cartan check whose class sums must divide exactly.  A remainder,
    ``wreath``'s RuntimeError and the mark of a wrong character, becomes
    a FAIL row after the item's earlier rows, so the run reports it
    instead of ending on it."""

    @wraps(check)
    def rows(item: int | Partition) -> Iterator[Row]:
        try:
            yield from check(item)
        except RuntimeError as exc:
            subject = f"d={item}" if isinstance(item, int) else format_partition(item)
            yield _row(subject, "cartan_class_sum", check.__name__, exc, "an integer", False)

    return rows


@_class_sums
def _cartan0_symmetry_rows(d: int) -> Iterator[Row]:
    parts = partitions_of(d)
    sym_ok = all(wreath.wreath_cartan0(nu, pi) == wreath.wreath_cartan0(pi, nu) for nu in parts for pi in parts)
    yield _holds(f"d={d}", "cartan0_symmetry", "", sym_ok)


@_class_sums
def _cartan0_diagonal_rows(d: int) -> Iterator[Row]:
    for nu in partitions_of(d):
        v = wreath.wreath_cartan0(nu, nu)
        if nu in ((d,), (1,) * d):
            yield _equal(format_partition(nu), "cartan0_diagonal_equality", f"d={d}", v, 2 * d + 1)
        else:
            yield _row(format_partition(nu), "cartan0_diagonal_strict", f"d={d}", v, f"> {2 * d + 1}", v > 2 * d + 1)


@_class_sums
def _cartan3_rows(d: int) -> Iterator[Row]:
    matrix = wreath.bundled_decomp_matrix(d)
    for mu in matrix.columns:
        v = wreath.wreath_cartan_p(mu, matrix)
        yield _row(format_partition(mu), "cartan3_diagonal_strict", f"d={d}", v, f"> {2 * d + 1}", v > 2 * d + 1)


@_class_sums
def _cartan0_lower_bound_rows(nu: Partition) -> Iterator[Row]:
    d = sum(nu)
    bound = 0
    for beta in ((), (1,), (2, 1)):
        b = sum(beta)
        for a in range(d - b + 1):
            for alpha in partitions_of(a):
                for gamma in partitions_of(d - b - a):
                    bound += wreath.lr3(alpha, beta, gamma, nu) ** 2
    v = wreath.wreath_cartan0(nu, nu)
    yield _row(format_partition(nu), "cartan0_lower_bound", f"d={d}", v, f">= {bound}", v >= bound)


def suite_wreath(p: int, max_n: int, seed: int) -> list[Task]:
    max_d = min(max_n, 8)
    tasks = _sweep(_lr2_rows, range(max_d + 1))
    tasks += _sweep(_cartan0_symmetry_rows, range(1, min(max_d, 6) + 1))
    tasks += _sweep(_cartan0_diagonal_rows, range(1, max_d + 1))
    tasks += _sweep(_cartan3_rows, range(3, min(max_d, 6) + 1))
    candidates = [nu for d in range(3, min(max_d, 6) + 1) for nu in partitions_of(d) if (2, 1) != nu and contains(nu, (2, 1))]
    tasks += _sweep(_cartan0_lower_bound_rows, random.Random(seed).sample(candidates, min(6, len(candidates))))
    return tasks


# ---------------------------------------------------------------------------
# classification


def _classification_rows(lam: Partition) -> Iterator[Row]:
    name = format_partition(lam)
    n = sum(lam)
    verdict = classify.classify_homogeneous(lam)
    if n <= 28 and verdict.status == classify.PROVEN_HOM:
        cert = classify.homogeneity_obstruction(lam)
        yield _row(name, "soundness_no_certificate", verdict.reason, cert, None, cert is None)
        for i in (0, 1) if lam else ():
            down = branching.extremal(lam, i, 3, "down").result
            sub = classify.classify_homogeneous(down)
            yield _row(name, "restriction_closure", f"i={i}", sub.status, "not ProvenNotHomogeneous", sub.status != classify.PROVEN_NOT)
            up = branching.extremal(lam, i, 3, "up").result
            sup = classify.classify_homogeneous(up)
            yield _row(name, "induction_closure", f"i={i}", sup.status, "not ProvenNotHomogeneous", sup.status != classify.PROVEN_NOT)
    special = classify.special_decompose(lam)
    if special is not None and verdict.proven:
        # the settled special cases coincide with the column-valuation test
        yield _equal(name, "special_verdict_matches_carter", "", verdict.status == classify.PROVEN_HOM, classify.carter3(special.alpha))
    if n <= 25:
        for i in (0, 1):
            if branching.phi_hat(lam, i, 3) == 0:
                down = branching.extremal(lam, i, 3, "down").result
                sub = classify.classify_homogeneous(down)
                if verdict.proven and sub.proven:
                    agree = (verdict.status == classify.PROVEN_HOM) == (sub.status == classify.PROVEN_HOM)
                    yield _row(name, "phi_zero_verdict_agrees", f"i={i}", verdict.status, sub.status, agree)
    if verdict.homogeneous:
        lp = l_p(lam, 3)
        yield _row(name, "homogeneous_lp_bound", verdict.status, lp, "<= 1", lp <= 1)


def matches_module_list(lam: Partition, context: str) -> bool:
    """Membership in the explicit irreducible-module patterns (2)-(5)."""
    odd = is_odd_partition(lam)
    rest = classify.core_join_three(lam)
    if context == "sn":
        if odd and len(lam) == 1 and lam[0] % 6 == 0:
            return True
        if odd and rest is not None and is_odd_partition(rest):
            return True
        return lam in {(2, 1), (3, 2, 1), (5, 3, 2, 1), (5, 4, 3, 1)}
    if context == "an":
        if not odd and len(lam) == 1 and lam[0] % 3 == 0 and lam[0] % 2 == 1:
            return True
        if not odd and rest is not None and not is_odd_partition(rest):
            return True
        return lam in {
            (2, 1),
            (4, 3, 2),
            (4, 3, 2, 1),
            (5, 4, 3, 2),
            (5, 4, 3, 2, 1),
            (7, 4, 3, 2, 1),
            (8, 5, 3, 2, 1),
        }
    raise ValueError(context)


def _module_list_rows(n: int) -> Iterator[Row]:
    for lam in strict_partitions_of(n):
        special = classify.special_decompose(lam) is not None
        for context in ("sn", "an"):
            verdict = classify.classify_irreducible(lam, context)
            if not verdict.proven:
                continue
            listed = matches_module_list(lam, context)
            if verdict.irreducible:
                yield _row(format_partition(lam), "module_list_covers", context, "irreducible", "special or listed", special or listed)
            if listed:
                yield _holds(format_partition(lam), "module_list_irreducible", context, verdict.irreducible)


def suite_classification(p: int, max_n: int) -> list[Task]:
    tasks = _sweep(_classification_rows, (lam for n in range(max_n + 1) for lam in strict_partitions_of(n)))
    tasks += _sweep(_module_list_rows, range(1, min(max_n, 20) + 1))
    return tasks


# ---------------------------------------------------------------------------
# suites

# name -> (suite, default max_n at p = 3, at any other p or None if p = 3
# only); ``spinhom verify --suite all`` runs the suites in this order
SUITES: dict[str, tuple[Callable[..., list[Task]], int, int | None]] = {
    "ladders": (suite_ladders, 25, 18),
    "branching": (suite_branching, 20, 16),
    "blocks": (suite_blocks, 16, 16),
    "degrees": (suite_degrees, 12, None),
    "tableaux": (suite_tableaux, 12, 12),
    "wreath": (suite_wreath, 8, None),
    "classification": (suite_classification, 30, None),
}


def suites_at(p: int) -> list[str]:
    """The names of the suites defined at p, in ``SUITES`` order."""
    return [name for name, (_, _, max_n_other) in SUITES.items() if p == 3 or max_n_other is not None]


def run_suites(
    names: Sequence[str],
    p: int = 3,
    max_n: int | None = None,
    threads: int = 1,
    seed: int = 0,
    max_l: int = 12,
) -> dict[str, list[Row]]:
    """The rows of each named suite, from one ``run_tasks`` call over all
    their tasks; ``max_n`` defaults to each suite's entry in ``SUITES``.

    ``threads`` must lie between 1 and the CPU count, and ``max_n`` (when
    given) and ``max_l`` must be non-negative.
    """
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    check_odd_prime(p)
    for name in names:
        if name not in suites_at(p):
            raise ValueError(f"suite {name} is defined at p=3 only, got p={p}")
    # before any suite builds its tasks
    _require_threads(threads)
    if max_l < 0:
        raise ValueError(f"max_l must be non-negative, got {max_l}")
    if max_n is not None and max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    plans = {}
    for name in names:
        fn, max_n_p3, max_n_other = SUITES[name]
        bound = max_n if max_n is not None else max_n_p3 if p == 3 else max_n_other
        extra = {"max_l": max_l} if name == "degrees" else {"seed": seed} if name == "wreath" else {}
        plans[name] = fn(p, bound, **extra)
    chunks = iter(run_tasks([task for tasks in plans.values() for task in tasks], threads))
    return {name: [row for _ in tasks for row in next(chunks)] for name, tasks in plans.items()}


def run_suite(name: str, **options) -> list[Row]:
    """Rows of one suite, as ``run_suites`` gives them, with its options."""
    return run_suites([name], **options)[name]


def failures(rows: Iterable[Row]) -> list[Row]:
    return [row for row in rows if row[5] == "FAIL"]
