"""One measured round of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per round, so the ``lru_cache``s of
``spinhom`` start cold every time, as they do for a command-line user.
The round imports ``spinhom``, builds its inputs, reports the moment it
is ready, runs the workload's operations one by one under a clock and
prints one JSON object on its standard output.

    python3 bench/round.py --workload certify --seed 1 [--trace] [--emit]
    python3 bench/round.py --workload verify --seed 1 --reference

``--trace`` installs the wrappers of ``tracing.py`` before the inputs are
built; untraced rounds import nothing from it.  ``--emit`` adds the full
outputs for the checks in ``checks.py``; otherwise only their digest is
sent.  ``--reference`` runs ``spinhom verify --suite all`` once at the
other thread count, for the byte-identity check of the verify workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

from checks import CERTIFY_MAX_N, VERIFY_MAX_L, WITNESS_LS
from spinhom import barcores, classify, cli, dimensions, families, ladders, partitions, verify

VERIFY_THREADS = {"verify": 1, "verify-pool": 2}

# Machine-speed calibration: before the first operation, after the last and
# between operations at least every CALIBRATION_EVERY_S of operation time,
# the round times CALIBRATION_REPS runs of a fixed kernel, alone and (for a
# pool workload) in as many concurrent processes as the pool has workers.
# A speed is CALIBRATION_NOMINAL_S, the kernel's median on the reference
# machine, over the round's median kernel time.
CALIBRATION_N = 38
CALIBRATION_REPS = 3
CALIBRATION_EVERY_S = 0.25
CALIBRATION_NOMINAL_S = 0.0100


def _certify_inputs(seed: int) -> tuple[list, dict]:
    items = []
    counts = {}
    for n in range(CERTIFY_MAX_N + 1):
        layer = list(partitions.strict_partitions_of(n))
        counts[n] = len(layer)
        items += layer
    inputs = sorted(items)
    random.Random(seed).shuffle(items)
    return items, {"counts": counts, "inputs": inputs}


def _certify_op(lam):
    verdict = classify.classify_homogeneous(lam)
    cert = classify.homogeneity_obstruction(lam)
    return [list(lam), verdict.status, verdict.reason,
            None if cert is None else cert.kind,
            None if cert is None or cert.witness is None else list(cert.witness)]


def _witness_inputs(seed: int) -> tuple[list, dict]:
    items = [families.staircase_adjusted(l, tup) for l in WITNESS_LS for tup in families.admissible_row_tuples(l)]
    random.Random(seed).shuffle(items)
    return items, {}


def _witness_op(lam):
    w = dimensions.degree_witness(lam, 3)
    return [list(lam), None if w is None else list(w)]


def _witness_extra(items: list) -> dict:
    """The program's regularisation fibre of every input, keyed by the input."""
    fibres, by_input = {}, {}
    for lam in items:
        reg = ladders.regularize(lam, 3)
        if reg not in fibres:
            fibres[reg] = [list(mu) for mu in barcores.reg_preimages(reg, 3)]
        by_input[",".join(map(str, lam))] = fibres[reg]
    return {"fibres": by_input}


def _verify_argv(suite: str, threads: int) -> list[str]:
    # spinhom's own default --seed 0: the seed picks the wreath suite's six
    # sampled labels, and that alone moved the suite's time by 30% (1.16 to
    # 1.50 s) between benchmark seeds
    return ["verify", "--suite", suite, "--max-l", str(VERIFY_MAX_L), "--seed", "0", "--threads", str(threads)]


def _verify_inputs_for(threads: int):
    def inputs(seed: int) -> tuple[list, dict]:
        return [_verify_argv(suite, threads) for suite in verify.SUITES], {}
    return inputs


def _run_cli(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def _never(result) -> bool:
    return False


def _exit_nonzero(result) -> bool:
    return result[0] != 0


# name -> (input builder, one operation, whether a result counts as failed)
WORKLOADS = {
    "certify": (_certify_inputs, _certify_op, _never),
    "witness-fibres": (_witness_inputs, _witness_op, _never),
    "verify": (_verify_inputs_for(VERIFY_THREADS["verify"]), _run_cli, _exit_nonzero),
    "verify-pool": (_verify_inputs_for(VERIFY_THREADS["verify-pool"]), _run_cli, _exit_nonzero),
}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _kernel() -> None:
    """Fixed pure-Python work, like the library's: the strict partitions of
    CALIBRATION_N, smallest part first, and their ladder profiles."""
    counts: dict[int, int] = {}

    def grow(rest: int, least: int, parts: list[int]) -> None:
        if rest == 0:
            for r, a in enumerate(reversed(parts)):
                for c in range(1, a + 1):
                    key = (2 * c) // 3 + 2 * r
                    counts[key] = counts.get(key, 0) + 1
            return
        for a in range(least, rest + 1):
            parts.append(a)
            grow(rest - a, a + 1, parts)
            parts.pop()

    grow(CALIBRATION_N, 1, [])


def _timed_kernels() -> list[float]:
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return times


def _calibrate(serial: list[float], pooled: list[float], processes: int) -> None:
    """Time the kernel alone into ``serial`` and, for a pool workload, in
    ``processes`` concurrent processes into ``pooled``."""
    serial += _timed_kernels()
    if processes == 1:
        return
    helpers = []
    for _ in range(processes - 1):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(r)
                os.write(w, json.dumps(_timed_kernels()).encode())
            finally:
                os._exit(0)
        os.close(w)
        helpers.append((pid, r))
    pooled += _timed_kernels()
    for pid, r in helpers:
        with os.fdopen(r) as pipe:
            pooled += json.loads(pipe.read())
        os.waitpid(pid, 0)


def run_round(workload: str, seed: int, trace: bool, emit: bool) -> dict:
    build, op, op_failed = WORKLOADS[workload]
    processes = VERIFY_THREADS.get(workload, 1)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    items, meta = build(seed)
    ready = time.monotonic()
    clock = time.perf_counter
    results, lat, busy, serial, pooled = [], [], [], [], []
    failed = 0
    since = CALIBRATION_EVERY_S
    for item in items:
        if since >= CALIBRATION_EVERY_S:
            _calibrate(serial, pooled, processes)
            since = 0.0
        cpu0 = _cpu_s()
        t0 = clock()
        try:
            res = op(item)
        except Exception:  # a failing operation is counted, and its result left out of the checks
            res = None
            failed += 1
        else:
            failed += bool(op_failed(res))
        dt = clock() - t0
        busy.append(_cpu_s() - cpu0)
        lat.append(dt)
        since += dt
        results.append(res)
    _calibrate(serial, pooled, processes)
    speed = CALIBRATION_NOMINAL_S / statistics.median(serial)
    speed_pooled = CALIBRATION_NOMINAL_S / statistics.median(pooled) if pooled else speed
    # an operation that kept u of the second core busy runs at
    # speed + u * (speed_pooled - speed)
    scale = [speed + min(max(c / dt - 1, 0.0), 1.0) * (speed_pooled - speed) if dt > 0 else speed
             for dt, c in zip(lat, busy)]
    canon = json.dumps([meta, results], sort_keys=True, separators=(",", ":"))
    report = {
        "ready": ready,
        "speed": speed,
        "speed_pooled": speed_pooled,
        "raw_wall_s": sum(lat),
        "raw_cpu_s": sum(busy),
        "op_s": [dt * f for dt, f in zip(lat, scale)],
        "cpu_s": sum(c * f for c, f in zip(busy, scale)),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "ops": len(items),
        "failed": failed,
        "digest": hashlib.sha256(canon.encode()).hexdigest(),
    }
    report["wall_s"] = sum(report["op_s"])
    if tracer is not None:
        report["trace"] = tracer.metrics()
    if emit:
        outputs = {"meta": meta, "results": results}
        if workload == "witness-fibres":
            outputs.update(_witness_extra(items))
        report["outputs"] = outputs
    return report


def reference_round(workload: str) -> dict:
    """``spinhom verify --suite all`` once, at the other workload's thread count."""
    other = 2 if VERIFY_THREADS[workload] == 1 else 1
    code, out, err = _run_cli(_verify_argv("all", other))
    return {"threads": other, "code": code, "stdout": out, "stderr": err}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--emit", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    if args.reference:
        report = reference_round(args.workload)
    else:
        report = run_round(args.workload, args.seed, args.trace, args.emit)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
