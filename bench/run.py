"""spinhom benchmark: four workloads, end-to-end metrics and a traced run.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Each round is a fresh interpreter running ``round.py``.  Rounds repeat
until ``--seconds`` have passed (at least three).  Every time a round
measures is scaled by the machine's speed, from a calibration kernel
timed between its operations, and each metric is the median over rounds.  The
outputs of the first round are checked against ``oracle.py`` (see
``checks.py``); every later round of the same seed must repeat them.

With ``--trace 1`` untraced and traced rounds alternate; the per-module
metrics are the medians over the traced rounds, and ``trace.overhead_s``
is the median traced minus the median untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the same result,
with the per-round figures, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROUND = HERE / "round.py"
OUT = HERE / "out"
WORKLOADS = ("certify", "witness-fibres", "verify", "verify-pool")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
}


class RoundError(RuntimeError):
    pass


def _round(root: Path, env: dict, args: list[str]) -> dict:
    """Run one round; its ``setup_s`` runs from the spawn to the child's ready mark."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROUND), *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RoundError(f"round {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if "ready" in report:
        report["setup_s"] = report["ready"] - spawned
    return report


def _rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank q-quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Medians over rounds of the speed-scaled times.

    The latency of an operation is its median over the rounds (every round
    runs the same operations in the same order); the percentiles are taken
    over operations.
    """
    latencies = sorted(statistics.median(r["op_s"][k] for r in rounds) for k in range(rounds[0]["ops"]))
    per_round = {
        "setup_s": [r["setup_s"] * r["speed"] for r in rounds],
        "wall_s": [r["wall_s"] for r in rounds],
        "cpu_s": [r["cpu_s"] for r in rounds],
        "items_per_s": [r["ops"] / r["wall_s"] for r in rounds],
        "peak_rss_mb": [r["rss_kb"] / 1024 for r in rounds],
    }
    out = {name: statistics.median(values) for name, values in per_round.items()}
    out["op_ms_p50"] = 1e3 * _rank(latencies, 0.50)
    out["op_ms_p99"] = 1e3 * _rank(latencies, 0.99)
    return out


def _per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {key: statistics.median(r["trace"][key] for r in traced) for key in traced[0]["trace"]}
    out["trace.overhead_s"] = _end_to_end(traced)["wall_s"] - _end_to_end(plain)["wall_s"]
    return out


def _check(workload: str, first: dict, rounds: list[dict], reference: dict | None) -> list[str]:
    errors = []
    if any(r["digest"] != first["digest"] for r in rounds):
        errors.append("rounds of one seed gave different outputs")
    outputs = first["outputs"]
    if workload == "certify":
        errors += checks.check_certify(outputs)
    elif workload == "witness-fibres":
        errors += checks.check_witness(outputs)
    else:
        errors += checks.check_verify(outputs, reference)
    return errors


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for name in ("SPINHOM_THREADS", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    # compile the library's bytecode once, outside every timed round
    subprocess.run([sys.executable, "-c", "import spinhom.cli"], cwd=root, env=env, check=True, timeout=ROUND_TIMEOUT_S)
    base = ["--workload", workload, "--seed", str(seed)]
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        plain.append(_round(root, env, base + ([] if plain else ["--emit"])))
        if trace:
            traced.append(_round(root, env, base + ["--trace"]))
        if time.monotonic() - start >= seconds and (trace or len(plain) >= MIN_ROUNDS):
            break
    reference = _round(root, env, base + ["--reference"]) if workload.startswith("verify") else None
    errors = _check(workload, plain[0], plain[1:] + traced, reference)
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    if trace:
        units = tracing.metric_units()
        values = _per_layer(plain, traced)
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in units.items()}
    else:
        values = _end_to_end(plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    rounds = plain + traced
    result = {
        "correct": not errors,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=workload, seed=seed, seconds=seconds, errors=errors,
                  rounds=[{k: v for k, v in r.items() if k not in ("outputs", "trace")} for r in rounds])
    name = f"{'trace' if trace else 'result'}-{workload}-seed{seed}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if trace:
        print(f"trace.overhead_s {values['trace.overhead_s']:.4f} (per-module metrics in {OUT / name})")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = Path.cwd()
    if not (root / "src" / "spinhom" / "__init__.py").is_file():
        print(f"error: {root} holds no src/spinhom; run from the root of a spinhom checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (RoundError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
