"""Self-test of the benchmark's oracle and output checks.

    python3 bench/selftest.py        # from the root of a checkout, ~30 s

1. The oracle reproduces small values worked by hand, and its hook-length
   g agrees with a brute-force count of standard shifted tableaux.
2. One checked round of each workload passes its check, and the same
   outputs with one deliberate error fail it.
3. The metric names in BENCHMARK.json are the ones run.py reports.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

import checks
import oracle
import run
import tracing

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


@lru_cache(maxsize=None)
def brute_g(lam: tuple[int, ...]) -> int:
    """Standard shifted tableaux of shape lam, by removing the largest entry."""
    if not lam:
        return 1
    total = 0
    for r in range(len(lam)):
        below = lam[r + 1] if r + 1 < len(lam) else 0
        if lam[r] - 1 > below or (r == len(lam) - 1 and lam[r] == 1):
            rest = list(lam)
            rest[r] -= 1
            total += brute_g(tuple(a for a in rest if a))
    return total


def oracle_by_hand() -> None:
    expect(oracle.strict_counts(10) == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10], "strict counts n <= 10 from prod(1+q^k)")
    expect(len(oracle.strict_partitions(20)) == oracle.strict_counts(20)[20] == 64, "64 strict partitions of 20")
    expect(sorted(oracle.shifted_hooks((3, 2, 1))) == [1, 2, 3, 3, 4, 5], "shifted hooks of (3,2,1) are 5,4,3 / 3,2 / 1")
    expect(oracle.g((3, 2, 1)) == 2 and oracle.dim((3, 2, 1)) == 8, "g(3,2,1) = 2 and dim 8")
    expect(oracle.g((3, 1)) == 2 and oracle.dim((3, 1)) == 4, "g(3,1) = 2 and dim 4")
    expect(oracle.g((2, 1)) == 1 and oracle.dim((2, 1)) == 2, "g(2,1) = 1 and dim 2")
    expect(oracle.ddeg((3, 2, 1)) == 4, "ddeg(3,2,1) = 2^ceil((6-3-1)/2) * 2 = 4")
    expect(dict(oracle.ladder_profile((3, 2, 1))) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}, "ladder profile of (3,2,1)")
    expect(oracle.witness((9, 6, 3), oracle.fibre((9, 6, 3))) == (8, 7, 3), "witness of (9,6,3) is (8,7,3)")
    mismatched = [lam for n in range(13) for lam in oracle.strict_partitions(n) if oracle.g(lam) != brute_g(lam)]
    expect(not mismatched, f"hook-length g equals the tableau count for n <= 12 (mismatches: {mismatched[:3]})")


def first_index(rows, predicate) -> int:
    return next(k for k, row in enumerate(rows) if predicate(row))


def wrong_certify(outputs: dict) -> dict[str, dict]:
    cases = {}
    bad = copy.deepcopy(outputs)
    bad["meta"]["counts"]["20"] += 1
    cases["a count off by one"] = bad
    bad = copy.deepcopy(outputs)
    del bad["meta"]["inputs"][0]
    cases["a partition missing"] = bad
    bad = copy.deepcopy(outputs)
    k = first_index(bad["results"], lambda row: row[1] == checks.PROVEN_HOM)
    bad["results"][k][3] = "Eps_mismatch"
    cases["a certificate on a ProvenHomogeneous partition"] = bad
    rows = outputs["results"]
    k = first_index(rows, lambda row: row[3] == "Degree_witness")
    bad = copy.deepcopy(outputs)
    bad["results"][k][4] = rows[k][0]
    cases["a witness without smaller ddeg"] = bad
    bad = copy.deepcopy(outputs)
    lam = rows[k][0]
    bad["results"][k][4] = [sum(lam)]
    cases["a witness with another ladder profile"] = bad
    return cases


def wrong_witness(outputs: dict) -> dict[str, dict]:
    cases = {}
    lam, witness = outputs["results"][0]
    key = ",".join(map(str, lam))
    bad = copy.deepcopy(outputs)
    bad["results"][0][1] = None
    cases["a search without witness"] = bad
    bad = copy.deepcopy(outputs)
    other = min(mu for mu in outputs["fibres"][key] if mu != witness)
    bad["results"][0][1] = other
    cases["another fibre member as witness"] = bad
    bad = copy.deepcopy(outputs)
    bad["fibres"][key] = bad["fibres"][key][1:]
    cases["a fibre member missing"] = bad
    return cases


def wrong_verify(outputs: dict, reference: dict) -> dict[str, tuple[dict, dict]]:
    cases = {}
    bad = copy.deepcopy(outputs)
    bad["results"][0][1] = bad["results"][0][1].replace("\tok\n", "\tFAIL\n", 1)
    cases["a FAIL row"] = (bad, reference)
    bad = copy.deepcopy(outputs)
    bad["results"][-1] = [0, "# suite classification: 0 checks\n", "# failures: 0\n"]
    cases["a suite with 0 checks"] = (bad, reference)
    bad = copy.deepcopy(outputs)
    bad["results"][2][0] = 2
    cases["a nonzero exit code"] = (bad, reference)
    other = dict(reference, stdout=reference["stdout"].replace("ok", "ok ", 1))
    cases["a TSV one byte off the other thread count"] = (outputs, other)
    return cases


def checks_catch_wrong_outputs(root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("SPINHOM_THREADS", None)

    def emitted(workload: str) -> dict:
        return run._round(root, env, ["--workload", workload, "--seed", "1", "--emit"])["outputs"]

    certify = emitted("certify")
    expect(not checks.check_certify(certify), "certify: the program's outputs pass")
    for what, bad in wrong_certify(certify).items():
        expect(bool(checks.check_certify(bad)), f"certify: {what} fails the check")
    witness = emitted("witness-fibres")
    expect(not checks.check_witness(witness), "witness-fibres: the program's outputs pass")
    for what, bad in wrong_witness(witness).items():
        expect(bool(checks.check_witness(bad)), f"witness-fibres: {what} fails the check")
    verify = emitted("verify")
    reference = run._round(root, env, ["--workload", "verify", "--seed", "1", "--reference"])
    expect(not checks.check_verify(verify, reference), "verify: the program's outputs pass")
    for what, (bad, ref) in wrong_verify(verify, reference).items():
        expect(bool(checks.check_verify(bad, ref)), f"verify: {what} fails the check")


def metric_names_match(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end names and units match run.py")
    expect(layer == tracing.metric_units(), "BENCHMARK.json per_layer names, units and directions match tracing.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json workloads match run.py")


def main() -> int:
    root = Path.cwd()
    oracle_by_hand()
    metric_names_match(root)
    checks_catch_wrong_outputs(root)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
