"""Output checks of the four workloads, against ``oracle.py`` or a property
the method must have; never against a stored copy of earlier output.

Each check takes the outputs a round emitted (as decoded from JSON) and
returns a list of error messages, empty when the outputs are right.  An
operation that raised has no result (None); it is counted as failed by
the run and skipped here.
"""

from __future__ import annotations

from collections import Counter

import oracle

# Input ranges of the workloads, shared with round.py.
CERTIFY_MAX_N = 34
WITNESS_LS = range(3, 7)
VERIFY_MAX_L = 5

SUITES = ("ladders", "branching", "blocks", "degrees", "tableaux", "wreath", "classification")
PROVEN_HOM = "ProvenHomogeneous"


def _is_strict(lam) -> bool:
    return all(a > b for a, b in zip(lam, lam[1:])) and all(a > 0 for a in lam)


def check_certify(outputs: dict, max_n: int = CERTIFY_MAX_N) -> list[str]:
    errors = []
    want_counts = oracle.strict_counts(max_n)
    counts = {int(n): c for n, c in outputs["meta"]["counts"].items()}
    if counts != dict(enumerate(want_counts)):
        errors.append(f"strict partitions per n {counts} != prod(1+q^k) {want_counts}")
    inputs = [tuple(lam) for lam in outputs["meta"]["inputs"]]
    if inputs != sorted(lam for n in range(max_n + 1) for lam in oracle.strict_partitions(n)):
        errors.append(f"inputs are not the strict partitions of n <= {max_n}, each once")
    for lam, status, reason, kind, witness in filter(None, outputs["results"]):
        lam = tuple(lam)
        if status == PROVEN_HOM and kind is not None:
            errors.append(f"{lam}: certificate {kind} on a {status} ({reason}) partition")
        if kind == "Degree_witness":
            w = tuple(witness or ())
            if not _is_strict(w) or sum(w) != sum(lam):
                errors.append(f"{lam}: witness {w} is not a strict partition of {sum(lam)}")
            elif oracle.ladder_profile(w) != oracle.ladder_profile(lam):
                errors.append(f"{lam}: witness {w} has another ladder profile")
            elif not oracle.ddeg(w) < oracle.ddeg(lam):
                errors.append(f"{lam}: witness {w} has ddeg {oracle.ddeg(w)} >= {oracle.ddeg(lam)}")
    return errors


def check_witness(outputs: dict) -> list[str]:
    errors = []
    fibres: dict[tuple, list] = {}
    for lam, witness in filter(None, outputs["results"]):
        lam = tuple(lam)
        key = (sum(lam), oracle.ladder_profile(lam))
        if key not in fibres:
            fibres[key] = oracle.fibre(lam)
        want_fibre = fibres[key]
        got_fibre = [tuple(mu) for mu in outputs["fibres"][",".join(map(str, lam))]]
        if sorted(got_fibre) != sorted(want_fibre):
            errors.append(f"{lam}: fibre of {len(got_fibre)} members != oracle fibre of {len(want_fibre)}")
        if witness is None:
            errors.append(f"{lam}: no witness found")
            continue
        want = oracle.witness(lam, want_fibre)
        if tuple(witness) != want:
            errors.append(f"{lam}: witness {tuple(witness)} != oracle {want}")
    return errors


def _tsv_errors(stdout: str) -> list[str]:
    errors = []
    announced: dict[str, int] = {}
    seen: Counter[str] = Counter()
    suite = None
    for line in stdout.splitlines():
        if line.startswith("# suite "):
            suite, _, rest = line[len("# suite "):].partition(": ")
            announced[suite] = int(rest.split()[0])
            continue
        fields = line.split("\t")
        if suite is None or len(fields) != 6 or fields[5] != "ok":
            errors.append(f"bad row {line[:120]!r}")
            continue
        seen[suite] += 1
    for name in SUITES:
        n = announced.get(name, 0)
        if n <= 0:
            errors.append(f"suite {name} reports {n} checks")
        elif seen[name] != n:
            errors.append(f"suite {name} announces {n} checks but prints {seen[name]} rows")
    return errors


def check_verify(outputs: dict, reference: dict) -> list[str]:
    """Per-suite CLI results against the property list, and the concatenated
    TSV against ``--suite all`` at the other thread count, byte for byte."""
    errors = []
    results = list(filter(None, outputs["results"]))
    for code, _, err in results:
        if code != 0 or not err.rstrip().endswith("# failures: 0"):
            errors.append(f"exit code {code}, stderr {err.strip()[-80:]!r}")
    if reference["code"] != 0 or not reference["stderr"].rstrip().endswith("# failures: 0"):
        errors.append(f"reference run: exit code {reference['code']}, stderr {reference['stderr'].strip()[-80:]!r}")
    tsv = "".join(out for _, out, _ in results)
    errors += _tsv_errors(tsv)
    if tsv != reference["stdout"]:
        errors.append(f"TSV differs from the --threads {reference['threads']} run")
    return errors
