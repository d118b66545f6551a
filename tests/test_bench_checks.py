"""The benchmark's certify check, run on the library's own outputs.

The outputs come from the certify workload's own operation
(``bench/round.py``) on a smaller range; ``bench/checks.py`` checks every
degree witness against ``bench/oracle.py``, which derives ddeg and ladder
profiles without importing spinhom.
"""

import importlib
from pathlib import Path

import pytest

from spinhom.barcores import reg_preimages
from spinhom.dimensions import ddeg
from spinhom.ladders import regularize
from spinhom.partitions import strict_partitions_of

BENCH = Path(__file__).resolve().parents[1] / "bench"
MAX_N = 24


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``checks`` and ``round`` modules."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("checks"), importlib.import_module("round")


def _certify_outputs(certify_op, max_n: int) -> dict:
    """The certify workload's outputs for n <= max_n, in its JSON shape."""
    layers = {n: list(strict_partitions_of(n)) for n in range(max_n + 1)}
    inputs = sorted(lam for layer in layers.values() for lam in layer)
    meta = {"counts": {n: len(layer) for n, layer in layers.items()}, "inputs": [list(lam) for lam in inputs]}
    return {"meta": meta, "results": [certify_op(lam) for lam in inputs]}


def test_certify_outputs_pass_the_oracle_check(bench):
    checks, round_ = bench
    outputs = _certify_outputs(round_._certify_op, MAX_N)
    assert any(row[3] == "Degree_witness" for row in outputs["results"])
    assert checks.check_certify(outputs, max_n=MAX_N) == []


def test_certify_check_catches_a_witness_of_larger_ddeg(bench):
    checks, round_ = bench
    outputs = _certify_outputs(round_._certify_op, MAX_N)
    for row in outputs["results"]:
        lam = tuple(row[0])
        if row[3] != "Degree_witness":
            continue
        worst = max(reg_preimages(regularize(lam, 3), 3), key=lambda nu: ddeg(nu, 3))
        if ddeg(worst, 3) > ddeg(lam, 3):
            row[4] = list(worst)
            break
    else:
        pytest.fail("no degree witness has a fibre partner of larger ddeg")
    errors = checks.check_certify(outputs, max_n=MAX_N)
    assert len(errors) == 1 and f"witness {worst} has ddeg" in errors[0]
