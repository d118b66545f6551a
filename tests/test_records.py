import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinhom
from spinhom import barcores, branching, classify, dimensions, families, tableaux, wreath


def test_a_cold_import_loads_no_dataclasses_inspect_or_traceback():
    # every module the benchmark imports, in a fresh interpreter
    script = (
        "import sys\n"
        "from spinhom import barcores, classify, cli, dimensions, families, ladders, partitions, verify\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'traceback') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(spinhom.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], f"importing spinhom loaded {proc.stdout.split()}"


def test_records_are_immutable_with_unchanged_reprs():
    records = [
        (barcores.bar_removals((5,), 3)[0], "kind"),
        (barcores.bar_core((9, 5, 4, 2), 3), "core"),
        (branching.signature((2, 1), 0, 3), "raw"),
        (branching.extremal((9, 5, 4, 2), 0, 3, "up"), "count"),
        (classify.special_decompose((7, 4)), "alpha"),
        (classify.classify_homogeneous((6,)), "status"),
        (classify.homogeneity_obstruction((9, 6, 3)), "witness"),
        (classify.classify_irreducible((2, 1), "an"), "irreducible"),
        (dimensions.spin_dim((2, 1)), "dim"),
        (dimensions.regn_multiplicity((3,), 3), "s_to_d"),
        (families.FAMILIES["deglem1"], "name"),
        (next(tableaux.enumerate_sst((2, 1))), "rows"),
        (wreath.bundled_decomp_matrix(3), "columns"),
    ]
    assert len({type(record) for record, _ in records}) == 13
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = None
    # verify rows print a certificate with str
    assert repr(classify.homogeneity_obstruction((9, 6, 3))) == "Certificate(kind='Degree_witness', witness=(8, 7, 3))"
    up = branching.extremal((9, 5, 4, 2), 0, 3, "up")
    assert repr(up) == "ExtremalResult(result=(10, 7, 4, 3, 1), count=5)"
    assert type(up.count) is int
