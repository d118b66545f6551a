"""The contract-range ``verify`` runs, made once per test session, the
hypothesis strategy for p-strict partitions, and a runner of scripts
under ``python -O``.

The acceptance criteria and the full-range suite tests all read these
rows, so no suite runs twice at its contract range.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import spinhom
from spinhom import verify

THREADS = min(4, os.cpu_count() or 1)

# (suite, p, max_n) of each contract run; the degrees run uses max_l = 12
CONTRACT_RUNS = (
    ("ladders", 3, 25),
    ("ladders", 5, 18),
    ("ladders", 7, 18),
    ("branching", 3, 25),
    ("branching", 5, 16),
    ("blocks", 3, 16),
    ("blocks", 5, 16),
    ("degrees", 3, 12),
    ("tableaux", 3, 12),
    ("wreath", 3, 8),
    ("classification", 3, 30),
)


@pytest.fixture(scope="session")
def contract_rows() -> dict[tuple[str, int], list[verify.Row]]:
    """The rows of every contract run, keyed by (suite, p)."""
    return {
        (name, p): verify.run_suite(name, p=p, max_n=max_n, threads=THREADS, max_l=12)
        for name, p, max_n in CONTRACT_RUNS
    }


@st.composite
def p_strict(draw, p, max_n=60):
    """A p-strict partition of at most max_n: distinct parts plus repeated multiples of p."""
    parts = draw(st.lists(st.integers(1, max_n), unique=True, max_size=10))
    parts += draw(st.lists(st.integers(1, max_n // p).map(lambda k: k * p), max_size=4))
    parts.sort()
    while sum(parts) > max_n:
        parts.pop()
    return tuple(reversed(parts))


def run_under_python_o(script):
    """Run script in a fresh ``python -O`` interpreter that imports this spinhom."""
    env = {**os.environ, "PYTHONPATH": str(Path(spinhom.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
