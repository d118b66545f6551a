"""The benchmark's tracer wraps library functions by name; each must still exist."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")  # only imported: install() would rebind module globals
    wanted = [(mod, name) for mod, names in tracing.FUNCTIONS.items() for name in names]
    wanted += [("partitions", name) for name in tracing.ENUMERATORS]
    wanted += [("verify", "run_suite"), ("cli", "main")]
    missing = [
        f"{mod}.{name}"
        for mod, name in wanted
        if not callable(getattr(importlib.import_module(f"spinhom.{mod}"), name, None))
    ]
    assert wanted and missing == []
    # metrics() reads the hit ratio of lr2's own memo
    assert callable(getattr(importlib.import_module("spinhom.wreath").lr2, "cache_info", None))
