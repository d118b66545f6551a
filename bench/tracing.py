"""Per-module timing for traced rounds, from outside the library.

``Tracer.install`` replaces each public function named in ``FUNCTIONS``
and ``ENUMERATORS``, and ``verify.run_suite`` and ``cli.main``, by a
timing wrapper, in every loaded ``spinhom`` module that holds it:
the defining module (so calls inside it go through the wrapper too) and
every module that imported the name with ``from .x import f``.  Nothing
under ``src/`` changes, and untraced rounds never import this file.

Each wrapper opens a span; a span's self time is its duration minus the
spans opened inside it.  Generator functions (the partition enumerators
and ``enumerate_sst``) are timed per ``next()``, and only their outermost
call is wrapped: their own recursion runs unwrapped inside that span, so
``.calls`` counts top-level enumerations.

Pool workers of ``verify --threads N`` are forked with the wrappers in
place, but their counts stay in the workers and are not reported.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

from checks import SUITES

FUNCTIONS = {
    "ladders": ("regularize", "ladder_profile", "check_ladder_identities"),
    "branching": ("ladder_obstruction", "extremal", "boundary_nodes", "signature", "eps_hat", "normal_extremal"),
    "barcores": ("reg_preimages", "bar_removals", "bar_core", "block_members"),
    "dimensions": ("degree_witness", "ddeg", "spin_dim"),
    "tableaux": ("enumerate_sst", "count_sst"),
    "wreath": ("lr2", "lr3", "wreath_cartan0"),
    "classify": ("classify_homogeneous", "homogeneity_obstruction"),
}
ENUMERATORS = ("partitions_of", "strict_partitions_of", "p_strict_partitions_of", "restricted_partitions_of")


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric a traced run reports: name -> (unit, better)."""
    units = {"partitions.enumerate_s": ("s", "lower")}
    for mod, names in FUNCTIONS.items():
        for name in names:
            units[f"{mod}.{name}.calls"] = ("count", "lower")
            units[f"{mod}.{name}.self_s"] = ("s", "lower")
    units["barcores.reg_preimages.members"] = ("count", "lower")
    units["barcores.reg_preimages.distinct_fibres"] = ("count", "lower")
    units["dimensions.degree_witness.found"] = ("count", "higher")
    units["wreath.lr2.hit_ratio"] = ("ratio", "higher")
    for suite in SUITES:
        units[f"verify.{suite}.s"] = ("s", "lower")
        units[f"verify.{suite}.rows"] = ("count", "higher")
    units["cli.emit_s"] = ("s", "lower")
    units["trace.overhead_s"] = ("s", "lower")
    return units


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.inclusive_s: dict[str, float] = {}
        self.members = 0
        self.fibres: set = set()
        self.found = 0
        self.suite_s = {suite: 0.0 for suite in SUITES}
        self.suite_rows = {suite: 0 for suite in SUITES}
        self._children = [0.0]  # span time opened under each open span
        self._lr2 = None

    # -- spans ---------------------------------------------------------------

    def _wrap(self, key: str, fn, on_return=None):
        calls, self_s, inclusive_s = self.calls, self.self_s, self.inclusive_s
        calls[key], self_s[key], inclusive_s[key] = 0, 0.0, 0.0
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                children[-1] += dt
                calls[key] += 1
                self_s[key] += dt - inner
                inclusive_s[key] += dt
            if on_return is not None:
                on_return(args, result, dt)
            return result

        return wrapper

    def _wrap_generator(self, key: str, fn):
        calls, self_s = self.calls, self.self_s
        calls[key], self_s[key] = 0, 0.0
        children = self._children
        clock = time.perf_counter
        active = [False]

        def timed(gen):
            while True:
                children.append(0.0)
                active[0] = True
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    active[0] = False
                    dt = clock() - t0
                    inner = children.pop()
                    children[-1] += dt
                    self_s[key] += dt - inner
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            calls[key] += 1
            return timed(fn(*args, **kwargs))

        return wrapper

    # -- counters --------------------------------------------------------------

    def _on_reg_preimages(self, args, result, dt) -> None:
        self.members += len(result)
        self.fibres.add((args[0], args[1]))

    def _on_degree_witness(self, args, result, dt) -> None:
        self.found += result is not None

    def _on_run_suite(self, args, result, dt) -> None:
        self.suite_s[args[0]] += dt
        self.suite_rows[args[0]] += len(result)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import spinhom.cli  # noqa: F401  (loads every module that imports a target)

        hooks = {
            "barcores.reg_preimages": self._on_reg_preimages,
            "dimensions.degree_witness": self._on_degree_witness,
            "verify.run_suite": self._on_run_suite,
        }
        targets = [(mod, name) for mod, names in FUNCTIONS.items() for name in names]
        targets += [("partitions", name) for name in ENUMERATORS]
        targets += [("verify", "run_suite"), ("cli", "main")]
        for mod, name in targets:
            key = f"{mod}.{name}"
            orig = getattr(sys.modules[f"spinhom.{mod}"], name)
            if inspect.isgeneratorfunction(orig):
                wrapper = self._wrap_generator(key, orig)
            else:
                wrapper = self._wrap(key, orig, hooks.get(key))
            if key == "wreath.lr2":
                self._lr2 = orig
            for modname, module in list(sys.modules.items()):
                if modname == "spinhom" or modname.startswith("spinhom."):
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of ``metric_units`` except the overhead."""
        out: dict[str, float] = {"partitions.enumerate_s": sum(self.self_s[f"partitions.{n}"] for n in ENUMERATORS)}
        for mod, names in FUNCTIONS.items():
            for name in names:
                out[f"{mod}.{name}.calls"] = self.calls[f"{mod}.{name}"]
                out[f"{mod}.{name}.self_s"] = self.self_s[f"{mod}.{name}"]
        out["barcores.reg_preimages.members"] = self.members
        out["barcores.reg_preimages.distinct_fibres"] = len(self.fibres)
        out["dimensions.degree_witness.found"] = self.found
        info = self._lr2.cache_info()
        out["wreath.lr2.hit_ratio"] = info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0
        for suite in SUITES:
            out[f"verify.{suite}.s"] = self.suite_s[suite]
            out[f"verify.{suite}.rows"] = self.suite_rows[suite]
        out["cli.emit_s"] = self.inclusive_s["cli.main"] - self.inclusive_s["verify.run_suite"]
        return out
