"""The benchmark's traced run wraps functions by name, and its
microbenchmarks import the program: each name must still exist where the
benchmark looks for it."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import gekeler
import gekeler.cli  # noqa: F401  (the benchmark worker imports the package this way)

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(mod_name, path):
    module = getattr(gekeler, mod_name, None)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # methods are wrapped on their class, so they must be defined there
        return attr in getattr(getattr(module, owner_name, None), "__dict__", {})
    target = getattr(module, attr, None)
    if isinstance(target, type):
        return "__init__" in target.__dict__
    return callable(target)


def test_every_trace_target_resolves():
    tracing = _load("tracing")
    missing = [f"{mod}.{path}" for mod, path in tracing.TARGETS
               if not _resolves(mod, path)]
    assert missing == []


def test_microbenchmarks_run():
    # the benchmark's arithmetic microbenchmarks import the program by name;
    # with a 1 ms slice each rate is measured once
    micro = _load("micro")
    micro.SLICE_S = 0.001
    micro.REPEATS = 1
    rates, bad = micro.run(0)
    assert sorted(rates) == sorted(micro.METRICS) and len(rates) == 18
    assert all(rate > 0 for rate in rates.values())
    assert bad == []


def test_one_traced_pass_runs():
    # the traced worker's after-hooks read their arguments by position
    # (LatticeQuotient(top, bottom), weak_classes(base, s_order, p)), which
    # the name check above cannot see; one traced pass of icm_window runs them
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", "icm_window",
         "--seed", "0", "--mode", "traced"],
        cwd=_PERFBENCH.parent, env=env, capture_output=True, text=True,
        timeout=120, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert [job[1] for job in report["jobs"]] == ["ok"] * 9
    counters = report["trace"]["counters"]
    assert counters["quotient.invariant_subspaces.results"] == 129
