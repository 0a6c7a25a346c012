"""The benchmark's traced run wraps functions by name: each target it lists
must still exist where it looks for it."""

import importlib.util
from pathlib import Path

import gekeler
import gekeler.cli  # noqa: F401  (the benchmark worker imports the package this way)

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{path}" for mod, path in tracing.TARGETS
               if not _resolves(mod, path)]
    assert missing == []
