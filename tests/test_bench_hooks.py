"""The names the benchmark's tracer patches must resolve on spindual.

``bench/tracing.py`` wraps functions where their callers look them up; a
name that disappears from a module makes ``bench/run.py --trace 1`` fail.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_traced_names_resolve():
    patches = _patches()
    assert patches
    for module_name, attr, _ in patches:
        module = importlib.import_module(f"spindual.{module_name}")
        assert callable(getattr(module, attr, None)), f"spindual.{module_name}.{attr}"
