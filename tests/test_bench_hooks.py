"""The names the benchmark's tracer patches must resolve on spindual.

``bench/tracing.py`` wraps functions where their callers look them up; a
name that disappears from a module makes ``bench/run.py --trace 1`` fail.
"""

import importlib
import importlib.util
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patches():
    return _tracing().PATCHES


def test_traced_names_resolve():
    patches = _patches()
    assert patches
    for module_name, attr, _ in patches:
        module = importlib.import_module(f"spindual.{module_name}")
        assert callable(getattr(module, attr, None)), f"spindual.{module_name}.{attr}"


def test_classify_spans_record_the_public_entry_points():
    """classify reaches the certificate, orbit and normalization spans: D
    (2 2; 1 1) peels to a strict core and D (1; 3) is violated."""
    from spindual.spinclass import StringPairs, classify, pairs_to_param
    tracing = _tracing()
    modules = types.SimpleNamespace(**{
        module_name: importlib.import_module(f"spindual.{module_name}")
        for module_name, _, _ in tracing.PATCHES})
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for cols in (((2, 1), (2, 1)), ((1, 3),)):
            modules.spinclass.classify(pairs_to_param(StringPairs("D", cols)))
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    for name in ("spinclass.build_certificate", "orbits.attach_orbit",
                 "rewriter.normalize_to_base"):
        assert name in recorded, name
    assert modules.spinclass.classify is classify
