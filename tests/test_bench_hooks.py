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


def _installed():
    """The tracer, installed on the modules its patches name, and those modules."""
    tracing = _tracing()
    modules = types.SimpleNamespace(**{
        module_name: importlib.import_module(f"spindual.{module_name}")
        for module_name, _, _ in tracing.PATCHES})
    tracer = tracing.Tracer()
    tracer.install(modules)
    return tracing, tracer, modules


def test_classify_spans_record_the_public_entry_points():
    """classify reaches the certificate, orbit and normalization spans: D
    (2 2; 1 1) peels to a strict core and D (1; 3) is violated."""
    from spindual.spinclass import StringPairs, classify, pairs_to_param
    _, tracer, modules = _installed()
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


# the calls of each span over the fixed traffic below, as recorded before
# the string-pair layer left spinclass
SPAN_CALLS = {
    "weyl.dominantize": 0, "weyl.hermitian_witness": 0, "glclass.classify_gl": 0,
    "glclass.classify_gl_genuine_block": 0, "spinclass.classify": 4,
    "spinclass.partition_nt": 0, "spinclass.extract_pairs": 0,
    "spinclass.unitarity_test": 27, "spinclass.build_certificate": 3, "spinclass.witness": 1,
    "spinclass.enumerate_pairs": 1, "rewriter.normalize_to_base": 5,
    "rewriter.full_staircase": 0, "rewriter.inserts": 0, "orbits.attach_orbit": 3,
    "intertwine.build_case_script": 0, "intertwine.verify_chain": 0, "cli.main": 2,
}


def test_span_calls_are_pinned(capsys):
    """A fixed traffic makes the same calls in every span: D (2 2; 1 1) peels
    a gap, D (3 1; 1 1) a column, D (1; 3) is violated without padding and B
    (3 2 2; 0 0 0) padded, then ``table --rank 4`` and ``classify --pairs``.
    A stage call that moves away from a patched name changes a count."""
    from spindual.spinclass import StringPairs, pairs_to_param
    tracing, tracer, modules = _installed()
    try:
        for family, cols in (("D", ((2, 1), (2, 1))), ("D", ((1, 3),)),
                             ("B", ((3, 0), (2, 0), (2, 0))), ("D", ((3, 1), (1, 1)))):
            modules.spinclass.classify(pairs_to_param(StringPairs(family, cols)))
        assert modules.cli.main(["table", "--group", "D", "--rank", "4"]) == 0
        assert modules.cli.main(["classify", "--group", "B", "--pairs", "2,1;2,1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = dict.fromkeys(tracing.SPAN_NAMES, 0)
    for span in tracer.spans:
        calls[span[0]] += 1
    assert calls == SPAN_CALLS
