"""Spans around spindual's public functions, installed from the benchmark.

Each wrapped name is patched where its caller looks it up (for example
``spinclass.dominantize``, the name ``classify`` calls, rather than
``weyl.dominantize``).  A span records its name, start, end, parent span and
the phase it ran in (a set-up or a round).  Spans are kept in memory and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

import json
import statistics
from time import perf_counter_ns

# (module whose attribute is patched, attribute, span name)
PATCHES = (
    ("spinclass", "dominantize", "weyl.dominantize"),
    ("spinclass", "hermitian_witness", "weyl.hermitian_witness"),
    ("spinclass", "classify_gl", "glclass.classify_gl"),
    ("spinclass", "classify_gl_genuine_block", "glclass.classify_gl_genuine_block"),
    ("spinclass", "classify", "spinclass.classify"),
    ("cli", "classify", "spinclass.classify"),
    ("spinclass", "partition_nt", "spinclass.partition_nt"),
    ("spinclass", "extract_pairs", "spinclass.extract_pairs"),
    ("spinclass", "unitarity_test", "spinclass.unitarity_test"),
    ("cli", "unitarity_test", "spinclass.unitarity_test"),
    ("rewriter", "unitarity_test", "spinclass.unitarity_test"),
    ("spinclass", "build_certificate", "spinclass.build_certificate"),
    ("spinclass", "witness", "spinclass.witness"),
    ("spinclass", "enumerate_pairs", "spinclass.enumerate_pairs"),
    ("cli", "enumerate_pairs", "spinclass.enumerate_pairs"),
    ("rewriter", "normalize_to_base", "rewriter.normalize_to_base"),
    ("rewriter", "full_staircase", "rewriter.full_staircase"),
    ("rewriter", "extract_pairs", "rewriter.inserts"),
    ("orbits", "attach_orbit", "orbits.attach_orbit"),
    ("intertwine", "build_case_script", "intertwine.build_case_script"),
    ("intertwine", "verify_chain", "intertwine.verify_chain"),
    ("cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in PATCHES))


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start_ns, end_ns, parent index, phase]
        self._child_ns = []   # per span: time covered by its direct children
        self._stack = []
        self.phase = None
        self._saved = []

    def wrap(self, name, fn):
        spans, child_ns, stack = self.spans, self._child_ns, self._stack
        # enumerate_pairs is a generator: consume it inside its span, so
        # that the span covers the work
        consume = name == "spinclass.enumerate_pairs"

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, 0, 0, parent, self.phase]
            spans.append(record)
            child_ns.append(0)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return list(result) if consume else result
            finally:
                end = perf_counter_ns()
                stack.pop()
                record[1], record[2] = start, end
                if parent >= 0:
                    child_ns[parent] += end - start

        return traced

    def install(self, modules):
        """Patch every name of PATCHES on the given module namespace."""
        for module_name, attr, span in PATCHES:
            module = getattr(modules, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def per_layer(self, setup_phases, round_phases) -> dict:
        """Calls and self time per span name: one set-up plus one round.

        Calls are taken from the first phase of each kind (every set-up, and
        every round, does the same operations); self time is the median over
        the phases of each kind.
        """
        calls, self_ns = self._totals()
        out = {}
        for name in SPAN_NAMES:
            n_calls = 0
            ms = 0.0
            for phases in (setup_phases, round_phases):
                if phases:
                    n_calls += calls.get((name, phases[0]), 0)
                    ms += statistics.median(self_ns.get((name, p), 0) for p in phases) / 1e6
            out[f"{name}.calls"] = {"value": n_calls, "unit": "count"}
            out[f"{name}.self_ms"] = {"value": ms, "unit": "ms"}
        return out

    def calls_repeat(self, phases) -> bool:
        """True when every phase in ``phases`` made the same calls."""
        calls, _ = self._totals()
        per_phase = [{name: calls.get((name, p), 0) for name in SPAN_NAMES} for p in phases]
        return all(c == per_phase[0] for c in per_phase)

    def _totals(self):
        calls = {}
        self_ns = {}
        for (name, start, end, _, phase), child in zip(self.spans, self._child_ns):
            key = (name, phase)
            calls[key] = calls.get(key, 0) + 1
            self_ns[key] = self_ns.get(key, 0) + (end - start) - child
        return calls, self_ns

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "phase"],
                       "spans": self.spans}, fh)
