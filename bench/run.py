"""Benchmark of spindual, end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: spindual is imported from ``src/`` next to
this directory.  The run

1. sets up SETUP_REPEATS times: import spindual afresh, generate the inputs
   from the seed, build the operations and warm up.  ``setup_s`` is the
   median; the inputs of every set-up must be equal;
2. runs rounds, each one pass over every operation, until the rounds have
   taken ``--seconds``.  One operation is one ``classify`` call or one
   ``cli.main`` invocation;
3. checks every output: the first round's outputs with the independent
   checker (``checker.py``), every later output for equality with the first
   round's;
4. scales every wall time to a fixed machine speed with the gauge
   (``gauge.py``), read around every set-up stage and between operations;
5. prints a summary and, as the last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
every other round runs with spans around spindual's public functions
(``tracing.py``) and the metrics are per module; the rounds without spans give
``trace.overhead_ms``.  Results and spans go to ``bench/results/``.

Exits 2 without a result when spindual cannot be set up.
"""

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import checker
import gauge
import selftest
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"
MODULES = ("weyl", "glclass", "spinclass", "rewriter", "orbits", "intertwine", "cli")
SETUP_REPEATS = 7
# the tail is the highest of these percentiles that leaves at least ten
# operations of one round beyond it, so it is the same percentile in every run
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75)


class SetupError(Exception):
    """spindual cannot be imported from this checkout."""


def import_spindual():
    """Import spindual afresh from ``src/`` and return its modules."""
    package_dir = SRC / "spindual"
    if not (package_dir / "__init__.py").is_file():
        raise SetupError(f"no spindual package at {package_dir}")
    for name in [m for m in sys.modules if m == "spindual" or m.startswith("spindual.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module("spindual")
    if Path(package.__file__).resolve().parent != package_dir.resolve():
        raise SetupError(f"spindual was imported from {package.__file__}, not {package_dir}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"spindual.{m}") for m in MODULES})


def tail_percentile(ops_per_round: int) -> float:
    for p in TAIL_PERCENTILES:
        if ops_per_round * (100 - p) / 100 >= 10:
            return p
    raise ValueError(f"{ops_per_round} operations per round give no tail")


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


class OpError:
    """An operation that raised."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text


def outcome(out) -> str:
    if isinstance(out, OpError):
        return "raised"
    if isinstance(out, tuple):
        return f"exit {out[0]}"
    return out.status.value


def set_up(workload, seed, tracer, phase, speed):
    """Import, generate, build the operations and warm up, with the gauge
    read around each stage.  Returns the (start_ns, wall_ns) of the stages."""
    stages = []

    def stage(fn, *args):
        speed.sample(2)
        t0 = time.perf_counter_ns()
        value = fn(*args)
        stages.append((t0, time.perf_counter_ns() - t0))
        return value

    sd = stage(import_spindual)
    if tracer is not None:
        tracer.phase = phase
        tracer.install(sd)
    inputs = stage(workload.generate, sd, seed)
    ops = stage(workload.build_ops, sd, inputs)
    stage(workloads.warm_up, sd, workload.name)
    speed.sample(2)
    if tracer is not None:
        tracer.uninstall()
    return stages, sd, inputs, ops


def measure(workload, seed, seconds, traced):
    tracer = tracing.Tracer() if traced else None
    speed = gauge.Gauge()
    problems = []
    setups = []
    setup_phases = []
    inputs = None
    for i in range(SETUP_REPEATS):
        phase = f"setup-{i}"
        stages, sd, got, ops = set_up(workload, seed, tracer, phase, speed)
        setups.append(stages)
        setup_phases.append(phase)
        if inputs is None:
            inputs = got
        elif got != inputs:
            problems.append(f"set-up {i} generated other inputs for seed {seed}")
    try:
        if workload.check_inputs is not None:
            workload.check_inputs(inputs)
    except checker.CheckFailure as exc:
        problems.append(f"inputs: {exc}")
    problems += [f"checker self-test: {p}" for p in selftest.checker_rejections(sd)]

    first = None
    attempted = failed = 0
    failures = []
    timed = []          # per untraced round: (start_ns, wall_ns) of each operation
    walls = []
    round_phases = []
    measured = 0
    r = 0
    # a traced run alternates rounds without and with spans, and ends on a
    # round without, so that every traced round has a neighbour on each side
    while measured < seconds * 1e9 or (traced and (r < 3 or r % 2 == 0)):
        with_spans = traced and r % 2 == 1
        if with_spans:
            tracer.phase = f"round-{r}"
            round_phases.append(tracer.phase)
            tracer.install(sd)
        outputs = []
        round_times = []
        round_start = time.perf_counter_ns()
        for op in ops:
            speed.maybe_sample()
            t0 = time.perf_counter_ns()
            try:
                out = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = OpError(exc)
            round_times.append((t0, time.perf_counter_ns() - t0))
            outputs.append(out)
        speed.sample()
        wall = time.perf_counter_ns() - round_start
        if with_spans:
            tracer.uninstall()
        measured += wall
        round_failed = 0
        for i, out in enumerate(outputs):
            problem = None
            if isinstance(out, OpError):
                problem = out.text
            elif first is None:
                try:
                    workload.check(sd, inputs[i], out)
                except Exception as exc:  # a checker that cannot read the output rejects it
                    problem = f"{type(exc).__name__}: {exc}"
                    problems.append(f"wrong output for input {i}: {problem}")
            elif out != first[i]:
                problem = "output differs from the first round's"
                problems.append(f"input {i}: {problem}")
            if problem is not None:
                round_failed += 1
                if len(failures) < 10:
                    failures.append(f"round {r} input {i}: {problem}")
        if first is None:
            first = outputs
        attempted += len(ops)
        failed += round_failed
        walls.append(wall)
        if not with_spans:
            timed.append((round_times, len(ops) - round_failed))
        r += 1

    # every wall time at the gauge's nominal speed (gauge.py)
    latencies = sorted(speed.scaled(t0, ns) for times, _ in timed for t0, ns in times)
    rates = [ok / (sum(speed.scaled(t0, ns) for t0, ns in times) / 1e9)
             for times, ok in timed]
    setup_times = [sum(speed.scaled(t0, ns) for t0, ns in stages) / 1e9 for stages in setups]
    tail = tail_percentile(len(ops))
    info = {
        "workload": workload.name,
        "seed": seed,
        "rounds": r,
        "operations_per_round": len(ops),
        "latency_samples": len(latencies),
        "tail_percentile": tail,
        "samples_beyond_tail": len(latencies) - math.ceil(tail / 100 * len(latencies)),
        "setup_s_all": setup_times,
        "round_ops_s": rates,
        "gauge_samples": len(speed.ns),
        "gauge_median_ms": speed.median_ns() / 1e6,
        "wall_latency_p50_ms": statistics.median(
            ns for times, _ in timed for _, ns in times) / 1e6,
        "wall_round_ops_s": [ok / (sum(ns for _, ns in times) / 1e9) for times, ok in timed],
        "wall_setup_s_all": [sum(ns for _, ns in stages) / 1e9 for stages in setups],
        "failures": failures,
        "problems": problems[:10],
    }
    outcomes = {}
    for out in first:
        key = outcome(out)
        outcomes[key] = outcomes.get(key, 0) + 1
    info["first_round_outcomes"] = outcomes
    if traced:
        metrics = tracer.per_layer(setup_phases, round_phases)
        # each traced round against the mean of the untraced rounds around it
        overhead = statistics.median(walls[k] - (walls[k - 1] + walls[k + 1]) / 2
                                     for k in range(1, len(walls), 2))
        metrics["trace.overhead_ms"] = {"value": overhead / 1e6, "unit": "ms"}
        if not (tracer.calls_repeat(setup_phases) and tracer.calls_repeat(round_phases)):
            problems.append("traced call counts differ between phases")
        info["spans"] = len(tracer.spans)
    else:
        metrics = {
            "throughput_ops_s": {"value": statistics.median(rates), "unit": "ops/s"},
            "latency_p50_ms": {"value": statistics.median(latencies) / 1e6, "unit": "ms"},
            "latency_tail_ms": {"value": percentile(latencies, tail) / 1e6, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    try:
        result, info, tracer = measure(workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: cannot set up spindual: {exc}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1)
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.json")

    print(f"workload {info['workload']} seed {info['seed']}: {info['rounds']} rounds of "
          f"{info['operations_per_round']} operations; outcomes {info['first_round_outcomes']}")
    print(f"gauge: {info['gauge_samples']} samples, median {info['gauge_median_ms']:.4f} ms "
          f"(nominal {gauge.NOMINAL_NS / 1e6:g} ms); wall p50 {info['wall_latency_p50_ms']:.6g} ms")
    if not args.trace:
        print(f"latency samples {info['latency_samples']}, tail p{info['tail_percentile']:g} "
              f"with {info['samples_beyond_tail']} beyond it")
    for line in info["failures"] + info["problems"]:
        print(f"  ! {line}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
