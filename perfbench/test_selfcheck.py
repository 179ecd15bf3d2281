"""Self-check of the benchmark: the tracer records what layers.py predicts.

    python3 -m pytest perfbench/test_selfcheck.py -q

Takes about three minutes on a 2-core machine, most of it the three
passes over one ode-certify job.  For every workload it runs the traced
job plan once untraced and twice traced with the same seed, then checks:

- every per-layer metric is nonzero on each workload predicted to load it;
- every count predicted not to load a workload is zero there (among them
  jost_cplus.calls on bs-sweep and radial-levels, and action_S01.calls
  on radial-levels), except the S01 route counts on ode-certify, which
  depend on the seeded h;
- all counts and other non-time metrics repeat exactly across the two
  traced passes;
- the program's output bytes are identical traced and untraced, and the
  tracer leaves no wrapper behind.

A wrapper that patched the wrong binding would record nothing and fail
the first check.
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the thread environment first)
from layers import (  # noqa: E402
    LAYER_METRICS, ROUTE_DEPENDENT, layer_metrics)
from tracer import TRACED_MODULES, Tracer  # noqa: E402
from workloads import SCALED_LEVELS, WORKLOADS, scaled_levels_fd  # noqa: E402

SEED = 7
_TIMES = {"s"}


@pytest.fixture(scope="module")
def cli():
    return run.import_program()


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request, cli):
    workload = WORKLOADS[request.param]
    plain, untraced_s = run.run_plan(cli, workload, SEED)
    traced = []
    for i in range(2):
        tracer = Tracer(run_id=f"selfcheck-{i}")
        results, traced_s = run.run_plan(cli, workload, SEED, tracer)
        traced.append((results,
                       layer_metrics(tracer.stats, untraced_s, traced_s)))
    return request.param, plain, traced


def test_predicted_layers_nonzero(passes):
    name, _, traced = passes
    metrics = traced[0][1]
    silent = [m for m, _, loads in LAYER_METRICS
              if name in loads and not metrics[m] > 0]
    assert not silent, f"{name}: predicted layers recorded nothing: {silent}"


def test_predicted_zero_counters(passes):
    name, _, traced = passes
    metrics = traced[0][1]
    loaded = [m for m, unit, loads in LAYER_METRICS
              if unit == "count" and name not in loads
              and name not in ROUTE_DEPENDENT.get(m, ()) and metrics[m] != 0]
    assert not loaded, f"{name}: counters predicted zero are not: {loaded}"


def test_counts_repeat_exactly(passes):
    name, _, traced = passes
    (_, first), (_, second) = traced
    exact = [m for m, unit, _ in LAYER_METRICS
             if unit not in _TIMES and m != "bench.trace_overhead_frac"]
    differ = {m: (first[m], second[m]) for m in exact
              if first[m] != second[m]}
    assert not differ, f"{name}: counts differ between runs: {differ}"


def test_output_bytes_identical(passes):
    name, plain, traced = passes
    want = [(code, text) for _, code, text in plain]
    assert all(code in (0, 4) for code, _ in want)
    for results, _ in traced:
        assert [(code, text) for _, code, text in results] == want


def test_tracer_restores_bindings(passes):
    for short in TRACED_MODULES:
        module = sys.modules["conires." + short]
        for attr, obj in vars(module).items():
            bound = obj.values() if isinstance(obj, dict) else [obj]
            for fn in bound:
                if inspect.isfunction(fn):
                    assert not hasattr(fn, "__wrapped__"), f"{short}.{attr}"


def test_scaled_level_table():
    for l, table in SCALED_LEVELS.items():
        fd = scaled_levels_fd(l, len(table))
        for want, got in zip(table, fd):
            assert abs(got - want) <= 1e-6 * want, (l, want, got)


def test_benchmark_json_matches_catalogue():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m, unit) for m, unit, _ in LAYER_METRICS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END.items())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
