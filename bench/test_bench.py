"""Tests of the benchmark itself: python3 -m pytest bench

They run the ring2-cli code path on a shortened experiment (two outer
steps), so they take seconds, not the full workload's time.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.load_package()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


class ShortCLI(workloads.Ring2CLI):
    max_outer = 2


@pytest.fixture
def workload():
    return ShortCLI()


@pytest.fixture(params=[None, 2], ids=["serial", "threaded"])
def instance(request, workload, tmp_path):
    return workload.build(1, str(tmp_path), max_workers=request.param)


def untraced_artifact(workload, inst):
    return workload.result(inst, workload.run(inst)).artifact


def test_wrappers_are_removed_after_a_traced_run(workload, instance):
    bounds = workloads.boundaries()
    originals = [vars(owner)[attr] for owner, attr, *_ in bounds]
    tracer, _, _ = run.traced_run(workload, instance, bounds)
    assert {span.name for span in tracer.spans} >= {
        "bench.run", "cli.main", "descent.run", "surrogate.estimate",
        "surrogate.eval_gradient", "metric.qfi_exact", "simulator.tangent_sweep",
    }
    for (owner, attr, *_), original in zip(bounds, originals):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} still wrapped"


def test_wrappers_are_removed_when_the_traced_run_raises(workload, instance):
    bounds = workloads.boundaries()
    originals = [vars(owner)[attr] for owner, attr, *_ in bounds]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(bounds):
            raise RuntimeError("workload failed")
    for (owner, attr, *_), original in zip(bounds, originals):
        assert vars(owner)[attr] is original


def test_self_times_sum_to_the_traced_wall_time(workload, tmp_path):
    serial = workload.build(1, str(tmp_path), max_workers=None)
    tracer, _, wall = run.traced_run(workload, serial, workloads.boundaries())
    total = sum(tracer.layer_self_s().values())
    assert total == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert all(value >= 0.0 for value in tracer.self_times().values())


def test_threaded_dispatch_spans_hang_under_the_estimate(workload, tmp_path):
    threaded = workload.build(1, str(tmp_path), max_workers=2)
    tracer, _, wall = run.traced_run(workload, threaded, workloads.boundaries())
    oracle = [span for span in tracer.spans if span.name == "surrogate.oracle"]
    assert oracle and all(span.parent.name == "surrogate.estimate" for span in oracle)
    assert sum(tracer.layer_self_s().values()) >= wall - 1e-9


def test_traced_run_writes_the_same_trace_csv_bytes(workload, instance):
    plain = untraced_artifact(workload, instance)
    _, output, _ = run.traced_run(workload, instance, workloads.boundaries())
    assert workload.result(instance, output).artifact == plain
    assert plain.startswith(b"phase,outer,inner,")


def test_counters_repeat_exactly_between_traced_runs(workload, tmp_path):
    serial = workload.build(1, str(tmp_path), max_workers=None)
    first, _, _ = run.traced_run(workload, serial, workloads.boundaries())
    second, _, _ = run.traced_run(workload, serial, workloads.boundaries())
    assert first.counters() == second.counters()
    counts = first.counters()
    assert counts["surrogate.noise.calls"] == 2 * workloads.schedule_size(serial.nu)
    assert counts["metric.factorization.calls"] == counts["metric.direction.calls"]


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()
    root = tracing.Span("a.root", None)
    root.start, root.end = 0.0, 10.0
    spans = [root]
    for start, end in ((1.0, 4.0), (3.0, 6.0), (8.0, 12.0)):  # overlap, overrun
        child = tracing.Span("b.child", root)
        child.start, child.end = start, end
        spans.append(child)
    tracer.spans = spans
    selfs = tracer.self_times()
    assert selfs[id(root)] == pytest.approx(10.0 - 5.0 - 2.0)


def test_step_periods_do_not_cross_estimations():
    spans = []
    for name, start in (("g", 0.0), ("g", 1.0), ("e", 1.5), ("g", 2.0), ("g", 4.0)):
        span = tracing.Span(name, None)
        span.start = start
        spans.append(span)
    assert tracing.step_periods(spans, "g", "e") == [1.0, 2.0]


def test_benchmark_json_lists_the_runner_names():
    with open(BENCHMARK_JSON) as handle:
        doc = json.load(handle)
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in doc["end_to_end"])


def test_fails_without_a_result_where_the_package_is_missing(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring2-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
