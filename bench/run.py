"""Benchmark of analytic descent: one command, named workloads.

    python3 bench/run.py --workload ring6-ad [--workload-seed 1] [--seconds 50] [--trace 0]

Run from the root of a source checkout; the package is imported from its
`src/` directory (nothing is installed).  Workloads:

  ring6-ad         analytic descent on the criterion-10 instance (N=6, nu=42) to 1e-3
  ring2-cli        criterion 11's experiment through `analytic-descent run`
  ring6-ng         the natural-gradient baseline on the ring6-ad instance to 1e-3
  ring10-estimate  one noisy estimation phase at N=10 (nu=70), pointwise oracle

BENCHMARK.json lists ring6-ad and ring2-cli, with why each was chosen;
together they reach every layer (pauli, simulator, ansatz, surrogate,
metric, descent, cli).  ring6-ng and ring10-estimate run the same way when
named, but are not in the gated set: on a shared two-core host the speed
drifts by a quarter over minutes, so each gated run measures for as long as
the time allowed for the whole set of runs permits, and that fits two
workloads, not four.

`--trace 0` prints the end-to-end metrics: the timed operation is repeated
while the next repeat is predicted to end within `--seconds`, and timings
are medians over the repeats.  `--trace 1` runs the workload once untraced
and twice traced (see tracer.py) and prints the per-layer metrics, checking
that the deterministic counters repeat exactly and that tracing leaves the
output bytes unchanged.

BLAS runs one thread (set below, before numpy loads), so a timed run uses
one core; query-dispatch threads run only in ring2-cli's check rerun and in
the traced run's dispatch timing.

The instance depends only on `--workload-seed` (default 1).  `--seed` is the
run's own seed and is only recorded: time to 1e-3 differs by up to 2x between
instance seeds, so runs that are compared must share the instance.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it carries
the full report (samples, percentiles, counters, machine facts).  Failed
operations (exceptions and failed output checks) are counted, not raised.
"""

from __future__ import annotations

import os

# One BLAS thread: on a machine of two shared cores, OpenBLAS's helper
# threads spinning on this program's small matrices measure the host's
# scheduler, not the program.  Set before numpy is first imported; setup
# probes inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import machine
import tracer as tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

SETUP_PROBES = 5
DISPATCH_BUDGET_S = 2.0  # per side, for the small-schedule dispatch timing
DISPATCH_MAX_PAIRS = 15

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cost_units": "units",
    "raw_queries": "count",
}

# name -> (unit, better)
PER_LAYER = {
    "descent.self_s": ("s", "lower"),
    "descent.outer_steps": ("count", "lower"),
    "descent.inner_steps": ("count", "lower"),
    "descent.max_inner_exits": ("count", "lower"),
    "descent.inner_step.p50_us": ("us", "lower"),
    "descent.inner_step.p99_us": ("us", "lower"),
    "descent.trace_csv_s": ("s", "lower"),
    "descent.trace_csv_bytes": ("bytes", "lower"),
    "surrogate.eval_energy.calls": ("count", "lower"),
    "surrogate.eval_energy.p50_us": ("us", "lower"),
    "surrogate.eval_energy.p99_us": ("us", "lower"),
    "surrogate.eval_energy.self_s": ("s", "lower"),
    "surrogate.eval_gradient.calls": ("count", "lower"),
    "surrogate.eval_gradient.p50_us": ("us", "lower"),
    "surrogate.eval_gradient.self_s": ("s", "lower"),
    "surrogate.estimate.s": ("s", "lower"),
    "surrogate.estimate.self_s": ("s", "lower"),
    "surrogate.oracle.s": ("s", "lower"),
    "surrogate.oracle.pointwise_queries": ("count", "lower"),
    "surrogate.oracle.cache_builds_per_estimate": ("ratio", "lower"),
    "surrogate.noise_draws": ("count", "lower"),
    "surrogate.noise_s": ("s", "lower"),
    "surrogate.dispatch_speedup": ("ratio", "higher"),
    "metric.qfi_exact.calls": ("count", "lower"),
    "metric.qfi_exact.p50_us": ("us", "lower"),
    "metric.qfi_exact.self_s": ("s", "lower"),
    "metric.direction.calls": ("count", "lower"),
    "metric.direction.p50_us": ("us", "lower"),
    "metric.direction.self_s": ("s", "lower"),
    "metric.factorizations": ("count", "lower"),
    "metric.factorizations_per_outer": ("ratio", "lower"),
    "metric.psd_checks": ("count", "lower"),
    "ansatz.energy.calls": ("count", "lower"),
    "ansatz.energy.p50_us": ("us", "lower"),
    "ansatz.energy.self_s": ("s", "lower"),
    "ansatz.energy_gradient.calls": ("count", "lower"),
    "ansatz.energy_gradient.p50_us": ("us", "lower"),
    "ansatz.energy_gradient.self_s": ("s", "lower"),
    "ansatz.gate_applications": ("computed-count", "lower"),
    "ansatz.amplitude_updates": ("computed-count", "lower"),
    "simulator.tangent_sweep.calls": ("count", "lower"),
    "simulator.tangent_sweep.p50_us": ("us", "lower"),
    "simulator.tangent_sweep.self_s": ("s", "lower"),
    "simulator.ground_energy.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.sidecar_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

class PackageMissing(RuntimeError):
    pass


def load_package():
    """Import analytic_descent from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "analytic_descent")):
        raise PackageMissing(f"no package source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import analytic_descent

    origin = os.path.realpath(os.path.dirname(analytic_descent.__file__))
    if origin != os.path.realpath(os.path.join(SRC, "analytic_descent")):
        raise PackageMissing(f"analytic_descent was imported from {origin}")
    return analytic_descent


def percentile_summary(values) -> dict:
    """Median, sample count, the samples, and the highest of p50/p90/p99/p99.9
    that has at least ten samples beyond it (None when there are fewer than 20)."""
    out = {"median": statistics.median(values) if values else None, "samples": len(values)}
    out["values"] = list(values)
    out["p"], out["p_value"] = None, None
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            out["p"], out["p_value"] = p, float(np.percentile(values, p))
            break
    return out


class Ledger:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def record(self, label: str, failures) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(f"{label}: {message}" for message in failures)
        return not failures

    def attempt(self, label: str, fn):
        """Run fn(); an exception counts as one failed operation."""
        try:
            return fn()
        except Exception:  # the benchmark counts every failure kind
            self.record(label, [traceback.format_exc().strip()])
            return None


def setup_probe_times(workload_name: str, seed: int, ledger: Ledger) -> list[float]:
    """Wall time of fresh interpreters that import the package and build the instance."""
    times = []
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", workload_name, "--workload-seed", str(seed),
    ]
    for probe in range(SETUP_PROBES):
        started = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            ledger.record(f"setup probe {probe}", ["timed out after 120 s"])
            continue
        elapsed = time.perf_counter() - started
        if ledger.record(
            f"setup probe {probe}",
            [] if done.returncode == 0 else [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"],
        ):
            times.append(elapsed)
    return times


def timed(workload, inst):
    started, cpu = time.perf_counter(), time.process_time()
    output = workload.run(inst)
    return output, time.perf_counter() - started, time.process_time() - cpu


def measure(workload, inst, seconds: float, ledger: Ledger) -> dict:
    """Repeat the timed operation while the next repeat should end in time."""
    walls, cpus, results = [], [], []
    begun = time.perf_counter()
    while True:
        label = f"{workload.name} run {len(walls) + 1}"
        done = ledger.attempt(label, lambda: timed(workload, inst))
        if done is None:
            break
        output, wall, cpu = done
        result = ledger.attempt(label, lambda: workload.result(inst, output))
        if result is None:
            break
        failures = list(result.failures)
        if results and (result.artifact, result.cost_units, result.raw_queries) != (
            results[0].artifact, results[0].cost_units, results[0].raw_queries
        ):
            failures.append("output differs from the first repeat")
        ledger.record(label, failures)
        walls.append(wall)
        cpus.append(cpu)
        results.append(result)
        if time.perf_counter() - begun + wall > seconds:
            break
    if results:
        checks = ledger.attempt("rerun checks", lambda: workload.rerun_checks(inst, results[0]))
        for label, failures in checks or ():
            ledger.record(label, failures)
    return {"wall": walls, "cpu": cpus, "results": results}


def end_to_end(args, workload, ledger: Ledger, report: dict) -> dict | None:
    setup = setup_probe_times(workload.name, args.workload_seed, ledger)
    inst = ledger.attempt("build", lambda: workload.build(args.workload_seed, args.workdir))
    if inst is None:
        return None
    runs = measure(workload, inst, args.seconds, ledger)
    if not runs["results"] or not setup:
        return None
    last = runs["results"][-1]
    report["samples"] = {
        "wall_s": percentile_summary(runs["wall"]),
        "cpu_s": percentile_summary(runs["cpu"]),
        "setup_s": percentile_summary(setup),
    }
    return {
        "wall_s": statistics.median(runs["wall"]),
        "cpu_s": statistics.median(runs["cpu"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cost_units": float(last.cost_units),
        "raw_queries": float(last.raw_queries),
    }


def traced_run(workload, inst, boundaries):
    tracer = tracing.Tracer()
    with tracer.installed(boundaries):
        with tracer.span("bench.run") as root:
            output = workload.run(inst)
    return tracer, output, root.duration


def dispatch_speedup(workload, inst, serial_wall, serial_artifact, ledger) -> float:
    """Serial over max_workers=nproc wall time of the workload's estimation.

    ring10-estimate's timed operation is itself one estimation, so it is
    rerun threaded; the others time outer step 1's estimation on their own
    instance in serial/threaded pairs, for about DISPATCH_BUDGET_S per side.
    Both sides must build byte-identical models.
    """
    from workloads import estimate_model, model_to_json, nproc

    if hasattr(workload, "threaded"):
        threaded = workload.threaded(inst)

        def threaded_run():
            output, wall, _ = timed(workload, threaded)
            return wall, workload.result(threaded, output)

        done = ledger.attempt("threaded estimate", threaded_run)
        if done is None:
            return 0.0
        wall, result = done
        same = result.artifact == serial_artifact
        ledger.record("threaded estimate", result.failures + ([] if same else ["model differs from serial"]))
        return serial_wall / wall

    circuit, levels, key = workload.first_estimate(inst)

    def pairs():
        serial, threaded, failures = [], [], []
        while len(serial) < DISPATCH_MAX_PAIRS and sum(serial) < DISPATCH_BUDGET_S:
            models = []
            for workers, bucket in ((None, serial), (nproc(), threaded)):
                started = time.perf_counter()
                models.append(estimate_model(circuit, inst.h, levels, key, workers))
                bucket.append(time.perf_counter() - started)
            if model_to_json(models[0]) != model_to_json(models[1]):
                failures.append("threaded estimate differs from serial")
        return serial, threaded, failures

    done = ledger.attempt("dispatch estimates", pairs)
    if done is None:
        return 0.0
    serial, threaded, failures = done
    ledger.record("dispatch estimates", failures)
    return statistics.median(serial) / statistics.median(threaded)


def per_layer(args, workload, ledger: Ledger, report: dict) -> dict | None:
    from workloads import boundaries

    inst = ledger.attempt("build", lambda: workload.build(args.workload_seed, args.workdir))
    if inst is None:
        return None
    done = ledger.attempt("untraced run", lambda: timed(workload, inst))
    if done is None:
        return None
    untraced = ledger.attempt("untraced run", lambda: workload.result(inst, done[0]))
    if untraced is None:
        return None
    ledger.record("untraced run", untraced.failures)

    traces = []
    for index in (1, 2):
        label = f"traced run {index}"
        done_traced = ledger.attempt(label, lambda: traced_run(workload, inst, boundaries()))
        if done_traced is None:
            return None
        tracer, output, wall = done_traced
        result = ledger.attempt(label, lambda: workload.result(inst, output))
        if result is None:
            return None
        failures = list(result.failures)
        if result.artifact != untraced.artifact:
            failures.append("traced output bytes differ from the untraced run")
        ledger.record(label, failures)
        traces.append((tracer, wall, result))

    counters = [t.counters() for t, _, _ in traces]
    ledger.record(
        "counter repeat",
        [] if counters[0] == counters[1] else [
            f"{k}: {counters[0].get(k)} then {counters[1].get(k)}"
            for k in sorted(set(counters[0]) | set(counters[1]))
            if counters[0].get(k) != counters[1].get(k)
        ],
    )
    speedup = dispatch_speedup(workload, inst, done[1], untraced.artifact, ledger)

    tracer, wall, result = traces[0]
    stats = tracer.name_stats()
    layer_self = tracer.layer_self_s()

    def stat(name, key):
        return stats.get(name, {}).get(key, 0.0)

    runs = tracer.captured.get("descent.run", [])
    exits = [e for trace in runs for e in trace.metadata.get("inner_exits", [])]
    outer_steps = sum(trace.final.outer for trace in runs)
    periods = tracing.step_periods(tracer.spans, "surrogate.eval_gradient", "surrogate.estimate")

    def pct(values, p):
        return float(np.percentile(values, p) * 1e6) if values else 0.0

    estimates = stat("surrogate.estimate", "calls")
    factorizations = stat("metric.factorization", "calls")
    gates, amplitudes = tracer.work()
    metrics = {
        "descent.self_s": layer_self.get("descent", 0.0),
        "descent.outer_steps": outer_steps,
        "descent.inner_steps": sum(e["steps"] for e in exits),
        "descent.max_inner_exits": sum(e["reason"] == "max_inner" for e in exits),
        "descent.inner_step.p50_us": pct(periods, 50),
        "descent.inner_step.p99_us": pct(periods, 99),
        "descent.trace_csv_s": stat("descent.trace_csv", "s"),
        "descent.trace_csv_bytes": len(result.artifact) if workload.writes_trace else 0,
        "surrogate.eval_energy.calls": stat("surrogate.eval_energy", "calls"),
        "surrogate.eval_energy.p50_us": stat("surrogate.eval_energy", "p50_us"),
        "surrogate.eval_energy.p99_us": stat("surrogate.eval_energy", "p99_us"),
        "surrogate.eval_energy.self_s": stat("surrogate.eval_energy", "self_s"),
        "surrogate.eval_gradient.calls": stat("surrogate.eval_gradient", "calls"),
        "surrogate.eval_gradient.p50_us": stat("surrogate.eval_gradient", "p50_us"),
        "surrogate.eval_gradient.self_s": stat("surrogate.eval_gradient", "self_s"),
        "surrogate.estimate.s": stat("surrogate.estimate", "s"),
        "surrogate.estimate.self_s": stat("surrogate.estimate", "self_s"),
        "surrogate.oracle.s": stat("surrogate.oracle", "s"),
        "surrogate.oracle.pointwise_queries": tracer.children_of_kind("surrogate.oracle", "ansatz.energy"),
        "surrogate.oracle.cache_builds_per_estimate": (
            stat("surrogate.oracle.cache_build", "calls") / estimates if estimates else 0.0
        ),
        "surrogate.noise_draws": stat("surrogate.noise", "calls"),
        "surrogate.noise_s": stat("surrogate.noise", "s"),
        "surrogate.dispatch_speedup": speedup,
        "metric.qfi_exact.calls": stat("metric.qfi_exact", "calls"),
        "metric.qfi_exact.p50_us": stat("metric.qfi_exact", "p50_us"),
        "metric.qfi_exact.self_s": stat("metric.qfi_exact", "self_s"),
        "metric.direction.calls": stat("metric.direction", "calls"),
        "metric.direction.p50_us": stat("metric.direction", "p50_us"),
        "metric.direction.self_s": stat("metric.direction", "self_s"),
        "metric.factorizations": factorizations,
        "metric.factorizations_per_outer": factorizations / outer_steps if outer_steps else 0.0,
        "metric.psd_checks": stat("metric.psd_check", "calls"),
        "ansatz.energy.calls": stat("ansatz.energy", "calls"),
        "ansatz.energy.p50_us": stat("ansatz.energy", "p50_us"),
        "ansatz.energy.self_s": stat("ansatz.energy", "self_s"),
        "ansatz.energy_gradient.calls": stat("ansatz.energy_gradient", "calls"),
        "ansatz.energy_gradient.p50_us": stat("ansatz.energy_gradient", "p50_us"),
        "ansatz.energy_gradient.self_s": stat("ansatz.energy_gradient", "self_s"),
        "ansatz.gate_applications": gates,
        "ansatz.amplitude_updates": amplitudes,
        "simulator.tangent_sweep.calls": stat("simulator.tangent_sweep", "calls"),
        "simulator.tangent_sweep.p50_us": stat("simulator.tangent_sweep", "p50_us"),
        "simulator.tangent_sweep.self_s": stat("simulator.tangent_sweep", "self_s"),
        "simulator.ground_energy.s": stat("simulator.ground_energy", "s"),
        "cli.self_s": layer_self.get("cli", 0.0),
        "cli.sidecar_s": stat("cli.sidecar", "s"),
        "trace.overhead_s": wall - done[1],
    }
    report["trace"] = {
        "untraced_wall_s": done[1],
        "traced_wall_s": [w for _, w, _ in traces],
        "layer_self_s": layer_self,
        "self_sum_s": sum(layer_self.values()),
        "counters": counters[0],
        "spans": {name: s for name, s in sorted(stats.items())},
    }
    return {name: float(value) for name, value in metrics.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="run seed (recorded only)")
    parser.add_argument("--workload-seed", type=int, default=1, help="instance seed")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_package()
    except (PackageMissing, ImportError) as exc:
        print(f"error: cannot import analytic_descent: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    args.workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        if args.setup_probe:
            workload.build(args.workload_seed, args.workdir)
            return 0
        return report_run(args, workload)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)  # only succeeds once no concurrent run uses it
        except OSError:
            pass


def report_run(args, workload) -> int:
    ledger = Ledger()
    report = {
        "workload": workload.name,
        "workload_seed": args.workload_seed,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    measure_fn = per_layer if args.trace else end_to_end
    metrics = measure_fn(args, workload, ledger, report)
    if metrics is None:
        for failure in ledger.failures:
            print(f"failed: {failure}", file=sys.stderr)
        print("error: the workload did not complete; no result", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        unit = units[name][0] if args.trace else units[name]
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    for failure in ledger.failures:
        print(f"failed: {failure}", file=sys.stderr)
    report["failures"] = ledger.failures
    report["machine"] = machine.facts(ROOT, SRC)
    print(json.dumps({"report": report}, default=float))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units[name][0] if args.trace else units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
