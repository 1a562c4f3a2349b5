"""The benchmark's workloads still run on the package, and its traced names exist.

``bench/workloads.py:boundaries()`` lists (owner, attribute, ...) for every
span a traced run records; a refactor that drops one of those names breaks
``bench/run.py --trace 1``.  A workload's build, run and result call the
package as the benchmark does (``estimate_coefficients`` with
``query_schedule(ν)``, ``max_workers`` and a noise key, the CLI's ``run``), so
a refactor that breaks one of those calls fails here too, and one that
changes how often a gated workload calls a traced package name (emptying or
moving its span) fails the pinned counts.  This reads the benchmark module
by path without changing it.
"""

import importlib.util
import inspect
import os
import sys

import pytest

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # boundaries() finds its own module through sys.modules[__name__].
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_names_an_existing_attribute(monkeypatch):
    entries = _load_workloads(monkeypatch).boundaries()
    assert entries
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in entries
        if not hasattr(owner, attr)
    ]
    assert missing == []


# Calls of every package-owned traced name during one timed operation at
# workload seed 1; names left out are not called.
CALLS = {
    "ring6-ad": {
        "CircuitOracle._build_cache": 12,
        "CircuitOracle.schedule_energies": 12,
        "MetricTensor.__post_init__": 12,
        "descent.energy": 13,
        "descent.estimate_coefficients": 12,
        "descent.eval_energy": 12,
        "descent.eval_gradient": 2_139,
        "descent.ground_energy": 1,
        "descent.query_schedule": 1,
        "descent.regularized_natural_direction": 2_139,
        "metric.cho_factor": 12,
        "surrogate._query_rng": 651,
    },
    "ring2-cli": {
        "CircuitOracle._build_cache": 9,
        "CircuitOracle.schedule_energies": 9,
        "MetricTensor.__post_init__": 2_079,
        "cli._write_sidecar": 1,
        "cli.run_analytic_descent": 1,
        "cli.write_trace_csv": 1,
        "descent.energy": 10,
        "descent.estimate_coefficients": 9,
        "descent.eval_energy": 697,
        "descent.eval_gradient": 2_079,
        "descent.ground_energy": 1,
        "descent.qfi_exact": 1_382,
        "descent.query_schedule": 1,
        "descent.regularized_natural_direction": 2_079,
        "metric._state_and_tangents": 2_070,
        "metric.cho_factor": 2_079,
        "surrogate._query_rng": 25,
    },
    "ring6-ng": {
        "MetricTensor.__post_init__": 993,
        "descent.ground_energy": 1,
        "descent.regularized_natural_direction": 992,
        "metric._state_and_tangents": 993,
        "metric.cho_factor": 992,
    },
}


def _count_package_calls(patch, entries):
    """Wrap each traced name a package module or class owns with a counter."""
    counts = {}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    for owner, attr, *_ in entries:
        if inspect.getmodule(owner).__name__.startswith("analytic_descent."):
            key = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            counts[key] = 0
            patch.setattr(owner, attr, counted(key, getattr(owner, attr)))
    return counts


@pytest.mark.parametrize(
    "name, cost_units, raw_queries",
    [
        ("ring6-ad", 24, 42_852),
        ("ring2-cli", 18, 1_233),
        ("ring6-ng", 992, 83_328),
        ("ring10-estimate", 2, 9_871),
    ],
)
def test_a_workload_builds_runs_and_checks_its_result(
    monkeypatch, tmp_path, name, cost_units, raw_queries
):
    """One untimed operation per workload at workload seed 1, with the paper's
    cost units and raw-query count the benchmark reports for it, and on the
    gated workloads the traced calls a ``--trace 1`` run counts."""
    module = _load_workloads(monkeypatch)
    workload = module.WORKLOADS[name]
    inst = workload.build(1, str(tmp_path))
    with pytest.MonkeyPatch.context() as patch:
        counts = _count_package_calls(patch, module.boundaries())
        output = workload.run(inst)
    result = workload.result(inst, output)
    assert result.failures == []
    assert (result.cost_units, result.raw_queries) == (cost_units, raw_queries)
    if name in CALLS:
        assert {key: n for key, n in counts.items() if n} == CALLS[name]
