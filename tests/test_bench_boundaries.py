"""The benchmark's workloads still run on the package, and its traced names exist.

``bench/workloads.py:boundaries()`` lists (owner, attribute, ...) for every
span a traced run records; a refactor that drops one of those names breaks
``bench/run.py --trace 1``.  A workload's build, run and result call the
package as the benchmark does (``estimate_coefficients`` with
``query_schedule(ν)``, ``max_workers`` and a noise key, the CLI's ``run``), so
a refactor that breaks one of those calls fails here too.  This reads the
benchmark module by path without changing it.
"""

import importlib.util
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


@pytest.mark.parametrize(
    "name, cost_units, raw_queries",
    [("ring6-ad", 24, 42_852), ("ring2-cli", 18, 1_233), ("ring10-estimate", 2, 9_871)],
)
def test_a_workload_builds_runs_and_checks_its_result(
    monkeypatch, tmp_path, name, cost_units, raw_queries
):
    """One untimed operation per workload at workload seed 1, with the paper's
    cost units and raw-query count the benchmark reports for it."""
    workload = _load_workloads(monkeypatch).WORKLOADS[name]
    inst = workload.build(1, str(tmp_path))
    result = workload.result(inst, workload.run(inst))
    assert result.failures == []
    assert (result.cost_units, result.raw_queries) == (cost_units, raw_queries)
