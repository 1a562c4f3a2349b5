"""The package names the benchmark's traced runs wrap still exist.

``bench/workloads.py:boundaries()`` lists (owner, attribute, ...) for every
span a traced run records; a refactor that drops one of those names breaks
``bench/run.py --trace 1``.  This reads the benchmark module by path without
changing it and checks each name here instead.
"""

import importlib.util
import os
import sys

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


def test_every_traced_boundary_names_an_existing_attribute(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # boundaries() finds its own module through sys.modules[__name__].
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    entries = module.boundaries()
    assert entries
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in entries
        if not hasattr(owner, attr)
    ]
    assert missing == []
