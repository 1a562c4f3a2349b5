"""The package's public surface."""

import ast
import pathlib
import re
import types

import numpy as np
import pytest

import analytic_descent
from analytic_descent import (
    CircuitOracle,
    NoiseSpec,
    OptimizerConfig,
    build_hardware_efficient,
    estimate_coefficients,
    model_from_json,
    model_to_json,
    prepare_state,
    qfi_exact,
    query_schedule,
    run_natural_gradient,
    spin_ring_hamiltonian,
)
from analytic_descent.cli import load_experiment_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "analytic_descent"
README = (ROOT / "README.md").read_text()


def _read_names(path) -> set:
    """The names a module's code reads: every Name, attribute and name
    imported with ``from … import``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _readme_block(language) -> str:
    blocks = re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)
    assert len(blocks) == 1, f"README.md holds {len(blocks)} {language} blocks"
    return blocks[0]


def test_all_lists_exactly_the_public_names_the_package_binds():
    """A name dropped from the imports in ``__init__`` must leave ``__all__``
    too, and the other way round; submodules are not part of the list."""
    bound = {
        name
        for name, value in vars(analytic_descent).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(analytic_descent.__all__) == len(set(analytic_descent.__all__))
    assert set(analytic_descent.__all__) == bound


def test_every_public_name_has_a_caller():
    """No test-only names in the public API: each exported name is read by
    another module of the package, named in README.md, or imported by the
    acceptance tests."""
    used = set().union(
        *(_read_names(path) for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    )
    acceptance = {
        alias.name
        for node in ast.walk(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = [
        name
        for name in analytic_descent.__all__
        if name not in used
        and name not in acceptance
        and not re.search(rf"\b{name}\b", README)
    ]
    assert unused == []


def test_readme_config_loads_as_described(tmp_path):
    path = tmp_path / "experiment.ini"
    path.write_text(_readme_block("ini"))
    config = load_experiment_config(path)
    assert config.spin_ring_n == 6
    assert config.seeds == (1, 2, 3, 4, 5)
    assert config.optimizer.frozen_metric is True
    assert config.preset == "spin-ring"


def test_readme_quick_start_imports_only_public_names():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(_readme_block("python")))
        if isinstance(node, ast.ImportFrom) and node.module == "analytic_descent"
        for alias in node.names
    }
    assert imported
    assert imported <= set(analytic_descent.__all__)


# Process-wide memos that hold no 2^N array: a schedule per ν, the sampler's
# constant tables and the identity matrix per size.
_PROCESS_WIDE_CACHES = {
    "surrogate._canonical_schedule", "surrogate._ziggurat_tables", "metric._identity",
}


def test_no_process_wide_cache_outside_the_named_few():
    """A ``functools.cache`` or ``lru_cache`` keeps what it returns for the
    life of the process.  A state-sized table belongs to the value it
    serves (a circuit's gate table, a sum's flip patterns), so exactly the
    named memos use one; the list is kept exact so the search is seen to
    find them."""
    cached = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = getattr(target, "id", getattr(target, "attr", None))
                if name in ("cache", "lru_cache"):
                    cached.add(f"{path.stem}.{node.name}")
    assert cached == _PROCESS_WIDE_CACHES


def test_the_qubit_cap_is_bound_only_in_pauli():
    """``MAX_QUBITS`` is bound once, in ``pauli``, and read from there when a
    register's arrays are built; a module that imported or assigned its own
    copy would keep checking the old value when the cap changes."""
    binders = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                bound = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound = {node.id}
            else:
                continue
            if "MAX_QUBITS" in bound:
                binders.add(path.stem)
    assert binders == {"pauli"}


def test_only_pauli_builds_pauli_words():
    """A word's layout, letter q on qubit q and I on the rest, is spelled
    out once, in ``pauli``: every other module takes its words from there
    (the builders through ``pauli._word``) and calls no ``PauliString(…)``."""
    builders = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "PauliString":
                    builders.add(path.stem)
    assert builders == {"pauli"}


def _equal_pairs():
    """Two distinct instances with equal contents for each array-holding
    value type."""
    circuit = build_hardware_efficient(2, 1)
    h = spin_ring_hamiltonian(2, 0.5)
    zeros = np.zeros(circuit.num_parameters)
    model = estimate_coefficients(
        CircuitOracle(circuit, h), query_schedule(circuit.num_parameters)
    )
    config = OptimizerConfig(step_size=0.01, max_outer=2)
    return {
        "AnsatzCircuit": (circuit, circuit.rebased(zeros)),
        "SurrogateModel": (model, model_from_json(model_to_json(model))),
        "MetricTensor": (qfi_exact(circuit, zeros), qfi_exact(circuit, zeros)),
        "StateVector": (prepare_state(circuit, zeros), prepare_state(circuit, zeros)),
        "OptimizationTrace": tuple(
            run_natural_gradient(circuit, h, config, NoiseSpec()) for _ in range(2)
        ),
    }


@pytest.mark.parametrize(
    "kind",
    ["AnsatzCircuit", "SurrogateModel", "MetricTensor", "StateVector", "OptimizationTrace"],
)
def test_array_holding_values_compare_and_hash_by_identity(kind):
    """Field-wise equality would compare arrays, whose truth value is
    ambiguous, and hashing would hash them; these values compare and hash
    as themselves."""
    first, second = _equal_pairs()[kind]
    assert type(first).__name__ == kind and type(second) is type(first)
    assert first == first and not first != first
    assert first != second
    assert hash(first) == hash(first)
    assert len({first, second}) == 2
