"""The package's public surface."""

import ast
import pathlib
import re
import types

import analytic_descent
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
