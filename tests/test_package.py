"""The package's public surface."""

import types

import analytic_descent


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
