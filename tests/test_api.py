"""The public API resolves: every exported name exists, the package root
re-exports only exported names, and retired names stay gone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mpcg

LAYERS = ("sparse", "solver", "features", "dataset", "regression")

# Public names the program no longer has; a test that needs one keeps its
# own copy (iteration_bound lives in oracles.py).
RETIRED = ("pcg_jacobi", "iteration_bound", "grid_cost", "value_of_class", "read_manifest",
           "gershgorin_basic", "gershgorin_scaled", "stagnation_factor", "_from_arrays")


def _package_modules():
    yield mpcg
    for info in pkgutil.iter_modules(mpcg.__path__):
        yield importlib.import_module(f"mpcg.{info.name}")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_exists(layer):
    module = importlib.import_module(f"mpcg.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"mpcg.{layer}.__all__ names {missing}"


def test_package_root_imports_only_exported_names():
    tree = ast.parse(Path(mpcg.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(LAYERS)
    for node in imports:
        exported = importlib.import_module(f"mpcg.{node.module}").__all__
        for alias in node.names:
            assert alias.name in exported, f"{alias.name} is not in mpcg.{node.module}.__all__"


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_is_gone(name):
    for module in _package_modules():
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("mpcg"):
                assert not hasattr(value, name), f"{value.__qualname__}.{name}"
