"""The public API resolves: every exported name exists, the package root
re-exports only exported names, and retired names stay gone.  Every file
the package writes goes through ``_fileio.atomic_write``, and only
``_fileio`` speaks JSON."""

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
           "gershgorin_basic", "gershgorin_scaled", "stagnation_factor", "_from_arrays",
           "_check_numbers", "NormalizationParams", "minimax_fit", "minimax_apply",
           "_feature_matrix", "_read_json_lines")


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


# os.open flags that let the descriptor write or make a file
OS_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def _opens_for_writing(tree):
    """Line of each call in ``tree`` of ``open``, an ``.open`` method or
    ``os.open`` that may write: a mode holding w, a, x or +, a mode that
    is no string literal, or ``os.open`` flags other than read-only ones."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name != "open":
            continue
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
            flags = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node.args[1])}
            if flags & OS_WRITE_FLAGS or not flags & {"O_RDONLY"}:
                yield node.lineno
            continue
        position = 1 if isinstance(func, ast.Name) else 0  # open(file, mode), Path.open(mode)
        modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[position:position + 1]
        mode = modes[0] if modes else ast.Constant("r")
        if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
            yield node.lineno


def test_only_fileio_opens_a_file_for_writing():
    root = Path(mpcg.__file__).parent
    writers = {}
    for path in sorted(root.glob("*.py")):
        lines = list(_opens_for_writing(ast.parse(path.read_text())))
        if lines:
            writers[path.name] = lines
    assert set(writers) == {"_fileio.py"}, writers


def test_only_fileio_imports_json():
    root = Path(mpcg.__file__).parent
    importers = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "json" for name in names):
                importers.add(path.name)
    assert importers == {"_fileio.py"}, importers
