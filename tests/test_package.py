"""The package namespace: public names resolve lazily to their submodules' objects and have callers."""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import pkgutil
import sys
import typing
from pathlib import Path

import pytest

import orbheat

from test_cli import run_python


@pytest.mark.parametrize("name", orbheat.__all__)
def test_public_name_is_its_submodules_object(name):
    module = importlib.import_module(f"orbheat.{orbheat._ORIGIN[name]}")
    assert getattr(orbheat, name) is getattr(module, name)


def _names_read(source):
    """Every name, attribute and imported name that the Python source reads.

    A string that is a name counts (a getattr table), and so does one that
    is Python code (run in a child process).
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
            else:
                with contextlib.suppress(SyntaxError, ValueError):
                    names |= _names_read(node.value)
    return names


def test_every_public_name_has_a_caller():
    # A caller is another orbheat module, a benchmark or tool script, or the
    # acceptance tests; the unit tests of a name alone do not keep it public.
    root = Path(__file__).resolve().parents[1]
    paths = [p for p in Path(orbheat.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    paths += [*root.glob("bench/*.py"), *root.glob("tools/*.py"), root / "tests/test_acceptance.py"]
    read = set().union(*(_names_read(path.read_text()) for path in paths))
    assert sorted(set(orbheat.__all__) - read) == []


def test_all_names_are_unique_and_listed_by_dir():
    assert len(set(orbheat.__all__)) == len(orbheat.__all__)
    assert set(orbheat.__all__) <= set(dir(orbheat))
    assert "__version__" in dir(orbheat)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from orbheat import *", namespace)
    assert set(orbheat.__all__) <= set(namespace)
    assert namespace["OrbifoldSignature"] is orbheat.signature.OrbifoldSignature


def test_submodules_resolve_as_attributes():
    for module in ("classify", "flat", "heat", "notation", "signature", "tables"):
        assert getattr(orbheat, module) is importlib.import_module(f"orbheat.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        orbheat.no_such_name
    assert not hasattr(orbheat, "cli_main")


def test_package_import_loads_no_submodule():
    code = "import sys, orbheat; print(*sorted(m for m in sys.modules if m.startswith('orbheat')))"
    result = run_python("-c", code)
    assert (result.returncode, result.stdout) == (0, "orbheat\n")



def test_package_imports_only_the_standard_library():
    # Every import in src/orbheat names a standard-library module or orbheat itself.
    allowed = sys.stdlib_module_names | {"orbheat"}
    outside = []
    for path in sorted(Path(orbheat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert outside == []


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(orbheat.__path__)])
def test_every_public_annotation_resolves(name):
    # An annotation naming what its module never imports fails only here:
    # with postponed evaluation, defining and calling the function both work.
    module = importlib.import_module(f"orbheat.{name}")
    functions = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            functions.append(obj)
        elif inspect.isclass(obj):
            functions += [
                f for a, f in vars(obj).items()
                if inspect.isfunction(f) and (a == "__init__" or not a.startswith("_"))
            ]
    for function in functions:
        typing.get_type_hints(function)
