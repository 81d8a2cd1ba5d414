"""The package: each public name has one import path, its defining module, and a caller."""

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

SRC = Path(orbheat.__file__).parent
MODULES = [m.name for m in pkgutil.iter_modules(orbheat.__path__)]


def _defined(source):
    """The top-level non-underscore names a module's def, class and assignment statements bind."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _defined_by():
    """Public name -> the orbheat modules that define it, read from the source."""
    modules = {}
    for path in sorted(SRC.glob("*.py")):
        for name in _defined(path.read_text()):
            modules.setdefault(name, []).append(path.stem)
    return modules


DEFINED_BY = _defined_by()


@pytest.mark.parametrize("name", sorted(DEFINED_BY))
def test_public_name_is_its_submodules_object(name):
    # One module defines the name; any other that binds it imported that object.
    [home] = DEFINED_BY[name]
    value = getattr(importlib.import_module(f"orbheat.{home}"), name)
    for module in MODULES:
        binding = getattr(importlib.import_module(f"orbheat.{module}"), name, value)
        assert binding is value, module


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
    # A caller is an orbheat module, a benchmark or tool script, or the
    # acceptance tests; the unit tests of a name alone do not keep it public.
    root = SRC.parents[1]
    paths = [*SRC.glob("*.py"), *root.glob("bench/*.py"), *root.glob("tools/*.py")]
    paths.append(root / "tests/test_acceptance.py")
    read = set().union(*(_names_read(path.read_text()) for path in paths))
    assert sorted(set(DEFINED_BY) - read) == []


def test_submodules_resolve_as_attributes():
    # The forms bench, tools and tests use: a from-import of a submodule.
    code = "from orbheat import _lstsq, cli, tables; print(tables.__name__, cli.__name__, _lstsq.__name__)"
    result = run_python("-c", code)
    assert (result.returncode, result.stdout) == (
        0,
        "orbheat.tables orbheat.cli orbheat._lstsq\n",
    ), result.stderr
    for module in MODULES:
        assert importlib.import_module(f"orbheat.{module}") is getattr(orbheat, module)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        orbheat.no_such_name
    assert not hasattr(orbheat, "cli_main")
    # A name defined by a submodule is not bound by the package as well.
    assert [name for name in DEFINED_BY if hasattr(orbheat, name)] == []


def test_package_import_loads_no_submodule():
    code = "import sys, orbheat; print(*sorted(m for m in sys.modules if m.startswith('orbheat')))"
    result = run_python("-c", code)
    assert (result.returncode, result.stdout) == (0, "orbheat\n")


def test_package_imports_only_the_standard_library():
    # Every import in src/orbheat names a standard-library module or orbheat itself.
    allowed = sys.stdlib_module_names | {"orbheat"}
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert outside == []


def test_every_imported_name_is_read():
    # An import that its module never reads is an alias kept for other
    # importers; each name has one import path, so there is none.
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unread.append(f"{path.stem}.{bound}")
    assert unread == []


@pytest.mark.parametrize("name", MODULES)
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
