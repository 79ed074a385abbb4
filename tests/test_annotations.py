"""Every annotation in the package resolves, so typing.get_type_hints and
tools built on it work on any function or class; and every module uses
each name it imports."""

import ast
import importlib
import inspect
import pkgutil
import typing

import pytest

import hdmas

MODULES = sorted(m.name for m in pkgutil.iter_modules(hdmas.__path__))


def _annotated(module):
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(f"hdmas.{name}")
    checked = 0
    for obj in _annotated(module):
        typing.get_type_hints(obj)
        checked += 1
    assert checked > 0


def _imported(tree):
    """Names bound by the module's imports, with the line of each."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    module = importlib.import_module(f"hdmas.{name}")
    tree = ast.parse(inspect.getsource(module))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{line}: {bound}" for bound, line in _imported(tree)
              if bound not in used]
    assert not unused, f"unused imports in hdmas.{name}: {unused}"
