"""Every annotation in the package resolves, so typing.get_type_hints and
tools built on it work on any function or class."""

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
