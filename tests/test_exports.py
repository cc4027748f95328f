"""Every name a lidom module exports in __all__ resolves, so a stale export
fails here rather than only on `from lidom.x import *`."""
import importlib
import pkgutil

import pytest

import lidom

MODULES = [m.name for m in pkgutil.iter_modules(lidom.__path__, "lidom.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
