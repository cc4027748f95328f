"""Every name a lidom module exports in __all__ resolves, so a stale export
fails here rather than only on `from lidom.x import *`; and every function
and method the benchmark's tracer patches by name still exists, with the
leading arguments the tracer reads."""
import importlib
import inspect
import pkgutil

import pytest

import lidom
from conftest import load_perfbench

MODULES = [m.name for m in pkgutil.iter_modules(lidom.__path__, "lidom.")]
SPANS = load_perfbench("spans")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def _positional(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD]


@pytest.mark.parametrize("owner, name, attrs_of",
                         [(o, f, a) for o, f, _, a in SPANS.TRACED_FUNCTIONS])
def test_traced_functions_resolve(owner, name, attrs_of):
    fn = getattr(importlib.import_module(owner), name)
    assert callable(fn)
    if attrs_of is not None:  # the tracer reads these leading arguments
        wanted = _positional(attrs_of)
        assert _positional(fn)[:len(wanted)] == wanted


@pytest.mark.parametrize("owner, cls, meth",
                         [(o, c, m) for o, c, m, _ in SPANS.TRACED_METHODS])
def test_traced_methods_resolve(owner, cls, meth):
    klass = getattr(importlib.import_module(owner), cls)
    assert callable(klass.__dict__[meth])
