"""The examples in the package's docstrings run, and agree with the code."""

import doctest
import importlib
import pkgutil

import pytest

import prational

# __main__ runs the CLI when imported, and holds no docstring examples
MODULES = sorted(m.name for m in pkgutil.iter_modules(prational.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    results = doctest.testmod(importlib.import_module(f"prational.{name}"))
    assert results.failed == 0
    if name == "polyarith":
        assert results.attempted >= 1
