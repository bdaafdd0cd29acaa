"""The package's public names: every name a module lists in ``__all__``
and every name ``baresim/__init__.py`` imports must exist."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import baresim

MODULES = sorted(m.name for m in pkgutil.iter_modules(baresim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"baresim.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"baresim.{name}.__all__ lists missing names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(baresim.__file__).read_text())
    imported = [alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    missing = [n for n in imported if not hasattr(baresim, n)]
    assert not missing, f"baresim imports missing names {missing}"
