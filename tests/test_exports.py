"""The public surface: every name a module lists in ``__all__`` must exist, and
the package lists every name it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import modulicones

MODULES = [modulicones] + [
    importlib.import_module(f"modulicones.{info.name}") for info in pkgutil.iter_modules(modulicones.__path__)
]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing


def test_package_lists_every_name_it_imports():
    tree = ast.parse(Path(modulicones.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(imported - set(modulicones.__all__)) == []
