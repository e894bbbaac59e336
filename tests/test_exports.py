"""The public surface: every name a module lists in ``__all__`` must exist."""

import importlib
import pkgutil

import pytest

import modulicones

MODULES = [modulicones] + [
    importlib.import_module(f"modulicones.{info.name}") for info in pkgutil.iter_modules(modulicones.__path__)
]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
