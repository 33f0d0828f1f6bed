import importlib
import pkgutil

import pytest

import entropygof

_MODULES = sorted(info.name for info in pkgutil.iter_modules(entropygof.__path__))


@pytest.mark.parametrize("module", ["", *_MODULES])
def test_all_names_resolve(module):
    """Every name a module exports in __all__ is defined there, so a deleted
    function cannot leave a stale export behind."""
    mod = importlib.import_module(f"entropygof.{module}" if module else "entropygof")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
