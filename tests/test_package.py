import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_process_pool_out():
    """Importing the package does not load the process pool, whose
    multiprocessing, socket and subprocess imports only a run with workers > 1
    needs."""
    src = str(Path(entropygof.__file__).resolve().parents[1])
    code = "import sys, entropygof; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
