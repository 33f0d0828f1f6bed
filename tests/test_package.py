import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entropygof
from entropygof.kstest import ks_critical_simple, ks_statistic, run_ks_test
from entropygof.moments import build_standard_normal_constraint, run_et_test
from entropygof.numerics import normal_cdf
from entropygof.regression import DEFAULT_MODEL, run_regression_et, run_regression_ks, simulate_model
from entropygof.sampling import Normal, SeedSpec, sample

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


def _simple_block() -> np.ndarray:
    return sample(Normal(0.0, 1.0), 25, SeedSpec(1, 0), 3)


def _regression_block() -> tuple[np.ndarray, np.ndarray]:
    return simulate_model(DEFAULT_MODEL, 50, SeedSpec(1, 0), trials=3)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: run_et_test(_simple_block(), build_standard_normal_constraint()), r"\(3, 25\)", id="et"),
        pytest.param(lambda: run_ks_test(_simple_block(), normal_cdf, 0.2), r"\(3, 25\)", id="ks"),
        pytest.param(lambda: run_regression_et(*_regression_block()), r"\(3, 50\)", id="et-regression"),
        pytest.param(lambda: run_regression_ks(*_regression_block(), 0.2), r"\(3, 50\)", id="ks-regression"),
        pytest.param(lambda: ks_statistic(0.3, normal_cdf), r"got shape \(\)", id="ks_statistic-scalar"),
        pytest.param(lambda: ks_critical_simple(2.5, 0.05), "n must be an integer", id="critical-float-n"),
        pytest.param(lambda: ks_critical_simple(True, 0.05), "n must be an integer", id="critical-bool-n"),
    ],
)
def test_single_dataset_inputs_checked(call, match):
    """The single-dataset tests take one dataset: a (B, n) block raises a
    ValueError naming its shape, as does ks_statistic on a scalar, in place
    of numpy's TypeError or AxisError; ks_critical_simple takes an integer n."""
    with pytest.raises(ValueError, match=match):
        call()
