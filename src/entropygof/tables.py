"""Bundled study presets a1-a6 and their published reference power values.

Each preset reproduces one reference table at configurable trial counts:

* a1: entropy test, normal null, mean-shift alternatives
* a2: entropy test, normal null, scale alternatives
* a3: entropy test, non-normal alternatives
* a4: KS test, the same non-normal alternatives
* a5: entropy test on regression residual ratios, error-process alternatives
* a6: KS test with calibrated criticals on standardized residuals

Reference values carry the original 100,000-trial study's rounding; at desk
scale (10,000 trials) agreement is statistical, within a few Monte Carlo
standard errors.  Two systematic exceptions are known: the a4 statistic
convention (see the criterion-5 paragraph of README.md) and the a6 size
column at small n, which the acceptance suite checks only at n = 500.
"""

from __future__ import annotations

import math

from .harness import DEFAULT_SEED, TEST_KINDS, PowerStudyConfig
from .regression import DEFAULT_MODEL
from .sampling import (
    ARProcess,
    Cauchy,
    CenteredLogNormal,
    Exponential,
    MAProcess,
    Normal,
    StudentT,
    Uniform,
)

__all__ = ["TABLE_NAMES", "table_config", "reference_value"]

_NS = (25, 50, 100, 250, 500, 1000)
_NS_REG = (50, 100, 250, 500, 1000)
_SQRT3 = math.sqrt(3.0)
_TWO_OVER_PI = 2.0 / math.pi

_NON_NORMAL = (
    ("UniformC", Uniform(-_SQRT3, _SQRT3)),
    ("UniformNC", Uniform(0.5 - _SQRT3, 0.5 + _SQRT3)),
    ("ExpoC", Exponential(1.0, -1.0)),
    ("ExpoNC", Exponential(1.0, 0.0)),
    ("Cauchy(0;1)", Cauchy(0.0, 1.0)),
    ("Cauchy(0;2/pi)", Cauchy(0.0, _TWO_OVER_PI)),
    ("T(2)", StudentT(2, 1.0)),
    ("T(3)", StudentT(3, 1.0)),
)

_REG_INNOV = DEFAULT_MODEL.error_process
_REG_ALTS = (
    ("Size", _REG_INNOV),
    ("CLogN", CenteredLogNormal(0.94062)),
    ("Cauchy(0;2/pi)", Cauchy(0.0, _TWO_OVER_PI)),
    ("MA(2)", MAProcess((0.5, 0.25), _REG_INNOV)),
    ("AR(0.5)", ARProcess((0.5,), _REG_INNOV)),
    ("AR(1)", ARProcess((1.0,), _REG_INNOV)),
    ("AR(0.5;0.25;0.125)", ARProcess((0.5, 0.25, 0.125), _REG_INNOV)),
)

# name -> (test kind, (row label, alternative) pairs, sample sizes); a
# regression kind's null is DEFAULT_MODEL
_PRESETS = {
    "a1": ("et-simple", tuple((f"u={u:g}", Normal(u, 1.0)) for u in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)), _NS),
    "a2": ("et-simple", tuple((f"sigma={s:g}", Normal(0.0, s)) for s in (1.0, 1.05, 1.1, 1.15, 1.2, 1.5, 2.0)), _NS),
    "a3": ("et-simple", _NON_NORMAL, _NS),
    "a4": ("ks-simple", _NON_NORMAL, _NS),
    "a5": ("et-regression", _REG_ALTS, _NS_REG),
    "a6": ("ks-regression", _REG_ALTS, _NS_REG),
}
TABLE_NAMES = tuple(_PRESETS)

# Published rejection rates, row label -> {n: power}.
_REFERENCE: dict[str, dict[str, dict[int, float]]] = {
    "a1": {
        "u=0": {25: 0.088, 50: 0.069, 100: 0.059, 250: 0.053, 500: 0.052, 1000: 0.051},
        "u=0.2": {25: 0.081, 50: 0.064, 100: 0.059, 250: 0.067, 500: 0.088, 1000: 0.134},
        "u=0.4": {25: 0.086, 50: 0.103, 100: 0.167, 250: 0.359, 500: 0.634, 1000: 0.906},
        "u=0.6": {25: 0.176, 50: 0.315, 100: 0.571, 250: 0.929, 500: 0.998, 1000: 1.000},
        "u=0.8": {25: 0.408, 50: 0.703, 100: 0.943, 250: 1.000, 500: 1.000, 1000: 1.000},
        "u=1": {25: 0.715, 50: 0.951, 100: 0.999, 250: 1.000, 500: 1.000, 1000: 1.000},
    },
    "a2": {
        "sigma=1": {25: 0.088, 50: 0.069, 100: 0.059, 250: 0.053, 500: 0.052, 1000: 0.051},
        "sigma=1.05": {25: 0.079, 50: 0.076, 100: 0.094, 250: 0.177, 500: 0.315, 1000: 0.561},
        "sigma=1.1": {25: 0.099, 50: 0.135, 100: 0.238, 250: 0.527, 500: 0.827, 1000: 0.985},
        "sigma=1.15": {25: 0.143, 50: 0.246, 100: 0.453, 250: 0.844, 500: 0.988, 1000: 1.000},
        "sigma=1.2": {25: 0.211, 50: 0.386, 100: 0.674, 250: 0.971, 500: 1.000, 1000: 1.000},
        "sigma=1.5": {25: 0.718, 50: 0.952, 100: 0.999, 250: 1.000, 500: 1.000, 1000: 1.000},
        "sigma=2": {25: 0.984, 50: 1.000, 100: 1.000, 250: 1.000, 500: 1.000, 1000: 1.000},
    },
    "a3": {
        "UniformC": {25: 0.069, 50: 0.074, 100: 0.092, 250: 0.160, 500: 0.277, 1000: 0.497},
        "UniformNC": {25: 0.185, 50: 0.328, 100: 0.585, 250: 0.933, 500: 0.998, 1000: 1.000},
        "ExpoC": {25: 0.244, 50: 0.207, 100: 0.249, 250: 0.430, 500: 0.687, 1000: 0.927},
        "ExpoNC": {25: 0.235, 50: 0.430, 100: 0.739, 250: 0.986, 500: 1.000, 1000: 1.000},
        "Cauchy(0;1)": {25: 0.891, 50: 0.995, 100: 1.000, 250: 1.000, 500: 1.000, 1000: 1.000},
        "Cauchy(0;2/pi)": {25: 0.408, 50: 0.698, 100: 0.943, 250: 1.000, 500: 1.000, 1000: 1.000},
        "T(2)": {25: 0.520, 50: 0.827, 100: 0.985, 250: 1.000, 500: 1.000, 1000: 1.000},
        "T(3)": {25: 0.310, 50: 0.567, 100: 0.865, 250: 0.998, 500: 1.000, 1000: 1.000},
    },
    "a4": {
        "UniformC": {25: 0.077, 50: 0.104, 100: 0.202, 250: 0.553, 500: 0.916, 1000: 1.000},
        "UniformNC": {25: 0.358, 50: 0.711, 100: 0.973, 250: 1.000, 500: 1.000, 1000: 1.000},
        "ExpoC": {25: 0.238, 50: 0.415, 100: 1.000, 250: 1.000, 500: 1.000, 1000: 1.000},
        "ExpoNC": {25: 1.000, 50: 1.000, 100: 1.000, 250: 1.000, 500: 1.000, 1000: 1.000},
        "Cauchy(0;1)": {25: 0.172, 50: 0.357, 100: 0.813, 250: 1.000, 500: 1.000, 1000: 1.000},
        "Cauchy(0;2/pi)": {25: 0.044, 50: 0.058, 100: 0.138, 250: 0.674, 500: 0.998, 1000: 1.000},
        "T(2)": {25: 0.066, 50: 0.089, 100: 0.188, 250: 0.681, 500: 0.993, 1000: 1.000},
        "T(3)": {25: 0.048, 50: 0.054, 100: 0.085, 250: 0.242, 500: 0.660, 1000: 0.994},
    },
    "a5": {
        "Size": {50: 0.063, 100: 0.057, 250: 0.052, 500: 0.052, 1000: 0.051},
        "CLogN": {50: 0.156, 100: 0.285, 250: 0.633, 500: 0.914, 1000: 0.997},
        "Cauchy(0;2/pi)": {50: 0.213, 100: 0.268, 250: 0.387, 500: 0.472, 1000: 0.597},
        "MA(2)": {50: 0.300, 100: 0.512, 250: 0.891, 500: 0.996, 1000: 1.000},
        "AR(0.5)": {50: 0.308, 100: 0.550, 250: 0.919, 500: 0.998, 1000: 1.000},
        "AR(1)": {50: 0.962, 100: 1.000, 250: 1.000, 500: 1.000, 1000: 1.000},
        "AR(0.5;0.25;0.125)": {50: 0.586, 100: 0.899, 250: 1.000, 500: 1.000, 1000: 1.000},
    },
    "a6": {
        "Size": {50: 0.029, 100: 0.037, 250: 0.042, 500: 0.047, 1000: 0.052},
        "CLogN": {50: 0.986, 100: 1.000, 250: 1.000, 500: 1.000, 1000: 1.000},
        "Cauchy(0;2/pi)": {50: 0.984, 100: 1.000, 250: 1.000, 500: 1.000, 1000: 1.000},
        "MA(2)": {50: 0.034, 100: 0.043, 250: 0.052, 500: 0.059, 1000: 0.064},
        "AR(0.5)": {50: 0.036, 100: 0.046, 250: 0.057, 500: 0.061, 1000: 0.067},
        "AR(1)": {50: 0.333, 100: 0.641, 250: 0.887, 500: 0.969, 1000: 0.993},
        "AR(0.5;0.25;0.125)": {50: 0.078, 100: 0.150, 250: 0.255, 500: 0.304, 1000: 0.334},
    },
}


def table_config(
    name: str,
    trials: int = PowerStudyConfig.trials,
    master_seed: int = DEFAULT_SEED,
    lilliefors_trials: int = PowerStudyConfig.lilliefors_trials,
) -> PowerStudyConfig:
    """PowerStudyConfig reproducing the named reference table."""
    if name.lower() not in _PRESETS:
        raise ValueError(f"unknown table {name!r}; expected one of {', '.join(TABLE_NAMES)}")
    test, labelled, sample_sizes = _PRESETS[name.lower()]
    labels, alts = zip(*labelled)
    return PowerStudyConfig(
        test=test, alternatives=alts, sample_sizes=sample_sizes, trials=trials, master_seed=master_seed,
        null_spec=DEFAULT_MODEL if TEST_KINDS[test].regression else PowerStudyConfig.null_spec,
        labels=labels, lilliefors_trials=lilliefors_trials,
    )


def reference_value(name: str, label: str, n: int) -> float:
    """Published power for one cell of a named table."""
    return _REFERENCE[name.lower()][label][n]
