"""Common decision record returned by every hypothesis test in the package."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import chi2_1_critical, chi2_1_sf


@dataclass(frozen=True)
class TestResult:
    """Outcome of a single test: statistic vs critical value at level alpha.

    p_value is None where no analytic reference distribution applies
    (e.g. Monte Carlo calibrated critical values).
    """

    statistic: float
    critical: float
    p_value: float | None
    reject: bool
    method: str = ""

    def report_lines(self) -> list[str]:
        lines = [
            f"method: {self.method}" if self.method else "method: unknown",
            f"statistic: {self.statistic:.6g}",
            f"critical: {self.critical:.6g}",
            f"p_value: {'n/a' if self.p_value is None else format(self.p_value, '.6g')}",
            f"decision: {'reject' if self.reject else 'do not reject'}",
        ]
        return lines


def check_dataset(name: str, data) -> np.ndarray:
    """data as a float64 vector: a single-dataset test takes one dataset,
    and a scalar or a (B, n) block raises a ValueError naming its shape."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"{name} must be one dataset, a vector, got shape {x.shape}")
    return x


def chi2_1_decision(statistic: float, alpha: float, method: str) -> TestResult:
    """Refer an entropy statistic to chi-square(1) at level alpha.

    An infinite statistic (an infeasible constraint) rejects with p-value 0.
    """
    critical = chi2_1_critical(alpha)
    return TestResult(
        statistic=statistic,
        critical=critical,
        p_value=0.0 if math.isinf(statistic) else chi2_1_sf(statistic),
        reject=bool(statistic > critical),
        method=method,
    )


def ks_decision(statistic: float, critical: float, p_value: float | None, method: str) -> TestResult:
    """Refer a KS distance to a supplied critical value, which must be
    positive: the test rejects when the distance exceeds it."""
    if not critical > 0.0:
        raise ValueError("critical must be positive")
    return TestResult(statistic, critical, p_value, bool(statistic > critical), method)
