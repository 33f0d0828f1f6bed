"""Common decision record returned by every hypothesis test in the package."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
