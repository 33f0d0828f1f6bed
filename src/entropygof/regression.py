"""Linear-model residual testing: least squares, leverage-standardized
residuals, the consecutive-residual ratio transform, and the sin-moment
entropy test of residual normality.

The ratio transform pairs raw residuals (e_1/e_2, e_3/e_4, ...) so the
unknown error scale cancels; under iid zero-mean normal errors the ratios
are asymptotically iid standard Cauchy, and E sin(Z) = 0 by symmetry for
standard Cauchy Z, giving a zero-target moment constraint that needs no
variance estimate.

Leverage convention: h_j here is 1 minus the hat-matrix diagonal (so
var(e_j) = sigma^2 h_j), the opposite of the textbook hat-diagonal
convention; sums of (1 - h_j) equal the column count k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kstest import KsCriticalTable, ks_statistic
from .maxent import solve_maxent
from .numerics import normal_cdf
from .results import TestResult, chi2_1_decision
from .sampling import DistributionSpec, Normal, SeedSpec, sample_using, uniform_open01

__all__ = [
    "DegenerateTrialError",
    "LinearModelSpec",
    "OlsFit",
    "ols_fit",
    "ratio_transform",
    "standardized_residuals",
    "run_regression_et",
    "run_regression_ks",
    "simulate_model",
    "null_trial_ks_distance",
]


class DegenerateTrialError(ValueError):
    """A simulated trial hit a probability-zero degenerate case: a
    rank-deficient design or a zero residual in a ratio denominator.

    Power studies count such trials as failures; any other error is a bug
    and propagates.
    """


@dataclass(frozen=True)
class LinearModelSpec:
    """Coefficients, error variance, and error process of a simulated model.

    The design rule is fixed: an intercept column plus len(beta) - 1
    columns of iid Uniform(0,1) draws, regenerated per trial.
    """

    beta: tuple[float, ...]
    sigma2: float
    error_process: DistributionSpec = field(default_factory=lambda: Normal(0.0, 2.0))

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if len(self.beta) < 1:
            raise ValueError("beta must have at least one coefficient")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")

    @property
    def k(self) -> int:
        return len(self.beta)

    def null_errors(self) -> Normal:
        return Normal(0.0, math.sqrt(self.sigma2))

    def design_matrix(self, n: int, gen: np.random.Generator) -> np.ndarray:
        if n <= self.k:
            raise ValueError("need more observations than coefficients")
        cols = [np.ones(n)]
        for _ in range(self.k - 1):
            cols.append(uniform_open01(gen, n))
        return np.column_stack(cols)


@dataclass(frozen=True)
class OlsFit:
    beta_hat: np.ndarray
    residuals: np.ndarray
    leverages: np.ndarray  # 1 - hat diagonal, so var(e_j) = sigma2 * leverages[j]
    sigma2_hat: float


def ols_fit(y, X) -> OlsFit:
    """Least squares via QR; residuals, leverages, and unbiased sigma2_hat."""
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or y.size != X.shape[0]:
        raise ValueError("X must be n-by-k and y length n")
    n, k = X.shape
    if n <= k:
        raise ValueError("need n > k observations")
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise DegenerateTrialError(f"design matrix is rank deficient (|R| diagonal min {diag.min():.3g})")
    beta_hat = np.linalg.solve(r, q.T @ y)
    residuals = y - X @ beta_hat
    hat_diag = np.einsum("ij,ij->i", q, q)
    leverages = 1.0 - hat_diag
    sigma2_hat = float(residuals @ residuals) / (n - k)
    return OlsFit(beta_hat=beta_hat, residuals=residuals, leverages=leverages, sigma2_hat=sigma2_hat)


def ratio_transform(residuals) -> np.ndarray:
    """Non-overlapping consecutive ratios (e_1/e_2, e_3/e_4, ...).

    An odd trailing residual is dropped.  A zero denominator (probability
    zero under continuous errors) is a degenerate input and raises.
    """
    e = np.asarray(residuals, dtype=np.float64)
    if e.size < 2:
        raise ValueError("need at least two residuals")
    m = e.size // 2
    num = e[0 : 2 * m : 2]
    den = e[1 : 2 * m : 2]
    if np.any(den == 0.0):
        raise DegenerateTrialError("degenerate input: zero denominator in residual ratio")
    return num / den


def standardized_residuals(fit: OlsFit) -> np.ndarray:
    """e_j / sqrt(sigma2_hat * h_j), approximately standard normal under the null."""
    return fit.residuals / np.sqrt(fit.sigma2_hat * fit.leverages)


def run_regression_et(y, X, alpha: float = 0.05) -> TestResult:
    """Entropy test that model errors are iid zero-mean normal.

    Pipeline: least squares -> consecutive residual ratios -> sin moment
    with zero target -> maximum entropy -> 2 n* sum pi ln(n* pi) against
    the chi-square(1) critical, where n* is the number of ratio pairs.
    """
    fit = ols_fit(y, X)
    z = ratio_transform(fit.residuals)
    return chi2_1_decision(solve_maxent(np.sin(z)).statistic, alpha, "et-regression")


def run_regression_ks(y, X, alpha: float, critical_table: KsCriticalTable) -> TestResult:
    """KS test of residual normality with a calibrated critical value.

    Residuals are standardized by their estimated standard deviation and
    compared to the standard normal CDF; the critical value must come from
    a null-pipeline calibration for this sample size.
    """
    if critical_table.alpha != alpha:
        raise ValueError(
            f"critical table was calibrated at alpha={critical_table.alpha}, not {alpha}"
        )
    y = np.asarray(y, dtype=np.float64)
    critical = critical_table.critical_for(y.size)
    fit = ols_fit(y, X)
    d = ks_statistic(standardized_residuals(fit), normal_cdf)
    return TestResult(
        statistic=d,
        critical=critical,
        p_value=None,
        reject=bool(d > critical),
        method="ks-regression",
    )


def simulate_model(
    model: LinearModelSpec,
    n: int,
    seed: SeedSpec,
    error_process: DistributionSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One simulated (y, X) draw: fresh design first, then the error path."""
    gen = seed.generator()
    X = model.design_matrix(n, gen)
    errors = sample_using(error_process or model.error_process, n, gen)
    y = X @ np.asarray(model.beta) + errors
    return y, X


def null_trial_ks_distance(model: LinearModelSpec, n: int, seed: SeedSpec) -> float:
    """KS distance of standardized residuals for one null-pipeline trial."""
    y, X = simulate_model(model, n, seed, error_process=model.null_errors())
    fit = ols_fit(y, X)
    return ks_statistic(standardized_residuals(fit), normal_cdf)
