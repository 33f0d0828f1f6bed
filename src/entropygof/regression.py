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
from typing import Sequence

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
    """One fit, or a block of B fits with a leading axis on every field."""

    beta_hat: np.ndarray
    residuals: np.ndarray
    leverages: np.ndarray  # 1 - hat diagonal, so var(e_j) = sigma2 * leverages[j]
    sigma2_hat: float | np.ndarray


def ols_fit(y, X) -> OlsFit:
    """Least squares via QR; residuals, leverages, and unbiased sigma2_hat.

    y of length n and X of shape (n, k) give one fit; y of shape (B, n) and
    X of shape (B, n, k) give B fits, each bit-identical to the fit of its
    row alone, because both run the same stacked LAPACK and BLAS calls
    once per matrix.  A rank-deficient design in any row raises
    DegenerateTrialError.
    """
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 2
    if single:
        y, X = y[None], X[None]
    if X.ndim != 3 or y.shape != X.shape[:2]:
        raise ValueError("X must be n-by-k and y length n, or a block of B of each")
    n, k = X.shape[1:]
    if n <= k:
        raise ValueError("need n > k observations")
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    low = diag.min(axis=1) <= 1e-12 * np.maximum(diag.max(axis=1), 1.0)
    if low.any():
        raise DegenerateTrialError(
            f"design matrix is rank deficient (|R| diagonal min {diag.min(axis=1)[low].min():.3g})"
        )
    # the right-hand side keeps a trailing axis: numpy 1.x and 2.x read a
    # (B, k) right-hand side of a stacked solve differently
    beta_hat = np.linalg.solve(r, q.transpose(0, 2, 1) @ y[..., None])
    residuals = y - (X @ beta_hat)[..., 0]
    leverages = 1.0 - np.einsum("bij,bij->bi", q, q)
    # (1, n) @ (n, 1) per row is the ddot of residuals @ residuals
    sigma2_hat = (residuals[:, None, :] @ residuals[..., None])[:, 0, 0] / (n - k)
    if single:
        return OlsFit(beta_hat[0, :, 0], residuals[0], leverages[0], float(sigma2_hat[0]))
    return OlsFit(beta_hat[..., 0], residuals, leverages, sigma2_hat)


def ratio_transform(residuals) -> np.ndarray:
    """Non-overlapping consecutive ratios (e_1/e_2, e_3/e_4, ...) along the
    last axis, so a (B, n) block gives the (B, n // 2) ratios of its rows.

    An odd trailing residual is dropped.  A zero denominator (probability
    zero under continuous errors) is a degenerate input and raises.
    """
    e = np.asarray(residuals, dtype=np.float64)
    if e.ndim == 0 or e.shape[-1] < 2:
        raise ValueError("need at least two residuals")
    m = e.shape[-1] // 2
    num = e[..., 0 : 2 * m : 2]
    den = e[..., 1 : 2 * m : 2]
    if np.any(den == 0.0):
        raise DegenerateTrialError("degenerate input: zero denominator in residual ratio")
    return num / den


def standardized_residuals(fit: OlsFit) -> np.ndarray:
    """e_j / sqrt(sigma2_hat * h_j), approximately standard normal under the
    null; row by row for a block fit."""
    return fit.residuals / np.sqrt(np.asarray(fit.sigma2_hat)[..., None] * fit.leverages)


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
    seed: SeedSpec | Sequence[SeedSpec],
    error_process: DistributionSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One simulated (y, X) draw: fresh design first, then the error path.

    Given a sequence of B seeds it returns y of shape (B, n) and X of shape
    (B, n, k); each trial draws its design and then its errors from its own
    stream, so row b is bit-identical to the draw of seeds[b] alone.
    """
    single = isinstance(seed, SeedSpec)
    gens = [s.generator() for s in ([seed] if single else seed)]
    X = np.stack([model.design_matrix(n, gen) for gen in gens])
    y = X @ np.asarray(model.beta) + sample_using(error_process or model.error_process, n, gens)
    return (y[0], X[0]) if single else (y, X)


def null_trial_ks_distance(
    model: LinearModelSpec, n: int, seed: SeedSpec | Sequence[SeedSpec]
) -> float | np.ndarray:
    """KS distance of standardized residuals for one null-pipeline trial,
    or the B distances of a block of seeds."""
    y, X = simulate_model(model, n, seed, error_process=model.null_errors())
    fit = ols_fit(y, X)
    return ks_statistic(standardized_residuals(fit), normal_cdf)
