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
import sys
from dataclasses import dataclass

import numpy as np

from .kstest import ks_statistic
from .maxent import solve_maxent
from .numerics import normal_cdf
from .results import TestResult, check_dataset, chi2_1_decision, ks_decision
from .sampling import DistributionSpec, Normal, SeedSpec, sample_using, spec_label, uniform_block, uniform_words

__all__ = [
    "DEFAULT_MODEL",
    "DegenerateTrialError",
    "LinearModelSpec",
    "OlsFit",
    "ols_fit",
    "ratio_transform",
    "standardized_residuals",
    "residual_ks_distance",
    "run_regression_et",
    "run_regression_ks",
    "simulate_model",
    "trial_words",
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
    columns of iid Uniform(0,1) draws, regenerated per trial.  The error
    process defaults to the null errors, N(0, sqrt(sigma2)).
    """

    beta: tuple[float, ...]
    sigma2: float
    error_process: DistributionSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if len(self.beta) < 1:
            raise ValueError("beta must have at least one coefficient")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if not all(map(math.isfinite, (*self.beta, self.sigma2))):
            raise ValueError("beta and sigma2 must be finite")
        if self.error_process is None:
            object.__setattr__(self, "error_process", self.null_errors())

    @property
    def k(self) -> int:
        return len(self.beta)

    def null_errors(self) -> Normal:
        return Normal(0.0, math.sqrt(self.sigma2))


# The regression example's model, y = 1 + 5 x + e with iid normal errors of
# variance 4: the default of regression config files, of calibrate and of
# presets a5 and a6.
DEFAULT_MODEL = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)


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
    z = ratio_transform(ols_fit(check_dataset("y", y), X).residuals)
    return chi2_1_decision(solve_maxent(np.sin(z)).statistic, alpha, "et-regression")


def residual_ks_distance(y, X, bands: tuple[np.ndarray, ...] | None = None) -> float | np.ndarray:
    """KS distance of the standardized least-squares residuals to N(0, 1):
    the ks-regression statistic of one (y, X), or of each fit of a block.

    With bands, kstest.ks_bands(normal_cdf, n, critical), each fit is
    decided at that critical instead (kstest.ks_statistic): +inf, 0.0, or
    the distance itself near the critical.
    """
    return ks_statistic(standardized_residuals(ols_fit(y, X)), normal_cdf, bands)


def run_regression_ks(y, X, critical: float) -> TestResult:
    """KS test of residual normality against a calibrated critical value.

    The critical must come from a null-pipeline calibration for this
    sample size (kstest.lilliefors_critical); with estimated parameters
    there is no closed-form p-value, so none is reported.
    """
    return ks_decision(residual_ks_distance(check_dataset("y", y), X), critical, None, "ks-regression")


def trial_words(model: LinearModelSpec, n: int, error_process: DistributionSpec | None = None) -> int:
    """The uniform words one simulate_model trial draws: (k - 1) * n for
    the design, then those of the errors."""
    return (model.k - 1) * n + uniform_words(error_process or model.error_process, n)


def simulate_model(
    model: LinearModelSpec,
    n: int,
    seed: SeedSpec,
    error_process: DistributionSpec | None = None,
    trials: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One simulated (y, X) draw: fresh design first, then the error path.

    The trial's stream gives the k - 1 design columns, n uniforms each,
    and then the uniforms of the errors.  Given trials it returns y of
    shape (trials, n) and X of shape (trials, n, k), row b drawn from
    stream seed.stream_id + b and bit-identical to that trial's draw
    alone.  Raises ValueError, naming the error process, when a value of y
    is not finite or is past sqrt(DBL_MAX / n) / 2, where the fit's residual
    sum of squares (at most n max|y|^2) could overflow: an explosive AR process.
    """
    if n <= model.k:
        raise ValueError("need more observations than coefficients")
    errors = error_process or model.error_process
    d = (model.k - 1) * n
    u = uniform_block(seed, 1 if trials is None else trials, trial_words(model, n, errors))
    X = np.ones((len(u), n, model.k))
    X[:, :, 1:] = u[:, :d].reshape(len(u), model.k - 1, n).transpose(0, 2, 1)
    y = X @ np.asarray(model.beta) + sample_using(errors, n, u[:, d:])
    bound = 0.5 * math.sqrt(sys.float_info.max / n)
    peak = np.abs(y).max()
    if not peak <= bound:  # NaN fails it
        gave = f"values past sqrt(DBL_MAX / n) / 2 = {bound:.3g}" if math.isfinite(peak) else "non-finite values"
        message = f"error process {spec_label(errors)} gave {gave} at n = {n}"
        innovation = getattr(errors, "innovation", None)
        raise ValueError(message + (f" (innovation {spec_label(innovation)})" if innovation else ""))
    return (y[0], X[0]) if trials is None else (y, X)


def null_trial_ks_distance(
    model: LinearModelSpec, n: int, seed: SeedSpec, trials: int | None = None
) -> float | np.ndarray:
    """residual_ks_distance of one trial of the canonical null of model's
    design, or the distances of a block of trials from seed on
    (simulate_model): the same k, beta = 0, sigma2 = 1 and N(0, 1) errors.

    The distance has one null law for every beta and sigma2 of a design,
    but other beta or sigma2 round the residuals differently; at the
    canonical null the distances depend on the model through k alone.
    """
    canonical = LinearModelSpec((0.0,) * model.k, 1.0)
    return residual_ks_distance(*simulate_model(canonical, n, seed, trials=trials))
