"""Constrained maximum-entropy weights and the entropy test statistic.

The primal problem -- maximize -sum pi_j ln(pi_j) subject to
sum pi_j g_j = 0 and sum pi_j = 1 -- has the closed-form exponential-tilt
solution pi_j(lambda) = exp(-lambda g_j) / Z(lambda).  The scalar dual
unknown lambda is pinned by the moment condition; the map
lambda -> sum pi_j(lambda) g_j is strictly decreasing (its derivative is
minus the tilted variance of g), so a safeguarded Newton iteration with a
bisection fallback on a sign-change bracket always converges.

A constraint with all g_j strictly on one side of zero meets the open
simplex nowhere; such inputs are flagged non-converged with an infinite
statistic, which downstream decision rules record as a rejection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MaxEntSolution", "solve_maxent"]

_MAX_ITER = 200
_FEASIBILITY_MARGIN = 1e-14


@dataclass(frozen=True)
class MaxEntSolution:
    """Tilted weights and diagnostics for one moment-constrained solve.

    statistic is 2n * sum pi ln(n pi) (twice the sample size times the KL
    divergence from uniform), or +inf when the constraint is infeasible or
    the iteration failed.  iterations counts the steps spent: 0 when the
    constraint is infeasible on its face, 200 when the iteration stopped
    at its cap.
    """

    weights: np.ndarray
    lam: float
    log_partition: float
    statistic: float
    converged: bool
    residual: float
    iterations: int = 0


def _tilt(g: np.ndarray, lam: float) -> tuple[np.ndarray, float, float, float]:
    """Weights, log partition, tilted mean and variance of g at lambda."""
    x = -lam * g
    m = x.max()
    w = np.exp(x - m)
    z = w.sum()
    pi = w / z
    mean = float(pi @ g)
    var = float(pi @ (g * g)) - mean * mean
    return pi, m + math.log(z), mean, max(var, 0.0)


def _infeasible(g: np.ndarray, residual: float, iterations: int = 0) -> MaxEntSolution:
    n = g.size
    return MaxEntSolution(
        weights=np.full(n, 1.0 / n),
        lam=math.nan,
        log_partition=math.log(n),
        statistic=math.inf,
        converged=False,
        residual=residual,
        iterations=iterations,
    )


def solve_maxent(g, tol: float = 1e-10) -> MaxEntSolution:
    """Solve for the entropy-maximal weights satisfying sum pi_j g_j = 0.

    tol is relative to max |g_j|.  Inputs where zero lies outside the open
    interval (min g, max g) -- all constraint values on one side -- are
    infeasible and come back non-converged with an infinite statistic.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("constraint values must be a vector of length >= 2")
    if not np.all(np.isfinite(g)):
        raise ValueError("constraint values must be finite")
    if not tol > 0:
        raise ValueError("tol must be positive")

    n = g.size
    scale = float(np.max(np.abs(g)))
    if scale == 0.0:
        # constraint trivially satisfied by the uniform weights
        return MaxEntSolution(
            weights=np.full(n, 1.0 / n),
            lam=0.0,
            log_partition=math.log(n),
            statistic=0.0,
            converged=True,
            residual=0.0,
            iterations=0,
        )

    margin = _FEASIBILITY_MARGIN * scale
    lo_g, hi_g = float(g.min()), float(g.max())
    if not (lo_g + margin < 0.0 < hi_g - margin):
        return _infeasible(g, residual=abs(float(g.mean())))

    abs_tol = tol * scale

    def eval_at(lam: float) -> tuple[np.ndarray, float, float, float]:
        return _tilt(g, lam)

    lam = 0.0
    pi, log_z, mean, var = eval_at(lam)
    iterations = 0
    if abs(mean) > abs_tol:
        # bracket a sign change of the tilted mean by doubling outward from 0
        direction = 1.0 if mean > 0.0 else -1.0
        step = abs(mean) / var if var > 0.0 else 1.0 / scale
        step = max(step, 1e-3 / scale)
        lo, f_lo = 0.0, mean
        hi = direction * step
        _, _, f_hi, _ = eval_at(hi)
        iterations += 1
        while f_lo * f_hi > 0.0:
            lo, f_lo = hi, f_hi
            hi *= 2.0
            _, _, f_hi, _ = eval_at(hi)
            iterations += 1
            if iterations >= _MAX_ITER:
                return _infeasible(g, residual=abs(mean), iterations=iterations)
        # orient so that psi(lo) > 0 > psi(hi); psi is decreasing in lambda
        if f_lo < 0.0:
            lo, hi = hi, lo
            f_lo, f_hi = f_hi, f_lo

        lam = 0.5 * (lo + hi)
        pi, log_z, mean, var = eval_at(lam)
        while abs(mean) > abs_tol and iterations < _MAX_ITER:
            iterations += 1
            if mean > 0.0:
                lo = lam
            else:
                hi = lam
            if var > 0.0:
                candidate = lam + mean / var  # Newton on the decreasing dual mean
            else:
                candidate = math.nan
            inside = min(lo, hi) < candidate < max(lo, hi)
            lam = candidate if inside and math.isfinite(candidate) else 0.5 * (lo + hi)
            pi, log_z, mean, var = eval_at(lam)
        if abs(mean) > abs_tol:
            return _infeasible(g, residual=abs(mean), iterations=iterations)

    # 2n * KL(pi || uniform) from the dual identity: ln pi_j = -lam g_j - ln Z
    stat = 2.0 * n * (math.log(n) - log_z - lam * mean)
    return MaxEntSolution(
        weights=pi,
        lam=lam,
        log_partition=log_z,
        statistic=max(stat, 0.0),
        converged=True,
        residual=abs(mean),
        iterations=iterations,
    )
