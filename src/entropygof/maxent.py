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

The rows of a (B, n) block are independent problems, so the solver runs
them together: each phase -- the start at lambda = 0, the bracket
doubling, the Newton steps -- makes one pass of numpy calls per step for
all rows still in it, and a row leaves when |tilted mean| <= _TOL max|g_j|
(_TOL = 1e-10) or at the 200-step cap.  The arithmetic of each row is that
of a vector solved alone, so it does not depend on the block around it.

A power study needs only whether the statistic exceeds a critical c, and
the dual bounds it at every step.  f(lambda) = ln n - ln Z(lambda) is
concave, its slope is the tilted mean, and its supremum is the
KL(pi || uniform) of the solution.  So each f(lambda) is a lower bound LB,
and the tangents at the two bracket ends -- the latest iterates on either
side of the root, of slopes > 0 and < 0 -- meet at an upper bound UB.  The
exact statistic stops at an iterate lambda_T with |mean| <= _TOL max|g_j|,
where it is 2n (f(lambda_T) - lambda_T mean) and lies within 2n _TOL
max|g_j| max(|lo|, |hi|) of 2n sup f, since lambda_T and the root lie in
the bracket [lo, hi].  With a critical, a row therefore leaves as +inf when
2n LB > c + s and as 0.0 when 2n UB < c - s, where the slack
s = delta + 4n max(|lo|, |hi|) _TOL max|g_j| holds that gap twice over and
delta = 1e-6 (_DECISION_MARGIN) the rounding.  A row decided neither way
keeps the exact arithmetic and ends with its exact statistic, bit for bit;
so `statistic > c` is that of the exact solve.  The one exception is a
row whose exact iteration would stop at its step cap (+inf), which may be
decided first; no feasible normal-CF row checked (252 of them, n = 10**4
to 10**7, README) took more than 28 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MaxEntSolution", "solve_maxent"]

_MAX_ITER = 200
_TOL = 1e-10
_FEASIBILITY_MARGIN = 1e-14
# Margin, in statistic units, between a decided row's bounds and the
# critical.  It equals the margin audit's delta (ROADMAP item 7), far above
# the rounding of the bounds and of the statistic (about 1e-12 at n = 1000).
_DECISION_MARGIN = 1e-6
# max |g_j| of a nonzero row: half of float64's exponent range either way,
# so g_j**2 stays finite and normal, and so do 1 / max |g_j| and the lambdas
_MIN_SCALE = 2.0 ** (np.finfo(np.float64).minexp // 2)
_MAX_SCALE = 2.0 ** (np.finfo(np.float64).maxexp // 2 - 1)


@dataclass(frozen=True)
class MaxEntSolution:
    """Tilted weights and diagnostics for one moment-constrained solve.

    statistic is 2n * sum pi ln(n pi) (twice the sample size times the KL
    divergence from uniform), or +inf when the constraint is infeasible or
    the iteration failed.  iterations counts the steps spent: 0 when the
    constraint is infeasible on its face, 200 when the iteration stopped
    at its cap.  A row decided at a critical (solve_maxent) has statistic
    +inf or 0.0 and NaN weights, lam, log_partition and residual; it counts
    as converged, and its iterations count the steps it took.

    The solution of a (B, n) block has (B, n) weights and one entry per
    row in lam, log_partition, statistic and residual; its iterations is
    the steps spent summed over the rows, and converged is true when every
    row converged.
    """

    weights: np.ndarray
    lam: float | np.ndarray
    log_partition: float | np.ndarray
    statistic: float | np.ndarray
    converged: bool
    residual: float | np.ndarray
    iterations: int = 0


def _moments(pi: np.ndarray, g: np.ndarray, gg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tilted mean and variance of g under the weights pi, row by row; gg is
    g * g.  The dot products are (1, n) @ (n, 1) matmuls, which reduce
    exactly as pi @ g does."""
    mean = (pi[..., None, :] @ g[..., :, None])[..., 0, 0]
    var = (pi[..., None, :] @ gg[..., :, None])[..., 0, 0] - mean * mean
    return mean, np.maximum(var, 0.0)


def _tilt(g: np.ndarray, lam, gg: np.ndarray, g_min, g_max) -> tuple[np.ndarray, ...]:
    """Weights, exponent max m, tilted mean and variance of g at lambda, and
    the partition sum z, so that log Z = m + ln z.  g is one vector and lam
    a number, or g is a (B, n) block and lam holds one value per row; gg is
    g * g, and g_min and g_max are the row minima and maxima of g."""
    # x = -lam g, then in place: x - m, w = exp(x - m), pi = w / z; rounding
    # is monotone, so the largest -lam g_j is -lam g_min or -lam g_max
    neg_lam = -np.asarray(lam)
    pi = neg_lam[..., None] * g
    m = np.maximum(neg_lam * g_min, neg_lam * g_max)
    pi -= m[..., None]
    np.exp(pi, out=pi)
    z = pi.sum(axis=-1)
    pi /= z[..., None]
    mean, var = _moments(pi, g, gg)
    return pi, m, mean, var, z


class _Rows:
    """The per-row results of a block solve, filled as rows finish.

    Every row starts as the uniform solution of an all-zero constraint."""

    def __init__(self, b: int, n: int) -> None:
        self.n = n
        self.weights = np.full((b, n), 1.0 / n)
        self.lam = np.zeros(b)
        self.log_partition = np.full(b, math.log(n))
        self.statistic = np.zeros(b)
        self.converged = np.ones(b, dtype=bool)
        self.residual = np.zeros(b)
        self.iterations = np.zeros(b, dtype=np.int64)

    def record_failed(self, rows: np.ndarray, residual: np.ndarray, iterations=0) -> None:
        """Infeasible rows, or rows whose iteration stopped at its cap."""
        self.lam[rows] = math.nan
        self.statistic[rows] = math.inf
        self.converged[rows] = False
        self.residual[rows] = residual
        self.iterations[rows] = iterations

    def record_solved(self, rows, pi, lam, m, z, mean, iterations) -> None:
        """Rows that met their tolerance at lam."""
        n = self.n
        log_n = math.log(n)
        log_z = [mj + math.log(zj) for mj, zj in zip(m.tolist(), z.tolist())]
        # 2n * KL(pi || uniform) from the dual identity: ln pi_j = -lam g_j - ln Z
        stat = [
            max(2.0 * n * (log_n - lz - lj * mu), 0.0) for lz, lj, mu in zip(log_z, lam.tolist(), mean.tolist())
        ]
        self.weights[rows] = pi
        self.lam[rows] = lam
        self.log_partition[rows] = log_z
        self.statistic[rows] = stat
        self.residual[rows] = np.abs(mean)
        self.iterations[rows] = iterations

    def record_decided(self, rows: np.ndarray, statistic: np.ndarray, iterations: np.ndarray) -> None:
        """Rows decided at a critical, as +inf or 0.0, without a solution."""
        for field in (self.lam, self.log_partition, self.residual, self.weights):
            field[rows] = math.nan
        self.statistic[rows] = statistic
        self.iterations[rows] = iterations


def _dual(log_n: float, m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The dual f(lambda) = ln n - ln Z(lambda), from _tilt's m and z."""
    return log_n - m - np.log(z)


def _verdicts(critical: float, two_n: int, tangent_term, lo, hi, slope_lo, slope_hi, dual_lo, dual_hi) -> np.ndarray:
    """+inf where the row's statistic certainly exceeds critical, 0.0 where
    it certainly does not, NaN where the bounds of the bracket ends cannot
    tell (module docstring); tangent_term is the row's 4n _TOL max|g_j|."""
    slack = _DECISION_MARGIN + tangent_term * np.maximum(np.abs(lo), np.abs(hi))
    lower = two_n * np.maximum(dual_lo, dual_hi)
    # where the tangents at lo (slope > 0) and at hi (slope < 0) meet
    upper = two_n * (dual_lo + slope_lo * (dual_hi - dual_lo + slope_hi * (lo - hi)) / (slope_lo - slope_hi))
    return np.where(lower > critical + slack, math.inf, np.where(upper < critical - slack, 0.0, math.nan))


def _solve_rows(g: np.ndarray, scale: np.ndarray, critical: float | None) -> _Rows:
    b, n = g.shape
    log_n = math.log(n)
    out = _Rows(b, n)
    abs_tol = _TOL * scale
    margin = _FEASIBILITY_MARGIN * scale
    g_min, g_max = g.min(axis=1), g.max(axis=1)
    feasible = (g_min + margin < 0.0) & (0.0 < g_max - margin)
    infeasible = np.flatnonzero(~feasible & (scale != 0.0))
    out.record_failed(infeasible, np.abs(g[infeasible].mean(axis=1)))

    # start: at lambda = 0 every weight is 1/n exactly (w = 1, z = n)
    rows = np.flatnonzero(feasible)
    ga = g if rows.size == b else g[rows]
    gga = ga * ga
    ga_min, ga_max = g_min[rows], g_max[rows]
    mean, var = _moments(np.full_like(ga, 1.0 / n), ga, gga)
    done = np.abs(mean) <= abs_tol[rows]
    if done.any():
        zeros = np.zeros(np.count_nonzero(done))
        out.record_solved(rows[done], 1.0 / n, zeros, zeros, np.full_like(zeros, n), mean[done], 0)
        keep = ~done
        rows, ga, gga, ga_min, ga_max, mean, var = (
            a[keep] for a in (rows, ga, gga, ga_min, ga_max, mean, var)
        )
    if rows.size == 0:
        return out

    # bracket a sign change of the tilted mean by doubling outward from 0;
    # the rows step together, so they share one step count.  f_ is the
    # tilted mean there and d_ the dual, which is 0 at lambda = 0
    row_scale = scale[rows]
    step = 1.0 / row_scale
    curved = var > 0.0
    step[curved] = np.abs(mean[curved]) / var[curved]
    step = np.maximum(step, 1e-3 / row_scale)
    mean0, lo, f_lo, d_lo = mean, np.zeros_like(mean), mean, np.zeros_like(mean)
    hi = np.where(mean > 0.0, step, -step)
    _, m, f_hi, _, z = _tilt(ga, hi, gga, ga_min, ga_max)
    d_hi = _dual(log_n, m, z)
    iterations = 1
    bracketed: list[tuple[np.ndarray, ...]] = []
    while True:
        crossed = ~(f_lo * f_hi > 0.0)
        if crossed.any():
            # orient so that psi(lo) > 0 > psi(hi); psi is decreasing in lambda
            up = f_lo[crossed] < 0.0
            ends = [(a[crossed], c[crossed]) for a, c in ((lo, hi), (f_lo, f_hi), (d_lo, d_hi))]
            bracketed.append(
                (
                    rows[crossed],
                    *(np.where(up, c, a) for a, c in ends),
                    *(np.where(up, a, c) for a, c in ends),
                    np.full(up.size, iterations),
                )
            )
            keep = ~crossed
            rows, ga, gga, ga_min, ga_max, mean0, hi, f_hi, d_hi = (
                a[keep] for a in (rows, ga, gga, ga_min, ga_max, mean0, hi, f_hi, d_hi)
            )
        if rows.size == 0:
            break
        lo, f_lo, d_lo = hi, f_hi, d_hi
        hi = hi * 2.0
        _, m, f_hi, _, z = _tilt(ga, hi, gga, ga_min, ga_max)
        d_hi = _dual(log_n, m, z)
        iterations += 1
        if iterations >= _MAX_ITER:
            out.record_failed(rows, np.abs(mean0), iterations)
            break
    if not bracketed:
        return out

    # safeguarded Newton steps inside each row's bracket; each end keeps the
    # tilted mean (slope_) and the dual (dual_) at its lambda
    rows, lo, slope_lo, dual_lo, hi, slope_hi, dual_hi, iterations = (np.concatenate(p) for p in zip(*bracketed))
    tangent_term = 4.0 * n * abs_tol[rows]
    if critical is not None:
        # the bracket's ends may decide a row before its first Newton step
        verdict = _verdicts(critical, 2 * n, tangent_term, lo, hi, slope_lo, slope_hi, dual_lo, dual_hi)
        decided = ~np.isnan(verdict)
        out.record_decided(rows[decided], verdict[decided], iterations[decided])
        rows, lo, slope_lo, dual_lo, hi, slope_hi, dual_hi, iterations, tangent_term = (
            a[~decided] for a in (rows, lo, slope_lo, dual_lo, hi, slope_hi, dual_hi, iterations, tangent_term)
        )
        if rows.size == 0:
            return out
    ga = g[rows]
    gga = ga * ga
    ga_min, ga_max = g_min[rows], g_max[rows]
    abs_tol = abs_tol[rows]
    lam = 0.5 * (lo + hi)
    pi, m, mean, var, z = _tilt(ga, lam, gga, ga_min, ga_max)
    while True:
        # lam is the latest iterate on its side of the root: a bracket end
        rising = mean > 0.0
        lo = np.where(rising, lam, lo)
        hi = np.where(rising, hi, lam)
        unmet = np.abs(mean) > abs_tol
        decided = np.zeros_like(unmet)
        if critical is not None:
            dual = _dual(log_n, m, z)
            slope_lo, dual_lo = np.where(rising, mean, slope_lo), np.where(rising, dual, dual_lo)
            slope_hi, dual_hi = np.where(rising, slope_hi, mean), np.where(rising, dual_hi, dual)
            verdict = _verdicts(critical, 2 * n, tangent_term, lo, hi, slope_lo, slope_hi, dual_lo, dual_hi)
            decided = ~np.isnan(verdict)
            out.record_decided(rows[decided], verdict[decided], iterations[decided])
        active = unmet & ~decided & (iterations < _MAX_ITER)
        if not active.all():
            met = ~unmet & ~decided
            out.record_solved(rows[met], pi[met], lam[met], m[met], z[met], mean[met], iterations[met])
            capped = unmet & ~decided & ~active
            out.record_failed(rows[capped], np.abs(mean[capped]), iterations[capped])
            rows, ga, gga, ga_min, ga_max, abs_tol, tangent_term, lam, lo, hi, mean, var, iterations = (
                a[active]
                for a in (rows, ga, gga, ga_min, ga_max, abs_tol, tangent_term, lam, lo, hi, mean, var, iterations)
            )
            slope_lo, slope_hi, dual_lo, dual_hi = (a[active] for a in (slope_lo, slope_hi, dual_lo, dual_hi))
        if rows.size == 0:
            return out
        iterations += 1
        # Newton on the decreasing dual mean, where the variance allows it
        candidate = np.full_like(lam, math.nan)
        np.divide(mean, var, out=candidate, where=var > 0.0)
        candidate = lam + candidate
        inside = (np.minimum(lo, hi) < candidate) & (candidate < np.maximum(lo, hi))
        lam = np.where(inside, candidate, 0.5 * (lo + hi))
        pi, m, mean, var, z = _tilt(ga, lam, gga, ga_min, ga_max)


def solve_maxent(g, critical: float | None = None) -> MaxEntSolution:
    """Solve for the entropy-maximal weights satisfying sum pi_j g_j = 0.

    g is one vector of n >= 2 constraint values, or a (B, n) block of B
    independent problems, one per row; each row's solution is the one the
    row gets alone, bit for bit (MaxEntSolution says how a block's fields
    read).

    A row stops where |sum pi_j g_j| <= _TOL max |g_j| (_TOL = 1e-10) or at
    the 200-step cap.  Inputs where zero lies outside (min g, max g) are
    infeasible and come back non-converged with an infinite statistic.
    max |g_j| of each row must be 0 or lie in [2**-511, 2**511], about
    1.5e-154 to 6.7e153: half of float64's exponent range either way, so
    that the squares g_j**2 stay finite and normal.  Rows outside raise
    ValueError.

    With a critical (> 0, else ValueError), each row is decided rather than
    solved where the dual's bounds allow it (module docstring): +inf where
    the statistic certainly exceeds critical, 0.0 where it certainly does
    not, and the exact statistic, bit for bit, where its bounds lie within
    the slack of the critical.  A decided row's lam, log_partition,
    residual and weights are NaN, and its iterations count the steps it
    took.  Infeasible rows are +inf as without a critical; a row that the
    exact solve stops at its cap may be decided first (module docstring).
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim not in (1, 2) or g.shape[-1] < 2:
        raise ValueError("constraint values must be a vector of length >= 2, or a block of such rows")
    if not np.all(np.isfinite(g)):
        raise ValueError("constraint values must be finite")
    if critical is not None and not critical > 0.0:
        raise ValueError(f"critical must be positive, got {critical}")
    block = np.ascontiguousarray(g.reshape(-1, g.shape[-1]))
    scale = np.abs(block).max(axis=1)
    if np.any((scale != 0.0) & ~((_MIN_SCALE <= scale) & (scale <= _MAX_SCALE))):
        raise ValueError("max |g_j| of each row must be 0 or lie in [2**-511, 2**511]")

    out = _solve_rows(block, scale, critical)
    if g.ndim == 1:
        return MaxEntSolution(
            weights=out.weights[0],
            lam=float(out.lam[0]),
            log_partition=float(out.log_partition[0]),
            statistic=float(out.statistic[0]),
            converged=bool(out.converged[0]),
            residual=float(out.residual[0]),
            iterations=int(out.iterations[0]),
        )
    return MaxEntSolution(
        weights=out.weights,
        lam=out.lam,
        log_partition=out.log_partition,
        statistic=out.statistic,
        converged=bool(out.converged.all()),
        residual=out.residual,
        iterations=int(out.iterations.sum()),
    )
