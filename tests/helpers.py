"""Shared independent oracles for the test suite.

These deliberately avoid the code paths they check: the simplex oracle
enumerates feasible weight vectors on a grid and never touches the dual
solver; the KL oracle computes the entropy statistic from the weights
instead of the dual identity the solver uses; the erf oracle is a plain
Maclaurin series; the least-squares reference fits one matrix with
unstacked numpy calls.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def erf_series(x: float, terms: int = 60) -> float:
    """Maclaurin series for erf, adequate to ~1e-14 for |x| <= 3."""
    acc = 0.0
    term = x
    for k in range(terms):
        acc += term / (2 * k + 1)
        term *= -x * x / (k + 1)
    return 2.0 / math.sqrt(math.pi) * acc


def et_statistic(solution, n: int) -> float:
    """Entropy test statistic 2n sum pi_j ln(n pi_j) from solved weights.

    Equals 2n times the KL divergence of the weights from uniform; zero
    exactly when the weights are uniform.  Non-converged solutions keep
    their infinite marker.
    """
    if not solution.converged:
        return math.inf
    pi = np.asarray(solution.weights, dtype=np.float64)
    if n != pi.size:
        raise ValueError("n must equal the weight-vector length")
    terms = np.where(pi > 0.0, pi * np.log(np.maximum(pi * n, 1e-300)), 0.0)
    return float(max(2.0 * n * terms.sum(), 0.0))


def ols_fit_reference(y, X) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(beta_hat, residuals, leverages, sigma2_hat) of one n-by-k fit, by
    the one-matrix QR algebra that the stacked ols_fit must reproduce bit
    for bit."""
    n, k = X.shape
    q, r = np.linalg.qr(X)
    beta_hat = np.linalg.solve(r, q.T @ y)
    residuals = y - X @ beta_hat
    leverages = 1.0 - np.einsum("ij,ij->i", q, q)
    return beta_hat, residuals, leverages, float(residuals @ residuals) / (n - k)


def normal_cdf_series(x: float) -> float:
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


def quantile_bisect(p: float, lo: float = -9.0, hi: float = 9.0) -> float:
    """Invert the series-based normal CDF by bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf_series(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simplex_grid_entropy(g, step: float = 1e-3) -> tuple[float, np.ndarray]:
    """Brute-force max entropy over the constraint slice of the simplex.

    Grids all but two coordinates at the given step and solves the two
    linear conditions (sum to one, zero constraint mean) for the rest,
    trying every choice of solved pair and keeping the best-conditioned
    feasible points.  Returns (entropy, weights) of the best grid point.
    """
    g = np.asarray(g, dtype=np.float64)
    n = g.size
    best_h = -np.inf
    best_w: np.ndarray | None = None
    if n == 2:
        # the constraint pins the unique point
        p1 = g[1] / (g[1] - g[0])
        w = np.array([p1, 1.0 - p1])
        if np.all(w > 0.0):
            return float(-(w @ np.log(w))), w
        raise ValueError("infeasible two-point instance")
    grid = np.arange(1, int(round(1.0 / step))) * step
    for solved in combinations(range(n), 2):
        i, j = solved
        det = g[i] - g[j]
        if abs(det) < 1e-9:
            continue
        free = [m for m in range(n) if m not in solved]
        if n == 3:
            (k,) = free
            pk = grid
            rem = 1.0 - pk
            target = -g[k] * pk
            pi = (target - g[j] * rem) / det
            pj = rem - pi
            ok = (pi > 0.0) & (pj > 0.0)
            if not ok.any():
                continue
            cols = np.zeros((ok.sum(), 3))
            cols[:, k] = pk[ok]
            cols[:, i] = pi[ok]
            cols[:, j] = pj[ok]
        else:  # n == 4
            k1, k2 = free
            p1, p2 = np.meshgrid(grid, grid, indexing="ij", sparse=True)
            rem = 1.0 - p1 - p2
            target = -(g[k1] * p1 + g[k2] * p2)
            pi = (target - g[j] * rem) / det
            pj = rem - pi
            ok = (rem > 0.0) & (pi > 0.0) & (pj > 0.0)
            if not ok.any():
                continue
            b1 = np.broadcast_to(p1, ok.shape)[ok]
            b2 = np.broadcast_to(p2, ok.shape)[ok]
            cols = np.zeros((ok.sum(), 4))
            cols[:, k1] = b1
            cols[:, k2] = b2
            cols[:, i] = pi[ok]
            cols[:, j] = pj[ok]
        h = -np.sum(cols * np.log(cols), axis=1)
        arg = int(np.argmax(h))
        if h[arg] > best_h:
            best_h = float(h[arg])
            best_w = cols[arg]
    if best_w is None:
        raise ValueError("no feasible grid point found")
    return best_h, best_w


def random_feasible_g(rng: np.random.Generator, n: int) -> np.ndarray:
    """Centered-ish constraint values guaranteeing an interior optimum."""
    while True:
        g = rng.uniform(-1.0, 1.0, n)
        g = g - g.mean() + rng.uniform(-0.05, 0.05)
        if g.min() < -1e-3 and g.max() > 1e-3:
            return g
