"""Shared independent oracles for the test suite.

These deliberately avoid the code paths they check: the simplex oracle
enumerates feasible weight vectors on a grid and never touches the dual
solver; the KL oracle computes the entropy statistic from the weights
instead of the dual identity the solver uses; the erf oracle is a plain
Maclaurin series; the least-squares reference fits one matrix with
unstacked numpy calls; the model reference draws one trial from its own
Generator, column by column, and the Generator-side sampler draws a
spec's uniforms by Generator.integers, not from raw Philox words; the
dual-solve reference solves one vector with scalar Python control flow;
the AR reference runs one row at a time
with a shifting list of lags; the erfc and normal-quantile references
evaluate each regime on a boolean-masked gather with allocating Horner
steps, from their own copies of the published coefficient tables, as the
regime-per-pass functions in numerics must reproduce bit for bit.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from entropygof.maxent import MaxEntSolution
from entropygof.sampling import sample_using, uniform_words


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


def _tilt_reference(g: np.ndarray, lam: float) -> tuple[np.ndarray, float, float, float]:
    x = -lam * g
    m = x.max()
    w = np.exp(x - m)
    z = w.sum()
    pi = w / z
    mean = float(pi @ g)
    var = float(pi @ (g * g)) - mean * mean
    return pi, m + math.log(z), mean, max(var, 0.0)


def _infeasible_reference(g: np.ndarray, residual: float, iterations: int = 0) -> MaxEntSolution:
    n = g.size
    return MaxEntSolution(np.full(n, 1.0 / n), math.nan, math.log(n), math.inf, False, residual, iterations)


def solve_maxent_reference(g, tol: float = 1e-10) -> MaxEntSolution:
    """One vector's dual solve by the scalar algorithm that every row of the
    block solve_maxent must reproduce bit for bit: bracket doubling from
    lambda = 0, then safeguarded Newton steps with a bisection fallback,
    at most 200 steps."""
    g = np.asarray(g, dtype=np.float64)
    n = g.size
    scale = float(np.max(np.abs(g)))
    if scale == 0.0:
        return MaxEntSolution(np.full(n, 1.0 / n), 0.0, math.log(n), 0.0, True, 0.0, 0)
    margin = 1e-14 * scale
    if not (float(g.min()) + margin < 0.0 < float(g.max()) - margin):
        return _infeasible_reference(g, residual=abs(float(g.mean())))

    abs_tol = tol * scale
    lam = 0.0
    pi, log_z, mean, var = _tilt_reference(g, lam)
    iterations = 0
    if abs(mean) > abs_tol:
        direction = 1.0 if mean > 0.0 else -1.0
        step = abs(mean) / var if var > 0.0 else 1.0 / scale
        step = max(step, 1e-3 / scale)
        lo, f_lo = 0.0, mean
        hi = direction * step
        _, _, f_hi, _ = _tilt_reference(g, hi)
        iterations += 1
        while f_lo * f_hi > 0.0:
            lo, f_lo = hi, f_hi
            hi *= 2.0
            _, _, f_hi, _ = _tilt_reference(g, hi)
            iterations += 1
            if iterations >= 200:
                return _infeasible_reference(g, residual=abs(mean), iterations=iterations)
        if f_lo < 0.0:
            lo, hi = hi, lo

        lam = 0.5 * (lo + hi)
        pi, log_z, mean, var = _tilt_reference(g, lam)
        while abs(mean) > abs_tol and iterations < 200:
            iterations += 1
            if mean > 0.0:
                lo = lam
            else:
                hi = lam
            candidate = lam + mean / var if var > 0.0 else math.nan
            inside = min(lo, hi) < candidate < max(lo, hi)
            lam = candidate if inside and math.isfinite(candidate) else 0.5 * (lo + hi)
            pi, log_z, mean, var = _tilt_reference(g, lam)
        if abs(mean) > abs_tol:
            return _infeasible_reference(g, residual=abs(mean), iterations=iterations)

    stat = 2.0 * n * (math.log(n) - log_z - lam * mean)
    return MaxEntSolution(pi, lam, log_z, max(stat, 0.0), True, abs(mean), iterations)


def uniform_open01(gen: np.random.Generator, size: int | tuple) -> np.ndarray:
    """Uniform draws strictly inside (0, 1) with 53-bit resolution, by
    Generator.integers: the definition of a stream's uniforms, which the
    rows of sampling.uniform_block must reproduce bit for bit."""
    return (gen.integers(0, 1 << 53, size=size, dtype=np.uint64) + 0.5) * 2.0**-53


def generator_sample(spec, n: int, gen: np.random.Generator) -> np.ndarray:
    """n values of spec from the next uniforms of gen (uniform_open01), as
    one row of sampling.sample must reproduce them bit for bit."""
    return sample_using(spec, n, uniform_open01(gen, (1, uniform_words(spec, n))))[0]


def simulate_model_reference(model, n: int, seed, error_process=None) -> tuple[np.ndarray, np.ndarray]:
    """(y, X) of one trial from seed.generator(): the intercept, then k - 1
    design columns of n uniforms each, then the errors, all drawn from the
    one Generator that simulate_model's block streams must reproduce bit
    for bit."""
    gen = seed.generator()
    X = np.column_stack([np.ones(n)] + [uniform_open01(gen, n) for _ in range(model.k - 1)])
    y = X @ np.asarray(model.beta) + generator_sample(error_process or model.error_process, n, gen)
    return y, X


def ar_recurse_reference(rho: tuple[float, ...], u: np.ndarray) -> np.ndarray:
    """The AR recursion along the last axis of u from a zero start, one row
    at a time, by the loop that both paths of sampling._ar_recurse must
    reproduce bit for bit."""
    paths: list[list[float]] = []
    for innov in u.reshape(-1, u.shape[-1]).tolist():
        out: list[float] = []
        if len(rho) == 1:
            (r0,) = rho
            prev = 0.0
            for x in innov:
                prev = r0 * prev + x
                out.append(prev)
        else:
            state = [0.0] * len(rho)
            for x in innov:
                val = x
                for r, s in zip(rho, state):
                    val += r * s
                state.pop()
                state.insert(0, val)
                out.append(val)
        paths.append(out)
    return np.array(paths).reshape(u.shape)


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


# The references' own copies of the coefficient tables, in the order of
# the published routines: Cody's CALERF arrays A, B, C, D, P, Q, and
# Wichura's AS 241 A0-A7, B1-B7, C0-C7, D1-D7, E0-E7, F1-F7.  numerics lists
# the same numbers by ascending power, so the oracles share no table with it.
_ERF_A = (
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)
_ERF_C = (
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERF_D = (
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)
_ERF_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_ERF_Q = (
    2.56852019228982242e00,
    1.87295284992346047e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)
_INV_SQRT_PI = 5.6418958354775628695e-1
_PPND_A = (
    3.3871328727963666080e00,
    1.3314166789178437745e02,
    1.9715909503065514427e03,
    1.3731693765509461125e04,
    4.5921953931549871457e04,
    6.7265770927008700853e04,
    3.3430575583588128105e04,
    2.5090809287301226727e03,
)
_PPND_B = (
    4.2313330701600911252e01,
    6.8718700749205790830e02,
    5.3941960214247511077e03,
    2.1213794301586595867e04,
    3.9307895800092710610e04,
    2.8729085735721942674e04,
    5.2264952788528545610e03,
)
_PPND_C = (
    1.42343711074968357734e00,
    4.63033784615654529590e00,
    5.76949722146069140550e00,
    3.64784832476320460504e00,
    1.27045825245236838258e00,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_PPND_D = (
    2.05319162663775882187e00,
    1.67638483018380384940e00,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_PPND_E = (
    6.65790464350110377720e00,
    5.46378491116411436990e00,
    1.78482653991729133580e00,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_PPND_F = (
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _poly_reference(coeffs: tuple[float, ...], r: np.ndarray) -> np.ndarray:
    out = np.full_like(r, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = out * r + c
    return out


def _erf_small_reference(x: np.ndarray) -> np.ndarray:
    y = x * x
    num = _ERF_A[4] * y
    den = y
    for i in range(3):
        num = (num + _ERF_A[i]) * y
        den = (den + _ERF_B[i]) * y
    return x * (num + _ERF_A[3]) / (den + _ERF_B[3])


def _erfc_mid_reference(x: np.ndarray) -> np.ndarray:
    num = _ERF_C[8] * x
    den = x
    for i in range(7):
        num = (num + _ERF_C[i]) * x
        den = (den + _ERF_D[i]) * x
    return np.exp(-x * x) * (num + _ERF_C[7]) / (den + _ERF_D[7])


def _erfc_large_reference(x: np.ndarray) -> np.ndarray:
    y = 1.0 / (x * x)
    num = _ERF_P[5] * y
    den = y
    for i in range(4):
        num = (num + _ERF_P[i]) * y
        den = (den + _ERF_Q[i]) * y
    r = y * (num + _ERF_P[4]) / (den + _ERF_Q[4])
    with np.errstate(under="ignore"):
        return np.exp(-x * x) * (_INV_SQRT_PI - r) / x


def erfc_reference(x):
    """erfc with each Cody regime evaluated on its own masked gather, by
    the algorithm whose bytes numerics.erfc must reproduce."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    a = np.abs(arr)
    pos = np.empty_like(a)
    small = a <= 0.46875
    large = a > 4.0
    mid = ~small & ~large
    if small.any():
        pos[small] = 1.0 - _erf_small_reference(a[small])
    if mid.any():
        pos[mid] = _erfc_mid_reference(a[mid])
    if large.any():
        pos[large] = _erfc_large_reference(a[large])
    out = np.where(arr >= 0.0, pos, 2.0 - pos)
    return float(out[0]) if scalar else out


def normal_quantile_reference(p):
    """AS 241 with the central and the two tail regimes each evaluated on
    its own masked gather, by the algorithm whose bytes
    numerics.normal_quantile must reproduce."""
    arr = np.asarray(p, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("normal_quantile requires probabilities strictly inside (0, 1)")
    q = arr - 0.5
    out = np.empty_like(arr)
    central = np.abs(q) <= 0.425
    if central.any():
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * _poly_reference(_PPND_A, r) / (1.0 + r * _poly_reference(_PPND_B, r))
    t = ~central
    if t.any():
        qt = q[t]
        r = np.where(qt < 0.0, arr[t], 1.0 - arr[t])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        val = np.empty_like(r)
        if near.any():
            rn = r[near] - 1.6
            val[near] = _poly_reference(_PPND_C, rn) / (1.0 + rn * _poly_reference(_PPND_D, rn))
        far = ~near
        if far.any():
            rf = r[far] - 5.0
            val[far] = _poly_reference(_PPND_E, rf) / (1.0 + rf * _poly_reference(_PPND_F, rf))
        out[t] = np.where(qt < 0.0, -val, val)
    return float(out[0]) if scalar else out
