"""Self-contained special functions and one-dimensional adaptive quadrature.

Everything here is implemented from scratch on top of numpy so that the
numerical foundation of the test statistics is auditable end to end:

* ``erf``/``erfc`` use Cody-style rational approximations (three regimes),
  accurate to well below 1e-12 absolute error.
* ``normal_quantile`` uses the Wichura AS 241 rational approximation.
* ``integrate`` is an adaptive 15-point Gauss-Kronrod scheme that splits
  the worst interval until the summed error estimate meets the tolerance.

All functions accept scalars or numpy arrays and are pure; they hold no
shared mutable state and are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "erf",
    "erfc",
    "normal_cdf",
    "normal_quantile",
    "chi2_1_critical",
    "chi2_1_sf",
    "QuadratureSpec",
    "QuadratureError",
    "integrate",
]

SQRT2 = math.sqrt(2.0)

# ---------------------------------------------------------------------------
# erf / erfc: rational approximations after W. J. Cody (1969), as in the
# classic CALERF routine.  Three regimes: |x| <= 0.46875, 0.46875 < |x| <= 4,
# and |x| > 4.  Double precision coefficients, ~1e-16 relative accuracy.
# ---------------------------------------------------------------------------

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


def _erf_small(x: np.ndarray) -> np.ndarray:
    # |x| <= 0.46875:  erf(x) = x * P(x^2)/Q(x^2)
    y = x * x
    num = _ERF_A[4] * y
    den = y
    for i in range(3):
        num = (num + _ERF_A[i]) * y
        den = (den + _ERF_B[i]) * y
    return x * (num + _ERF_A[3]) / (den + _ERF_B[3])


def _erfc_mid(x: np.ndarray) -> np.ndarray:
    # 0.46875 < x <= 4:  erfc(x) = exp(-x^2) * P(x)/Q(x)
    num = _ERF_C[8] * x
    den = x
    for i in range(7):
        num = (num + _ERF_C[i]) * x
        den = (den + _ERF_D[i]) * x
    return np.exp(-x * x) * (num + _ERF_C[7]) / (den + _ERF_D[7])


def _erfc_large(x: np.ndarray) -> np.ndarray:
    # x > 4:  erfc(x) = exp(-x^2)/x * (1/sqrt(pi) - P(1/x^2)/Q(1/x^2)/x^2)
    y = 1.0 / (x * x)
    num = _ERF_P[5] * y
    den = y
    for i in range(4):
        num = (num + _ERF_P[i]) * y
        den = (den + _ERF_Q[i]) * y
    r = y * (num + _ERF_P[4]) / (den + _ERF_Q[4])
    with np.errstate(under="ignore"):
        return np.exp(-x * x) * (_INV_SQRT_PI - r) / x


def _erfc_positive(x: np.ndarray) -> np.ndarray:
    """erfc on x >= 0 without cancellation."""
    out = np.empty_like(x)
    small = x <= 0.46875
    large = x > 4.0
    mid = ~small & ~large
    if small.any():
        out[small] = 1.0 - _erf_small(x[small])
    if mid.any():
        out[mid] = _erfc_mid(x[mid])
    if large.any():
        out[large] = _erfc_large(x[large])
    return out


def _as_float_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    return arr, arr.ndim == 0


def erf(x):
    """Error function, odd, values in (-1, 1); |error| below 1e-12."""
    arr, scalar = _as_float_array(x)
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    a = np.abs(arr)
    small = a <= 0.46875
    if small.any():
        out[small] = _erf_small(arr[small])
    big = ~small
    if big.any():
        out[big] = np.sign(arr[big]) * (1.0 - _erfc_positive(a[big]))
    return float(out[0]) if scalar else out


def erfc(x):
    """Complementary error function 1 - erf(x), accurate in both tails."""
    arr, scalar = _as_float_array(x)
    arr = np.atleast_1d(arr)
    a = np.abs(arr)
    pos = _erfc_positive(a)
    out = np.where(arr >= 0.0, pos, 2.0 - pos)
    return float(out[0]) if scalar else out


def normal_cdf(x):
    """Standard normal CDF."""
    arr, scalar = _as_float_array(x)
    out = 0.5 * erfc(-np.atleast_1d(arr) / SQRT2)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Standard normal quantile: Wichura's AS 241 (PPND16), relative accuracy
# about 1e-16.  Rational in (p - 1/2)^2 on the central region, rational in
# sqrt(-log(min(p, 1-p))) on the tails.
# ---------------------------------------------------------------------------

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


def _poly(coeffs: tuple[float, ...], r: np.ndarray) -> np.ndarray:
    out = np.full_like(r, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = out * r + c
    return out


def normal_quantile(p):
    """Standard normal quantile (inverse CDF) for p strictly in (0, 1).

    Raises ValueError on p outside the open interval.
    """
    arr, scalar = _as_float_array(p)
    arr = np.atleast_1d(arr)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("normal_quantile requires probabilities strictly inside (0, 1)")
    q = arr - 0.5
    out = np.empty_like(arr)

    central = np.abs(q) <= 0.425
    if central.any():
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * _poly(_PPND_A, r) / (1.0 + r * _poly(_PPND_B, r))
    # tails
    t = ~central
    if t.any():
        qt = q[t]
        r = np.where(qt < 0.0, arr[t], 1.0 - arr[t])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        val = np.empty_like(r)
        if near.any():
            rn = r[near] - 1.6
            val[near] = _poly(_PPND_C, rn) / (1.0 + rn * _poly(_PPND_D, rn))
        far = ~near
        if far.any():
            rf = r[far] - 5.0
            val[far] = _poly(_PPND_E, rf) / (1.0 + rf * _poly(_PPND_F, rf))
        out[t] = np.where(qt < 0.0, -val, val)
    return float(out[0]) if scalar else out


def chi2_1_sf(x):
    """Upper-tail probability of a chi-square with one degree of freedom.

    P(X > x) = 2 (1 - Phi(sqrt(x))) = erfc(sqrt(x/2)); x must be >= 0.
    """
    arr, scalar = _as_float_array(x)
    arr = np.atleast_1d(arr)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise ValueError("chi2_1_sf requires x >= 0")
    out = erfc(np.sqrt(arr / 2.0))
    out = np.atleast_1d(out)
    return float(out[0]) if scalar else out


def chi2_1_critical(alpha: float) -> float:
    """Critical value c with P(chi2_1 > c) = alpha; the square of z_{1-alpha/2}."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    z = normal_quantile(1.0 - alpha / 2.0)
    return z * z


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature (7/15 pair).
# ---------------------------------------------------------------------------

# Kronrod nodes on [-1, 1]; odd-indexed entries are the embedded Gauss-7 nodes.
_GK_NODES = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.000000000000000000000000000000000,
    ]
)
_GK_WEIGHTS_K = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_GK_WEIGHTS_G = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

# Full symmetric node vector (15 points) and matching weight vectors.
_NODES15 = np.concatenate([-_GK_NODES[:-1], _GK_NODES[::-1]])
_WK15 = np.concatenate([_GK_WEIGHTS_K[:-1], _GK_WEIGHTS_K[::-1]])
_WG7 = np.zeros(15)
_WG7[1:14:2] = np.concatenate([_GK_WEIGHTS_G[:-1], _GK_WEIGHTS_G[::-1]])


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute error target and interval-splitting budget for `integrate`."""

    abs_tol: float = 1e-10
    max_subdivisions: int = 64

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted before the error target was met.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def _eval_vectorized(f: Callable, x: np.ndarray) -> np.ndarray:
    try:
        y = np.asarray(f(x), dtype=np.float64)
        if y.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        # integrand is scalar-only; evaluate pointwise
        y = np.array([float(f(float(xi))) for xi in x])
    return y


def _gk15(f: Callable, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = _eval_vectorized(f, mid + half * _NODES15)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"integrand not finite on [{a}, {b}]")
    k15 = half * float(_WK15 @ y)
    g7 = half * float(_WG7 @ y)
    diff = abs(k15 - g7)
    # QUADPACK-style sharpened estimate, never larger than |K - G|
    err = min(diff, (200.0 * diff) ** 1.5)
    return k15, err


def integrate(f: Callable, a: float, b: float, spec: QuadratureSpec | None = None) -> float:
    """Integrate f over [a, b] adaptively to within spec.abs_tol.

    The worst-error interval is bisected until the summed error estimate
    meets the tolerance.  Exceeding spec.max_subdivisions raises
    QuadratureError carrying the best estimate so far.
    """
    if spec is None:
        spec = QuadratureSpec()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if not a < b:
        raise ValueError("require a < b")

    val, err = _gk15(f, a, b)
    intervals = [(err, a, b, val)]
    splits = 0
    while True:
        total_err = sum(iv[0] for iv in intervals)
        if total_err <= spec.abs_tol:
            return sum(iv[3] for iv in intervals)
        if splits >= spec.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not reach abs_tol={spec.abs_tol:g} within "
                f"{spec.max_subdivisions} subdivisions (error ~ {total_err:.3g})",
                estimate=sum(iv[3] for iv in intervals),
                error=total_err,
            )
        intervals.sort(key=lambda iv: iv[0])
        _, lo, hi, _ = intervals.pop()
        mid = 0.5 * (lo + hi)
        vl, el = _gk15(f, lo, mid)
        vr, er = _gk15(f, mid, hi)
        intervals.append((el, lo, mid, vl))
        intervals.append((er, mid, hi, vr))
        splits += 1
