"""Self-contained special functions and one-dimensional adaptive quadrature.

Everything here is implemented from scratch on top of numpy so that the
numerical foundation of the test statistics is auditable end to end:

* ``erf``/``erfc`` use Cody-style rational approximations (three regimes),
  accurate to well below 1e-12 absolute error.
* ``normal_quantile`` uses the Wichura AS 241 rational approximation.
* ``integrate`` is an adaptive 15-point Gauss-Kronrod scheme that splits
  the worst interval until the summed error estimate meets the tolerance.

``erfc`` and ``normal_quantile`` evaluate their regimes over an array in
one pass each: the widest regime (the middle one of ``erfc``, the central
one of ``normal_quantile``) runs over the whole flattened array, and the
others run only on the indices that fall in them, overwriting those
entries.  ``erf`` runs its small regime and ``erfc``'s over the whole
array and selects between them.  Every regime keeps its coefficients,
bounds and operation order, so a non-NaN value does not depend on the
array around it; a NaN's sign bit may (numpy's SIMD and scalar loops
differ there).  The six rational regimes evaluate every polynomial with
``_horner`` (Horner's rule in place, ``out += c; out *= r``, the same two
roundings per step as ``out * r + c``) from tables of ascending powers.

The special functions take the ``elementwise`` contract: an array gives an
array of its shape, and a scalar a Python float.  All functions are pure;
they hold no shared mutable state and are safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

__all__ = [
    "erf",
    "erfc",
    "normal_cdf",
    "normal_quantile",
    "chi2_1_critical",
    "chi2_1_sf",
    "QuadratureError",
    "integrate",
]

SQRT2 = math.sqrt(2.0)


def elementwise(fn: Callable) -> Callable:
    """fn under the elementwise contract: its last argument, the value, reaches
    fn as a float64 array of at least one dimension, fn returns an array of
    that shape, and a scalar value (0-d) gives a Python float."""

    @functools.wraps(fn)
    def apply(*args):
        x = np.asarray(args[-1], dtype=np.float64)
        out = fn(*args[:-1], np.atleast_1d(x))
        return float(out[0]) if x.ndim == 0 else out

    return apply


def _horner(coeffs: tuple[float, ...], r: np.ndarray) -> np.ndarray:
    """c0 + c1 r + ... + ck r^k (k >= 1) in a new array, starting from ck r."""
    out = coeffs[-1] * r
    for c in coeffs[-2:0:-1]:
        out += c
        out *= r
    out += coeffs[0]
    return out


# ---------------------------------------------------------------------------
# erf / erfc: rational approximations after W. J. Cody (1969), as in the
# classic CALERF routine.  Three regimes: |x| <= 0.46875, 0.46875 < |x| <= 4,
# and |x| > 4.  Double precision coefficients, ~1e-16 relative accuracy.
# CALERF's arrays A, B, C, D, P, Q, each listed by ascending power.
# ---------------------------------------------------------------------------

# erf(x) = x * A(x^2) / B(x^2) on |x| <= 0.46875
_ERF_A = (
    3.20937758913846947e03,
    3.77485237685302021e02,
    1.13864154151050156e02,
    3.16112374387056560e00,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.84423683343917062e03,
    1.28261652607737228e03,
    2.44024637934444173e02,
    2.36012909523441209e01,
    1.0,
)
# erfc(x) = exp(-x^2) * C(x) / D(x) on 0.46875 < x <= 4
_ERF_C = (
    1.23033935479799725e03,
    2.05107837782607147e03,
    1.71204761263407058e03,
    8.81952221241769090e02,
    2.98635138197400131e02,
    6.61191906371416295e01,
    8.88314979438837594e00,
    5.64188496988670089e-1,
    2.15311535474403846e-8,
)
_ERF_D = (
    1.23033935480374942e03,
    3.43936767414372164e03,
    4.36261909014324716e03,
    3.29079923573345963e03,
    1.62138957456669019e03,
    5.37181101862009858e02,
    1.17693950891312499e02,
    1.57449261107098347e01,
    1.0,
)
# erfc(x) = exp(-x^2)/x * (1/sqrt(pi) - y P(y) / Q(y)), y = 1/x^2, on x > 4
_ERF_P = (
    6.58749161529837803e-4,
    1.60837851487422766e-2,
    1.25781726111229246e-1,
    3.60344899949804439e-1,
    3.05326634961232344e-1,
    1.63153871373020978e-2,
)
_ERF_Q = (
    2.33520497626869185e-3,
    6.05183413124413191e-2,
    5.27905102951428412e-1,
    1.87295284992346047e00,
    2.56852019228982242e00,
    1.0,
)
_INV_SQRT_PI = 5.6418958354775628695e-1


def _erf_small(x: np.ndarray) -> np.ndarray:
    y = x * x
    num = _horner(_ERF_A, y)
    num *= x
    num /= _horner(_ERF_B, y)
    return num


def _erfc_mid(x: np.ndarray) -> np.ndarray:
    e = x * x
    np.negative(e, out=e)
    np.exp(e, out=e)
    e *= _horner(_ERF_C, x)
    e /= _horner(_ERF_D, x)
    return e


def _erfc_large(x: np.ndarray) -> np.ndarray:
    # exp(-x^2) underflows from x = 26.6; past x = 2**512 x^2 overflows to
    # inf, so 1/x^2 and exp(-x^2) are 0, and so is erfc(x) rounded
    with np.errstate(over="ignore", under="ignore"):
        xx = x * x
        y = 1.0 / xx
        r = _horner(_ERF_P, y)
        r *= y
        r /= _horner(_ERF_Q, y)
        np.subtract(_INV_SQRT_PI, r, out=r)
        np.negative(xx, out=xx)
        np.exp(xx, out=xx)
        xx *= r
        xx /= x
    return xx


def _erfc_positive(x: np.ndarray) -> np.ndarray:
    """erfc on x >= 0 without cancellation; NaN stays NaN."""
    flat = x.ravel()
    # the mid regime over every value: past it, x**8 overflows to inf / inf
    # and exp(-x*x) underflows, on values the other regimes overwrite
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = _erfc_mid(flat)
    small = np.flatnonzero(flat <= 0.46875)
    if small.size:
        out[small] = 1.0 - _erf_small(flat[small])
    large = np.flatnonzero(flat > 4.0)
    if large.size:
        out[large] = _erfc_large(flat[large])
    return out.reshape(x.shape)


@elementwise
def erf(x):
    """Error function, odd, values in (-1, 1); |error| below 1e-12."""
    # the small regime over every value: past it, x**8 overflows to inf / inf
    # on values the erfc form replaces
    a = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        small = _erf_small(x)
    return np.where(a <= 0.46875, small, np.sign(x) * (1.0 - _erfc_positive(a)))


@elementwise
def erfc(x):
    """Complementary error function 1 - erf(x), accurate in both tails."""
    pos = _erfc_positive(np.abs(x))
    return np.where(x >= 0.0, pos, 2.0 - pos)


@elementwise
def normal_cdf(x):
    """Standard normal CDF."""
    return 0.5 * erfc(-x / SQRT2)


# ---------------------------------------------------------------------------
# Standard normal quantile: Wichura's AS 241 (PPND16), relative accuracy
# about 1e-16.  A(r) / B(r) in r = 0.180625 - (p - 1/2)^2 on the central
# region; in r = sqrt(-log(min(p, 1-p))) on the tails, C(r - 1.6) / D(r - 1.6)
# up to r = 5 and E(r - 5) / F(r - 5) past it.  Ascending powers, as AS 241
# numbers them, with each denominator's unit constant term written out.
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
    1.0,
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
    1.0,
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
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


@elementwise
def normal_quantile(p):
    """Standard normal quantile (inverse CDF) for p strictly in (0, 1).

    Raises ValueError on p outside the open interval.
    """
    if not ((p > 0.0) & (p < 1.0)).all():  # NaN fails both
        raise ValueError("normal_quantile requires probabilities strictly inside (0, 1)")
    flat = p.ravel()
    q = flat - 0.5
    # the central rational over every value: |q| < 1/2, so r lies in
    # (-0.0694, 0.1806] and nothing overflows on the tail values it overwrites
    r = q * q
    np.subtract(0.180625, r, out=r)
    out = _horner(_PPND_A, r)
    out *= q
    out /= _horner(_PPND_B, r)
    tails = np.flatnonzero(np.abs(q) > 0.425)
    if tails.size:
        lower = q[tails] < 0.0
        pt = flat[tails]
        r = np.where(lower, pt, 1.0 - pt)
        np.log(r, out=r)
        np.negative(r, out=r)
        np.sqrt(r, out=r)
        # the near tail over every tail value (r < 27.3), then the far tail
        rn = r - 1.6
        val = _horner(_PPND_C, rn)
        val /= _horner(_PPND_D, rn)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            rf = r[far] - 5.0
            val[far] = _horner(_PPND_E, rf) / _horner(_PPND_F, rf)
        np.negative(val, out=val, where=lower)
        out[tails] = val
    return out.reshape(p.shape)


@elementwise
def chi2_1_sf(x):
    """Upper-tail probability of a chi-square with one degree of freedom.

    P(X > x) = 2 (1 - Phi(sqrt(x))) = erfc(sqrt(x/2)); x must be >= 0.
    """
    if not (x >= 0.0).all():  # NaN fails it
        raise ValueError("chi2_1_sf requires x >= 0")
    return erfc(np.sqrt(x / 2.0))


def chi2_1_critical(alpha: float) -> float:
    """Critical value c with P(chi2_1 > c) = alpha; the square of z_{1-alpha/2}."""
    if not (2.0**-53 < alpha < 1.0):  # at 2**-53 and below, 1 - alpha/2 rounds to 1
        raise ValueError(f"alpha must lie in (2**-53, 1), got {alpha!r}")
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


_ABS_TOL = 1e-10
_MAX_SUBDIVISIONS = 64


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted before the error target was met.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def eval_vectorized(f: Callable, x: np.ndarray) -> np.ndarray:
    """f over the array x in one call, or point by point when f is
    scalar-only (it raises TypeError or ValueError, or returns another shape)."""
    try:
        y = np.asarray(f(x), dtype=np.float64)
        if y.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        y = np.array([float(f(float(xi))) for xi in x.ravel()]).reshape(x.shape)
    return y


def _gk15(f: Callable, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = eval_vectorized(f, mid + half * _NODES15)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"integrand not finite on [{a}, {b}]")
    k15 = half * float(_WK15 @ y)
    g7 = half * float(_WG7 @ y)
    diff = abs(k15 - g7)
    # QUADPACK-style sharpened estimate, never larger than |K - G|
    err = min(diff, (200.0 * diff) ** 1.5)
    return k15, err


def integrate(f: Callable, a: float, b: float) -> float:
    """Integrate f over [a, b] adaptively to within _ABS_TOL (1e-10).

    The worst-error interval is bisected until the summed error estimate
    meets the tolerance.  Exceeding _MAX_SUBDIVISIONS (64) raises
    QuadratureError carrying the best estimate so far.
    """
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
        if total_err <= _ABS_TOL:
            return sum(iv[3] for iv in intervals)
        if splits >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"quadrature did not reach abs_tol={_ABS_TOL:g} within "
                f"{_MAX_SUBDIVISIONS} subdivisions (error ~ {total_err:.3g})",
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
