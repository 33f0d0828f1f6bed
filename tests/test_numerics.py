import math
import re
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropygof import numerics as nm
from entropygof.moments import sinc_kernel
from entropygof.sampling import StudentT, cdf
from helpers import erf_series, erfc_reference, normal_cdf_series, normal_quantile_reference, quantile_bisect

# oracle values frozen from 40-digit evaluation of the stated closed forms
ERF_INV_SQRT2 = 0.6826894921370859
PHI_1 = 0.8413447460685429
Q_975 = 1.9599639845400542
CHI2_CRIT_05 = 3.841458820694126
CHI2_CRIT_50 = 0.4549364231195728
GAUSS_CF_INTEGRAL = 1.7112487837842976  # sqrt(2*pi) * (2*Phi(1) - 1)
COS_PI_GAUSS_INTEGRAL = 0.1676338799218981


class TestErf:
    def test_zero(self):
        assert nm.erf(0.0) == 0.0

    def test_saturation(self):
        assert nm.erf(6.0) == pytest.approx(1.0, abs=1e-12)
        assert nm.erf(-6.0) == pytest.approx(-1.0, abs=1e-12)

    def test_inv_sqrt2(self):
        assert nm.erf(1.0 / math.sqrt(2.0)) == pytest.approx(ERF_INV_SQRT2, abs=1e-9)

    def test_against_series_oracle(self):
        for x in np.linspace(-3.0, 3.0, 241):
            assert nm.erf(float(x)) == pytest.approx(erf_series(float(x)), abs=1e-13)

    def test_range(self):
        # open interval holds wherever 1 - |erf| is representable in doubles
        xs = np.linspace(-5.8, 5.8, 1001)
        vals = nm.erf(xs)
        assert np.all(vals > -1.0) and np.all(vals < 1.0)

    @given(st.floats(-8.0, 8.0, allow_nan=False))
    def test_odd(self, x):
        assert nm.erf(-x) == -nm.erf(x)

    def test_erfc_tail_accuracy(self):
        # erfc(5) ~ 1.537e-12 must keep relative accuracy, not cancel to 0
        assert nm.erfc(5.0) == pytest.approx(1.5374597944280349e-12, rel=1e-10)
        assert nm.erfc(-5.0) == pytest.approx(2.0 - 1.5374597944280349e-12, abs=1e-15)

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 2.0])
        out = nm.erf(xs)
        assert out.shape == xs.shape
        assert out[1] == 0.0


class TestNormal:
    def test_cdf_center(self):
        assert nm.normal_cdf(0.0) == 0.5

    def test_cdf_one(self):
        assert nm.normal_cdf(1.0) == pytest.approx(PHI_1, abs=1e-9)

    def test_cdf_monotone(self):
        xs = np.linspace(-8, 8, 2001)
        vals = nm.normal_cdf(xs)
        assert np.all(np.diff(vals) >= 0.0)

    def test_quantile_975(self):
        assert nm.normal_quantile(0.975) == pytest.approx(Q_975, abs=1e-5)
        assert nm.normal_quantile(0.975) == pytest.approx(quantile_bisect(0.975), abs=1e-9)

    def test_quantile_domain(self):
        for p in (0.0, -0.0, 1.0, -0.1, 1.1, math.nan, math.inf, [[0.5, 0.2], [0.7, math.nan]]):
            with pytest.raises(ValueError, match="strictly inside"):
                nm.normal_quantile(p)

    def test_roundtrip_grid(self):
        ps = np.linspace(0.001, 0.999, 1000)
        back = nm.normal_cdf(nm.normal_quantile(ps))
        assert np.max(np.abs(back - ps)) < 1e-10

    def test_quantile_tails(self):
        # spot-check far tails against the series-free identity cdf(q) = p
        for p in (1e-9, 1e-14, 1 - 1e-12):
            q = nm.normal_quantile(p)
            assert nm.normal_cdf(q) == pytest.approx(p, rel=1e-8)


def _ulps(points, lo, hi) -> list[float]:
    """Each point with its neighbours one ulp toward lo and toward hi."""
    return [v for x in points for v in (math.nextafter(x, lo), x, math.nextafter(x, hi))]


# the regime bounds of AS 241 (|p - 1/2| = 0.425, r = 5) and the extremes of (0, 1)
P_EDGES = np.array(
    _ulps((0.075, 0.925, 0.5, math.exp(-25.0), -math.expm1(-25.0)), 0.0, 1.0)
    + [2.0**-1074, 2.0**-1073, 1.0 - 2.0**-53, 1.0 - 2.0**-52]
)
# the regime bounds of erfc, signed zeros, the underflow of exp(-x^2), and
# past x = 2**512, where x^2 overflows
X_EDGES = np.array(
    _ulps((0.46875, 4.0, 2.0**512, 1e300), 0.0, math.inf)
    + list(np.linspace(26.0, 27.5, 31))
    + [0.0, math.inf, 5e-324, 1.7976931348623157e308]
)
X_EDGES = np.concatenate([X_EDGES, -X_EDGES])

# (), (n,), (B, n), and the (B, dof + 1, n) uniforms of a t(dof) block
SHAPES = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 60)),
    st.tuples(st.integers(1, 12), st.integers(1, 60)),
    st.tuples(st.integers(1, 5), st.integers(3, 4), st.integers(1, 30)),
)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _mixed(rng: np.random.Generator, shape, body: np.ndarray, edges: np.ndarray, edge_share: float) -> np.ndarray:
    return np.where(rng.random(shape) < edge_share, rng.choice(edges, size=shape), body)


class TestRegimeOracles:
    """normal_quantile and erfc evaluate their regimes one pass each, and
    their bytes equal those of the masked-gather references."""

    @given(shape=SHAPES, seed=st.integers(0, 2**32 - 1), edge_share=st.sampled_from((0.0, 0.2, 1.0)))
    @settings(max_examples=150, deadline=None)
    def test_normal_quantile_bytes(self, shape, seed, edge_share):
        rng = np.random.default_rng(seed)
        # uniforms, with a share pushed into the deep tails on either side
        u = np.maximum(rng.random(shape), 2.0**-60)
        deep = np.where(
            u < 0.5, 10.0 ** -rng.uniform(1.0, 300.0, shape), 1.0 - 2.0 ** -rng.uniform(4.0, 53.0, shape)
        )
        body = np.where(rng.random(shape) < 0.2, deep, u)
        p = _mixed(rng, shape, body, P_EDGES, edge_share)
        got, want = nm.normal_quantile(p), normal_quantile_reference(p)
        assert np.shape(got) == np.shape(p)
        assert type(got) is (float if shape == () else np.ndarray)
        assert _bits(got).tobytes() == _bits(want).tobytes()

    @given(st.floats(min_value=2.0**-1074, max_value=1.0 - 2.0**-53))
    def test_normal_quantile_scalar_bytes(self, p):
        assert _bits(nm.normal_quantile(p)) == _bits(normal_quantile_reference(p))

    @given(shape=SHAPES, seed=st.integers(0, 2**32 - 1), edge_share=st.sampled_from((0.0, 0.2, 1.0)))
    @settings(max_examples=150, deadline=None)
    def test_erfc_bytes(self, shape, seed, edge_share):
        rng = np.random.default_rng(seed)
        body = rng.standard_normal(shape) * rng.choice((0.3, 1.0, 4.0, 30.0), size=shape)
        x = _mixed(rng, shape, body, X_EDGES, edge_share)
        got = nm.erfc(x)
        # the reference squares x unguarded, which overflows past 2**512
        with np.errstate(over="ignore"):
            want = erfc_reference(x)
        assert np.shape(got) == np.shape(x)
        assert _bits(got).tobytes() == _bits(want).tobytes()

    @given(st.floats(allow_nan=False))
    def test_erfc_scalar_bytes(self, x):
        with np.errstate(over="ignore"):
            want = erfc_reference(x)
        assert _bits(nm.erfc(x)) == _bits(want)

    def test_erfc_nan_stays_nan(self):
        out = nm.erfc(np.array([[math.nan, 1.0], [-math.nan, 5.0]]))
        assert np.isnan(out[:, 0]).all() and not np.isnan(out[:, 1]).any()
        assert math.isnan(nm.erfc(math.nan)) and math.isnan(nm.normal_cdf(math.nan))


# the functions under numerics.elementwise, each with the values of its domain
ELEMENTWISE = {
    "erf": (nm.erf, st.floats()),
    "erfc": (nm.erfc, st.floats()),
    "normal_cdf": (nm.normal_cdf, st.floats()),
    "normal_quantile": (nm.normal_quantile, st.floats(2.0**-1074, 1.0 - 2.0**-53)),
    "chi2_1_sf": (nm.chi2_1_sf, st.floats(min_value=0.0)),
    "sinc_kernel": (sinc_kernel, st.floats(allow_nan=False, allow_infinity=False)),
    "cdf": (partial(cdf, StudentT(3, 1.0)), st.floats(allow_nan=False, allow_infinity=False)),
}


@pytest.mark.parametrize("name", sorted(ELEMENTWISE))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_elementwise_contract(name, data):
    """A scalar gives a Python float bit-equal to the one-element array's
    entry; a (B, n) block or the (B, dof + 1, n) uniforms of a t(dof) block
    keep their shape, and each entry is the scalar call's (numpy's SIMD and
    scalar loops may give a NaN different sign bits, so NaNs compare as NaN)."""
    f, values = ELEMENTWISE[name]
    x = data.draw(values)
    got = f(x)
    assert type(got) is float
    assert _bits(got) == _bits(f(np.array([x])))[0] == _bits(f(np.float64(x)))
    shape = data.draw(st.sampled_from(((3, 5), (2, 4, 3))))
    block = np.array(data.draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    out = f(block)
    assert type(out) is np.ndarray and out.shape == shape
    want = np.reshape([f(float(v)) for v in block.ravel()], shape)
    assert _bits(np.where(np.isnan(out), np.nan, out)).tolist() == _bits(np.where(np.isnan(want), np.nan, want)).tolist()


class TestChiSquare1:
    def test_critical_005(self):
        assert nm.chi2_1_critical(0.05) == pytest.approx(3.841459, abs=1e-5)
        assert nm.chi2_1_critical(0.05) == pytest.approx(CHI2_CRIT_05, abs=1e-10)

    def test_critical_05(self):
        assert nm.chi2_1_critical(0.5) == pytest.approx(0.454936, abs=1e-5)
        assert nm.chi2_1_critical(0.5) == pytest.approx(CHI2_CRIT_50, abs=1e-10)

    def test_sf_zero(self):
        assert nm.chi2_1_sf(0.0) == 1.0
        assert nm.chi2_1_sf(-0.0) == 1.0

    def test_sf_critical_inverse(self):
        for alpha in (0.01, 0.05, 0.1, 0.5, 0.9):
            assert nm.chi2_1_sf(nm.chi2_1_critical(alpha)) == pytest.approx(alpha, abs=1e-10)

    def test_domains(self):
        for x in (-1.0, math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match="x >= 0"):
                nm.chi2_1_sf(x)
        for alpha in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                nm.chi2_1_critical(alpha)
        # where 1 - alpha/2 rounds to 1 the error names alpha, not the quantile's p
        for alpha in (2.0**-53, 1e-17, 1e-100, 5e-324):
            with pytest.raises(ValueError, match=re.escape(f"alpha must lie in (2**-53, 1), got {alpha!r}")):
                nm.chi2_1_critical(alpha)
        assert nm.chi2_1_sf(nm.chi2_1_critical(2.3e-16)) == pytest.approx(2.3e-16, rel=0.5)

    def test_sf_squared_normal_identity(self):
        # P(chi2_1 > x) = 2(1 - Phi(sqrt(x))) -- independent series route
        for x in (0.3, 1.0, 2.7, 5.0):
            assert nm.chi2_1_sf(x) == pytest.approx(2.0 * (1.0 - normal_cdf_series(math.sqrt(x))), abs=1e-12)


class TestQuadrature:
    def test_constant(self):
        assert nm.integrate(lambda t: np.ones_like(t), -1, 1) == pytest.approx(2.0, abs=1e-12)

    def test_odd(self):
        assert nm.integrate(lambda t: t, -1, 1) == pytest.approx(0.0, abs=1e-12)
        assert nm.integrate(lambda t: t**3 - 4 * t, -2, 2) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_cf(self):
        val = nm.integrate(lambda t: np.exp(-0.5 * t * t), -1, 1)
        assert val == pytest.approx(GAUSS_CF_INTEGRAL, abs=1e-8)

    def test_oscillatory(self):
        val = nm.integrate(lambda t: np.cos(np.pi * t) * np.exp(-0.5 * t * t), -1, 1)
        assert val == pytest.approx(COS_PI_GAUSS_INTEGRAL, abs=1e-8)

    @pytest.mark.parametrize("degree", range(14))
    def test_polynomial_exactness(self, degree):
        coeffs = np.arange(1, degree + 2, dtype=float)
        exact = sum(
            c / (k + 1) * (2.5 ** (k + 1) - (-1.5) ** (k + 1)) for k, c in enumerate(coeffs)
        )
        val = nm.integrate(lambda t: np.polynomial.polynomial.polyval(t, coeffs), -1.5, 2.5)
        assert val == pytest.approx(exact, abs=1e-12 * max(1.0, abs(exact)))

    def test_scalar_integrand_fallback(self):
        val = nm.integrate(lambda t: math.exp(-0.5 * t * t), -1, 1)
        assert val == pytest.approx(GAUSS_CF_INTEGRAL, abs=1e-8)

    def test_budget_exhaustion(self):
        jittery = lambda t: np.sin(200.0 / (np.abs(t) + 1e-3))  # noqa: E731
        with mock.patch.object(nm, "_ABS_TOL", 1e-12), mock.patch.object(nm, "_MAX_SUBDIVISIONS", 3):
            with pytest.raises(nm.QuadratureError) as err:
                nm.integrate(jittery, -1, 1)
        assert math.isfinite(err.value.estimate)
        assert err.value.error > 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            nm.integrate(lambda t: t, 1.0, -1.0)
        with pytest.raises(ValueError):
            nm.integrate(lambda t: t, 0.0, math.inf)

    def test_nonfinite_integrand_rejected(self):
        def pole(t):
            with np.errstate(divide="ignore"):
                return 1.0 / t

        with pytest.raises(ValueError):
            nm.integrate(pole, -1.0, 1.0)
