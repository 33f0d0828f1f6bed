import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entropygof import moments as mo
from entropygof import numerics as nm
from entropygof.sampling import Cauchy, Normal, SeedSpec, sample

GAUSS_CF_INTEGRAL = 1.7112487837842976
COS_PI_GAUSS_INTEGRAL = 0.1676338799218981
TWO_SIN_1 = 1.6829419696157930


class TestSincKernel:
    def test_at_zero(self):
        assert mo.sinc_kernel(0.0) == 2.0

    def test_at_pi(self):
        assert abs(mo.sinc_kernel(math.pi)) < 1e-12

    def test_at_one(self):
        assert mo.sinc_kernel(1.0) == pytest.approx(TWO_SIN_1, abs=1e-9)

    def test_taylor_guard_continuity(self):
        below, above = mo.sinc_kernel(1e-6 * 0.999), mo.sinc_kernel(1e-6 * 1.001)
        assert below == pytest.approx(above, abs=1e-12)
        assert mo.sinc_kernel(1e-9) == pytest.approx(2.0, abs=1e-12)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_bounded_by_two(self, z):
        assert abs(mo.sinc_kernel(z)) <= 2.0

    def test_vectorized(self):
        out = mo.sinc_kernel(np.array([0.0, math.pi, 1.0]))
        assert out.shape == (3,)
        assert out[0] == 2.0


class TestNormalCfIntegral:
    def test_standard(self):
        assert mo.normal_cf_integral(0.0, 1.0) == pytest.approx(GAUSS_CF_INTEGRAL, abs=1e-9)

    def test_closed_form_cross_check(self):
        # sqrt(2 pi) (2 Phi(1) - 1) via the package's own erf: dual route
        want = math.sqrt(2.0 * math.pi) * nm.erf(1.0 / math.sqrt(2.0))
        assert mo.normal_cf_integral(0.0, 1.0) == pytest.approx(want, abs=1e-12)

    def test_wide_sigma_collapses(self):
        val = mo.normal_cf_integral(0.0, 40.0)
        assert 0.0 < val < 0.07

    def test_oscillatory_vs_riemann_oracle(self):
        t = (np.arange(10**6) + 0.5) / 10**6 * 2.0 - 1.0
        oracle = float(np.mean(np.cos(np.pi * t) * np.exp(-0.5 * t * t))) * 2.0
        val = mo.normal_cf_integral(math.pi, 1.0)
        assert val == pytest.approx(oracle, abs=1e-6)
        assert val == pytest.approx(COS_PI_GAUSS_INTEGRAL, abs=1e-9)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            mo.normal_cf_integral(0.0, 0.0)


class TestConstraints:
    def test_standard_normal_constraint(self):
        con = mo.build_standard_normal_constraint()
        assert con.target == pytest.approx(GAUSS_CF_INTEGRAL, abs=1e-9)
        assert con.values([0.0])[0] == pytest.approx(2.0 - GAUSS_CF_INTEGRAL, abs=1e-9)
        # g -> -target as the kernel decays
        assert con.values([1e9])[0] == pytest.approx(-con.target, abs=1e-8)

    def test_constraint_root(self):
        con = mo.build_standard_normal_constraint()
        lo, hi = 0.1, 2.0  # kernel decreasing through the target on this range
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mo.sinc_kernel(mid) > con.target:
                lo = mid
            else:
                hi = mid
        assert con.values([0.5 * (lo + hi)])[0] == pytest.approx(0.0, abs=1e-9)

    def test_cauchy_sin_constraint(self):
        con = mo.build_cauchy_sin_constraint()
        assert con.target == 0.0
        assert con.values([0.0])[0] == 0.0
        assert con.values([math.pi / 2.0])[0] == pytest.approx(1.0, abs=1e-12)
        z = np.array([0.3, -0.3, 1.7, -1.7])
        assert np.mean(con.values(z)) == pytest.approx(0.0, abs=1e-15)

    def test_generic_cf_constraint_matches_normal(self):
        con = mo.build_cf_constraint(lambda t: np.exp(-0.5 * t * t), label="gauss")
        assert con.target == pytest.approx(GAUSS_CF_INTEGRAL, abs=1e-10)
        assert con.label == "gauss"

    def test_generic_cf_constraint_uniform(self):
        # CF of Uniform(-sqrt(3), sqrt(3)) at it is sin(sqrt(3) t)/(sqrt(3) t)
        s3 = math.sqrt(3.0)

        def cf(t):
            safe = np.where(t == 0, 1.0, s3 * t)
            return np.where(t == 0, 1.0, np.sin(safe) / safe)

        con = mo.build_cf_constraint(cf)
        t = (np.arange(10**6) + 0.5) / 10**6 * 2.0 - 1.0
        oracle = 2.0 * float(np.mean(np.sin(s3 * t) / (s3 * t)))
        assert con.target == pytest.approx(oracle, abs=1e-6)


class TestStandardize:
    def test_shift(self):
        assert np.allclose(mo.standardize([1.0, 2.0, 3.0], 2.0, 1.0), [-1.0, 0.0, 1.0])

    def test_identity(self):
        x = np.array([0.4, -0.2])
        assert np.array_equal(mo.standardize(x, 0.0, 1.0), x)

    def test_scale(self):
        assert mo.standardize([4.0], 2.0, 2.0)[0] == 1.0

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            mo.standardize([1.0], 0.0, 0.0)


class TestNullMoment:
    def test_normal_null_mean_zero(self):
        con = mo.build_standard_normal_constraint()
        g = con.values(sample(Normal(0, 1), 10**6, SeedSpec(2024, 0)))
        se = g.std() / math.sqrt(g.size)
        assert abs(g.mean()) < 4.0 * se

    def test_cauchy_null_mean_zero(self):
        con = mo.build_cauchy_sin_constraint()
        g = con.values(sample(Cauchy(0, 1), 10**6, SeedSpec(2024, 1)))
        se = g.std() / math.sqrt(g.size)
        assert abs(g.mean()) < 4.0 * se


class TestRunEtTest:
    def test_null_accept_typical(self):
        data = sample(Normal(0, 1), 2000, SeedSpec(2024, 2))
        res = mo.run_et_test(data, mo.build_standard_normal_constraint())
        assert not res.reject
        assert res.p_value > 0.05
        assert res.critical == pytest.approx(3.841459, abs=1e-5)

    def test_shifted_reject(self):
        data = sample(Normal(1, 1), 500, SeedSpec(2024, 3))
        res = mo.run_et_test(data, mo.build_standard_normal_constraint())
        assert res.reject and res.p_value < 1e-6

    def test_infeasible_is_rejection(self):
        # all observations far out: every g negative
        res = mo.run_et_test([40.0, 41.0, 39.0], mo.build_standard_normal_constraint())
        assert math.isinf(res.statistic)
        assert res.reject and res.p_value == 0.0

    def test_standardized_null(self):
        raw = sample(Normal(7.0, 3.0), 2000, SeedSpec(2024, 4))
        z = mo.standardize(raw, 7.0, 3.0)
        res = mo.run_et_test(z, mo.build_standard_normal_constraint())
        assert not res.reject
