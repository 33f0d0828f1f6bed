import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropygof import numerics as nm
from entropygof import sampling as sp

SQRT3 = math.sqrt(3.0)

# frozen from exact solution of (e^s - 1) e^s = 4: s = ln((1 + sqrt(17))/2)
CLOG_SIGMA2_VAR4 = 0.9406136421072088
CLOG_SHIFT_VAR4 = 1.600485180440241


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            sp.SeedSpec(-1, 0)
        with pytest.raises(ValueError):
            sp.SeedSpec(0, 1 << 64)
        sp.SeedSpec(2**64 - 1, 2**64 - 1)  # boundary ok

    def test_reproducible(self):
        seed = sp.SeedSpec(987654321, 13)
        a = sp.sample(sp.Normal(0, 1), 4096, seed)
        # interleave unrelated draws; stream state must not leak
        sp.sample(sp.Cauchy(0, 1), 100, sp.SeedSpec(987654321, 14))
        b = sp.sample(sp.Normal(0, 1), 4096, seed)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sp.sample(sp.Normal(0, 1), 64, sp.SeedSpec(5, 0))
        b = sp.sample(sp.Normal(0, 1), 64, sp.SeedSpec(5, 1))
        assert not np.array_equal(a, b)

    def test_stream_independence(self):
        n = 10**5
        x = sp.sample(sp.Normal(0, 1), n, sp.SeedSpec(42, 0))
        y = sp.sample(sp.Normal(0, 1), n, sp.SeedSpec(42, 1))
        assert abs(np.corrcoef(x, y)[0, 1]) < 4.0 / math.sqrt(n)

    def test_uniform_open01_strictly_inside(self):
        u = sp.uniform_open01(sp.SeedSpec(1, 1).generator(), 10**6)
        assert u.min() > 0.0 and u.max() < 1.0


class TestIidSamplers:
    def test_normal_lln(self):
        z = sp.sample(sp.Normal(0, 1), 10**6, sp.SeedSpec(11, 0))
        assert abs(z.mean()) < 4e-3  # 4 standard errors
        assert abs(z.var() - 1.0) < 1e-2

    def test_normal_affine(self):
        z = sp.sample(sp.Normal(3.0, 0.5), 10**5, sp.SeedSpec(11, 1))
        assert abs(z.mean() - 3.0) < 4 * 0.5 / math.sqrt(10**5)

    def test_uniform_support(self):
        u = sp.sample(sp.Uniform(-SQRT3, SQRT3), 10**5, sp.SeedSpec(11, 2))
        assert u.min() >= -SQRT3 and u.max() <= SQRT3
        assert abs(u.var() - 1.0) < 2e-2

    def test_centered_exponential_mean(self):
        e = sp.sample(sp.Exponential(1.0, -1.0), 10**6, sp.SeedSpec(11, 3))
        assert abs(e.mean()) < 4e-3
        assert abs(e.var() - 1.0) < 2e-2

    def test_scaled_t3_unit_variance(self):
        # the t(3) variance estimator itself has infinite variance, so a
        # single big-sample check is unstable; use the median of batches
        batch_vars = [
            sp.sample(sp.StudentT(3, 1.0 / SQRT3), 10**5, sp.SeedSpec(11, 100 + i)).var()
            for i in range(10)
        ]
        assert np.median(batch_vars) == pytest.approx(1.0, abs=0.05)
        t = sp.sample(sp.StudentT(3, 1.0 / SQRT3), 10**6, sp.SeedSpec(11, 4))
        assert abs(t.var() - 1.0) < 0.25

    def test_cauchy_median_and_quartiles(self):
        c = sp.sample(sp.Cauchy(0, 1), 10**6, sp.SeedSpec(11, 5))
        q25, q50, q75 = np.quantile(c, [0.25, 0.5, 0.75])
        assert abs(q50) < 0.01
        assert abs(q25 + 1.0) < 0.02 and abs(q75 - 1.0) < 0.02

    def test_centered_lognormal_moments(self):
        spec = sp.CenteredLogNormal(CLOG_SIGMA2_VAR4)
        x = sp.sample(spec, 10**6, sp.SeedSpec(11, 6))
        assert abs(x.mean()) < 4.0 * 2.0 / 1000.0
        assert abs(x.var() - 4.0) < 0.15
        assert x.min() > -spec.shift  # support bound

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            sp.Normal(0, 0.0)
        with pytest.raises(ValueError):
            sp.Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            sp.Exponential(0.0)
        with pytest.raises(ValueError):
            sp.Cauchy(0, -1.0)
        with pytest.raises(ValueError):
            sp.StudentT(1)
        with pytest.raises(ValueError):
            sp.StudentT(3, 0.0)
        with pytest.raises(ValueError):
            sp.CenteredLogNormal(0.0)
        with pytest.raises(ValueError):
            sp.sample(sp.Normal(0, 1), 0, sp.SeedSpec(0, 0))


class TestProcesses:
    def test_random_walk_is_cumsum(self):
        seed = sp.SeedSpec(21, 0)
        walk = sp.sample(sp.ARProcess((1.0,), sp.Normal(0, 2)), 50, seed)
        innov = sp.sample(sp.Normal(0, 2), 50, seed)
        assert np.allclose(walk, np.cumsum(innov), rtol=0, atol=0)

    def test_ar1_stationary_variance(self):
        spec = sp.ARProcess((0.5,), sp.Normal(0, 2))
        acc = 0.0
        trials = 60
        for t in range(trials):
            path = sp.sample(spec, 2000, sp.SeedSpec(21, 1 + t))
            acc += path.var()
        # innovation var 4 -> stationary var 4 / (1 - 0.25)
        assert acc / trials == pytest.approx(16.0 / 3.0, rel=0.05)

    def test_ar_burn_in_discards_transient(self):
        # zero start + 100-step burn-in: early output already near stationary scale
        spec = sp.ARProcess((0.9,), sp.Normal(0, 1))
        first = [sp.sample(spec, 1, sp.SeedSpec(21, 100 + t))[0] for t in range(4000)]
        assert np.var(first) == pytest.approx(1.0 / (1.0 - 0.81), rel=0.1)

    def test_ma_matches_manual_recursion(self):
        seed = sp.SeedSpec(21, 2)
        theta = (0.5, 0.25)
        out = sp.sample(sp.MAProcess(theta, sp.Normal(0, 2)), 200, seed)
        u = sp.sample(sp.Normal(0, 2), 202, seed)  # 2 pre-sample draws first
        manual = u[2:] + 0.5 * u[1:-1] + 0.25 * u[:-2]
        assert np.allclose(out, manual, rtol=0, atol=0)

    def test_ma_variance(self):
        x = sp.sample(sp.MAProcess((0.5, 0.25), sp.Normal(0, 2)), 10**5, sp.SeedSpec(21, 3))
        assert x.var() == pytest.approx(4.0 * (1 + 0.25 + 0.0625), rel=0.05)

    def test_process_invariants(self):
        with pytest.raises(ValueError):
            sp.ARProcess((), sp.Normal())
        with pytest.raises(ValueError):
            sp.MAProcess((), sp.Normal())
        inner = sp.ARProcess((0.5,), sp.Normal())
        with pytest.raises(ValueError):
            sp.ARProcess((0.5,), inner)
        with pytest.raises(ValueError):
            sp.MAProcess((0.5,), inner)


# every spec kind of the study menu, with non-default parameters and innovations
_MENU = (
    sp.Normal(0.3, 2.0),
    sp.Uniform(-1.0, 2.0),
    sp.Exponential(2.0, -0.5),
    sp.Cauchy(0.1, 3.0),
    sp.StudentT(3, 0.7),
    sp.CenteredLogNormal(0.5),
    sp.ARProcess((0.5,), sp.Normal(0, 2)),
    sp.ARProcess((1.0,)),
    sp.ARProcess((0.3, 0.2), sp.StudentT(4)),
    sp.MAProcess((0.5, -0.25), sp.Normal(0, 2)),
    sp.MAProcess((0.4,), sp.Cauchy()),
)


class TestBlocks:
    @settings(max_examples=80, deadline=None)
    @given(
        spec=st.sampled_from(_MENU),
        n=st.integers(1, 150),
        trials=st.integers(1, 6),
        master_seed=st.integers(0, 2**64 - 1),
        first=st.integers(0, 2**63),
    )
    def test_rows_match_single_draws(self, spec, n, trials, master_seed, first):
        seeds = [sp.SeedSpec(master_seed, first + t) for t in range(trials)]
        block = sp.sample(spec, n, seeds)
        assert block.shape == (trials, n)
        for seed, row in zip(seeds, block):
            assert row.tobytes() == sp.sample(spec, n, seed).tobytes()


class TestCdf:
    def test_normal_center(self):
        assert sp.cdf(sp.Normal(0, 1), 0.0) == 0.5

    def test_cauchy_quartile(self):
        assert sp.cdf(sp.Cauchy(0, 1), 1.0) == pytest.approx(0.75, abs=1e-12)

    def test_uniform_identity(self):
        assert sp.cdf(sp.Uniform(0, 1), 0.3) == pytest.approx(0.3, abs=1e-12)
        assert sp.cdf(sp.Uniform(0, 1), -1.0) == 0.0
        assert sp.cdf(sp.Uniform(0, 1), 2.0) == 1.0

    def test_monotone_and_limits(self):
        xs = np.linspace(-50, 50, 4001)
        for spec in (
            sp.Normal(0.5, 2.0),
            sp.Cauchy(-1, 0.7),
            sp.Exponential(2.0, -3.0),
            sp.StudentT(2),
            sp.StudentT(3, 1 / SQRT3),
            sp.StudentT(5, 2.0),
            sp.CenteredLogNormal(0.94),
        ):
            vals = sp.cdf(spec, xs)
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[0] < 0.02 and vals[-1] > 0.98

    @pytest.mark.parametrize("dof", [2, 3, 4, 5])
    def test_student_t_vs_quadrature_oracle(self, dof):
        # density normalizing constants for integer dof, no gamma function needed
        const = {
            2: 1.0 / (2.0 * math.sqrt(2.0)),
            3: 2.0 / (math.pi * SQRT3),
            4: 3.0 / 8.0,
            5: 8.0 / (3.0 * math.pi * math.sqrt(5.0)),
        }[dof]

        def density(t):
            return const * (1.0 + t * t / dof) ** (-(dof + 1) / 2.0)

        for x in (0.4, 1.0, 2.3):
            want = 0.5 + nm.integrate(density, 0.0, x)
            assert sp.cdf(sp.StudentT(dof), x) == pytest.approx(want, abs=1e-9)

    def test_exponential_cdf(self):
        spec = sp.Exponential(1.0, -1.0)
        assert sp.cdf(spec, -1.0) == 0.0
        assert sp.cdf(spec, 0.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_process_rejected(self):
        with pytest.raises(TypeError):
            sp.cdf(sp.ARProcess((0.5,), sp.Normal()), 0.0)
        with pytest.raises(TypeError):
            sp.cdf(sp.MAProcess((0.5,), sp.Normal()), 0.0)


class TestCenteredLognormalParams:
    def test_matches_variance_four(self):
        s2, shift = sp.centered_lognormal_params(4.0)
        assert s2 == pytest.approx(CLOG_SIGMA2_VAR4, abs=1e-12)
        assert shift == pytest.approx(CLOG_SHIFT_VAR4, abs=1e-12)
        # published parameterization agrees to 1e-4
        assert s2 == pytest.approx(0.94062, abs=1e-4)
        assert shift == pytest.approx(math.exp(0.94062 / 2.0), abs=1e-4)

    def test_solves_defining_equation(self):
        for v in (0.1, 1.0, 4.0, 25.0):
            s2, shift = sp.centered_lognormal_params(v)
            es = math.exp(s2)
            assert (es - 1.0) * es == pytest.approx(v, rel=1e-12)
            assert shift == pytest.approx(math.exp(s2 / 2.0), rel=1e-12)

    def test_degenerate_limit(self):
        s2, _ = sp.centered_lognormal_params(1e-9)
        assert 0.0 < s2 < 1e-8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sp.centered_lognormal_params(0.0)


def test_spec_labels_roundtrip():
    from entropygof.harness import parse_distribution

    specs = [
        sp.Normal(0.2, 1.0),
        sp.Uniform(-SQRT3, SQRT3),
        sp.Exponential(1.0, -1.0),
        sp.Cauchy(0.0, 2.0 / math.pi),
        sp.StudentT(3),
        sp.CenteredLogNormal(0.94062),
    ]
    for spec in specs:
        label = sp.spec_label(spec)
        assert "," not in label
        parsed = parse_distribution(label)
        assert type(parsed) is type(spec)
