import math
import warnings
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest
from helpers import ar_recurse_reference, generator_sample, uniform_open01
from hypothesis import example, given, settings, strategies as st

from entropygof import numerics as nm
from entropygof import sampling as sp
from entropygof.harness import _KS_NULLS
from entropygof.kstest import ks_statistic

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

    @pytest.mark.parametrize("field", ["master_seed", "stream_id"])
    @pytest.mark.parametrize("word", [1.5, 1.0, math.nan, "1"])
    def test_key_words_are_integers(self, field, word):
        # 1.5 would be truncated and draw the stream of SeedSpec(1, 1)
        with pytest.raises(ValueError, match=f"{field} must be an unsigned 64-bit integer, got {word!r}"):
            sp.SeedSpec(**{"master_seed": 1, "stream_id": 1, field: word})
        assert sp.SeedSpec(np.uint64(1), np.int64(1)) == sp.SeedSpec(1, 1)

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
        u = uniform_open01(sp.SeedSpec(1, 1).generator(), 10**6)
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
    @pytest.mark.parametrize("cls", [sp.ARProcess, sp.MAProcess])
    def test_checked_alike(self, cls):
        # both take a non-empty list of finite coefficients and an iid innovation
        assert cls([1, np.float32(0.5)]) == cls((1.0, 0.5))
        assert all(type(c) is float for c in astuple(cls([1, np.float32(0.5)]))[0])
        with pytest.raises(ValueError, match=f"^{cls.__name__} needs at least one coefficient$"):
            cls(())
        with pytest.raises(ValueError, match=f"^{cls.__name__} .* must be finite$"):
            cls((0.5, math.inf))
        for innovation in (sp.ARProcess((0.5,)), sp.MAProcess((0.5,))):
            with pytest.raises(ValueError, match="^process innovations must be an iid distribution$"):
                cls((0.5,), innovation)

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


# unsigned 64-bit key words, with both ends of the range always in play
_KEY_WORDS = st.one_of(st.sampled_from((0, 2**64 - 1)), st.integers(0, 2**64 - 1))


class TestBlocks:
    @settings(max_examples=100, deadline=None)
    @given(count=st.integers(1, 4200), master_seed=_KEY_WORDS, first=_KEY_WORDS, trials=st.integers(1, 4))
    def test_uniform_block_matches_generator(self, count, master_seed, first, trials):
        # the counter-based layout: a stream is its key with the counter at zero;
        # a first key word at 2**64 - 1 puts the block's last stream there
        first = min(first, 2**64 - trials)
        block = sp.uniform_block(sp.SeedSpec(master_seed, first), trials, count)
        assert block.shape == (trials, count)
        for b, row in enumerate(block):
            want = uniform_open01(sp.SeedSpec(master_seed, first + b).generator(), count)
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trials", [0, -3])
    def test_empty_block_rejected(self, trials):
        with pytest.raises(ValueError, match=f"trials = {trials}"):
            sp.sample(sp.Normal(), 10, sp.SeedSpec(3, 0), trials)
        with pytest.raises(ValueError, match=f"trials = {trials}"):
            sp.uniform_block(sp.SeedSpec(3, 0), trials, 10)

    def test_block_past_the_last_stream_rejected(self):
        # streams are unsigned 64-bit key words, so a block may not run past 2**64 - 1
        with pytest.raises(ValueError, match=f"ends at stream {2**64} "):
            sp.uniform_block(sp.SeedSpec(5, 2**64 - 1), 2, 10)
        with pytest.raises(ValueError, match=f"stream {2**64 - 2}"):
            sp.sample(sp.Normal(), 10, sp.SeedSpec(5, 2**64 - 2), 3)
        assert sp.uniform_block(sp.SeedSpec(5, 2**64 - 2), 2, 10).shape == (2, 10)

    @settings(max_examples=80, deadline=None)
    @given(
        spec=st.sampled_from(_MENU),
        n=st.integers(1, 150),
        trials=st.integers(1, 6),
        master_seed=_KEY_WORDS,
        first=st.integers(0, 2**63),
    )
    def test_rows_match_generator_draws(self, spec, n, trials, master_seed, first):
        block = sp.sample(spec, n, sp.SeedSpec(master_seed, first), trials)
        assert block.shape == (trials, n)
        for b, row in enumerate(block):
            want = generator_sample(spec, n, sp.SeedSpec(master_seed, first + b).generator())
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [s for s in _MENU if isinstance(s, sp.ARProcess)])
    @pytest.mark.parametrize("n", [1, 50, 100])
    def test_wide_ar_blocks_match_generator_draws(self, spec, n):
        trials = 40
        assert trials >= sp._AR_STEP_ROWS  # the time-stepped path
        block = sp.sample(spec, n, sp.SeedSpec(2024, 0), trials)
        assert block.shape == (trials, n)
        for b, row in enumerate(block):
            assert row.tobytes() == generator_sample(spec, n, sp.SeedSpec(2024, b).generator()).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        rho=st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=4).map(tuple),
        rows=st.integers(1, 100),
        steps=st.integers(1, 400),
        seed=st.integers(0, 2**64 - 1),
        cauchy=st.booleans(),
    )
    # rows that overflow to inf, and to nan for two lags, on both paths
    @example(rho=(1000.0,), rows=4, steps=150, seed=0, cauchy=False)
    @example(rho=(1000.0,), rows=81, steps=150, seed=0, cauchy=False)
    @example(rho=(1000.0, -1000.0), rows=4, steps=150, seed=0, cauchy=True)
    @example(rho=(1000.0, -1000.0), rows=81, steps=150, seed=0, cauchy=True)
    def test_ar_recurse_matches_reference(self, rho, rows, steps, seed, cauchy):
        innovation = sp.Cauchy() if cauchy else sp.Normal()
        u = sp.sample(innovation, rows * steps, sp.SeedSpec(seed)).reshape(rows, steps)
        assert sp._ar_recurse(rho, u).tobytes() == ar_recurse_reference(rho, u).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        first=st.integers(0, 2**63),
        trials=st.integers(0, 3000),
        words=st.integers(1, 3 * 4 * sp._BLOCK_WORDS),
        spec=st.sampled_from(_MENU),
    )
    def test_seed_blocks_cover_the_range_within_budget(self, first, trials, words, spec):
        blocks = list(sp.seed_blocks(7, first, first + trials, words, spec))
        streams = [seed.stream_id + b for seed, count in blocks for b in range(count)]
        assert streams == list(range(first, first + trials))
        assert all(seed.master_seed == 7 for seed, _ in blocks)
        # a trial whose AR recursion steps over time gets 4 times the budget;
        # only a single trial may draw more words than its block's budget
        steps = isinstance(spec, sp.ARProcess) and not spec.is_random_walk
        budget = 4 * sp._BLOCK_WORDS if steps else sp._BLOCK_WORDS
        assert all(count == 1 or count * words <= budget for _, count in blocks)
        assert all(count == max(1, budget // words) for _, count in blocks[:-1])
        if not steps:
            # every other spec keeps the blocks of an iid spec
            assert blocks == list(sp.seed_blocks(7, first, first + trials, words, sp.Normal()))

    def test_block_must_fit_the_spec(self):
        u = sp.uniform_block(sp.SeedSpec(3, 0), 2, 10)
        with pytest.raises(ValueError):
            sp.sample_using(sp.Normal(), 11, u)

    @settings(max_examples=80, deadline=None)
    @given(
        spec=st.sampled_from(_MENU),
        n=st.integers(1, 150),
        trials=st.integers(1, 6),
        master_seed=st.integers(0, 2**64 - 1),
        first=st.integers(0, 2**63),
    )
    def test_rows_match_single_draws(self, spec, n, trials, master_seed, first):
        block = sp.sample(spec, n, sp.SeedSpec(master_seed, first), trials)
        assert block.shape == (trials, n)
        for b, row in enumerate(block):
            assert row.tobytes() == sp.sample(spec, n, sp.SeedSpec(master_seed, first + b)).tobytes()


DBL_MAX = np.finfo(np.float64).max
# one spec of each ks-simple null type whose scaling of x overflows at DBL_MAX
_EXTREME_NULLS = (
    sp.Normal(1.0, 0.5),
    sp.Uniform(0.0, 0.5),
    sp.Exponential(3.0, -1.0),
    sp.Cauchy(0.5, 0.25),
    sp.StudentT(3, 0.5),
    sp.StudentT(4, 0.5),
    sp.CenteredLogNormal(2.0),
)


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
        # far below the shift expm1 overflowed, on values the CDF then set to 0
        assert list(sp.cdf(sp.Exponential(1.0, 0.0), [-1000.0, -np.inf, 0.0])) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("spec", _EXTREME_NULLS, ids=sp.spec_label)
    def test_extremes_are_exact_without_warnings(self, spec):
        """At +-DBL_MAX and +-inf the CDF is exactly 0 or 1, also where
        scaling x overflows (scales below 1, rates above 1)."""
        xs = [-DBL_MAX, -math.inf, DBL_MAX, math.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sp.cdf(spec, xs).tolist() == [0.0, 0.0, 1.0, 1.0]
            assert [sp.cdf(spec, x) for x in xs] == [0.0, 0.0, 1.0, 1.0]
            assert ks_statistic([-DBL_MAX], partial(sp.cdf, spec)) == 1.0

    def test_extreme_nulls_cover_every_ks_null_type(self):
        assert {type(spec) for spec in _EXTREME_NULLS} == set(_KS_NULLS)

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


def test_student_t_float_dof():
    spec = sp.StudentT(3.0)
    assert spec.dof == 3 and type(spec.dof) is int
    seed = sp.SeedSpec(12, 0)
    assert np.array_equal(sp.sample(spec, 50, seed), sp.sample(sp.StudentT(3), 50, seed))
    assert sp.spec_label(spec) == "t:3:1"


class TestColonGrammar:
    # labels as the grammar printed them before it moved into one table
    @pytest.mark.parametrize(
        "spec,label",
        [
            (sp.Normal(0.2, 1.0), "normal:0.2:1"),
            (sp.Normal(0, 1), "normal:0:1"),
            (sp.Normal(1e-7, 1234567.0), "normal:1e-07:1.23457e+06"),
            (sp.Uniform(-SQRT3, SQRT3), "uniform:-1.73205:1.73205"),
            (sp.Uniform(0.5 - SQRT3, 0.5 + SQRT3), "uniform:-1.23205:2.23205"),
            (sp.Exponential(1.0, -1.0), "exponential:1:-1"),
            (sp.Exponential(2.5), "exponential:2.5:0"),
            (sp.Cauchy(0.0, 2.0 / math.pi), "cauchy:0:0.63662"),
            (sp.StudentT(3), "t:3:1"),
            (sp.StudentT(3.0), "t:3:1"),
            (sp.StudentT(2, 0.57735), "t:2:0.57735"),
            (sp.StudentT(1234567), "t:1234567:1"),
            (sp.StudentT(1234567.0), "t:1234567:1"),
            (sp.CenteredLogNormal(0.94062), "clognormal:0.94062"),
            (sp.ARProcess((0.5,), sp.Normal(0, 2)), "ar:0.5"),
            (sp.ARProcess((1.0,)), "ar:1"),
            (sp.ARProcess((0.5, 0.25, 0.125), sp.StudentT(3)), "ar:0.5:0.25:0.125"),
            (sp.MAProcess((0.5, 0.25), sp.Normal(0, 2)), "ma:0.5:0.25"),
        ],
    )
    def test_label(self, spec, label):
        assert sp.spec_label(spec) == label

    @pytest.mark.parametrize(
        "text,spec",
        [
            ("normal", sp.Normal(0, 1)),
            ("N:0.5", sp.Normal(0.5, 1)),
            (" Normal : 0 : 1 ", sp.Normal(0, 1)),
            ("normal:1e-3:2E2", sp.Normal(0.001, 200)),
            ("uniform : 0 : 1", sp.Uniform(0, 1)),
            ("expo", sp.Exponential(1, 0)),
            ("EXPONENTIAL:2", sp.Exponential(2, 0)),
            ("cauchy", sp.Cauchy(0, 1)),
            ("cauchy:1", sp.Cauchy(1, 1)),
            ("T:3:0.57735", sp.StudentT(3, 0.57735)),
            ("t:3.0", sp.StudentT(3)),
            ("clognormal:0.94062", sp.CenteredLogNormal(0.94062)),
            ("AR:1", sp.ARProcess((1.0,))),
            ("ma:0.5:0.25", sp.MAProcess((0.5, 0.25))),
        ],
    )
    def test_parse(self, text, spec):
        assert sp.parse_distribution(text) == spec

    def test_process_innovation(self):
        innov = sp.StudentT(3)
        assert sp.parse_distribution("ma:0.4", innov) == sp.MAProcess((0.4,), innov)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("normal:0:1:5", r"expected normal\[:mu\]\[:sigma\]"),
            ("cauchy:0:1:2", r"expected cauchy\[:loc\]\[:scale\]"),
            ("expo:1:0:0", r"expected exponential\[:rate\]\[:shift\]"),
            ("uniform:1:2:3", "expected uniform:low:high"),
            ("clognormal:1:2", "expected clognormal:sigma2_log"),
            ("t:3:1:1", r"expected t:dof\[:scale\]"),
            ("ar", "expected ar:rho"),
            ("t:2.7", "integer"),
            ("t:1e400", "integer"),
            # a spec's own check names the entry it came from
            ("t:2.7", r"^'t:2.7': StudentT dof must be an integer >= 2$"),
            ("normal:0:-1", r"^'normal:0:-1': Normal sigma must be positive$"),
            ("normal:inf:1", r"^'normal:inf:1': Normal mu must be finite$"),
            ("normal:nan:1", "Normal mu must be finite"),
            ("uniform:0:inf", "Uniform high must be finite"),
            ("uniform:-inf:0", "Uniform low must be finite"),
            ("cauchy:0:inf", "Cauchy scale must be finite"),
            ("exponential:inf", "Exponential rate must be finite"),
            ("expo:1:nan", "Exponential shift must be finite"),
            ("t:3:inf", "StudentT scale must be finite"),
            ("clognormal:inf", "CenteredLogNormal sigma2_log must be finite"),
            ("clognormal:2000", r"^'clognormal:2000': CenteredLogNormal sigma2_log must be at most 2 ln\(DBL_MAX\)"),
            ("ar:inf", r"^'ar:inf': ARProcess rho must be finite$"),
            ("ma:0.5:nan", "MAProcess theta must be finite"),
        ],
    )
    def test_rejects(self, text, match):
        with pytest.raises(ValueError, match=match):
            sp.parse_distribution(text)
