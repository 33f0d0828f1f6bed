import contextlib
import math
import multiprocessing
import os
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropygof import harness as hz
from entropygof import kstest as ks
from entropygof import sampling, tables
from entropygof.numerics import normal_cdf, normal_quantile
from entropygof.regression import (
    LinearModelSpec,
    null_trial_ks_distance,
    ols_fit,
    simulate_model,
    standardized_residuals,
)
from entropygof.sampling import (
    Cauchy,
    CenteredLogNormal,
    Exponential,
    Normal,
    SeedSpec,
    StudentT,
    Uniform,
    sample,
)

K_ALPHA_05 = 1.3580986393225506  # frozen: bisection on the limit series at 40 digits
D_GOLDEN_3PT = 0.1746780794018763  # 1/3 - Phi(-1)


def _put_records(path, writer: int, count: int, start) -> None:
    cache = ks.CalibrationCache(path)
    start.wait(timeout=60)
    for i in range(count):
        cache.put(100 + i, 0.05, 2, 1000, writer, 0.001 * i + writer)


class TestStatistic:
    def test_single_point_median(self):
        assert ks.ks_statistic([0.0], normal_cdf) == pytest.approx(0.5, abs=1e-15)

    def test_equispaced_quantiles(self):
        n = 40
        data = normal_quantile((np.arange(1, n + 1) - 0.5) / n)
        assert ks.ks_statistic(data, normal_cdf) == pytest.approx(0.5 / n, abs=1e-12)

    def test_three_point_golden(self):
        assert ks.ks_statistic([-1.0, 0.0, 1.0], normal_cdf) == pytest.approx(
            D_GOLDEN_3PT, abs=1e-9
        )

    def test_unsorted_input_ok(self):
        a = ks.ks_statistic([1.0, -1.0, 0.0], normal_cdf)
        b = ks.ks_statistic([-1.0, 0.0, 1.0], normal_cdf)
        assert a == b

    def test_bounds(self):
        data = sample(Normal(0, 1), 200, SeedSpec(77, 0))
        d = ks.ks_statistic(data, normal_cdf)
        assert 0.0 <= d <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks.ks_statistic([], normal_cdf)

    def test_monotone_transform_invariance(self):
        data = sample(Normal(0, 1), 300, SeedSpec(77, 1))
        d1 = ks.ks_statistic(data, normal_cdf)
        d2 = ks.ks_statistic(np.exp(data), lambda y: normal_cdf(np.log(y)))
        assert d1 == pytest.approx(d2, abs=1e-14)

    def test_scalar_only_cdf_supported(self):
        d = ks.ks_statistic([0.0, 1.0], lambda x: float(normal_cdf(float(x))))
        assert d == pytest.approx(ks.ks_statistic([0.0, 1.0], normal_cdf), abs=1e-15)


def _scalar_only_normal_cdf(x):
    if not isinstance(x, float):
        raise TypeError("this CDF takes one float")
    return normal_cdf(x)


class TestBlockStatistic:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 6),
        n=st.integers(1, 60),
        seed=st.integers(0, 2**32),
        ties=st.booleans(),
        scalar_only=st.booleans(),
    )
    def test_rows_match_vector_calls(self, rows, n, seed, ties, scalar_only):
        data = sample(Normal(0, 1), rows * n, SeedSpec(seed, 0)).reshape(rows, n)
        if ties:
            data = np.round(data, 1)
        cdf = _scalar_only_normal_cdf if scalar_only else normal_cdf
        block = ks.ks_statistic(data, cdf)
        assert block.shape == (rows,)
        assert block.tolist() == [ks.ks_statistic(row, cdf) for row in data]

    def test_vector_gives_float(self):
        assert isinstance(ks.ks_statistic(np.zeros(3), normal_cdf), float)

    def test_other_shapes_rejected(self):
        with pytest.raises(ValueError):
            ks.ks_statistic(np.zeros((2, 2, 2)), normal_cdf)
        with pytest.raises(ValueError):
            ks.ks_statistic(np.zeros((3, 0)), normal_cdf)
        # NaN data, as a vector and as one row of a block
        with pytest.raises(ValueError, match="NaN"):
            ks.run_ks_test([math.nan, 0.1, 0.5, -0.3], normal_cdf, 0.5)
        with pytest.raises(ValueError, match="NaN"):
            ks.ks_statistic(np.array([[0.1, 0.5, -0.3], [0.2, math.nan, 0.4]]), normal_cdf)


class TestCriticalValues:
    def test_k_alpha(self):
        assert ks.kolmogorov_critical(0.05) == pytest.approx(1.35810, abs=1e-4)
        assert ks.kolmogorov_critical(0.05) == pytest.approx(K_ALPHA_05, abs=1e-9)

    def test_sf_inverts(self):
        for alpha in (0.01, 0.05, 0.2, 0.5):
            assert ks.kolmogorov_sf(ks.kolmogorov_critical(alpha)) == pytest.approx(alpha, abs=1e-9)

    @pytest.mark.parametrize("alpha", [3.9e-22, 3.8e-22, 1e-30, 1e-300])
    def test_k_alpha_in_the_far_tail(self, alpha):
        """Past K = 5, where the bisection's bracket ends, K is the series'
        first term inverted; the series gives alpha back on both sides of 5."""
        k = ks.kolmogorov_critical(alpha)
        assert k == pytest.approx(math.sqrt(math.log(2.0 / alpha) / 2.0), rel=1e-9)
        assert ks.kolmogorov_sf(k) == pytest.approx(alpha, rel=1e-8)

    def test_k_alpha_near_one(self):
        """Down to 1 - alpha = 1e-14 K matches the Jacobi-theta form of the
        lower tail, sqrt(2 pi)/K sum exp(-(2j - 1)**2 pi**2 / (8 K**2)); within
        1e-15 of 1 the series cannot resolve 1 - alpha, and alpha is refused."""
        for tail in (1e-3, 1e-8, 1e-14):
            k = ks.kolmogorov_critical(1.0 - tail)
            terms = (math.exp(-((2 * j - 1) ** 2) * math.pi**2 / (8 * k * k)) for j in (1, 2, 3))
            assert math.sqrt(2.0 * math.pi) / k * sum(terms) == pytest.approx(1.0 - (1.0 - tail), rel=0.05)
        for alpha in (1.0 - 2.0**-53, 1.0 - 2.0**-52):
            with pytest.raises(ValueError, match=re.escape(f"alpha must lie in (0, 1 - 1e-15], got {alpha!r}")):
                ks.kolmogorov_critical(alpha)

    def test_critical_simple_n100(self):
        # formula value; the classical table prints 0.13403 for this cell
        crit = ks.ks_critical_simple(100, 0.05)
        assert crit == pytest.approx(0.1340537596804413, abs=2e-5)
        assert crit == pytest.approx(0.13403, abs=3e-4)

    def test_large_n_asymptotics(self):
        n = 10**8
        assert ks.ks_critical_simple(n, 0.05) * math.sqrt(n) == pytest.approx(K_ALPHA_05, rel=1e-4)

    def test_domains(self):
        with pytest.raises(ValueError):
            ks.kolmogorov_critical(0.0)
        with pytest.raises(ValueError):
            ks.ks_critical_simple(0, 0.05)

    def test_null_calibration_cross_check(self):
        # MC 95th percentile of D under the null vs the inverted formula
        n, trials = 100, 10000
        ds = np.empty(trials)
        for t in range(trials):
            ds[t] = ks.ks_statistic(sample(Normal(0, 1), n, SeedSpec(4040, t)), normal_cdf)
        mc_crit = float(np.quantile(ds, 0.95))
        assert mc_crit == pytest.approx(ks.ks_critical_simple(n, 0.05), abs=0.003)


class TestRunKsTest:
    def test_decisions(self):
        data = sample(Normal(0, 1), 400, SeedSpec(88, 0))
        crit = ks.ks_critical_simple(400, 0.05)
        res = ks.run_ks_test(data, normal_cdf, crit)
        assert res.reject == (res.statistic > crit)
        assert 0.0 <= res.p_value <= 1.0
        shifted = ks.run_ks_test(data + 1.0, normal_cdf, crit)
        assert shifted.reject

    def test_bad_critical(self):
        with pytest.raises(ValueError):
            ks.run_ks_test([0.0, 1.0], normal_cdf, 0.0)


@pytest.mark.slow
class TestSimpleNullSize:
    @pytest.mark.parametrize("n", [25, 100, 1000])
    def test_size_within_tolerance(self, n):
        trials = 10000
        crit = ks.ks_critical_simple(n, 0.05)
        rej = 0
        for t in range(trials):
            d = ks.ks_statistic(sample(Normal(0, 1), n, SeedSpec(5050 + n, t)), normal_cdf)
            rej += d > crit
        assert rej / trials == pytest.approx(0.05, abs=0.01)


class _NoCache:
    """A cache that fails the test when lilliefors_critical reads it."""

    def get(self, *key):
        raise AssertionError("the cache was read before the inputs were checked")


class TestLilliefors:
    model = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)

    def test_requires_trials(self):
        with pytest.raises(ValueError, match="1000 trials"):
            ks.lilliefors_critical(self.model, 50, 0.05, trials=10, master_seed=1)

    @pytest.mark.parametrize(
        "n,alpha,trials,match",
        [
            (50, 0.05, 999, "trials"),
            (50, 0.0, 1000, "alpha"),
            (50, 1.0, 1000, "alpha"),
            (50, 1.5, 1000, "alpha"),
            (2, 0.05, 1000, "n > 2"),
            (0, 0.05, 1000, "n > 2"),
        ],
    )
    def test_inputs_checked_before_cache_read(self, n, alpha, trials, match):
        with pytest.raises(ValueError, match=match):
            ks.lilliefors_critical(self.model, n, alpha, trials, 1, _NoCache())

    @pytest.mark.parametrize(
        "n,trials,master_seed,match",
        [
            (50, 1000.5, 7, "trials must be an integer, got 1000.5"),
            (50.5, 1000, 7, "n must be an integer, got 50.5"),
            (True, 1000, 7, "n must be an integer, got True"),
            (50, 1000, 7.0, "master_seed must be an unsigned 64-bit integer, got 7.0"),
        ],
    )
    @pytest.mark.parametrize("cache", [None, _NoCache()], ids=["no-cache", "cache"])
    def test_inputs_are_integers(self, n, trials, master_seed, match, cache):
        # a float count failed with a bare TypeError inside the draw, and a
        # float seed read the cache records of its integer part
        with pytest.raises(ValueError, match=re.escape(match)):
            ks.lilliefors_critical(self.model, n, 0.05, trials, master_seed, cache)

    def test_numpy_integers_accepted(self):
        # a numpy n would overflow the calibration's stream arithmetic (first_stream)
        expected = ks.lilliefors_critical(self.model, 50, 0.05, 1000, 9)
        assert ks.lilliefors_critical(self.model, np.uint16(50), 0.05, np.int32(1000), 9) == expected

    def test_trials_fit_a_row_of_streams(self):
        # trial t at n draws stream 2**62 + n * 2**32 + t, so t < 2**32; no trial runs here
        with pytest.raises(ValueError, match=r"trials = 4294967301 exceeds 2\*\*32.*sampling.first_stream"):
            ks.lilliefors_critical(self.model, 50, 0.05, 2**32 + 5, 1, _NoCache())

    def test_deterministic(self):
        a = ks.lilliefors_critical(self.model, 60, 0.05, 1500, 9)
        b = ks.lilliefors_critical(self.model, 60, 0.05, 1500, 9)
        assert a == b

    def test_stream_layout(self):
        # trial t of the calibration at n draws from stream 2**62 + n * 2**32 + t
        n, trials = 30, 1000
        first = (1 << 62) + n * (1 << 32)
        distances = np.sort(null_trial_ks_distance(self.model, n, SeedSpec(9, first), trials))
        assert ks.lilliefors_critical(self.model, n, 0.05, trials, 9) == distances[949]

    @pytest.mark.parametrize("warm, other", [(0.05, 0.049999999999), (0.049999999999, 0.05)])
    def test_cache_keyed_by_rank(self, tmp_path, warm, other):
        # at 1000 trials the two alphas take order statistics 950 and 951,
        # though both format as 0.05 at 10 significant digits
        path = tmp_path / "cal.txt"
        ks.lilliefors_critical(self.model, 30, warm, 1000, 9, ks.CalibrationCache(path))
        cold = ks.lilliefors_critical(self.model, 30, other, 1000, 9)
        assert cold != ks.lilliefors_critical(self.model, 30, warm, 1000, 9)
        assert ks.lilliefors_critical(self.model, 30, other, 1000, 9, ks.CalibrationCache(path)) == cold
        assert ks.CalibrationCache(path).get(30, other, self.model.k, 1000, 9) == cold
        assert f"30,{other!r}," in path.read_text()

    def test_block_size_does_not_change_value(self, monkeypatch):
        blocked = ks.lilliefors_critical(self.model, 60, 0.05, 1000, 9)
        monkeypatch.setattr(sampling, "_BLOCK_WORDS", 1)
        assert ks.lilliefors_critical(self.model, 60, 0.05, 1000, 9) == blocked

    def test_below_simple_critical(self):
        # estimating parameters shrinks D; calibrated criticals reflect that
        crit = ks.lilliefors_critical(self.model, 120, 0.05, 3000, master_seed=11)
        assert crit < ks.ks_critical_simple(120, 0.05)

    def test_self_consistent_size(self):
        n, trials = 120, 4000
        crit = ks.lilliefors_critical(self.model, n, 0.05, 20000, master_seed=606)
        rej = 0
        for t in range(trials):
            y, X = simulate_model(self.model, n, SeedSpec(607, t), self.model.null_errors())
            fit = ols_fit(y, X)
            d = ks.ks_statistic(standardized_residuals(fit), normal_cdf)
            rej += d > crit
        assert rej / trials == pytest.approx(0.05, abs=0.012)


class TestCalibrationCache:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cal.txt"
        cache = ks.CalibrationCache(path)
        assert cache.get(100, 0.05, 2, 1000, 7) is None
        cache.put(100, 0.05, 2, 1000, 7, 0.0815)
        assert cache.get(100, 0.05, 2, 1000, 7) == 0.0815
        reloaded = ks.CalibrationCache(path)
        assert reloaded.get(100, 0.05, 2, 1000, 7) == 0.0815
        text = path.read_text()
        assert text.startswith("#")
        assert "100,0.05,2,1000,7," in text

    def test_ignores_junk_lines(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("# header\nnot,a,record\n100,0.05,2,1000,7,0.08\n")
        cache = ks.CalibrationCache(path)
        assert cache.get(100, 0.05, 2, 1000, 7) == 0.08

    def test_malformed_record_skipped(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("# header\n50,0.05,2,1000,1,0.1xyz\n60,inf,2,1000,1,0.1\n100,0.05,2,1000,7,0.08\n")
        cache = ks.CalibrationCache(path)
        assert cache.get(50, 0.05, 2, 1000, 1) is None
        assert cache.get(100, 0.05, 2, 1000, 7) == 0.08

    def test_torn_last_line_ignored(self, tmp_path):
        # the append of 0.1234 stopped after "0.12"
        path = tmp_path / "cal.txt"
        path.write_text("# header\n100,0.05,2,1000,7,0.08\n50,0.05,2,1000,1,0.12")
        cache = ks.CalibrationCache(path)
        assert cache.get(50, 0.05, 2, 1000, 1) is None
        assert cache.get(100, 0.05, 2, 1000, 7) == 0.08

    def test_put_after_torn_line(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("# header\n50,0.05,2,1000,1,0.12")
        ks.CalibrationCache(path).put(100, 0.05, 2, 1000, 7, 0.0815)
        assert path.read_text().endswith("100,0.05,2,1000,7,0.0815\n")
        reloaded = ks.CalibrationCache(path)
        assert reloaded.get(100, 0.05, 2, 1000, 7) == 0.0815
        assert reloaded.get(50, 0.05, 2, 1000, 1) is None

    def test_two_concurrent_writers(self, tmp_path):
        path = tmp_path / "cal.txt"
        ctx = multiprocessing.get_context("spawn")
        start = ctx.Barrier(2)
        writers = [ctx.Process(target=_put_records, args=(path, w, 200, start)) for w in range(2)]
        for p in writers:
            p.start()
        try:
            for p in writers:
                p.join(timeout=60)
            assert not any(p.is_alive() for p in writers)
        finally:
            for p in writers:
                if p.is_alive():
                    p.kill()
        assert [p.exitcode for p in writers] == [0, 0]
        lines = path.read_text().splitlines()
        assert sum(not line.startswith("#") for line in lines) == 400
        cache = ks.CalibrationCache(path)
        for w in range(2):
            for i in range(200):
                assert cache.get(100 + i, 0.05, 2, 1000, w) == 0.001 * i + w

    def test_lilliefors_critical_uses_cache(self, tmp_path):
        model = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)
        cache = ks.CalibrationCache(tmp_path / "cal.txt")
        first = ks.lilliefors_critical(model, 40, 0.05, 1000, 3, cache)
        # poison the stored value; a cache hit must return it verbatim
        cache.put(40, 0.05, model.k, 1000, 3, 0.123456)
        assert ks.lilliefors_critical(model, 40, 0.05, 1000, 3, cache) == 0.123456
        fresh = ks.CalibrationCache(tmp_path / "other.txt")
        assert ks.lilliefors_critical(model, 40, 0.05, 1000, 3, fresh) == first

    def test_cache_keyed_by_k(self, tmp_path):
        # one record per k: a model of three coefficients does not read the
        # record of two, and the record is written with k in plain digits
        path = tmp_path / "cal.txt"
        m2 = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)
        m3 = LinearModelSpec(beta=(1.0, 5.0, 2.0), sigma2=4.0)
        two = ks.lilliefors_critical(m2, 40, 0.05, 1000, 3, ks.CalibrationCache(path))
        three = ks.lilliefors_critical(m3, 40, 0.05, 1000, 3, ks.CalibrationCache(path))
        assert two != three
        assert ks.lilliefors_critical(m3, 40, 0.05, 1000, 3) == three
        records = path.read_text().splitlines()
        assert records[1:] == [f"40,0.05,2,1000,3,{two!r}", f"40,0.05,3,1000,3,{three!r}"]
        assert records[0] == "# n,alpha,k,trials,master_seed,critical"

    def test_cache_keyed_by_model(self, tmp_path):
        # the calibration runs at the canonical null of the design, so every
        # model of k = 2 has the cold critical bit for bit, whichever warmed the cache
        designs = (((2.0, 3.0), 4.0), ((1.0, 5.0), 4.0), ((0.0, 0.0), 1.0))
        models = [LinearModelSpec(beta=b, sigma2=s) for b, s in designs]
        cold = ks.lilliefors_critical(models[1], 50, 0.05, 2000, 123456789)
        assert cold == 0.12552818972052973
        cache = ks.CalibrationCache(tmp_path / "cal.txt")
        assert [ks.lilliefors_critical(m, 50, 0.05, 2000, 123456789, cache) for m in models] == [cold] * 3

    @pytest.mark.parametrize("design_id", ["b1b165ff4d1b", "000000000002"])
    def test_earlier_format_never_served(self, tmp_path, design_id):
        # b1b165ff4d1b is the 12-hex SHA-1 design id of (1, 5; 4) in the
        # earlier format; a digits-only id must not read as k either
        path = tmp_path / "cal.txt"
        path.write_text(f"# n,alpha,design_hash,trials,master_seed,critical\n40,0.05,{design_id},1000,3,0.123456\n")
        model = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)
        assert ks.CalibrationCache(path).get(40, 0.05, model.k, 1000, 3) is None
        cold = ks.lilliefors_critical(model, 40, 0.05, 1000, 3)
        assert ks.lilliefors_critical(model, 40, 0.05, 1000, 3, ks.CalibrationCache(path)) == cold != 0.123456


@contextlib.contextmanager
def _band_margin(delta: float):
    """ks._BAND_MARGIN set to delta, for the bands built inside."""
    kept = ks._BAND_MARGIN
    ks._BAND_MARGIN = delta
    try:
        yield
    finally:
        ks._BAND_MARGIN = kept


# one or two nulls of every type a ks-simple study takes
_BAND_NULLS = (
    Normal(0.0, 1.0),
    Normal(1.0, 0.5),
    Uniform(-math.sqrt(3.0), math.sqrt(3.0)),
    Exponential(1.0, -1.0),
    Cauchy(0.0, 1.0),
    StudentT(3, 1.0),
    StudentT(8, 2.0),
    CenteredLogNormal(0.5),
)
_A4_ALTERNATIVES = tuple(alt for _, alt in tables._NON_NORMAL)


def _near_bound(x: np.ndarray, bound: float, j: int, ulps: int) -> np.ndarray:
    """The sorted row x with its order statistic j moved to ulps doubles
    from bound, the others moved just enough to keep it at rank j."""
    v = bound
    for _ in range(abs(ulps)):
        v = np.nextafter(v, math.copysign(math.inf, ulps))
    x = np.sort(x)
    x[:j], x[j], x[j + 1 :] = np.minimum(x[:j], v), v, np.maximum(x[j + 1 :], v)
    return x


class TestBandDecision:
    def test_nulls_cover_every_simple_null_type(self):
        assert {type(null) for null in _BAND_NULLS} == set(hz._KS_NULLS)

    @pytest.mark.parametrize("delta", [ks._BAND_MARGIN, 0.02])
    @settings(max_examples=40, deadline=None)
    @given(
        null=st.sampled_from(_BAND_NULLS),
        n=st.sampled_from([1, 2, 25, 1000]),
        alpha=st.sampled_from([0.01, 0.05, 0.2]),
        seed=st.integers(0, 2**32),
        sources=st.lists(st.sampled_from((None,) + _A4_ALTERNATIVES), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_decisions_match_statistic(self, delta, null, n, alpha, seed, sources, data):
        """At the shipped margin and at a wide one, every row decides as its D
        does, and a row that gives neither +inf nor 0.0 gives D byte for byte;
        rows are draws from the null or an a4 alternative, some with an order
        statistic a few doubles from a band bound."""
        null_cdf = partial(sampling.cdf, null)
        critical = ks.ks_critical_simple(n, alpha)
        with _band_margin(delta):
            bands = ks.ks_bands(null_cdf, n, critical)
        rows = []
        for b, source in enumerate(sources):
            x = sample(null if source is None else source, n, SeedSpec(seed, b))
            if data.draw(st.booleans(), label="near a bound"):
                j = data.draw(st.integers(0, n - 1), label="j")
                bound = bands[data.draw(st.integers(0, 3), label="band")][j]
                if abs(bound) < 1e300:  # not NaN, nor a bracket end, where a CDF's scale overflows
                    x = _near_bound(x, bound, j, data.draw(st.integers(-3, 3), label="ulps"))
            rows.append(x)
        block = np.array(rows)
        exact = ks.ks_statistic(block, null_cdf)
        decided = ks.ks_statistic(block, null_cdf, bands)
        assert (decided > critical).tolist() == (exact > critical).tolist()
        margin = (decided != 0.0) & (decided != math.inf)
        assert decided[margin].tobytes() == exact[margin].tobytes()
        vector = ks.ks_statistic(block[0], null_cdf, bands)
        assert isinstance(vector, float) and np.float64(vector).tobytes() == decided[:1].tobytes()
        block[-1, -1] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            ks.ks_statistic(block, null_cdf, bands)

    def test_wide_margin_takes_the_exact_path(self):
        """At a margin of 0.02 the rows near the critical get D; at the
        shipped margin none of these does."""
        null_cdf = partial(sampling.cdf, Normal(0.0, 1.0))
        critical = ks.ks_critical_simple(100, 0.05)
        block = sample(StudentT(8, 1.0), 100, SeedSpec(11, 0), 500)
        exact = ks.ks_statistic(block, null_cdf)
        for delta, least in ((ks._BAND_MARGIN, 0), (0.02, 10)):
            with _band_margin(delta):
                bands = ks.ks_bands(null_cdf, 100, critical)
            decided = ks.ks_statistic(block, null_cdf, bands)
            margin = (decided != 0.0) & (decided != math.inf)
            assert np.count_nonzero(margin) >= least
            assert decided[margin].tobytes() == exact[margin].tobytes()
            assert ((decided > critical) == (exact > critical)).all()

    def test_any_cdf_callable(self):
        """A scalar-only CDF and a partial over unhashable arguments decide as
        their D does."""
        block = sample(Cauchy(0.0, 0.7), 10, SeedSpec(12, 0), 40)
        critical = ks.ks_critical_simple(10, 0.05)
        scaled = partial(lambda scale, x: normal_cdf(x / scale[0]), np.array([1.0]))
        for null_cdf in (_scalar_only_normal_cdf, scaled):
            exact = ks.ks_statistic(block, null_cdf)
            decided = ks.ks_statistic(block, null_cdf, ks.ks_bands(null_cdf, 10, critical))
            assert ((decided > critical) == (exact > critical)).all()

    def test_critical_must_be_positive(self):
        for critical in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="critical"):
                ks.ks_bands(normal_cdf, 2, critical)

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_must_be_positive(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            ks.ks_bands(normal_cdf, n, 0.1)

    def test_bands_must_fit_n(self):
        """Bands built for another n raise, as a vector and as a block."""
        bands = ks.ks_bands(normal_cdf, 3, ks.ks_critical_simple(3, 0.05))
        for data in ([0.1, 0.2], [[0.1, 0.2, 0.3, 0.4]]):
            with pytest.raises(ValueError, match="bands of length 3"):
                ks.ks_statistic(data, normal_cdf, bands)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="counts builds through a forked patch")
    @pytest.mark.parametrize("test", ["ks-simple", "ks-regression"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bands_built_once_per_n_in_the_parent(self, monkeypatch, tmp_path, workers, test):
        """A study builds the bands of each sample size once, in the process
        that runs it; the chunks, in workers or not, only read them."""
        log = tmp_path / "builds"
        bracket = ks._bracket

        def logged(null_cdf, p):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {len(p) // 4}\n")
            return bracket(null_cdf, p)

        monkeypatch.setattr(ks, "_bracket", logged)
        regression = dict(null_spec=LinearModelSpec((1.0, 5.0), 4.0), lilliefors_trials=1000)
        null = regression if test == "ks-regression" else {}
        cfg = hz.PowerStudyConfig(
            test=test, alternatives=(Cauchy(0.0, 1.0), StudentT(3)), sample_sizes=(25, 100), trials=200, **null
        )
        hz.run_power_study(cfg, workers=workers)
        assert sorted(log.read_text().splitlines()) == [f"{os.getpid()} 100", f"{os.getpid()} 25"]
        # with one alternative only the second size has a later row to read its bands
        log.unlink()
        hz.run_power_study(replace(cfg, alternatives=cfg.alternatives[:1]), workers=workers)
        assert log.read_text().splitlines() == [f"{os.getpid()} 100"]
