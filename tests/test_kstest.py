import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropygof import kstest as ks
from entropygof import sampling
from entropygof.numerics import normal_cdf, normal_quantile
from entropygof.regression import LinearModelSpec, ols_fit, simulate_model, standardized_residuals
from entropygof.sampling import Normal, SeedSpec, sample

K_ALPHA_05 = 1.3580986393225506  # frozen: bisection on the limit series at 40 digits
D_GOLDEN_3PT = 0.1746780794018763  # 1/3 - Phi(-1)


def _put_records(path, writer: int, count: int, start) -> None:
    cache = ks.CalibrationCache(path)
    start.wait(timeout=60)
    for i in range(count):
        cache.put(100 + i, 0.05, "abc", 1000, writer, 0.001 * i + writer)


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


class TestCriticalValues:
    def test_k_alpha(self):
        assert ks.kolmogorov_critical(0.05) == pytest.approx(1.35810, abs=1e-4)
        assert ks.kolmogorov_critical(0.05) == pytest.approx(K_ALPHA_05, abs=1e-9)

    def test_sf_inverts(self):
        for alpha in (0.01, 0.05, 0.2, 0.5):
            assert ks.kolmogorov_sf(ks.kolmogorov_critical(alpha)) == pytest.approx(alpha, abs=1e-9)

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


class TestLilliefors:
    model = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            ks.lilliefors_calibrate(50, 0.05, self.model, trials=10, seed=SeedSpec(1, 0))

    def test_alpha_one_degenerate(self):
        assert ks.lilliefors_calibrate(50, 1.0, self.model, 1000, SeedSpec(1, 0)) == 0.0

    def test_deterministic(self):
        a = ks.lilliefors_calibrate(60, 0.05, self.model, 1500, SeedSpec(9, 0))
        b = ks.lilliefors_calibrate(60, 0.05, self.model, 1500, SeedSpec(9, 0))
        assert a == b

    def test_block_size_does_not_change_value(self, monkeypatch):
        blocked = ks.lilliefors_calibrate(60, 0.05, self.model, 1000, SeedSpec(9, 5))
        monkeypatch.setattr(sampling, "_BLOCK_ELEMENTS", 1)
        assert ks.lilliefors_calibrate(60, 0.05, self.model, 1000, SeedSpec(9, 5)) == blocked

    def test_below_simple_critical(self):
        # estimating parameters shrinks D; calibrated criticals reflect that
        crit = ks.lilliefors_critical(self.model, 120, 0.05, 3000, master_seed=11)
        assert crit < ks.ks_critical_simple(120, 0.05)

    def test_self_consistent_size(self):
        n, trials = 120, 4000
        crit = ks.lilliefors_critical(self.model, n, 0.05, 20000, master_seed=606)
        table = ks.KsCriticalTable(alpha=0.05, entries={n: crit})
        rej = 0
        for t in range(trials):
            y, X = simulate_model(self.model, n, SeedSpec(607, t), self.model.null_errors())
            fit = ols_fit(y, X)
            d = ks.ks_statistic(standardized_residuals(fit), normal_cdf)
            rej += d > table.critical_for(n)
        assert rej / trials == pytest.approx(0.05, abs=0.012)

    def test_missing_entry_instructive(self):
        table = ks.KsCriticalTable(alpha=0.05, entries={100: 0.05})
        with pytest.raises(LookupError, match="calibrate"):
            table.critical_for(500)


class TestCalibrationCache:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cal.txt"
        cache = ks.CalibrationCache(path)
        assert cache.get(100, 0.05, "abc", 1000, 7) is None
        cache.put(100, 0.05, "abc", 1000, 7, 0.0815)
        assert cache.get(100, 0.05, "abc", 1000, 7) == 0.0815
        reloaded = ks.CalibrationCache(path)
        assert reloaded.get(100, 0.05, "abc", 1000, 7) == 0.0815
        text = path.read_text()
        assert text.startswith("#")
        assert "100,0.05,abc,1000,7," in text

    def test_ignores_junk_lines(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("# header\nnot,a,record\n100,0.05,abc,1000,7,0.08\n")
        cache = ks.CalibrationCache(path)
        assert cache.get(100, 0.05, "abc", 1000, 7) == 0.08

    def test_malformed_record_skipped(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("# header\n50,0.05,abc,1000,1,0.1xyz\n100,0.05,abc,1000,7,0.08\n")
        cache = ks.CalibrationCache(path)
        assert cache.get(50, 0.05, "abc", 1000, 1) is None
        assert cache.get(100, 0.05, "abc", 1000, 7) == 0.08

    def test_torn_last_line_ignored(self, tmp_path):
        # the append of 0.1234 stopped after "0.12"
        path = tmp_path / "cal.txt"
        path.write_text("# header\n100,0.05,abc,1000,7,0.08\n50,0.05,abc,1000,1,0.12")
        cache = ks.CalibrationCache(path)
        assert cache.get(50, 0.05, "abc", 1000, 1) is None
        assert cache.get(100, 0.05, "abc", 1000, 7) == 0.08

    def test_put_after_torn_line(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("# header\n50,0.05,abc,1000,1,0.12")
        ks.CalibrationCache(path).put(100, 0.05, "abc", 1000, 7, 0.0815)
        assert path.read_text().endswith("100,0.05,abc,1000,7,0.0815\n")
        reloaded = ks.CalibrationCache(path)
        assert reloaded.get(100, 0.05, "abc", 1000, 7) == 0.0815
        assert reloaded.get(50, 0.05, "abc", 1000, 1) is None

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
                assert cache.get(100 + i, 0.05, "abc", 1000, w) == 0.001 * i + w

    def test_lilliefors_critical_uses_cache(self, tmp_path):
        model = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)
        cache = ks.CalibrationCache(tmp_path / "cal.txt")
        first = ks.lilliefors_critical(model, 40, 0.05, 1000, 3, cache)
        # poison the stored value; a cache hit must return it verbatim
        key_hash = ks.design_hash(model)
        cache.put(40, 0.05, key_hash, 1000, 3, 0.123456)
        assert ks.lilliefors_critical(model, 40, 0.05, 1000, 3, cache) == 0.123456
        fresh = ks.CalibrationCache(tmp_path / "other.txt")
        assert ks.lilliefors_critical(model, 40, 0.05, 1000, 3, fresh) == first

    def test_design_hash_depends_on_k(self):
        m2 = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)
        m3 = LinearModelSpec(beta=(1.0, 5.0, 2.0), sigma2=4.0)
        assert ks.design_hash(m2) != ks.design_hash(m3)
        assert ks.design_hash(m2) == ks.design_hash(LinearModelSpec(beta=(0.0, 0.0), sigma2=1.0))
