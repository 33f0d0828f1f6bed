import math

import numpy as np
import pytest
from helpers import ols_fit_reference
from hypothesis import given, settings, strategies as st

from entropygof import regression as rg
from entropygof.kstest import KsCriticalTable
from entropygof.sampling import (
    ARProcess,
    Cauchy,
    CenteredLogNormal,
    MAProcess,
    Normal,
    SeedSpec,
    sample,
    uniform_open01,
)

MODEL = rg.LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)


class TestOls:
    def test_perfect_fit(self):
        y, X = rg.simulate_model(MODEL, 100, SeedSpec(1, 0))
        exact = X @ np.array([1.0, 5.0])
        fit = rg.ols_fit(exact, X)
        assert np.max(np.abs(fit.residuals)) < 1e-10
        assert fit.sigma2_hat == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(fit.beta_hat, [1.0, 5.0], atol=1e-12)

    def test_intercept_only_mean(self):
        y = np.array([2.0, 4.0, 9.0])
        fit = rg.ols_fit(y, np.ones((3, 1)))
        assert fit.beta_hat[0] == pytest.approx(y.mean(), abs=1e-14)

    def test_leverage_sum_is_k(self):
        for k, n in ((1, 10), (2, 57), (4, 200)):
            model = rg.LinearModelSpec(beta=(1.0,) * k, sigma2=1.0)
            y, X = rg.simulate_model(model, n, SeedSpec(1, k))
            fit = rg.ols_fit(y, X)
            assert np.sum(1.0 - fit.leverages) == pytest.approx(k, abs=1e-8)
            assert np.all(fit.leverages > 0.0) and np.all(fit.leverages <= 1.0)

    def test_residual_orthogonality(self):
        y, X = rg.simulate_model(MODEL, 300, SeedSpec(1, 9))
        fit = rg.ols_fit(y, X)
        rel = np.abs(X.T @ fit.residuals) / np.abs(y).sum()
        assert rel.max() < 1e-8

    def test_rank_deficiency_rejected(self):
        X = np.column_stack([np.ones(20), np.ones(20)])
        with pytest.raises(rg.DegenerateTrialError, match="rank"):
            rg.ols_fit(np.zeros(20), X)

    def test_rank_deficient_row_spoils_block(self):
        y, X = rg.simulate_model(MODEL, 20, [SeedSpec(2, t) for t in range(4)])
        X[2, :, 1] = 0.5
        with pytest.raises(rg.DegenerateTrialError, match="rank"):
            rg.ols_fit(y, X)
        rg.ols_fit(np.delete(y, 2, axis=0), np.delete(X, 2, axis=0))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rg.ols_fit(np.zeros(3), np.ones((3, 3)))
        with pytest.raises(ValueError):
            rg.ols_fit(np.zeros(4), np.ones((3, 1)))
        # blocks: B, n and the rank of y must match X
        with pytest.raises(ValueError):
            rg.ols_fit(np.zeros((2, 5)), np.ones((3, 5, 1)))
        with pytest.raises(ValueError):
            rg.ols_fit(np.zeros((2, 5)), np.ones((2, 6, 1)))
        with pytest.raises(ValueError):
            rg.ols_fit(np.zeros(5), np.ones((2, 5, 1)))
        with pytest.raises(ValueError):
            rg.ols_fit(np.zeros((1, 5)), np.ones((5, 1)))
        with pytest.raises(ValueError):
            rg.ols_fit(np.zeros((2, 3)), np.ones((2, 3, 3)))
        with pytest.raises(ValueError):
            rg.ols_fit(np.zeros((2, 2, 5)), np.ones((2, 2, 5, 1)))

    def test_residual_moments_match_leverages(self):
        # fixed design, simulated errors: var(e_j) ~= sigma2 * h_j
        n, k, trials = 50, 2, 10000
        gen = SeedSpec(31, 0).generator()
        X = MODEL.design_matrix(n, gen)
        sums = np.zeros(n)
        squares = np.zeros(n)
        for t in range(trials):
            eps = sample(Normal(0, 2), n, SeedSpec(32, t))
            fit = rg.ols_fit(X @ np.array(MODEL.beta) + eps, X)
            sums += fit.residuals
            squares += fit.residuals**2
        mean_e = sums / trials
        var_e = squares / trials - mean_e**2
        fit = rg.ols_fit(X @ np.array(MODEL.beta), X)
        h = fit.leverages
        se_mean = 2.0 * np.sqrt(h / trials)
        assert np.all(np.abs(mean_e) < 4.0 * se_mean)
        se_var = 4.0 * h * math.sqrt(2.0 / trials)
        assert np.all(np.abs(var_e - 4.0 * h) < 4.0 * se_var)


class TestRatioTransform:
    def test_pairs(self):
        assert np.allclose(rg.ratio_transform([1.0, 2.0, 3.0, 6.0]), [0.5, 0.5])

    def test_odd_tail_dropped(self):
        out = rg.ratio_transform([1.0, 2.0, 3.0, 6.0, 99.0])
        assert out.shape == (2,)

    def test_scale_invariance_exact_for_power_of_two(self):
        e = sample(Normal(0, 1), 40, SeedSpec(33, 0))
        assert np.array_equal(rg.ratio_transform(e), rg.ratio_transform(4.0 * e))

    def test_scale_invariance_close_generally(self):
        e = sample(Normal(0, 1), 40, SeedSpec(33, 1))
        assert np.allclose(rg.ratio_transform(e), rg.ratio_transform(3.0 * e), rtol=1e-14)

    def test_zero_denominator(self):
        with pytest.raises(rg.DegenerateTrialError, match="degenerate"):
            rg.ratio_transform([1.0, 0.0])
        with pytest.raises(rg.DegenerateTrialError, match="degenerate"):
            rg.ratio_transform([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 0.0]])

    def test_block_along_last_axis(self):
        out = rg.ratio_transform([[1.0, 2.0, 3.0, 6.0, 99.0], [4.0, 2.0, -3.0, 1.0, 7.0]])
        assert np.array_equal(out, [[0.5, 0.5], [2.0, -3.0]])

    def test_too_short(self):
        with pytest.raises(ValueError):
            rg.ratio_transform([1.0])

    def test_null_ratios_standard_cauchy(self):
        # pooled ratios: median ~ 0, quartiles ~ +-1 (IQR 2)
        pools = []
        for t in range(200):
            y, X = rg.simulate_model(MODEL, 1000, SeedSpec(34, t), MODEL.null_errors())
            pools.append(rg.ratio_transform(rg.ols_fit(y, X).residuals))
        z = np.concatenate(pools)
        q25, q50, q75 = np.quantile(z, [0.25, 0.5, 0.75])
        assert abs(q50) < 0.02
        assert (q75 - q25) == pytest.approx(2.0, abs=0.05)


class TestRegressionEt:
    def test_null_behaves(self):
        y, X = rg.simulate_model(MODEL, 400, SeedSpec(35, 0), MODEL.null_errors())
        res = rg.run_regression_et(y, X)
        assert res.statistic >= 0.0
        assert res.critical == pytest.approx(3.841459, abs=1e-5)

    def test_random_walk_rejected(self):
        walk = ARProcess((1.0,), Normal(0, 2))
        y, X = rg.simulate_model(MODEL, 200, SeedSpec(35, 1), walk)
        assert rg.run_regression_et(y, X).reject

    def test_statistic_uses_pair_count(self):
        # n odd: statistic computed over floor(n/2) ratios without error
        y, X = rg.simulate_model(MODEL, 101, SeedSpec(35, 2), MODEL.null_errors())
        res = rg.run_regression_et(y, X)
        assert math.isfinite(res.statistic)

    def test_scale_invariance_bitwise_with_zero_beta(self):
        # beta = 0 and power-of-two sigma ratio: IEEE scaling is exact along
        # the whole QR/ratio path, so the statistic is bit-identical
        model0 = rg.LinearModelSpec(beta=(0.0, 0.0), sigma2=1.0)
        gen = SeedSpec(36, 0).generator()
        X = model0.design_matrix(500, gen)
        u = uniform_open01(SeedSpec(36, 1).generator(), 500)
        from entropygof.numerics import normal_quantile

        eps = normal_quantile(u)
        r1 = rg.run_regression_et(X @ np.zeros(2) + eps, X)
        r2 = rg.run_regression_et(X @ np.zeros(2) + 2.0 * eps, X)
        assert r1.statistic == r2.statistic

    def test_scale_invariance_decisions_general(self):
        gen = SeedSpec(36, 2).generator()
        X = MODEL.design_matrix(400, gen)
        from entropygof.numerics import normal_quantile

        eps = normal_quantile(uniform_open01(SeedSpec(36, 3).generator(), 400))
        beta = np.array(MODEL.beta)
        r1 = rg.run_regression_et(X @ beta + eps, X)
        r2 = rg.run_regression_et(X @ beta + 3.0 * eps, X)
        assert r1.reject == r2.reject
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-9)


class TestRegressionKs:
    def test_alpha_mismatch(self):
        y, X = rg.simulate_model(MODEL, 60, SeedSpec(37, 0))
        table = KsCriticalTable(alpha=0.10, entries={60: 0.09})
        with pytest.raises(ValueError, match="alpha"):
            rg.run_regression_ks(y, X, 0.05, table)

    def test_missing_calibration(self):
        y, X = rg.simulate_model(MODEL, 60, SeedSpec(37, 1))
        table = KsCriticalTable(alpha=0.05, entries={100: 0.08})
        with pytest.raises(LookupError, match="calibrate"):
            rg.run_regression_ks(y, X, 0.05, table)

    def test_decision_wiring(self):
        y, X = rg.simulate_model(MODEL, 80, SeedSpec(37, 2), MODEL.null_errors())
        loose = KsCriticalTable(alpha=0.05, entries={80: 0.9})
        tight = KsCriticalTable(alpha=0.05, entries={80: 1e-6})
        assert not rg.run_regression_ks(y, X, 0.05, loose).reject
        assert rg.run_regression_ks(y, X, 0.05, tight).reject
        assert rg.run_regression_ks(y, X, 0.05, loose).p_value is None

    def test_standardized_residuals_scale_free(self):
        gen = SeedSpec(37, 3).generator()
        X = MODEL.design_matrix(100, gen)
        from entropygof.numerics import normal_quantile

        eps = normal_quantile(uniform_open01(SeedSpec(37, 4).generator(), 100))
        f1 = rg.ols_fit(X @ np.array(MODEL.beta) + eps, X)
        f2 = rg.ols_fit(X @ np.array(MODEL.beta) + 2.0 * eps, X)
        assert np.allclose(
            rg.standardized_residuals(f1), rg.standardized_residuals(f2), rtol=1e-9
        )


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            rg.LinearModelSpec(beta=(), sigma2=1.0)
        with pytest.raises(ValueError):
            rg.LinearModelSpec(beta=(1.0,), sigma2=0.0)

    def test_design_shape_and_intercept(self):
        X = MODEL.design_matrix(40, SeedSpec(38, 0).generator())
        assert X.shape == (40, 2)
        assert np.all(X[:, 0] == 1.0)
        assert np.all((X[:, 1] > 0.0) & (X[:, 1] < 1.0))

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            MODEL.design_matrix(2, SeedSpec(38, 1).generator())

    def test_null_errors(self):
        assert MODEL.null_errors() == Normal(0.0, 2.0)

    def test_simulate_deterministic(self):
        y1, X1 = rg.simulate_model(MODEL, 50, SeedSpec(38, 2))
        y2, X2 = rg.simulate_model(MODEL, 50, SeedSpec(38, 2))
        assert np.array_equal(y1, y2) and np.array_equal(X1, X2)


# the error processes of the regression presets and ROADMAP alternatives
_ERROR_MENU = (
    Normal(0.0, 2.0),
    CenteredLogNormal(0.5),
    Cauchy(0.0, 1.0),
    MAProcess((0.5, -0.25), Normal(0.0, 2.0)),
    ARProcess((0.5,), Normal(0.0, 2.0)),
    ARProcess((1.0,), Normal(0.0, 2.0)),
    ARProcess((0.3, 0.2, 0.1), Normal(0.0, 2.0)),
)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBlocks:
    @settings(max_examples=60, deadline=None)
    @given(
        errors=st.sampled_from(_ERROR_MENU),
        k=st.integers(1, 3),
        data=st.data(),
        trials=st.integers(1, 5),
        master_seed=st.integers(0, 2**64 - 1),
        first=st.integers(0, 2**63),
    )
    def test_rows_match_single_trials(self, errors, k, data, trials, master_seed, first):
        n = data.draw(st.integers(k + 1, 150), label="n")
        model = rg.LinearModelSpec(beta=(1.0, 5.0, -2.0)[:k], sigma2=4.0, error_process=errors)
        seeds = [SeedSpec(master_seed, first + t) for t in range(trials)]
        y, X = rg.simulate_model(model, n, seeds)
        assert y.shape == (trials, n) and X.shape == (trials, n, k)
        fit = rg.ols_fit(y, X)
        ratios = rg.ratio_transform(fit.residuals)
        z = rg.standardized_residuals(fit)
        distances = rg.null_trial_ks_distance(model, n, seeds)
        for b, seed in enumerate(seeds):
            y1, X1 = rg.simulate_model(model, n, seed)
            assert _same(y[b], y1) and _same(X[b], X1)
            one = rg.ols_fit(y1, X1)
            assert isinstance(one.sigma2_hat, float)
            for got, want in zip((one.beta_hat, one.residuals, one.leverages, one.sigma2_hat), ols_fit_reference(y1, X1)):
                assert _same(got, want)
            assert _same(fit.beta_hat[b], one.beta_hat)
            assert _same(fit.residuals[b], one.residuals)
            assert _same(fit.leverages[b], one.leverages)
            assert _same(fit.sigma2_hat[b], one.sigma2_hat)
            assert _same(ratios[b], rg.ratio_transform(one.residuals))
            assert _same(z[b], rg.standardized_residuals(one))
            assert _same(distances[b], rg.null_trial_ks_distance(model, n, seed))
