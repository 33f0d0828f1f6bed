import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropygof.maxent import MaxEntSolution, solve_maxent
from entropygof.maxent import _tilt
from helpers import et_statistic, random_feasible_g, simplex_grid_entropy

# frozen closed forms
TWO_POINT_STAT = 0.22653204906053  # 4*( (1/3)ln(2/3) + (2/3)ln(4/3) )
THREE_POINT_STAT = 0.35334910696915  # 3*ln(1.125)


class TestSolve:
    def test_balanced_two_point(self):
        s = solve_maxent([1.0, -1.0])
        assert s.converged
        assert s.lam == 0.0
        assert np.allclose(s.weights, [0.5, 0.5])
        assert s.statistic == 0.0

    def test_pinned_two_point(self):
        s = solve_maxent([2.0, -1.0])
        assert s.converged
        assert np.allclose(s.weights, [1.0 / 3.0, 2.0 / 3.0], atol=1e-10)
        assert s.statistic == pytest.approx(TWO_POINT_STAT, abs=1e-8)
        assert abs(s.residual) <= 1e-10 * 2.0

    def test_infeasible_one_sided(self):
        s = solve_maxent([1.0, 2.0, 3.0])
        assert not s.converged
        assert math.isinf(s.statistic)
        s = solve_maxent([-0.2, -0.4])
        assert not s.converged and math.isinf(s.statistic)

    def test_feasibility_margin(self):
        # zero at the edge of the hull counts as infeasible
        s = solve_maxent([0.0, 1.0, 2.0])
        assert not s.converged

    def test_all_zero_constraint(self):
        s = solve_maxent([0.0, 0.0, 0.0])
        assert s.converged and s.statistic == 0.0 and s.lam == 0.0

    def test_weights_form_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_feasible_g(rng, int(rng.integers(2, 30)))
            s = solve_maxent(g)
            assert s.converged
            assert abs(s.weights.sum() - 1.0) < 1e-12
            assert np.all(s.weights > 0.0) and np.all(s.weights < 1.0)
            # exponential-tilt form: log weights affine in g
            logw = np.log(s.weights)
            assert np.allclose(logw, -s.lam * g - s.log_partition, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_maxent([1.0])
        with pytest.raises(ValueError):
            solve_maxent([1.0, math.nan])
        with pytest.raises(ValueError):
            solve_maxent([1.0, -1.0], tol=0.0)

    def test_grid_oracle_equivalence(self):
        rng = np.random.default_rng(1234)
        for n in (2, 3, 4):
            for _ in range(12):
                g = random_feasible_g(rng, n)
                s = solve_maxent(g)
                h_solver = -float(s.weights @ np.log(s.weights))
                h_grid, w_grid = simplex_grid_entropy(g)
                assert abs(h_solver - h_grid) < 1e-4
                assert np.max(np.abs(s.weights - w_grid)) < 1e-2

    def test_dual_mean_strictly_decreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_feasible_g(rng, 8)
            lams = np.linspace(-4.0, 4.0, 41)
            means = [_tilt(g, la)[2] for la in lams]
            assert np.all(np.diff(means) < 0.0)

    def test_scale_covariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = random_feasible_g(rng, 6)
            s1 = solve_maxent(g)
            s2 = solve_maxent(4.0 * g)
            assert np.allclose(s1.weights, s2.weights, atol=1e-10)
            assert s2.lam == pytest.approx(s1.lam / 4.0, rel=1e-8, abs=1e-12)

    def test_sign_covariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_feasible_g(rng, 6)
            s1 = solve_maxent(g)
            s2 = solve_maxent(-g)
            assert s2.lam == pytest.approx(-s1.lam, rel=1e-8, abs=1e-12)
            assert s2.statistic == pytest.approx(s1.statistic, rel=1e-8, abs=1e-12)

    def test_zero_iff_uniform(self):
        # exactly balanced constraint -> uniform weights, zero statistic
        g = np.array([0.3, -0.3, 0.7, -0.7])
        s = solve_maxent(g)
        assert s.statistic < 1e-18
        # unbalanced -> strictly positive statistic
        g2 = np.array([0.31, -0.3, 0.7, -0.7])
        assert solve_maxent(g2).statistic > 1e-6


class TestStatistic:
    def test_uniform_zero(self):
        for n in (2, 5, 40):
            sol = MaxEntSolution(np.full(n, 1.0 / n), 0.0, math.log(n), 0.0, True, 0.0)
            assert et_statistic(sol, n) == 0.0

    def test_three_point_value(self):
        sol = MaxEntSolution(np.array([0.5, 0.25, 0.25]), 0.0, 0.0, 0.0, True, 0.0)
        assert et_statistic(sol, 3) == pytest.approx(THREE_POINT_STAT, abs=1e-8)

    def test_matches_solver_field(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_feasible_g(rng, 12)
            s = solve_maxent(g)
            assert et_statistic(s, 12) == pytest.approx(s.statistic, rel=1e-9, abs=1e-12)

    def test_non_converged_propagates(self):
        s = solve_maxent([1.0, 2.0])
        assert math.isinf(et_statistic(s, 2))

    def test_length_mismatch(self):
        sol = MaxEntSolution(np.array([0.5, 0.5]), 0.0, 0.0, 0.0, True, 0.0)
        with pytest.raises(ValueError):
            et_statistic(sol, 3)

    @given(st.integers(2, 12), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n))
        w = np.clip(w, 1e-12, None)
        w = w / w.sum()
        sol = MaxEntSolution(w, 0.0, 0.0, 0.0, True, 0.0)
        assert et_statistic(sol, n) >= 0.0


def test_null_calibration_converges_to_alpha():
    # chi-square(1) calibration of the entropy statistic under the null
    from entropygof.moments import build_standard_normal_constraint
    from entropygof.numerics import chi2_1_critical
    from entropygof.sampling import Normal, SeedSpec, sample

    constraint = build_standard_normal_constraint()
    critical = chi2_1_critical(0.05)
    trials = 2500
    rej = 0
    for t in range(trials):
        g = constraint.values(sample(Normal(0, 1), 500, SeedSpec(314159, t)))
        rej += solve_maxent(g).statistic > critical
    assert rej / trials == pytest.approx(0.05, abs=0.02)
