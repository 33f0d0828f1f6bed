import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entropygof.maxent as mx
from entropygof.maxent import MaxEntSolution, solve_maxent
from entropygof.maxent import _tilt
from entropygof.moments import build_standard_normal_constraint
from entropygof.numerics import chi2_1_critical
from entropygof.sampling import Normal, SeedSpec, StudentT, sample
from entropygof.tables import table_config
from helpers import et_statistic, random_feasible_g, simplex_grid_entropy, solve_maxent_reference

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

    def test_iteration_cap_reports_steps_spent(self):
        # a cap below the 6 steps this row needs stops the iteration there,
        # which must read apart from an infeasible input, where no step is spent
        with mock.patch.object(mx, "_MAX_ITER", 3):
            s = solve_maxent([-1.0, 0.3, 2.0, 0.5])
        assert not s.converged and math.isinf(s.statistic)
        assert s.iterations == 3
        assert solve_maxent([1.0, 2.0, 3.0]).iterations == 0

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
            solve_maxent(np.ones((2, 2, 2)))
        # finite, but g**2 overflows or 1 / max|g| does: outside [2**-511, 2**511]
        for g in ([1e200, -1e200, 3e199], [5e-324, -5e-324, 1e-323]):
            with pytest.raises(ValueError):
                solve_maxent(g)
            with pytest.raises(ValueError):
                solve_maxent([[1.0, -1.0, 0.5], g])
        # the bounds themselves are inside
        for bound in (2.0**-511, 2.0**511):
            assert solve_maxent([bound, -0.5 * bound, 0.1 * bound]).converged

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
            means = [_tilt(g, la, g * g, g.min(), g.max())[2] for la in lams]
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


def _constraint_row(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "zero":
        return np.zeros(n)
    if kind == "one-sided":
        return rng.choice((-1.0, 1.0)) * (np.abs(rng.standard_normal(n)) + 0.1)
    if kind == "margin":
        # the one negative value sits just inside the feasibility margin, so
        # the statistic nears its supremum 2n ln n
        g = rng.uniform(0.1, 1.0, n)
        g[rng.integers(n)] = -1e-14 * g.max() * (1.0 + 1e-6)
        return g
    if kind in ("balanced", "near-balanced"):
        # near-balanced rows start with a tilted mean below the bracket's step floor
        half = rng.standard_normal((n + 1) // 2)
        g = rng.permutation(np.concatenate((half, -half))[:n])
        return g + (rng.uniform(-1e-6, 1e-6) if kind == "near-balanced" else 0.0)
    return rng.standard_normal(n) + rng.uniform(-0.5, 0.5)


_ROW_KINDS = ("zero", "one-sided", "margin", "balanced", "near-balanced", "shifted")


class TestBlock:
    """Each row of a block solve is the row's scalar solve, bit for bit."""

    @staticmethod
    def _bits(x) -> bytes:
        return np.asarray(x, dtype=np.float64).tobytes()

    @given(
        n=st.sampled_from((2, 3, 4, 7, 25, 100, 10**5)),
        kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=8),
        cap=st.sampled_from((mx._MAX_ITER, 1, 3)),
        exponent=st.integers(-150, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_match_scalar_reference(self, n, kinds, cap, exponent, seed):
        """Rows, alone and in a block, at the shipped step cap and at caps
        low enough that rows stop at them."""
        rng = np.random.default_rng(seed)
        if n == 10**5:
            kinds = kinds[:1]
        g = np.array([_constraint_row(kind, n, rng) for kind in kinds]) * 10.0**exponent
        with mock.patch.object(mx, "_MAX_ITER", cap):
            block = solve_maxent(g)
            alone = [(solve_maxent(row), solve_maxent(row[None])) for row in g]
        references = [solve_maxent_reference(row, max_iter=cap) for row in g]
        assert block.iterations == sum(r.iterations for r in references)
        assert block.converged == all(r.converged for r in references)
        for j, ref in enumerate(references):
            for field in ("statistic", "lam", "log_partition", "residual", "weights"):
                assert self._bits(getattr(block, field)[j]) == self._bits(getattr(ref, field)), field
            # alone, as a vector and as a block of one, with its own step count
            vector, single = alone[j]
            assert (vector.iterations, vector.converged) == (ref.iterations, ref.converged)
            assert (single.iterations, single.converged) == (ref.iterations, ref.converged)
            for field in ("statistic", "lam", "log_partition", "residual"):
                assert type(getattr(vector, field)) is float
                assert self._bits(getattr(vector, field)) == self._bits(getattr(ref, field)), field
                assert self._bits(getattr(single, field)) == self._bits([getattr(ref, field)]), field

    def test_tied_extremes_both_signs(self):
        # the exponent max is taken from each row's extremes, here tied and
        # at lambdas of both signs
        base = np.array([-1.0, 0.2, -1.0, 2.0, 0.5, -1.0, 2.0])
        g = np.array([base, -base, base - 0.3, 0.1 - base])
        block = solve_maxent(g)
        references = [solve_maxent_reference(row) for row in g]
        assert block.converged and min(block.lam) < 0.0 < max(block.lam)
        for j, ref in enumerate(references):
            for field in ("statistic", "lam", "log_partition", "residual", "weights"):
                assert self._bits(getattr(block, field)[j]) == self._bits(getattr(ref, field)), field
        for row in g:
            for lam in (-3.0, -1e-300, 1e-300, 0.7, 2.0**600):
                with np.errstate(over="ignore", invalid="ignore"):
                    m = _tilt(row, lam, row * row, row.min(), row.max())[1]
                    assert self._bits(m) == self._bits((-lam * row).max())

    def test_mixed_block(self):
        # a capped row next to rows that finish at once
        g = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0], [0.5, -0.5, 1.0, -1.0], [-1.0, 0.3, 2.0, 0.5]])
        with mock.patch.object(mx, "_MAX_ITER", 3):
            s = solve_maxent(g)
        assert s.weights.shape == (4, 4) and s.statistic.shape == s.lam.shape == (4,)
        assert list(np.isinf(s.statistic)) == [False, True, False, True]
        assert not s.converged and s.iterations == 3
        assert solve_maxent(g[[0, 2]]).converged


_DUAL_ALTERNATIVES = tuple(dict.fromkeys(alt for name in ("a1", "a3") for alt in table_config(name).alternatives))
_DUAL_ROW_KINDS = ("alternative", "near-critical", "near-infeasible", "zero", "balanced")


def _shifted_to(g: np.ndarray, target: float) -> np.ndarray:
    """g + t with the exact statistic near target, by bisection on t between
    -mean(g), where the statistic is 0, and -min(g), where the constraint
    turns infeasible; the statistic grows with t in between.  The statistic
    is solve_maxent's at the mx._TOL in force."""
    base, edge = -g.mean(), -g.min()
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if solve_maxent(g + (base + mid * (edge - base))).statistic < target:
            lo = mid
        else:
            hi = mid
    return g + (base + lo * (edge - base))


def _dual_row(kind: str, n: int, critical: float, data) -> np.ndarray:
    if kind == "zero":
        return np.zeros(n)
    if kind == "balanced":  # met at lambda = 0: the tilted mean starts at 0
        half = np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed")).standard_normal(n // 2)
        return np.concatenate((half, -half, np.zeros(n % 2)))
    alt = data.draw(st.sampled_from(_DUAL_ALTERNATIVES), label="alternative")
    g = build_standard_normal_constraint().values(sample(alt, n, SeedSpec(data.draw(st.integers(0, 2**32)), 0)))
    if kind == "near-critical":
        sign = data.draw(st.sampled_from((-1.0, 1.0)), label="side")
        g = _shifted_to(g, critical + sign * 10.0 ** data.draw(st.floats(-9.0, -3.0), label="log10 gap"))
    elif kind == "near-infeasible":
        g = g - g.min()
        g[np.argmin(g)] = -data.draw(st.sampled_from((2e-14, 1e-10, 1e-6)), label="across") * g.max()
    if data.draw(st.booleans(), label="extreme scale") and g.any():
        # a power of two keeps the values' bits, with max |g_j| in [2**-511, 2**511]
        e = data.draw(st.sampled_from((511, -510)), label="exponent")
        g = g * 2.0 ** (e - math.ceil(math.log2(np.abs(g).max())))
    return g


class TestDualDecision:
    """solve_maxent with a critical decides rows as the exact statistic does."""

    @pytest.mark.parametrize("delta", [mx._DECISION_MARGIN, 0.05])
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from((2, 25, 1000)),
        alpha=st.sampled_from((0.01, 0.05, 0.2)),
        tol=st.sampled_from((1e-10, 1e-4)),
        kinds=st.lists(st.sampled_from(_DUAL_ROW_KINDS), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_decisions_match_statistic(self, delta, n, alpha, tol, kinds, data):
        """At the shipped margin and at a wide one, every row decides as its
        exact statistic does, and a row that gives neither +inf nor 0.0 gives
        that statistic byte for byte.  Rows come from a1/a3 alternatives, some
        shifted to within 1e-9 to 1e-3 of the critical or to just across
        infeasibility, or are all-zero or solved at lambda = 0; some are
        scaled to max |g_j| near 2**511 or 2**-511.  The solver's tolerance
        is the shipped one or a coarse one."""
        critical = chi2_1_critical(alpha)
        with mock.patch.object(mx, "_TOL", tol):
            block = np.array([_dual_row(kind, n, critical, data) for kind in kinds])
            exact = solve_maxent(block).statistic
            with mock.patch.object(mx, "_DECISION_MARGIN", delta):
                decided = solve_maxent(block, critical=critical).statistic
                vector = solve_maxent(block[0], critical=critical).statistic
        assert (decided > critical).tolist() == (exact > critical).tolist()
        margin = (decided != 0.0) & (decided != math.inf)
        assert decided[margin].tobytes() == exact[margin].tobytes()
        assert isinstance(vector, float) and np.float64(vector).tobytes() == decided[:1].tobytes()

    def test_slack_covers_the_last_step(self):
        """At _TOL = 1e-4 these rows' statistics lie 1e-6 above the critical
        while 2n sup f lies up to 1e-3 below it: the exact iteration stops
        where the tilted mean is within _TOL, and its statistic moves with
        that last step.  Each row still rejects."""
        critical = chi2_1_critical(0.05)
        constraint = build_standard_normal_constraint()
        rows = [constraint.values(sample(Normal(0.4, 1.0), 25, SeedSpec(seed, 0))) for seed in range(5)]
        with mock.patch.object(mx, "_TOL", 1e-4):
            block = np.array([_shifted_to(g, critical + 1e-6) for g in rows])
            exact = solve_maxent(block).statistic
            decided = solve_maxent(block, critical=critical).statistic
        with mock.patch.object(mx, "_TOL", 1e-15):
            supremum = solve_maxent(block).statistic
        assert (exact > critical).all() and (supremum < critical - 1e-5).all()
        assert (decided > critical).all()

    def test_wide_margin_takes_the_exact_path(self):
        """At a margin of 0.05 the rows near the critical get their exact
        statistic; at the shipped margin none of these does."""
        critical = chi2_1_critical(0.05)
        constraint = build_standard_normal_constraint()
        block = constraint.values(sample(StudentT(8, 1.0), 100, SeedSpec(11, 0), 500))
        exact = solve_maxent(block)
        for delta, least in ((mx._DECISION_MARGIN, 0), (0.05, 2)):
            with mock.patch.object(mx, "_DECISION_MARGIN", delta):
                decided = solve_maxent(block, critical=critical)
            margin = (decided.statistic != 0.0) & (decided.statistic != math.inf)
            assert np.count_nonzero(margin) >= least
            assert decided.statistic[margin].tobytes() == exact.statistic[margin].tobytes()
            assert ((decided.statistic > critical) == (exact.statistic > critical)).all()

    def test_decided_rows_carry_no_solution(self):
        """A decided row's lam, log_partition, residual and weights are NaN,
        and its iterations count the steps it took, fewer than the exact
        solve's.  An infeasible row is +inf and not converged, as without a
        critical."""
        critical = chi2_1_critical(0.05)
        constraint = build_standard_normal_constraint()
        g = constraint.values(sample(Normal(0.6, 1.0), 250, SeedSpec(5, 0), 40))
        g[0] = np.abs(g[0]) + 0.1
        exact, decided = solve_maxent(g), solve_maxent(g, critical=critical)
        assert math.isinf(decided.statistic[0]) and not decided.converged and decided.iterations < exact.iterations
        rows = decided.statistic[1:] != exact.statistic[1:]
        assert rows.sum() > 30 and set(decided.statistic[1:][rows]) <= {0.0, math.inf}
        for field in (decided.lam, decided.log_partition, decided.residual, decided.weights):
            assert np.isnan(field[1:][rows]).all() and not np.isnan(field[1:][~rows]).any()
        for row in g[1:]:
            alone = solve_maxent(row, critical=critical)
            assert alone.converged and alone.iterations <= solve_maxent(row).iterations

    @pytest.mark.parametrize("critical", [0.0, -1.0, math.nan])
    def test_critical_must_be_positive(self, critical):
        with pytest.raises(ValueError, match="critical"):
            solve_maxent([1.0, -0.5, 0.2], critical=critical)


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
