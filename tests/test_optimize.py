import numpy as np
import pytest

from telebound import (
    Gain,
    GaussianIso,
    RadialCurve,
    TruncatedGaussian,
    UniformDisk,
    average_fidelity_quad,
    classical_bound_estimate,
    gaussian_bound,
    optimize_gain,
    optimize_guess_curve,
    select_lambda,
)
from telebound import optimize
from telebound.optimize import ConvergenceError, _refine_max
from telebound.quadrature import BetaRule, QuadratureSpec

from _oracles import DISK_CURVE_IDEAL, DISK_GAIN_OPTIMA


class TestOptimizeGain:
    def test_gaussian_recovers_analytic_optimum(self):
        report = optimize_gain(GaussianIso(1.0), tol=1e-8)
        assert report.best_strategy.g == pytest.approx(0.5, abs=1e-6)
        assert report.best_value == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert report.convergence_gap <= 1e-8
        assert report.converged

    @pytest.mark.parametrize("radius", sorted(DISK_GAIN_OPTIMA))
    def test_disk_matches_grid_search_oracle(self, radius):
        g_star, f_star = DISK_GAIN_OPTIMA[radius]
        report = optimize_gain(UniformDisk(radius))
        assert report.best_strategy.g == pytest.approx(g_star, abs=1e-3)
        assert report.best_value == pytest.approx(f_star, abs=1e-6)

    def test_disk_ten_value(self):
        assert optimize_gain(UniformDisk(10.0)).best_value == pytest.approx(0.505, abs=1e-3)

    def test_truncated_gaussian_beats_unit_gain(self):
        report = optimize_gain(TruncatedGaussian(0.5, 2.0))
        assert report.best_value > 0.5
        assert 0.0 <= report.best_strategy.g <= 1.0

    def test_perturbing_gain_does_not_improve(self):
        from telebound import disk_gain_fidelity
        report = optimize_gain(UniformDisk(1.0), tol=1e-9)
        g = report.best_strategy.g
        for dg in (-1e-3, 1e-3):
            assert disk_gain_fidelity(1.0, g + dg) <= report.best_value + 1e-12

    def test_floor_half_for_every_prior(self):
        for prior in (GaussianIso(0.3), UniformDisk(4.0), TruncatedGaussian(1.0, 2.0)):
            assert optimize_gain(prior).best_value >= 0.5

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            optimize_gain(UniformDisk(1.0), tol=0.0)


def refine_max_one(f, lo, hi, tol, n):
    """One bracket at a time: the reference loop for the lockstep search."""
    evals = 0
    while True:
        xs = np.linspace(lo, hi, n)
        ys = f(xs)
        i = int(np.argmax(ys))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, n - 1)]
        evals += n
        if hi - lo <= tol:
            return float(xs[i]), float(ys[i]), evals, float(hi - lo)


class TestRefineMax:
    def test_lockstep_matches_one_bracket_at_a_time(self):
        # brackets of different widths take different round counts; the last
        # one is already within tol
        lo = np.array([0.0, -1.0, 0.3, 2.0, 1.0])
        hi = np.array([1.0, 3.0, 0.31, 9.0, 1.0 + 1e-9])
        peaks = np.array([0.37, 0.5, 0.305, 8.9, 1.0])
        n = optimize._REFINE_POINTS
        calls = []

        def f(xs, live):
            calls.append(live.copy())
            assert xs.shape == (n, live.sum())
            return -np.cos(xs - peaks[live]) * (xs - peaks[live]) ** 2

        x, fx, evals, width = _refine_max(f, lo, hi, 1e-7)
        assert (width <= 1e-7).all()
        assert len(set(evals.tolist())) > 2
        # Round k scores exactly the brackets that take more than k rounds.
        assert [live.tolist() for live in calls] == [(evals > n * k).tolist()
                                                     for k in range(len(calls))]
        assert sum(int(live.sum()) for live in calls) == evals.sum() / n
        for i in range(lo.size):
            def f_i(xs, i=i):
                return -np.cos(xs - peaks[i]) * (xs - peaks[i]) ** 2

            one = refine_max_one(f_i, lo[i], hi[i], 1e-7, n)
            assert (float(x[i]), float(fx[i]), int(evals[i]), float(width[i])) == one

    def test_unreachable_tolerance_raises_with_report(self):
        # Near g = 0.69 floats are 1.1e-16 apart: no bracket narrows to 1e-17.
        with pytest.raises(ConvergenceError, match="cannot narrow to tol 1.0e-17") as info:
            optimize_gain(UniformDisk(2.0), tol=1e-17)
        report = info.value.report
        assert report.converged is False
        # The gap is the bracket's real width, not 0 from collapsed points.
        assert 1e-17 < report.convergence_gap < 1e-14
        best = optimize_gain(UniformDisk(2.0))
        assert report.best_value == pytest.approx(best.best_value, abs=1e-12)

    def test_curve_unreachable_tolerance_raises_with_report(self):
        with pytest.raises(ConvergenceError, match="cannot narrow to tol 1.0e-17") as info:
            optimize_guess_curve(UniformDisk(1.0), n_nodes=6, tol=1e-15)
        report = info.value.report
        assert report.converged is False
        assert 1e-17 < report.convergence_gap < 1e-14
        # The best curve found is at least the gain it started from.
        assert isinstance(report.best_strategy, RadialCurve)
        assert report.best_value >= optimize_gain(UniformDisk(1.0)).best_value


class TestCallBudget:
    """One refinement of the node slices, one quadrature."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"call": 0, "average": 0}
        call, average = BetaRule.__call__, BetaRule.average

        def counted_call(self, *args):
            counts["call"] += 1
            return call(self, *args)

        def counted_average(self, *args):
            counts["average"] += 1
            return average(self, *args)

        monkeypatch.setattr(BetaRule, "__call__", counted_call)
        monkeypatch.setattr(BetaRule, "average", counted_average)
        return counts

    def test_guess_curve(self, counts):
        optimize_guess_curve(UniformDisk(2.0))
        assert counts["call"] <= 12
        assert counts["average"] == 1

    def test_classical_bound_estimate(self, counts):
        classical_bound_estimate(TruncatedGaussian(select_lambda(2.0, 0.01), 2.0))
        assert counts["call"] <= 12
        assert counts["average"] == 1

    def test_losing_curve_is_the_gain_at_its_closed_form(self, counts):
        # On a wide disk the searched curve scores below the best gain, so
        # the gain's own curve g * radii is returned at the gain's value,
        # with no second quadrature.
        prior = UniformDisk(300.0)
        report = optimize_guess_curve(prior, n_nodes=8)
        assert counts["average"] == 1
        gain = optimize_gain(prior)
        assert report.best_value == gain.best_value
        radii = np.linspace(0.0, prior.support_radius(1e-4) + 2.5, 8)
        assert report.best_strategy.nodes == tuple(zip(radii, gain.best_strategy.g * radii))


class TestOptimizeGuessCurve:
    @pytest.mark.parametrize("radius", [300.0, 1000.0])
    @pytest.mark.parametrize("n_nodes", [4, 8])
    def test_wide_disk_nodes_search_down_from_r_by_the_reach(self, monkeypatch, radius, n_nodes):
        # Each node r is searched on [max(0, r - reach), r]. The slice at r
        # is positive, so no searched node ends on a slice of exactly 0,
        # which the best-gain fallback would hide.
        searches = []
        refine = optimize._refine_max

        def spy(f, lo, hi, tol):
            result = refine(f, lo, hi, tol)
            searches.append((np.array(lo), np.array(hi), result[0]))
            return result

        monkeypatch.setattr(optimize, "_refine_max", spy)
        prior = UniformDisk(radius)
        assert optimize_guess_curve(prior, n_nodes=n_nodes).converged
        rule = BetaRule.for_prior(prior, QuadratureSpec())
        lo, r, rho = searches[-1]
        assert (r == np.linspace(0.0, prior.support_radius(1e-4) + 2.5, n_nodes)[1:]).all()
        assert (lo == np.maximum(r - rule.reach, 0.0)).all()
        assert (rule(r, rho) > 0.0).all()

    def test_disk_one_beats_gain_and_respects_ideal_ceiling(self):
        report = optimize_guess_curve(UniformDisk(1.0), n_nodes=8)
        gain_best = DISK_GAIN_OPTIMA[1.0][1]
        assert report.best_value >= gain_best - 1e-3
        assert report.best_value <= DISK_CURVE_IDEAL[1.0] + 2e-3
        assert report.converged
        assert isinstance(report.best_strategy, RadialCurve)

    def test_gaussian_curve_is_linear_with_optimal_slope(self):
        report = optimize_guess_curve(GaussianIso(1.0), n_nodes=8)
        assert report.best_value == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert report.best_value <= 2.0 / 3.0 + 1e-6  # never above the analytic optimum
        for r, rho in report.best_strategy.nodes:
            if r > 0:
                assert rho / r == pytest.approx(0.5, abs=0.02)

    def test_near_point_prior_guesses_origin(self):
        report = optimize_guess_curve(UniformDisk(1e-3), n_nodes=4)
        assert report.best_value >= 1.0 - 1e-3
        assert all(rho <= 1e-2 for _, rho in report.best_strategy.nodes)

    def test_narrow_truncated_prior_places_nodes_as_gaussian(self):
        # TruncatedGaussian(1e3, 1) has disk mass exactly 1.0, so its support
        # radius, and with it every curve node, is the whole-plane prior's.
        narrow = optimize_guess_curve(TruncatedGaussian(1e3, 1.0))
        whole = optimize_guess_curve(GaussianIso(1e3))
        assert [r for r, _ in narrow.best_strategy.nodes] == [r for r, _ in whole.best_strategy.nodes]
        assert narrow.best_value == pytest.approx(whole.best_value, abs=1e-12)

    def test_curve_never_below_gain_family(self):
        for prior in (UniformDisk(2.0), TruncatedGaussian(1.0, 3.0)):
            gain_value = optimize_gain(prior).best_value
            curve_value = optimize_guess_curve(prior, n_nodes=6).best_value
            assert curve_value >= gain_value - 1e-3

    def test_validation(self):
        for bad in (3, 4.5):
            with pytest.raises(ValueError, match="n_nodes"):
                optimize_guess_curve(UniformDisk(1.0), n_nodes=bad)
        for degenerate in (UniformDisk(1e-7), GaussianIso(1e14), TruncatedGaussian(1e14, 1.0)):
            with pytest.raises(ValueError, match="prior support is degenerate"):
                optimize_guess_curve(degenerate)
        with pytest.raises(ValueError):
            optimize_guess_curve(UniformDisk(1.0), tol=-1.0)


class TestClassicalBoundEstimate:
    def test_disk_two(self):
        result = classical_bound_estimate(UniformDisk(2.0))
        # at least the gain-family optimum, at most the pointwise ideal
        assert result.value >= DISK_GAIN_OPTIMA[2.0][1] - 1e-3
        assert result.value <= DISK_CURVE_IDEAL[2.0] + 2e-3
        assert result.value > 0.58  # clears the benchmark experiment's figure

    def test_disk_three(self):
        result = classical_bound_estimate(UniformDisk(3.0))
        assert result.value >= DISK_GAIN_OPTIMA[3.0][1] - 1e-3
        assert result.value <= DISK_CURVE_IDEAL[3.0] + 2e-3

    def test_gaussian_analytic_optimum(self):
        result = classical_bound_estimate(GaussianIso(1.0))
        assert result.value == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert result.value <= 2.0 / 3.0 + 1e-6

    def test_winning_strategy_reported(self):
        # The strategy reaches the value: a curve on the disk, where curves
        # beat the best gain, and a gain on the Gaussian, where it is optimal.
        for prior, family in ((UniformDisk(2.0), RadialCurve), (GaussianIso(1.0), Gain)):
            result = classical_bound_estimate(prior)
            assert isinstance(result.strategy, family)
            reached = average_fidelity_quad(prior, result.strategy).value
            assert result.value == pytest.approx(reached, abs=1e-9)
        assert result.strategy.g == pytest.approx(0.5, abs=1e-6)

    def test_floor_and_monotonicity_over_radius(self):
        radii = (0.5, 1.0, 2.0, 3.0, 5.0, 10.0)
        values = [classical_bound_estimate(UniformDisk(r), n_nodes=6).value for r in radii]
        assert all(v >= 0.5 for v in values)
        assert all(b <= a + 1e-3 for a, b in zip(values, values[1:]))

    def test_gaussian_never_above_closed_bound(self):
        for lam in (0.5, 1.0, 2.0):
            result = classical_bound_estimate(GaussianIso(lam))
            assert result.value <= gaussian_bound(lam) + 1e-6

    def test_gain_is_optimized_once(self, monkeypatch):
        # The curve ascent starts from the bound's own gain report; the
        # result keeps the bits of the two public searches run apart.
        prior = TruncatedGaussian(1.0, 2.0)
        gain = optimize_gain(prior, tol=1e-6)
        curve = optimize_guess_curve(prior)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return optimize_gain(*args, **kwargs)

        monkeypatch.setattr(optimize, "optimize_gain", counted)
        result = classical_bound_estimate(prior)
        assert len(calls) == 1
        best = max(gain, curve, key=lambda report: report.best_value)
        assert (result.value.hex(), result.strategy) == (best.best_value.hex(), best.best_strategy)
