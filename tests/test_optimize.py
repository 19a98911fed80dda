import math

import numpy as np
import pytest

from telebound import (
    Gain,
    GaussianIso,
    RadialCurve,
    TruncatedGaussian,
    UniformDisk,
    classical_bound_estimate,
    gaussian_bound,
    optimize_gain,
    optimize_guess_curve,
)
from telebound.optimize import GAIN_SEARCH_MAX, _golden_max

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
        assert 0.0 <= report.best_strategy.g <= GAIN_SEARCH_MAX

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


def golden_max_one(f, lo, hi, tol):
    """One bracket at a time: the reference loop for the lockstep search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0
    h = hi - lo
    if h <= tol:
        x = 0.5 * (lo + hi)
        return x, f(x), 1, h
    steps = int(math.ceil(math.log(tol / h) / math.log(inv_phi)))
    c, d = lo + inv_phi2 * h, lo + inv_phi * h
    yc, yd = f(c), f(d)
    for _ in range(steps - 1):
        h = inv_phi * h
        if yc > yd:
            hi, d, yd = d, c, yc
            c = lo + inv_phi2 * h
            yc = f(c)
        else:
            lo, c, yc = c, d, yd
            d = lo + inv_phi * h
            yd = f(d)
    if yc > yd:
        return c, yc, steps + 1, d - lo
    return d, yd, steps + 1, hi - c


class TestGoldenSearch:
    def test_lockstep_matches_one_bracket_at_a_time(self):
        # brackets of different widths take different step counts; the last
        # one is already within tol
        lo = np.array([0.0, -1.0, 0.3, 2.0, 1.0])
        hi = np.array([1.0, 3.0, 0.31, 9.0, 1.0 + 1e-9])
        peaks = np.array([0.37, 0.5, 0.305, 8.9, 1.0])

        def f(x):
            return -np.cos(x - peaks) * (x - peaks) ** 2

        batch = _golden_max(f, lo, hi, 1e-7)
        for i in range(lo.size):
            one = golden_max_one(lambda x: float(f(np.full(lo.size, x))[i]), lo[i], hi[i], 1e-7)
            assert tuple(float(v[i]) for v in batch) == one


class TestOptimizeGuessCurve:
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
        for bad in (0, 1.5):
            with pytest.raises(ValueError, match="max_sweeps"):
                optimize_guess_curve(UniformDisk(1.0), max_sweeps=bad)
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
        result = classical_bound_estimate(UniformDisk(2.0))
        assert result.strategy is not None
        if isinstance(result.strategy, Gain):
            assert result.optimal_gain == result.strategy.g

    def test_floor_and_monotonicity_over_radius(self):
        radii = (0.5, 1.0, 2.0, 3.0, 5.0, 10.0)
        values = [classical_bound_estimate(UniformDisk(r), n_nodes=6).value for r in radii]
        assert all(v >= 0.5 for v in values)
        assert all(b <= a + 1e-3 for a, b in zip(values, values[1:]))

    def test_gaussian_never_above_closed_bound(self):
        for lam in (0.5, 1.0, 2.0):
            result = classical_bound_estimate(GaussianIso(lam))
            assert result.value <= gaussian_bound(lam) + 1e-6
