import math
import re

import numpy as np
import pytest

from telebound import (
    disk_gain_fidelity,
    gaussian_bound,
    gaussian_gain_fidelity,
    optimal_gain_gaussian,
    select_lambda,
    tail_mass,
    truncated_gain_fidelity,
)

from _oracles import (
    DISK_GAIN_OPTIMA,
    disk_gain_scipy,
    disk_gain_vec,
    gaussian_gain_scipy,
    grid_best_gain,
    truncated_gain_closed,
)


class TestGaussianBound:
    def test_zero_is_exactly_half(self):
        assert gaussian_bound(0.0) == 0.5

    def test_formula(self):
        assert gaussian_bound(1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_concentrated_limit(self):
        assert gaussian_bound(1e9) == pytest.approx(1.0, abs=1e-8)

    def test_strictly_increasing(self):
        lams = np.logspace(-4, 4, 60)
        vals = [gaussian_bound(l) for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v > 0.5 for v in vals)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gaussian_bound(-0.1)


class TestGaussianGainFidelity:
    # expected values verified against scipy quadrature of the double integral
    @pytest.mark.parametrize("lam,g,expected", [
        (1.0, 0.5, 2.0 / 3.0),
        (1.0, 0.0, 0.5),
        (2.0, 1.0 / 3.0, 0.75),
    ])
    def test_frozen_examples(self, lam, g, expected):
        assert gaussian_gain_fidelity(lam, g) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lam,g", [(0.2, 0.0), (0.2, 0.9), (1.0, 0.3), (5.0, 1.0), (3.0, 0.25)])
    def test_against_scipy_quadrature(self, lam, g):
        assert gaussian_gain_fidelity(lam, g) == pytest.approx(gaussian_gain_scipy(lam, g), rel=1e-9)

    def test_rejects_non_positive_lambda(self):
        with pytest.raises(ValueError):
            gaussian_gain_fidelity(0.0, 0.5)
        with pytest.raises(ValueError):
            gaussian_gain_fidelity(-1.0, 0.5)

    def test_optimum_consistency_log_grid(self):
        for lam in np.logspace(-3, 3, 25):
            g = optimal_gain_gaussian(lam)
            assert gaussian_gain_fidelity(lam, g) == pytest.approx(gaussian_bound(lam), abs=1e-12)


class TestOptimalGainGaussian:
    def test_values(self):
        assert optimal_gain_gaussian(1.0) == pytest.approx(0.5, rel=1e-15)
        assert optimal_gain_gaussian(0.01) == pytest.approx(0.990099, abs=1e-6)
        assert optimal_gain_gaussian(1e9) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("lam", [0.05, 0.5, 2.0])
    def test_grid_search_oracle(self, lam):
        g_star, _ = grid_best_gain(lambda gs: lam / ((lam + 1) * (1 + np.asarray(gs) ** 2) - 2 * np.asarray(gs)))
        assert optimal_gain_gaussian(lam) == pytest.approx(g_star, abs=1e-6)


class TestDiskGainFidelity:
    def test_frozen_examples(self):
        assert disk_gain_fidelity(1.0, 0.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert disk_gain_fidelity(1.0, 1.0) == 0.5
        assert disk_gain_fidelity(7.3, 1.0) == 0.5
        assert abs(disk_gain_fidelity(1.0, 0.36) - 0.7425) < 1e-4  # 0.742528352 exactly

    @pytest.mark.parametrize("radius,g", [(0.5, 0.2), (1.0, 0.36), (2.0, 0.69), (3.0, 0.0)])
    def test_against_scipy_quadrature(self, radius, g):
        assert disk_gain_fidelity(radius, g) == pytest.approx(disk_gain_scipy(radius, g), rel=1e-9)

    def test_continuity_at_unit_gain(self):
        for radius in (0.5, 1.0, 3.0):
            assert abs(disk_gain_fidelity(radius, 1.0 - 1e-6) - 0.5) < 1e-5
            assert abs(disk_gain_fidelity(radius, 1.0 + 1e-6) - 0.5) < 1e-5

    def test_best_gain_beats_half_for_every_radius(self):
        for radius in (0.5, 1.0, 2.0, 3.0, 5.0, 10.0):
            _, f_star = grid_best_gain(disk_gain_vec(radius), n=200_001)
            assert f_star > 0.5

    def test_best_gain_nonincreasing_in_radius(self):
        best = [grid_best_gain(disk_gain_vec(r), n=200_001)[1] for r in (0.5, 1.0, 2.0, 3.0, 5.0, 10.0)]
        assert all(b <= a for a, b in zip(best, best[1:]))
        assert best[-1] > 0.5  # approaches 1/2 from above

    def test_frozen_grid_search_optima(self):
        for radius, (g_star, f_star) in DISK_GAIN_OPTIMA.items():
            g, f = grid_best_gain(disk_gain_vec(radius), n=400_001)
            assert g == pytest.approx(g_star, abs=2e-5)
            assert f == pytest.approx(f_star, abs=1e-8)


class TestTruncatedGainFidelity:
    def test_zero_lambda_is_uniform_disk(self):
        for g in (0.0, 0.36, 1.0):
            assert truncated_gain_fidelity(0.0, 2.0, g) == disk_gain_fidelity(2.0, g)

    def test_unit_gain_is_half(self):
        assert truncated_gain_fidelity(1.7, 2.5, 1.0) == 0.5

    @pytest.mark.parametrize("lam,radius,g", [(1.0, 3.0, 0.5), (2.0, 1.0, 0.3), (0.5, 2.0, 0.69)])
    def test_matches_local_closed_form(self, lam, radius, g):
        assert truncated_gain_fidelity(lam, radius, g) == pytest.approx(
            truncated_gain_closed(lam, radius, g), rel=1e-12)

    def test_wide_disk_approaches_whole_plane(self):
        assert truncated_gain_fidelity(1.0, 12.0, 0.5) == pytest.approx(
            gaussian_gain_fidelity(1.0, 0.5), rel=1e-9)


class TestSelectLambda:
    def test_algebraic_examples(self):
        assert select_lambda(1.0, 0.01) == pytest.approx(math.log(100.0), rel=1e-14)
        assert select_lambda(5.0, 0.01) == pytest.approx(0.184207, abs=1e-6)
        assert select_lambda(3.0, math.exp(-9.0)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("radius,eps", [(1.0, 0.01), (2.5, 0.1), (7.0, 1e-4)])
    def test_tail_mass_roundtrip(self, radius, eps):
        lam = select_lambda(radius, eps)
        assert tail_mass(lam, radius) == pytest.approx(eps, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            select_lambda(0.0, 0.01)
        with pytest.raises(ValueError):
            select_lambda(1.0, 0.0)
        with pytest.raises(ValueError):
            select_lambda(1.0, 1.0)
        with pytest.raises(ValueError):
            select_lambda(1.0, 1.5)
        # radius**2 underflows to 0, is subnormal, overflows; lam underflows.
        for radius, eps in [(1e-200, 0.01), (1e-160, 0.01), (1e200, 0.01), (1e154, 1 - 2**-53)]:
            with pytest.raises(ValueError, match=re.escape(f"radius {radius} and epsilon {eps}")):
                select_lambda(radius, eps)
