import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.special import i0e

from telebound import (
    Gain,
    GaussianIso,
    QuadratureSpec,
    RadialCurve,
    TruncatedGaussian,
    UniformDisk,
    auto_spec,
    average_fidelity_quad,
    decomposition_residual,
    disk_gain_fidelity,
    gaussian_gain_fidelity,
    guess_slice_quad,
    optimal_gain_gaussian,
    restricted_fidelity_quad,
    truncated_gain_fidelity,
)
from telebound.quadrature import BetaRule, _i0e

from _oracles import restricted_gain_closed

CURVE = RadialCurve(((0.0, 0.0), (0.8, 0.5), (2.0, 1.1), (4.0, 1.8)))


class TestOracleAgreement:
    @pytest.mark.parametrize("lam", [0.2, 1.0, 5.0])
    @pytest.mark.parametrize("g_kind", ["zero", "mid", "optimal", "unit"])
    def test_gaussian_grid(self, lam, g_kind):
        g = {"zero": 0.0, "mid": 0.3, "optimal": 1.0 / (1.0 + lam), "unit": 1.0}[g_kind]
        res = average_fidelity_quad(GaussianIso(lam), Gain(g))
        exact = gaussian_gain_fidelity(lam, g)
        assert abs(res.value - exact) <= res.error_estimate
        assert res.value == pytest.approx(exact, rel=1e-7)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("g", [0.0, 0.36, 1.0])
    def test_disk_grid(self, radius, g):
        res = average_fidelity_quad(UniformDisk(radius), Gain(g))
        exact = disk_gain_fidelity(radius, g)
        assert abs(res.value - exact) <= res.error_estimate
        assert res.value == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("lam,radius,g", [(1.0, 3.0, 0.5), (0.5, 2.0, 0.8), (0.0, 1.5, 0.4)])
    def test_truncated_gaussian(self, lam, radius, g):
        res = average_fidelity_quad(TruncatedGaussian(lam, radius), Gain(g))
        assert res.value == pytest.approx(truncated_gain_fidelity(lam, radius, g), rel=1e-8)

    def test_example_values(self):
        assert average_fidelity_quad(GaussianIso(1.0), Gain(0.5)).value == pytest.approx(2 / 3, abs=1e-6)
        assert average_fidelity_quad(UniformDisk(1.0), Gain(0.0)).value == pytest.approx(0.632121, abs=1e-6)

    def test_wide_gaussian_prior(self):
        # a wide prior: both radial grids reach past 45, where z = 2 (a + rho) b
        # runs into the thousands and the large-z Bessel expansion dominates
        lam = 0.01
        g = optimal_gain_gaussian(lam)
        res = average_fidelity_quad(GaussianIso(lam), Gain(g))
        assert abs(res.value - gaussian_gain_fidelity(lam, g)) <= res.error_estimate
        assert res.error_estimate <= res.spec.truncation_tol

    def test_point_like_disk(self):
        res = average_fidelity_quad(UniformDisk(1e-4), Gain(0.0))
        assert res.value == pytest.approx(1.0, abs=1e-7)  # 1 - O(R^2)
        assert res.value < 1.0


class TestCurveAgainstScipy:
    def test_disk_curve_value(self):
        prior = UniformDisk(1.5)

        def rho_of_a(a):
            return float(CURVE.guess_radius(np.array([a]))[0])

        def inner(b):
            p = 1.0 / (np.pi * 1.5**2)
            f = lambda a: (a * b * p * np.exp(-(a - b) ** 2 - (rho_of_a(a) - b) ** 2)
                           * i0e(2.0 * (a + rho_of_a(a)) * b))
            v, _ = integrate.quad(f, 0.0, 10.0, epsabs=1e-12, epsrel=1e-11, limit=300)
            return v

        ref, _ = integrate.quad(inner, 0.0, 1.5, epsabs=1e-12, epsrel=1e-11, limit=300)
        ref *= 4.0 * np.pi
        res = average_fidelity_quad(prior, CURVE)
        assert res.value == pytest.approx(ref, abs=5e-8)


class TestRestricted:
    @pytest.mark.parametrize("lam,radius,g", [(1.0, 1.0, 0.5), (2.0, 0.5, 1 / 3), (1.0, 1.0, 0.0)])
    def test_against_closed_forms(self, lam, radius, g):
        f_in = restricted_fidelity_quad(lam, radius, Gain(g), True)
        f_out = restricted_fidelity_quad(lam, radius, Gain(g), False)
        assert f_in.value == pytest.approx(restricted_gain_closed(lam, radius, g, True), abs=1e-8)
        assert f_out.value == pytest.approx(restricted_gain_closed(lam, radius, g, False), abs=1e-8)

    def test_inside_with_huge_radius_recovers_whole_plane(self):
        whole = gaussian_gain_fidelity(1.0, 0.5)
        res = restricted_fidelity_quad(1.0, 8.0, Gain(0.5), True)
        assert res.value == pytest.approx(whole, abs=1e-8)

    def test_outside_with_huge_radius_vanishes(self):
        res = restricted_fidelity_quad(1.0, 8.0, Gain(0.5), False)
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_pieces_sum_to_closed_form(self):
        f_in = restricted_fidelity_quad(1.0, 1.0, Gain(0.5), True)
        f_out = restricted_fidelity_quad(1.0, 1.0, Gain(0.5), False)
        assert f_in.value + f_out.value == pytest.approx(2 / 3, abs=1e-6)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            restricted_fidelity_quad(0.0, 1.0, Gain(0.5), True)


class TestDecompositionResidual:
    @pytest.mark.parametrize("lam,radius,g", [(1.0, 1.0, 0.5), (2.0, 0.5, 1 / 3), (1.0, 1.0, 0.0)])
    def test_gain_triples(self, lam, radius, g):
        assert decomposition_residual(lam, radius, Gain(g)) < 1e-6

    def test_curve_strategy(self):
        assert decomposition_residual(1.0, 1.2, CURVE) < 1e-6


class TestNumericalBehaviour:
    def test_panel_halving_converges_fast(self):
        prior, strategy = GaussianIso(1.0), Gain(0.4)
        values = []
        for width in (12.0, 6.0, 3.0):
            spec = QuadratureSpec(radial_nodes=8, truncation_tol=1e-9, panel_width=width)
            values.append(average_fidelity_quad(prior, strategy, spec).value)
        d1 = abs(values[1] - values[0])
        d2 = abs(values[2] - values[1])
        assert d1 > 1e-12  # coarse enough to measure
        assert d2 <= d1 / 4.0

    def test_i0e_matches_scipy(self):
        # the exact angular integral rests on this function; cover both
        # Chebyshev expansions and the branch point z = 8 from each side
        z = np.concatenate([np.linspace(0.0, 16.0, 20001), np.geomspace(1e-8, 1e5, 20001),
                            [np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0), 1e5]])
        ref = i0e(z)
        assert np.all(np.abs(_i0e(z) - ref) <= 4.0 * np.spacing(ref))

    def test_truncation_soundness(self):
        prior, strategy = UniformDisk(1.0), Gain(0.36)
        base = average_fidelity_quad(prior, strategy)
        wider = replace(base.spec, outer_cut_radius=base.spec.outer_cut_radius * 1.5)
        v2 = average_fidelity_quad(prior, strategy, wider).value
        assert abs(v2 - base.value) < base.spec.truncation_tol

    def test_error_estimate_covers_refinement(self):
        # panels coarse enough that the doubled-resolution pass moves the value
        spec = QuadratureSpec(radial_nodes=8, truncation_tol=1e-9, panel_width=6.0)
        res = average_fidelity_quad(GaussianIso(0.5), Gain(0.6), spec)
        refined_spec = QuadratureSpec(radial_nodes=16, truncation_tol=1e-9)
        refined = average_fidelity_quad(GaussianIso(0.5), Gain(0.6), refined_spec)
        assert abs(refined.value - res.value) <= res.error_estimate

    def test_bit_stable_across_repeat_runs(self):
        spec = auto_spec(UniformDisk(2.0), Gain(0.7))
        a = average_fidelity_quad(UniformDisk(2.0), Gain(0.7), spec)
        b = average_fidelity_quad(UniformDisk(2.0), Gain(0.7), spec)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate

    def test_result_records_cut_radius(self):
        res = average_fidelity_quad(UniformDisk(1.0), Gain(0.5))
        assert res.spec.outer_cut_radius is not None
        assert res.spec.outer_cut_radius > 1.0

    def test_gaussian_floor_rejected(self):
        with pytest.raises(ValueError):
            average_fidelity_quad(GaussianIso(1e-7), Gain(0.5))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(radial_nodes=4)
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(panel_width=-1.0)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                QuadratureSpec(outer_cut_radius=bad)
        # the angle is integrated exactly: no angular resolution to set
        with pytest.raises(TypeError):
            QuadratureSpec(angular_nodes=64)
        assert QuadratureSpec().angular_nodes == 1


class TestGuessSlice:
    def test_matches_scipy_for_disk(self):
        prior = UniformDisk(1.0)
        a, rho = 1.2, 0.45
        p = 1.0 / np.pi
        ref, _ = integrate.quad(
            lambda b: b * p * np.exp(-(a - b) ** 2 - (rho - b) ** 2) * i0e(2 * (a + rho) * b),
            0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
        assert guess_slice_quad(prior, a, rho) == pytest.approx(2.0 * ref, rel=1e-9)

    def test_matches_gaussian_closed_form(self):
        lam, a, rho = 1.0, 1.5, 0.75
        closed = (lam / (np.pi * (lam + 2.0))) * math.exp((a + rho) ** 2 / (lam + 2.0) - a * a - rho * rho)
        assert guess_slice_quad(GaussianIso(lam), a, rho) == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("prior", [UniformDisk(1.0), GaussianIso(0.05), TruncatedGaussian(0.5, 3.0)])
    def test_batched_slices_equal_scalar_calls(self, prior):
        a = np.linspace(0.0, 6.0, 7)[:, None]
        rho = np.linspace(0.0, 5.0, 11)[None, :]
        batched = BetaRule.for_prior(prior, QuadratureSpec())(a, rho)
        assert batched.shape == (7, 11)
        for i, j in np.ndindex(batched.shape):
            assert batched[i, j] == guess_slice_quad(prior, a[i, 0], rho[0, j])

    def test_slice_consistent_with_full_average(self):
        # integrating the slice over outcomes reproduces the full value
        prior, g = UniformDisk(1.0), 0.36
        grid = np.linspace(0.0, 9.0, 1801)
        s = np.array([guess_slice_quad(prior, a, g * a) for a in grid])
        total = 2.0 * np.pi * np.trapezoid(grid * s, grid)
        assert total == pytest.approx(disk_gain_fidelity(1.0, g), abs=5e-6)
