import importlib
import math
import tracemalloc
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
    average_fidelity_quad,
    decomposition_residual,
    disk_gain_fidelity,
    gaussian_gain_fidelity,
    optimal_gain_gaussian,
    restricted_fidelity_quad,
    select_lambda,
    tail_mass,
    truncated_gain_fidelity,
)
from telebound.quadrature import BetaRule, _i0e

from _oracles import restricted_gain_closed

# The package re-exports names that hide some modules from attribute lookup;
# import this one by its path.
quadrature = importlib.import_module("telebound.quadrature")

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
        # wide priors: both radial grids reach past 45 (past 150 at 1e-3),
        # where z = 2 (a + rho) b runs into the thousands and the large-z
        # Bessel expansion dominates
        for lam in (0.01, 1e-3):
            g = optimal_gain_gaussian(lam)
            res = average_fidelity_quad(GaussianIso(lam), Gain(g))
            assert abs(res.value - gaussian_gain_fidelity(lam, g)) <= res.error_estimate
            assert res.error_estimate <= res.spec.truncation_tol

    @pytest.mark.parametrize("lam", [1e3, 1e6, 1e10])
    def test_narrow_truncated_gaussian(self, lam):
        # The prior's mass sits far inside its disk: the beta cut must follow it.
        res = average_fidelity_quad(TruncatedGaussian(lam, 1.0), Gain(0.5))
        assert abs(res.value - truncated_gain_fidelity(lam, 1.0, 0.5)) <= res.error_estimate
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
        # exp(-64) is below the truncation budget: the outside rule is
        # empty, and the estimate still covers the mass it leaves out.
        res = restricted_fidelity_quad(1.0, 8.0, Gain(0.5), False)
        assert res.value == 0.0
        assert res.spec.outer_cut_radius == 14.627787054036341  # the alpha cut at b = 8
        assert res.error_estimate >= tail_mass(1.0, 8.0)

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

    @pytest.mark.parametrize("radius", [2.0, 5.0])
    @pytest.mark.parametrize("strategy", [Gain(0.55), CURVE])
    def test_inside_piece_is_the_truncated_prior_scaled(self, radius, strategy):
        # F_inside = (1 - tail) F_trunc: the identity behind the
        # tail-corrected threshold bound / (1 - tail).
        lam = select_lambda(radius, 0.01)
        inside = restricted_fidelity_quad(lam, radius, strategy, True)
        trunc = average_fidelity_quad(TruncatedGaussian(lam, radius), strategy)
        scaled = (1.0 - tail_mass(lam, radius)) * trunc.value
        assert abs(inside.value - scaled) <= inside.error_estimate + trunc.error_estimate


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
        spec = QuadratureSpec()
        a = average_fidelity_quad(UniformDisk(2.0), Gain(0.7), spec)
        b = average_fidelity_quad(UniformDisk(2.0), Gain(0.7), spec)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate

    def test_result_records_cut_radius(self):
        res = average_fidelity_quad(UniformDisk(1.0), Gain(0.5))
        assert res.spec.outer_cut_radius is not None
        assert res.spec.outer_cut_radius > 1.0

    def test_gaussian_floor_rejected(self):
        # The panel budget refuses a prior too flat to integrate, down to
        # lam = 5e-324, whose support radius, and so its span, is infinite.
        for lam in (1e-7, 1e-9, 5e-324):
            with pytest.raises(ValueError, match="over the budget of 4635"):
                average_fidelity_quad(GaussianIso(lam), Gain(0.5))

    @pytest.mark.parametrize("strategy", [Gain(1e308), RadialCurve(((0.0, 0.0), (1.0, 1e308)))],
                             ids=["gain", "curve"])
    def test_overflowing_guess_scores_zero_without_warning(self, strategy):
        # pytest turns warnings into errors here, so an overflow warning fails.
        assert average_fidelity_quad(GaussianIso(1.0), strategy).value == 0.0

    def test_spec_validation(self):
        for bad in (4, 8.5, math.nan):
            with pytest.raises(ValueError, match="radial_nodes"):
                QuadratureSpec(radial_nodes=bad)
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


class TestKernelBlocks:
    def test_block_size_moves_no_bit(self, monkeypatch):
        # einsum sums each row of a block on its own, so neither a result
        # nor a slice depends on how many rows share a block.
        lam = 0.05
        a = np.linspace(0.0, 30.0, 801)
        rho = 0.8 * a
        results = []
        for points in (1 << 10, 1 << 15, 1 << 20):
            monkeypatch.setattr(quadrature, "_BLOCK_POINTS", points)
            quad = average_fidelity_quad(GaussianIso(lam), Gain(optimal_gain_gaussian(lam)))
            slices = BetaRule.for_prior(GaussianIso(lam), QuadratureSpec())(a, rho)
            results.append((quad, slices.tobytes()))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("prior, strategy", [
        (GaussianIso(0.05), Gain(optimal_gain_gaussian(0.05))),
        (TruncatedGaussian(0.2, 6.0), Gain(0.6)),
        (UniformDisk(3.0), CURVE),
    ], ids=["gaussian", "truncated", "curve"])
    def test_band_moves_values_by_less_than_its_bound(self, monkeypatch, prior, strategy):
        spec = QuadratureSpec()
        fine = BetaRule(prior.radial_density, 0.0, prior.support_radius(spec.truncation_tol / 2.0),
                        spec, mult=2)
        band = quadrature._band_error(fine)
        banded = average_fidelity_quad(prior, strategy, spec)
        monkeypatch.setattr(quadrature, "_BAND", math.inf)
        assert quadrature._band_error(fine) == 0.0
        full = average_fidelity_quad(prior, strategy, spec)
        assert 0.0 < band < 1e-20
        assert abs(banded.value - full.value) <= band + 8.0 * np.finfo(float).eps * abs(full.value)

    def test_peak_memory_is_a_few_blocks(self):
        # The kernel is built one block of rows at a time, so a wide prior's
        # (a, b) grid costs a dozen block arrays at most: less than one
        # float array over the whole grid, which blocks of 1 << 20 points
        # held about nine of at this prior.
        lam = 0.05
        prior, strategy, spec = GaussianIso(lam), Gain(optimal_gain_gaussian(lam)), QuadratureSpec()
        fine = BetaRule(prior.radial_density, 0.0, prior.support_radius(spec.truncation_tol / 2.0),
                        spec, mult=2)
        a_nodes = math.ceil(fine.a_hi / spec.panel_width) * fine.nodes
        average_fidelity_quad(prior, strategy, spec)
        tracemalloc.start()
        try:
            average_fidelity_quad(prior, strategy, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grids = 8 * 8 * (a_nodes + fine.b.size)
        assert peak < 12 * 8 * quadrature._BLOCK_POINTS + grids
        assert peak < 8 * a_nodes * fine.b.size


class TestGuessSlice:
    def test_matches_scipy_for_disk(self):
        prior = UniformDisk(1.0)
        a, rho = 1.2, 0.45
        p = 1.0 / np.pi
        ref, _ = integrate.quad(
            lambda b: b * p * np.exp(-(a - b) ** 2 - (rho - b) ** 2) * i0e(2 * (a + rho) * b),
            0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
        assert BetaRule.for_prior(prior, QuadratureSpec())(a, rho) == pytest.approx(2.0 * ref, rel=1e-9)

    def test_matches_gaussian_closed_form(self):
        lam, a, rho = 1.0, 1.5, 0.75
        closed = (lam / (np.pi * (lam + 2.0))) * math.exp((a + rho) ** 2 / (lam + 2.0) - a * a - rho * rho)
        slice_ = BetaRule.for_prior(GaussianIso(lam), QuadratureSpec())(a, rho)
        assert slice_ == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("prior", [UniformDisk(1.0), GaussianIso(0.05), TruncatedGaussian(0.5, 3.0)])
    def test_batched_slices_equal_scalar_calls(self, prior):
        a = np.linspace(0.0, 6.0, 7)[:, None]
        rho = np.linspace(0.0, 5.0, 11)[None, :]
        rule = BetaRule.for_prior(prior, QuadratureSpec())
        batched = rule(a, rho)
        assert batched.shape == (7, 11)
        for i, j in np.ndindex(batched.shape):
            assert batched[i, j] == rule(a[i, 0], rho[0, j])

    def test_slice_consistent_with_full_average(self):
        # integrating the slice over outcomes reproduces the full value
        prior, g = UniformDisk(1.0), 0.36
        grid = np.linspace(0.0, 9.0, 1801)
        s = BetaRule.for_prior(prior, QuadratureSpec())(grid, g * grid)
        total = 2.0 * np.pi * np.trapezoid(grid * s, grid)
        assert total == pytest.approx(disk_gain_fidelity(1.0, g), abs=5e-6)
