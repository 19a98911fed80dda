import math
import pickle

import numpy as np
import pytest
from scipy import integrate

from telebound import (
    Gain,
    GaussianIso,
    RadialCurve,
    TruncatedGaussian,
    UniformDisk,
    apply_strategy,
    average_fidelity_quad,
    fidelity_kernel,
    gain_fidelity,
    prior_density,
    sample_prior,
    tail_mass,
)


class TestFidelityKernel:
    def test_identical_states(self):
        assert fidelity_kernel(0j, 0j) == 1.0
        assert fidelity_kernel(3 + 4j, 3 + 4j) == 1.0

    def test_unit_separation(self):
        assert fidelity_kernel(1 + 0j, 0j) == pytest.approx(math.exp(-1.0), rel=1e-15)

    @pytest.mark.parametrize("a,b", [(0.3 + 1j, -2 + 0.5j), (5j, 1 - 1j), (0j, 2 + 2j)])
    def test_symmetry(self, a, b):
        assert fidelity_kernel(a, b) == fidelity_kernel(b, a)

    def test_range_and_equality_case(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = (complex(*rng.normal(size=2)) for _ in range(2))
            v = fidelity_kernel(a, b)
            assert 0.0 < v <= 1.0
            assert (v == 1.0) == (a == b)

    @pytest.mark.parametrize("theta", [0.1, 1.0, np.pi / 3, 2.0])
    def test_rotation_invariance(self, theta):
        a, b = 1.2 - 0.7j, -0.4 + 2.1j
        rot = complex(np.exp(1j * theta))
        assert fidelity_kernel(rot * a, rot * b) == pytest.approx(fidelity_kernel(a, b), rel=1e-12)

    @pytest.mark.parametrize("bad", [float("nan") + 0j, float("inf") + 1j, 1 + float("nan") * 1j])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            fidelity_kernel(bad, 0j)

    def test_arrays_equal_elementwise_scalar_calls(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 10, 2)) @ np.array([1.0, 1j])
        b = rng.normal(size=(5, 10, 2)) @ np.array([2.0, 2j])
        f = fidelity_kernel(a, b)
        assert f.shape == (5, 10) and type(fidelity_kernel(a[0, 0], b[0, 0])) is float
        assert np.array_equal(f, [[fidelity_kernel(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        assert np.array_equal(fidelity_kernel(a, 0j), [[fidelity_kernel(x, 0j) for x in ra] for ra in a])

    @pytest.mark.parametrize("alpha_bad", [True, False])
    def test_rejects_one_non_finite_element(self, alpha_bad):
        good = np.linspace(0.0, 2.0, 7) + 0.5j
        bad = good.copy()
        bad[4] = complex(1.0, math.inf)
        args = (bad, good) if alpha_bad else (good, bad)
        name = "alpha" if alpha_bad else "beta"
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got \(1\+infj\)$"):
            fidelity_kernel(*args)

    def test_far_apart_amplitudes_give_zero(self):
        assert fidelity_kernel(1e308, -1e308) == 0.0
        assert np.array_equal(fidelity_kernel(np.array([1e308, 0.0]), -1e308), [0.0, 0.0])


class TestPriorDensity:
    def test_gaussian_at_origin(self):
        assert prior_density(GaussianIso(1.0), 0j) == pytest.approx(1.0 / math.pi, rel=1e-15)

    def test_disk_outside_support(self):
        assert prior_density(UniformDisk(1.0), 2 + 0j) == 0.0

    def test_truncated_uniform_limit_value(self):
        assert prior_density(TruncatedGaussian(0.0, 2.0), 1 + 0j) == pytest.approx(1.0 / (4 * math.pi), rel=1e-15)

    @pytest.mark.parametrize("prior", [GaussianIso(0.1), GaussianIso(1.0), GaussianIso(5.0),
                                       UniformDisk(1.0), UniformDisk(3.0),
                                       TruncatedGaussian(0.1, 1.0), TruncatedGaussian(1.0, 3.0),
                                       TruncatedGaussian(5.0, 1.0), TruncatedGaussian(0.0, 3.0),
                                       TruncatedGaussian(0.5, math.inf)])
    def test_normalization(self, prior):
        # independent radial quadrature of 2 pi r p(r) over the support
        hi = prior.support_radius(1e-14)
        mass, _ = integrate.quad(lambda r: 2 * np.pi * r * float(prior.radial_density(np.array([r]))[0]),
                                 0.0, hi, epsabs=1e-12, epsrel=1e-12, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("prior", [GaussianIso(0.7), UniformDisk(2.0), TruncatedGaussian(0.7, 2.0),
                                       TruncatedGaussian(1e3, 1.0), TruncatedGaussian(0.0, 2.0)])
    def test_is_radial_density_of_modulus(self, prior):
        # Inside the disk, on its rim, just outside it and far outside it.
        rim = min(prior.radius, 3.0)
        for beta in (0j, 0.3 - 0.4j, rim * np.exp(0.7j), rim + 1e-12, 1j * (rim + 1.0), 1e200 + 0j):
            expected = float(prior.radial_density(abs(beta)))
            assert prior_density(prior, beta) == expected
        assert prior_density(prior, 1e200) == 0.0

    def test_truncated_tends_to_uniform_disk(self):
        tg = TruncatedGaussian(1e-8, 3.0)
        disk = UniformDisk(3.0)
        for beta in [0j, 1 + 1j, 2.9j, 0.5 - 2j]:
            rel = prior_density(tg, beta) / prior_density(disk, beta) - 1.0
            assert abs(rel) < 1e-6

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianIso(0.0)
        with pytest.raises(ValueError):
            GaussianIso(-1.0)
        with pytest.raises(ValueError):
            UniformDisk(0.0)
        with pytest.raises(ValueError):
            TruncatedGaussian(-0.1, 1.0)
        with pytest.raises(ValueError):
            TruncatedGaussian(1.0, 0.0)
        with pytest.raises(ValueError):
            TruncatedGaussian(0.0, math.inf)  # a flat whole-plane prior has no normalization
        with pytest.raises(ValueError):
            UniformDisk(math.inf)
        with pytest.raises(ValueError):
            TruncatedGaussian(1.0, math.nan)
        # The normalization leaves the normal floats: a disk mass of 0, a
        # subnormal one, radius**2 overflowing, radius**2 subnormal.
        with pytest.raises(ValueError, match="lam = 1e-200 and radius = 1e-200"):
            TruncatedGaussian(1e-200, 1e-200)
        with pytest.raises(ValueError, match="below the smallest normal float"):
            TruncatedGaussian(1e-300, 1e-5)
        with pytest.raises(ValueError, match="radius\\*\\*2 overflows"):
            UniformDisk(1e200)
        with pytest.raises(ValueError, match="radius\\*\\*2 of 1e-320, below"):
            UniformDisk(1e-160)


CURVE = RadialCurve(((0.0, 0.0), (0.7, 0.4), (1.5, 1.0), (3.0, 1.9)))


class TestPriorFamily:
    """GaussianIso and UniformDisk are TruncatedGaussian with one field fixed:
    every number they produce equals the family member's bit for bit."""

    @pytest.mark.parametrize("thin,member", [
        (GaussianIso(0.5), TruncatedGaussian(0.5, math.inf)),
        (GaussianIso(0.05), TruncatedGaussian(0.05, math.inf)),
        (UniformDisk(2.0), TruncatedGaussian(0.0, 2.0)),
        (UniformDisk(0.7), TruncatedGaussian(0.0, 0.7)),
    ])
    def test_constructor_identity(self, thin, member):
        r = np.linspace(0.0, 8.0, 801)
        assert np.array_equal(thin.radial_density(r), member.radial_density(r))
        for beta in (0j, 0.3 - 0.4j, 1.9 + 0.2j, 5j):
            assert prior_density(thin, beta) == prior_density(member, beta)
        draws = [sample_prior(p, np.random.Generator(np.random.Philox(11)), 4000) for p in (thin, member)]
        assert np.array_equal(draws[0], draws[1])
        for g in (0.0, 0.3, 0.6, 1.0, 1.3):
            assert gain_fidelity(thin, g) == gain_fidelity(member, g)
        for strategy in (Gain(0.6), CURVE):
            assert average_fidelity_quad(thin, strategy) == average_fidelity_quad(member, strategy)

    def test_thin_constructors_keep_their_repr_and_fields(self):
        gauss, disk = GaussianIso(0.5), UniformDisk(2.0)
        assert repr(gauss) == "GaussianIso(lam=0.5)"
        assert repr(disk) == "UniformDisk(radius=2.0)"
        assert repr(TruncatedGaussian(0.7, 3.0)) == "TruncatedGaussian(lam=0.7, radius=3.0)"
        assert (gauss.radius, disk.lam) == (math.inf, 0.0)
        assert isinstance(gauss, TruncatedGaussian) and isinstance(disk, TruncatedGaussian)
        for prior in (gauss, disk):
            copy = pickle.loads(pickle.dumps(prior))
            assert copy == prior and hash(copy) == hash(prior) and type(copy) is type(prior)


class TestTailMass:
    def test_algebraic_cases(self):
        assert tail_mass(math.log(100.0), 1.0) == pytest.approx(0.01, rel=1e-12)
        assert tail_mass(1.0, 40.0) < 1e-300  # radius -> infinity limit

    def test_against_radial_quadrature(self):
        lam, radius = 0.5, 2.0
        mass, _ = integrate.quad(lambda r: 2 * np.pi * r * (lam / np.pi) * np.exp(-lam * r * r),
                                 radius, 60.0, epsabs=1e-14, epsrel=1e-12)
        assert tail_mass(lam, radius) == pytest.approx(0.1353352832366127, rel=1e-12)
        assert tail_mass(lam, radius) == pytest.approx(mass, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            tail_mass(0.0, 1.0)
        with pytest.raises(ValueError):
            tail_mass(1.0, 0.0)


class TestSupportRadius:
    @pytest.mark.parametrize("tail", [1e-4, 5e-10, 1e-14])
    def test_narrow_truncated_equals_gaussian(self, tail):
        # Disk mass exactly 1.0: the disk never binds and the cut is the
        # whole-plane one, bit for bit.
        narrow = TruncatedGaussian(1e3, 1.0)
        assert narrow.mass == 1.0
        assert narrow.support_radius(tail) == GaussianIso(1e3).support_radius(tail)

    @pytest.mark.parametrize("prior", [TruncatedGaussian(20.0, 3.0), TruncatedGaussian(2.0, 2.0),
                                       TruncatedGaussian(0.1, 1.0), UniformDisk(2.0), GaussianIso(0.5)])
    @pytest.mark.parametrize("tail", [1e-4, 5e-10])
    def test_leaves_tail_of_own_mass(self, prior, tail):
        b = prior.support_radius(tail)
        assert b <= prior.radius
        if b < prior.radius:
            assert tail_mass(prior.lam, b) / prior.mass == pytest.approx(tail, rel=1e-9)
        else:
            # The disk binds: the Gaussian cut would lie beyond it.
            assert prior.lam == 0.0 or tail_mass(prior.lam, b) / prior.mass >= tail


class TestApplyStrategy:
    def test_gain_examples(self):
        assert apply_strategy(Gain(1.0), 2 + 3j) == 2 + 3j
        assert apply_strategy(Gain(0.5), 2 + 0j) == 1 + 0j

    def test_curve_interpolation_midpoint(self):
        curve = RadialCurve(((0.0, 0.0), (1.0, 0.5), (2.0, 1.5)))
        assert apply_strategy(curve, 1.5 + 0j) == pytest.approx(1.0 + 0j, rel=1e-12)

    def test_curve_extrapolation_keeps_last_ratio(self):
        curve = RadialCurve(((0.0, 0.0), (1.0, 0.5), (2.0, 1.5)))
        out = apply_strategy(curve, 4 + 0j)
        assert out == pytest.approx(3.0 + 0j, rel=1e-12)  # ratio 1.5/2 at radius 4

    def test_origin_maps_to_origin(self):
        curve = RadialCurve(((0.0, 0.3), (1.0, 0.5)))
        assert apply_strategy(curve, 0j) == 0j
        assert apply_strategy(Gain(0.7), 0j) == 0j

    @pytest.mark.parametrize("strategy", [Gain(0.4), RadialCurve(((0.0, 0.0), (1.0, 0.6), (3.0, 1.2)))])
    @pytest.mark.parametrize("theta", [0.3, 1.7, 4.0])
    def test_rotation_commutes(self, strategy, theta):
        alpha = 1.1 - 0.8j
        rot = complex(np.exp(1j * theta))
        lhs = apply_strategy(strategy, rot * alpha)
        rhs = rot * apply_strategy(strategy, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            RadialCurve(((0.5, 0.1), (1.0, 0.2)))  # must start at 0
        with pytest.raises(ValueError):
            RadialCurve(((0.0, 0.1), (1.0, 0.2), (1.0, 0.3)))  # not strictly increasing
        with pytest.raises(ValueError):
            RadialCurve(((0.0, 0.1), (1.0, -0.2)))  # negative guess radius
        with pytest.raises(ValueError):
            RadialCurve(((0.0, 0.1),))  # needs two nodes
        with pytest.raises(ValueError):
            Gain(-0.5)
