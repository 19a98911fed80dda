import math

import numpy as np
import pytest

from telebound import (
    Constant,
    Gain,
    GaussianIso,
    RadialCurve,
    SimulatedGain,
    TruncatedGaussian,
    UniformDisk,
    average_fidelity_quad,
    disk_gain_fidelity,
    gaussian_gain_fidelity,
    generate_dataset,
    sample_heterodyne,
    sample_prior,
    simulate,
    truncated_gain_fidelity,
    weighted_fidelity,
)

N_BIG = 1_000_000


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestSampleHeterodyne:
    def test_unbiased_mean(self):
        beta = 2 + 1j
        alpha = sample_heterodyne(beta, _rng(1), size=N_BIG)
        tol = 3.0 * math.sqrt(0.5) / math.sqrt(N_BIG)
        assert np.mean(alpha.real) == pytest.approx(2.0, abs=tol)
        assert np.mean(alpha.imag) == pytest.approx(1.0, abs=tol)

    def test_component_variance_is_half(self):
        beta = 0.3 - 0.8j
        alpha = sample_heterodyne(beta, _rng(2), size=N_BIG)
        assert np.var(alpha.real - beta.real) == pytest.approx(0.5, abs=0.003)
        assert np.var(alpha.imag - beta.imag) == pytest.approx(0.5, abs=0.003)

    def test_noise_overlap_integral(self):
        # E[exp(-|alpha-beta|^2)] = 1/2 for the pinned outcome density
        beta = 1.5 + 0.5j
        alpha = sample_heterodyne(beta, _rng(3), size=N_BIG)
        f = np.exp(-np.abs(alpha - beta) ** 2)
        stderr = np.std(f) / math.sqrt(N_BIG)
        assert np.mean(f) == pytest.approx(0.5, abs=3 * stderr)

    def test_vector_beta_matches_shape(self):
        beta = np.array([0j, 1 + 1j, 2j])
        out = sample_heterodyne(beta, _rng(0))
        assert out.shape == beta.shape


class TestSamplePrior:
    def test_disk_area_uniformity(self):
        radius = 2.0
        beta = sample_prior(UniformDisk(radius), _rng(5), N_BIG)
        frac = np.mean(np.abs(beta) <= radius / math.sqrt(2.0))
        stderr = math.sqrt(0.25 / N_BIG)
        assert frac == pytest.approx(0.5, abs=3 * stderr)
        assert np.max(np.abs(beta)) <= radius

    def test_gaussian_second_moment(self):
        lam = 2.0
        beta = sample_prior(GaussianIso(lam), _rng(6), N_BIG)
        # E|beta|^2 = 1/lam
        assert np.mean(np.abs(beta) ** 2) == pytest.approx(1.0 / lam, rel=0.01)

    def test_truncated_gaussian_support_and_zero_lambda(self):
        beta = sample_prior(TruncatedGaussian(1.0, 1.5), _rng(7), 100_000)
        assert np.max(np.abs(beta)) <= 1.5
        beta0 = sample_prior(TruncatedGaussian(0.0, 1.5), _rng(7), 100_000)
        assert np.max(np.abs(beta0)) <= 1.5


class TestSimulate:
    @pytest.mark.parametrize("prior", [GaussianIso(1.0), UniformDisk(1.0), UniformDisk(3.0),
                                       TruncatedGaussian(0.5, 2.0)])
    def test_unit_gain_floor(self, prior):
        est = simulate(prior, Gain(1.0), N_BIG, seed=11)
        assert est.mean == pytest.approx(0.5, abs=3 * est.std_error)
        assert est.std_error == pytest.approx(math.sqrt(1.0 / 12.0 / N_BIG), rel=0.02)

    def test_gaussian_closed_form(self):
        est = simulate(GaussianIso(1.0), Gain(0.5), N_BIG, seed=12)
        assert est.mean == pytest.approx(2.0 / 3.0, abs=3 * est.std_error)

    def test_disk_closed_form(self):
        est = simulate(UniformDisk(1.0), Gain(0.36), N_BIG, seed=13)
        assert est.mean == pytest.approx(disk_gain_fidelity(1.0, 0.36), abs=3 * est.std_error)

    def test_agrees_with_quadrature_grid(self):
        cases = [
            (GaussianIso(1.0), Gain(0.5)),
            (GaussianIso(0.2), Gain(0.8)),
            (UniformDisk(2.0), Gain(0.69)),
            (TruncatedGaussian(1.0, 3.0), Gain(0.5)),
            (UniformDisk(1.0), RadialCurve(((0.0, 0.0), (1.0, 0.45), (3.0, 0.75)))),
        ]
        for prior, strategy in cases:
            est = simulate(prior, strategy, 400_000, seed=21)
            quad = average_fidelity_quad(prior, strategy)
            assert abs(est.mean - quad.value) <= 3 * est.std_error + quad.error_estimate

    def test_stderr_scales_like_sqrt_n(self):
        a = simulate(UniformDisk(1.0), Gain(0.36), 50_000, seed=31)
        b = simulate(UniformDisk(1.0), Gain(0.36), 200_000, seed=32)
        assert a.std_error / b.std_error == pytest.approx(2.0, abs=0.2)

    def test_deterministic_and_worker_invariant(self):
        a = simulate(GaussianIso(1.0), Gain(0.5), 300_000, seed=42)
        b = simulate(GaussianIso(1.0), Gain(0.5), 300_000, seed=42)
        c = simulate(GaussianIso(1.0), Gain(0.5), 300_000, seed=42, workers=3)
        assert a == b
        assert a == c
        d = simulate(GaussianIso(1.0), Gain(0.5), 300_000, seed=43)
        assert d.mean != a.mean

    def test_single_sample(self):
        est = simulate(UniformDisk(1.0), Gain(0.5), 1, seed=0)
        assert 0.0 <= est.mean <= 1.0
        assert est.std_error == 0.0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            simulate(UniformDisk(1.0), Gain(0.5), 0, seed=0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_bad_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            simulate(UniformDisk(1.0), Gain(0.5), 10, seed=0, workers=workers)


class TestGenerateDataset:
    def test_constant_model(self):
        ds = generate_dataset(1.0, 10_000, Constant(0.58), seed=1)
        assert len(ds) == 10_000
        assert np.all(ds.fidelity == 0.58)
        assert ds.radius <= 1.0

    def test_constant_one_has_unit_weighted_fidelity(self):
        ds = generate_dataset(2.0, 1_000, Constant(1.0), seed=2)
        for lam in (0.0, 0.3, 4.0):
            assert weighted_fidelity(ds, lam) == 1.0

    def test_simulated_gain_unit_mean(self):
        ds = generate_dataset(2.0, N_BIG, SimulatedGain(1.0), seed=3)
        stderr = np.std(ds.fidelity) / math.sqrt(len(ds))
        assert np.mean(ds.fidelity) == pytest.approx(0.5, abs=3 * stderr)

    def test_simulated_gain_matches_disk_closed_form(self):
        g = 0.686578
        ds = generate_dataset(2.0, 400_000, SimulatedGain(g), seed=4)
        stderr = np.std(ds.fidelity) / math.sqrt(len(ds))
        assert np.mean(ds.fidelity) == pytest.approx(disk_gain_fidelity(2.0, g), abs=3 * stderr)

    def test_reweighted_matches_truncated_gaussian(self):
        # uniform-disk samples reweighted by exp(-lam |beta|^2) estimate the
        # truncated-Gaussian ensemble average
        ds = generate_dataset(3.0, 400_000, SimulatedGain(0.5), seed=5)
        lam = 1.0
        wf = weighted_fidelity(ds, lam)
        w = np.exp(-lam * (ds.beta_re**2 + ds.beta_im**2))
        ess = np.sum(w) ** 2 / np.sum(w * w)
        stderr = np.std(ds.fidelity) / math.sqrt(ess)
        assert wf == pytest.approx(truncated_gain_fidelity(lam, 3.0, 0.5), abs=4 * stderr)

    def test_deterministic_and_worker_invariant(self):
        a = generate_dataset(1.5, 150_000, SimulatedGain(0.7), seed=9)
        b = generate_dataset(1.5, 150_000, SimulatedGain(0.7), seed=9, workers=4)
        assert np.array_equal(a.beta_re, b.beta_re)
        assert np.array_equal(a.beta_im, b.beta_im)
        assert np.array_equal(a.fidelity, b.fidelity)

    def test_validation(self):
        with pytest.raises(ValueError):
            Constant(1.2)
        with pytest.raises(ValueError):
            Constant(-0.1)
        with pytest.raises(ValueError):
            SimulatedGain(-1.0)
        with pytest.raises(ValueError):
            generate_dataset(0.0, 10, Constant(0.5), seed=0)
        with pytest.raises(ValueError):
            generate_dataset(1.0, 0, Constant(0.5), seed=0)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                generate_dataset(1.0, 10, Constant(0.5), seed=0, workers=workers)
