import importlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from telebound import (
    Constant,
    Gain,
    GaussianIso,
    RadialCurve,
    TruncatedGaussian,
    UniformDisk,
    average_fidelity_quad,
    disk_gain_fidelity,
    gaussian_gain_fidelity,
    generate_dataset,
    optimize_guess_curve,
    sample_heterodyne,
    sample_prior,
    select_lambda,
    simulate,
    truncated_gain_fidelity,
    weighted_fidelity,
)
from telebound.simulate import BLOCK_SIZE, CHUNK_SIZE

from _oracles import dataset_allocating, simulate_allocating

# The package re-exports the function `simulate`, which hides the module of
# the same name from attribute lookup.
simulate_module = importlib.import_module("telebound.simulate")

N_BIG = 1_000_000
CURVE = RadialCurve(((0.0, 0.0), (1.0, 0.45), (3.0, 0.75)))


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

    @pytest.mark.parametrize("lam", [1e-310, 5e-324])
    def test_whole_plane_scale_overflow_is_sampled(self, lam):
        # sqrt(1 / (2 lam)) is inf below about 2.8e-309, but no draw uses
        # it: sqrt(-log1p(-u)) / sqrt(lam) stays below about 2.7e162. At
        # unit gain every prior scores 1/2.
        assert np.isfinite(sample_prior(GaussianIso(lam), _rng(8), 4096)).all()
        est = simulate(GaussianIso(lam), Gain(1.0), 200_000, seed=8)
        assert est.mean == pytest.approx(0.5, abs=5 * est.std_error)

    @pytest.mark.parametrize("lam", [5.6e-309, 1e-308, 1.9e-307])
    def test_admitted_whole_plane_radii_stay_finite(self, lam):
        # -log1p(-u) / lam passes the largest float here for u above about
        # 1 - exp(-1.8e308 lam); the roots taken apart stay finite. The
        # pytest configuration turns any warning into an error.
        assert np.isfinite(sample_prior(GaussianIso(lam), _rng(9), 4096)).all()
        est = simulate(GaussianIso(lam), Gain(0.5), 1000, seed=1)
        assert math.isfinite(est.mean) and math.isfinite(est.std_error)


class TestSimulate:
    # The last two priors draw inputs far past 1e16, where r + w_re rounds
    # to r: a score that subtracted r from the guess lost the real noise
    # there and averaged 1/sqrt(2).
    @pytest.mark.parametrize("prior", [GaussianIso(1.0), UniformDisk(1.0), UniformDisk(3.0),
                                       TruncatedGaussian(0.5, 2.0), GaussianIso(1e-40),
                                       UniformDisk(1e20)])
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
            (UniformDisk(1.0), CURVE),
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
        for bad in (0, 1.5):
            with pytest.raises(ValueError, match="n must"):
                simulate(UniformDisk(1.0), Gain(0.5), bad, seed=0)

    @pytest.mark.parametrize("workers", [0, -1, 1.5])
    def test_rejects_bad_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            simulate(UniformDisk(1.0), Gain(0.5), 10, seed=0, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejects_negative_seed(self, workers):
        with pytest.raises(ValueError, match="seed must .* got -1"):
            simulate(UniformDisk(1.0), Gain(0.5), 10, seed=-1, workers=workers)


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
        ds = generate_dataset(2.0, N_BIG, Gain(1.0), seed=3)
        stderr = np.std(ds.fidelity) / math.sqrt(len(ds))
        assert np.mean(ds.fidelity) == pytest.approx(0.5, abs=3 * stderr)

    def test_simulated_unit_gain_mean_at_a_large_radius(self):
        # As simulate's unit-gain floor: the real noise survives r = 1e20.
        ds = generate_dataset(1e20, 200_000, Gain(1.0), seed=3)
        stderr = np.std(ds.fidelity) / math.sqrt(len(ds))
        assert np.mean(ds.fidelity) == pytest.approx(0.5, abs=5 * stderr)

    def test_simulated_gain_matches_disk_closed_form(self):
        g = 0.686578
        ds = generate_dataset(2.0, 400_000, Gain(g), seed=4)
        stderr = np.std(ds.fidelity) / math.sqrt(len(ds))
        assert np.mean(ds.fidelity) == pytest.approx(disk_gain_fidelity(2.0, g), abs=3 * stderr)

    def test_reweighted_matches_truncated_gaussian(self):
        # uniform-disk samples reweighted by exp(-lam |beta|^2) estimate the
        # truncated-Gaussian ensemble average
        ds = generate_dataset(3.0, 400_000, Gain(0.5), seed=5)
        lam = 1.0
        wf = weighted_fidelity(ds, lam)
        w = np.exp(-lam * (ds.beta_re**2 + ds.beta_im**2))
        ess = np.sum(w) ** 2 / np.sum(w * w)
        stderr = np.std(ds.fidelity) / math.sqrt(ess)
        assert wf == pytest.approx(truncated_gain_fidelity(lam, 3.0, 0.5), abs=4 * stderr)

    def test_curve_dataset_estimates_the_curves_fidelity(self):
        # The identity a coverage harness of curve datasets relies on: plain
        # and reweighted means estimate the curve's quadrature values.
        curve = optimize_guess_curve(UniformDisk(2.0)).best_strategy
        ds = generate_dataset(2.0, 400_000, curve, seed=6)
        stderr = np.std(ds.fidelity) / math.sqrt(len(ds))
        expected = average_fidelity_quad(UniformDisk(2.0), curve).value
        assert np.mean(ds.fidelity) == pytest.approx(expected, abs=4 * stderr)
        lam = select_lambda(2.0, 0.01)
        w = np.exp(-lam * (ds.beta_re**2 + ds.beta_im**2))
        ess = np.sum(w) ** 2 / np.sum(w * w)
        stderr = np.std(ds.fidelity) / math.sqrt(ess)
        expected = average_fidelity_quad(TruncatedGaussian(lam, 2.0), curve).value
        assert weighted_fidelity(ds, lam) == pytest.approx(expected, abs=4 * stderr)

    def test_deterministic_and_worker_invariant(self):
        a = generate_dataset(1.5, 150_000, Gain(0.7), seed=9)
        b = generate_dataset(1.5, 150_000, Gain(0.7), seed=9, workers=4)
        assert np.array_equal(a.beta_re, b.beta_re)
        assert np.array_equal(a.beta_im, b.beta_im)
        assert np.array_equal(a.fidelity, b.fidelity)

    def test_workers_fill_every_slice(self):
        # Workers write their chunks into shared arrays; with more workers
        # than cores and a short switch interval, a lost or misplaced write
        # would leave a slice different from the serial run's.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for model in (Constant(0.58), Gain(0.7), CURVE):
                a = generate_dataset(1.5, 9 * CHUNK_SIZE + 5, model, seed=9)
                b = generate_dataset(1.5, 9 * CHUNK_SIZE + 5, model, seed=9, workers=8)
                for column in ("beta_re", "beta_im", "fidelity"):
                    assert getattr(a, column).tobytes() == getattr(b, column).tobytes()
            # simulate's workers fill the slots of one result list.
            a = simulate(UniformDisk(1.5), CURVE, 9 * CHUNK_SIZE + 5, seed=9)
            assert simulate(UniformDisk(1.5), CURVE, 9 * CHUNK_SIZE + 5, seed=9, workers=8) == a
        finally:
            sys.setswitchinterval(interval)

    def test_peak_memory_is_one_copy_of_the_output(self):
        # Each chunk writes its slice of the output; holding every chunk's
        # result and then their concatenation took about 2x the output.
        # Every model draws its inputs through the same loop.
        for model in (Constant(0.58), Gain(0.5), CURVE):
            tracemalloc.start()
            try:
                ds = generate_dataset(2, 16 * CHUNK_SIZE, model, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * 3 * ds.beta_re.nbytes, model

    def test_validation(self):
        with pytest.raises(ValueError):
            Constant(1.2)
        with pytest.raises(ValueError):
            Constant(-0.1)
        with pytest.raises(ValueError):
            Gain(-1.0)
        with pytest.raises(ValueError):
            generate_dataset(0.0, 10, Constant(0.5), seed=0)
        for bad in (0, 1.5):
            with pytest.raises(ValueError, match="n must"):
                generate_dataset(1.0, bad, Constant(0.5), seed=0)
        for workers in (0, -1, 1.5):
            with pytest.raises(ValueError, match="workers"):
                generate_dataset(1.0, 10, Constant(0.5), seed=0, workers=workers)
        for model in (Constant(0.5), Gain(0.5), CURVE):
            with pytest.raises(ValueError, match="seed must .* got -1"):
                generate_dataset(1.0, 10, model, seed=-1)
        for model in (0.5, UniformDisk(1.0)):
            with pytest.raises(TypeError, match="unsupported fidelity model"):
                generate_dataset(1.0, 10, model, seed=0)


class TestInPlaceRounds:
    """Chunks are drawn and scored in place, in buffers each worker reuses;
    every bit must match rounds whose steps each allocate their result."""

    @pytest.mark.parametrize("prior", [UniformDisk(2.0), TruncatedGaussian(0.5, 2.0),
                                       GaussianIso(0.3)], ids=["disk", "truncated", "plane"])
    @pytest.mark.parametrize("strategy", [Gain(0.6), CURVE], ids=["gain", "curve"])
    # One round, part of a block, one whole chunk, and chunks followed by a
    # short last chunk of 2 and of 7 rounds.
    @pytest.mark.parametrize("n", [1, 1000, CHUNK_SIZE, CHUNK_SIZE + 2, 3 * CHUNK_SIZE + 7])
    def test_simulate_matches_allocating_rounds(self, prior, strategy, n):
        expected = [v.hex() for v in simulate_allocating(prior, strategy, n, seed=17)]
        for workers in (1, 2, 5):
            est = simulate(prior, strategy, n, seed=17, workers=workers)
            assert [est.mean.hex(), est.std_error.hex()] == expected

    @pytest.mark.parametrize("model", [Gain(0.6), CURVE, Constant(0.58)],
                             ids=["gain", "curve", "constant"])
    @pytest.mark.parametrize("n", [1, 1000, CHUNK_SIZE, CHUNK_SIZE + 2, 3 * CHUNK_SIZE + 7])
    def test_generate_matches_allocating_rounds(self, model, n):
        beta, fid = dataset_allocating(UniformDisk(2.0), n, model, seed=17)
        for workers in (1, 2, 5):
            ds = generate_dataset(2.0, n, model, seed=17, workers=workers)
            assert ds.beta_re.tobytes() == beta.real.tobytes()
            assert ds.beta_im.tobytes() == beta.imag.tobytes()
            assert ds.fidelity.tobytes() == fid.tobytes()

    @pytest.mark.parametrize("g", [1.5, 3.0])
    def test_far_guesses_score_zero_without_a_warning(self, g):
        # On a disk of radius 1e154 every guess lies far from its input, and
        # at gain 3 |guess - beta|^2 passes the largest float. The pytest
        # configuration turns any warning into an error.
        est = simulate(UniformDisk(1e154), Gain(g), 1000, seed=3)
        assert (est.mean, est.std_error) == (0.0, 0.0)
        assert not generate_dataset(1e154, 1000, Gain(g), seed=3).fidelity.any()

    @pytest.mark.parametrize("strategy", [Gain(1e308), RadialCurve(((0.0, 0.0), (1.0, 1e308)))],
                             ids=["gain", "curve"])
    def test_overflowing_guesses_score_zero_without_a_warning(self, strategy):
        # Here the guess itself passes the largest float.
        est = simulate(UniformDisk(2.0), strategy, 1000, seed=3)
        assert (est.mean, est.std_error) == (0.0, 0.0)
        assert not generate_dataset(2.0, 1000, strategy, seed=3).fidelity.any()

    @pytest.mark.parametrize("strategy", [Gain(0.5), CURVE], ids=["gain", "curve"])
    def test_peak_memory_is_one_buffer_set_per_worker(self, strategy):
        # Each worker's buffers, one float chunk and one block set (a
        # complex and four float arrays of BLOCK_SIZE), serve all of its
        # chunks, so the peak does not grow with the chunk count. One more
        # block set covers the ufuncs' cast buffers and a curve's
        # interpolation per block.
        simulate(UniformDisk(2.0), strategy, 2 * CHUNK_SIZE, seed=1, workers=2)
        peaks = []
        for chunks in (2, 8):
            tracemalloc.start()
            try:
                simulate(UniformDisk(2.0), strategy, chunks * CHUNK_SIZE, seed=1, workers=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        block_set = 48 * BLOCK_SIZE
        assert abs(peaks[1] - peaks[0]) < block_set
        assert max(peaks) < 2 * (8 * CHUNK_SIZE + block_set) + block_set


class TestOneChunk:
    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was started")
        monkeypatch.setattr(simulate_module, "ThreadPoolExecutor", refuse)

    @pytest.mark.parametrize("n", [1, 1000, CHUNK_SIZE])
    @pytest.mark.parametrize("workers", [2, 8])
    def test_runs_in_the_callers_thread(self, no_pool, n, workers):
        a = simulate(UniformDisk(2.0), Gain(0.5), n, seed=4)
        assert simulate(UniformDisk(2.0), Gain(0.5), n, seed=4, workers=workers) == a
        for model in (Constant(0.58), Gain(0.7)):
            a = generate_dataset(2.0, n, model, seed=4)
            b = generate_dataset(2.0, n, model, seed=4, workers=workers)
            for column in ("beta_re", "beta_im", "fidelity"):
                assert getattr(a, column).tobytes() == getattr(b, column).tobytes()

    def test_two_chunks_still_use_the_pool(self, no_pool):
        with pytest.raises(AssertionError, match="thread pool"):
            simulate(UniformDisk(2.0), Gain(0.5), CHUNK_SIZE + 1, seed=4, workers=2)
        with pytest.raises(AssertionError, match="thread pool"):
            generate_dataset(2.0, CHUNK_SIZE + 1, Constant(0.58), seed=4, workers=2)

    def test_worker_count_is_still_checked(self, no_pool):
        with pytest.raises(ValueError, match="workers"):
            simulate(UniformDisk(2.0), Gain(0.5), 10, seed=4, workers=0)
        with pytest.raises(ValueError, match="workers"):
            generate_dataset(2.0, 10, Gain(0.7), seed=4, workers=0)
