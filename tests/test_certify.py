import json
import math

import numpy as np
import pytest

from telebound import (
    Constant,
    Dataset,
    DatasetFormatError,
    DatasetRecord,
    INCONCLUSIVE,
    NONCLASSICAL,
    Report,
    SimulatedGain,
    bootstrap_ci,
    generate_dataset,
    load_dataset,
    verdict,
    weighted_fidelity,
    write_dataset,
)

from _oracles import truncated_gain_closed


def _write(tmp_path, text, name="ds.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_single_record_at_origin(self, tmp_path):
        ds = load_dataset(_write(tmp_path, "beta_re,beta_im,fidelity\n0,0,1\n"))
        assert len(ds) == 1
        assert ds[0] == DatasetRecord(0.0, 0.0, 1.0)
        assert ds.radius == 0.0

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="no records"):
            load_dataset(_write(tmp_path, "beta_re,beta_im,fidelity\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(_write(tmp_path, ""))

    def test_wrong_header_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(_write(tmp_path, "x,y,f\n0,0,1\n"))

    def test_fidelity_above_one_names_line(self, tmp_path):
        text = "beta_re,beta_im,fidelity\n0,0,0.5\n1,1,1.2\n"
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(_write(tmp_path, text))

    def test_non_numeric_names_line(self, tmp_path):
        text = "beta_re,beta_im,fidelity\n0,oops,0.5\n"
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(_write(tmp_path, text))

    def test_wrong_field_count_names_line(self, tmp_path):
        text = "beta_re,beta_im,fidelity\n0,0\n"
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(_write(tmp_path, text))

    def test_crlf_and_blank_lines_accepted(self, tmp_path):
        text = "beta_re,beta_im,fidelity\r\n0.5,-0.25,0.9\r\n\r\n1,0,0.8\r\n"
        ds = load_dataset(_write(tmp_path, text))
        assert len(ds) == 2
        assert ds.radius == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_dataset_rejects_fidelity_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="fidelity"):
            Dataset([0.0, 1.0], [0.0, 0.5], [bad, 0.5])

    def test_write_load_roundtrip_is_bit_exact(self, tmp_path):
        ds = generate_dataset(2.0, 500, SimulatedGain(0.7), seed=3)
        path = tmp_path / "rt.csv"
        write_dataset(path, ds)
        back = load_dataset(path)
        assert np.array_equal(back.beta_re, ds.beta_re)
        assert np.array_equal(back.beta_im, ds.beta_im)
        assert np.array_equal(back.fidelity, ds.fidelity)


class TestWeightedFidelity:
    def test_constant_dataset_any_lambda(self):
        ds = generate_dataset(1.0, 500, Constant(0.58), seed=0)
        for lam in (0.0, 0.5, 4.60517, 50.0):
            assert weighted_fidelity(ds, lam) == 0.58

    def test_zero_lambda_is_plain_mean(self):
        ds = Dataset([0.0, 1.0], [0.0, 0.0], [0.4, 0.8])
        assert weighted_fidelity(ds, 0.0) == pytest.approx(0.6, rel=1e-15)

    def test_stays_within_record_range(self):
        ds = generate_dataset(2.0, 2_000, SimulatedGain(0.5), seed=1)
        for lam in (0.0, 1.0, 10.0):
            wf = weighted_fidelity(ds, lam)
            assert ds.fidelity.min() <= wf <= ds.fidelity.max()

    def test_estimates_truncated_gaussian_average(self):
        ds = generate_dataset(3.0, 200_000, SimulatedGain(0.5), seed=2)
        lam = 1.0
        w = np.exp(-lam * (ds.beta_re**2 + ds.beta_im**2))
        ess = np.sum(w) ** 2 / np.sum(w * w)
        stderr = float(np.std(ds.fidelity)) / math.sqrt(ess)
        assert weighted_fidelity(ds, lam) == pytest.approx(
            truncated_gain_closed(lam, 3.0, 0.5), abs=4 * stderr)

    def test_permutation_invariance(self):
        ds = generate_dataset(1.0, 1_000, SimulatedGain(0.4), seed=5)
        perm = np.random.default_rng(0).permutation(len(ds))
        shuffled = Dataset(ds.beta_re[perm], ds.beta_im[perm], ds.fidelity[perm])
        assert weighted_fidelity(shuffled, 0.7) == pytest.approx(weighted_fidelity(ds, 0.7), abs=1e-12)

    def test_rotation_invariance(self):
        ds = generate_dataset(1.0, 1_000, SimulatedGain(0.4), seed=6)
        beta = ds.beta * np.exp(1j * 1.234)
        rotated = Dataset(beta.real, beta.imag, ds.fidelity)
        assert weighted_fidelity(rotated, 0.7) == pytest.approx(weighted_fidelity(ds, 0.7), abs=1e-12)

    def test_large_lambda_does_not_underflow(self):
        ds = Dataset([3.0, 5.0], [0.0, 0.0], [0.9, 0.1])
        assert weighted_fidelity(ds, 200.0) == pytest.approx(0.9, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_fidelity(Dataset([], [], []), 1.0)
        with pytest.raises(ValueError):
            weighted_fidelity(Dataset([0.0], [0.0], [0.5]), -1.0)


class TestBootstrapCI:
    def test_constant_dataset_zero_width(self):
        ds = generate_dataset(1.0, 400, Constant(0.58), seed=0)
        assert bootstrap_ci(ds, 1.0, resamples=200, seed=1) == (0.58, 0.58)

    def test_contains_point_estimate(self):
        ds = generate_dataset(2.0, 2_000, SimulatedGain(0.6), seed=7)
        for lam in (0.0, 0.5, 2.0):
            lo, hi = bootstrap_ci(ds, lam, resamples=300, seed=3)
            assert lo <= weighted_fidelity(ds, lam) <= hi

    def test_deterministic(self):
        ds = generate_dataset(2.0, 1_000, SimulatedGain(0.6), seed=8)
        assert bootstrap_ci(ds, 1.0, resamples=200, seed=4) == bootstrap_ci(ds, 1.0, resamples=200, seed=4)
        assert bootstrap_ci(ds, 1.0, resamples=200, seed=4) != bootstrap_ci(ds, 1.0, resamples=200, seed=5)

    def test_validation(self):
        ds = generate_dataset(1.0, 100, SimulatedGain(0.5), seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci(ds, 1.0, resamples=99)
        with pytest.raises(ValueError):
            bootstrap_ci(Dataset([0.0], [0.0], [0.5]), 1.0)
        with pytest.raises(ValueError):
            bootstrap_ci(ds, 1.0, level=1.0)

    def test_coverage_of_known_value(self):
        # 95% percentile intervals over 200 synthetic classical datasets
        # should cover the closed-form reweighted value about 190 times
        true = truncated_gain_closed(1.0, 3.0, 0.5)
        cover = 0
        for s in range(200):
            ds = generate_dataset(3.0, 400, SimulatedGain(0.5), seed=1000 + s)
            lo, hi = bootstrap_ci(ds, 1.0, resamples=500, seed=s)
            cover += lo <= true <= hi
        assert 180 <= cover <= 200


class TestVerdict:
    @pytest.mark.parametrize("radius,bound,expected", [
        (1.0, 0.8486, INCONCLUSIVE),
        (3.0, 0.6019, INCONCLUSIVE),
        (5.0, 0.5422, NONCLASSICAL),
    ])
    def test_benchmark_scenarios(self, radius, bound, expected):
        ds = generate_dataset(radius, 5_000, Constant(0.58), seed=17)
        report = verdict(ds, epsilon=0.01, resamples=200, seed=1, radius=radius)
        assert report.verdict == expected
        assert report.classical_bound == pytest.approx(bound, abs=1e-4)
        assert report.weighted_fidelity == 0.58
        assert report.tail_mass == pytest.approx(0.01, rel=1e-9)
        assert report.lam == pytest.approx(math.log(100.0) / radius**2, rel=1e-12)

    def test_default_radius_comes_from_data(self):
        ds = generate_dataset(5.0, 20_000, Constant(0.58), seed=18)
        report = verdict(ds, epsilon=0.01, resamples=200, seed=1)
        assert report.sample_radius == pytest.approx(ds.radius)
        assert report.classical_bound == pytest.approx(0.5422, abs=1e-4)
        assert report.verdict == NONCLASSICAL

    def test_epsilon_monotonicity_constant_dataset(self):
        # stricter tails raise the bound; a NONCLASSICAL verdict can only
        # flip to INCONCLUSIVE as epsilon decreases, never the reverse
        ds = generate_dataset(5.0, 2_000, Constant(0.58), seed=19)
        verdicts = [verdict(ds, epsilon=e, resamples=200, seed=1, radius=5.0).verdict
                    for e in (0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6)]
        flips = [f"{a}->{b}" for a, b in zip(verdicts, verdicts[1:]) if a != b]
        assert verdicts[0] == NONCLASSICAL
        assert verdicts[-1] == INCONCLUSIVE
        assert all(f == "NONCLASSICAL->INCONCLUSIVE" for f in flips)
        assert len(flips) == 1

    def test_classical_dataset_inconclusive_at_tight_epsilon(self):
        ds = generate_dataset(2.0, 30_000, SimulatedGain(0.686578), seed=20)
        for eps in (0.01, 1e-3, 1e-4):
            report = verdict(ds, epsilon=eps, resamples=200, seed=2)
            assert report.verdict == INCONCLUSIVE

    def test_loose_epsilon_soundness_gap_is_real(self):
        # Documented hazard: at epsilon = 0.1 the truncated-Gaussian average
        # a classical disk-optimal strategy reaches exceeds the whole-plane
        # bound (1+lam)/(2+lam), so the procedure falsely certifies. This
        # pins the measured gap so the epsilon guidance stays honest.
        ds = generate_dataset(2.0, 30_000, SimulatedGain(0.686578), seed=20)
        report = verdict(ds, epsilon=0.1, resamples=200, seed=2)
        lam = report.lam
        classical_reach = truncated_gain_closed(lam, 2.0, 0.686578)
        assert classical_reach > report.classical_bound + 0.01
        assert report.verdict == NONCLASSICAL  # the false positive itself

    def test_radius_override_must_cover_data(self):
        ds = generate_dataset(3.0, 1_000, Constant(0.58), seed=21)
        with pytest.raises(ValueError, match="outside the asserted radius"):
            verdict(ds, epsilon=0.01, radius=1.0)

    def test_origin_only_dataset_needs_radius(self):
        ds = Dataset([0.0, 0.0], [0.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            verdict(ds, epsilon=0.01)

    def test_validation(self):
        ds = generate_dataset(1.0, 100, Constant(0.5), seed=0)
        with pytest.raises(ValueError):
            verdict(ds, epsilon=0.0)
        with pytest.raises(ValueError):
            verdict(ds, epsilon=1.0)
        with pytest.raises(ValueError):
            verdict(Dataset([], [], []), epsilon=0.01)


class TestReport:
    def test_roundtrip_through_json(self):
        ds = generate_dataset(2.0, 2_000, SimulatedGain(0.6), seed=22)
        report = verdict(ds, epsilon=0.01, resamples=150, seed=3)
        blob = json.dumps(report.to_dict())
        back = Report.from_dict(json.loads(blob))
        assert back == report

    def test_dict_keys_are_the_report_fields(self):
        ds = generate_dataset(1.0, 200, Constant(0.58), seed=23)
        d = verdict(ds, epsilon=0.01, resamples=150, seed=0).to_dict()
        assert set(d) == {"lambda", "tail_mass", "sample_radius", "weighted_fidelity",
                          "ci_low", "ci_high", "classical_bound", "verdict", "n_records", "seed"}

    def test_interval_must_contain_point(self):
        with pytest.raises(ValueError):
            Report(lam=1.0, tail_mass=0.01, sample_radius=1.0, weighted_fidelity=0.9,
                   ci_low=0.1, ci_high=0.2, classical_bound=0.6, verdict=INCONCLUSIVE,
                   n_records=10, seed=0)

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            Report(lam=1.0, tail_mass=0.01, sample_radius=1.0, weighted_fidelity=0.5,
                   ci_low=0.4, ci_high=0.6, classical_bound=0.6, verdict="MAYBE",
                   n_records=10, seed=0)
