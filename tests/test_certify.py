import json
import math
import os
import re

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

from telebound.core import seeded_stream
from telebound.data import CHUNK_SIZE, CSV_HEADER, _read_lines

from _oracles import truncated_gain_closed


_HEADER = "beta_re,beta_im,fidelity\n"


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
        # Header then blank lines too: the usual error, and no numpy warning.
        for rest in ("", "\n", "\n\n\n", "\r\n  \r\n\t"):
            with pytest.raises(DatasetFormatError, match="^dataset has a header but no records$"):
                load_dataset(_write(tmp_path, _HEADER + rest))

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

    @pytest.mark.parametrize("text,bulk", [
        pytest.param(_HEADER + "0.5,-0.25,0.9\n1,0,0.8\n", True, id="lf"),
        pytest.param(_HEADER.replace("\n", "\r\n") + "0.5,-0.25,0.9\r\n1,0,0.8\r\n", True, id="crlf"),
        pytest.param(_HEADER.replace("\n", "\r") + "0.5,-0.25,0.9\r1,0,0.8\r", True, id="bare-cr"),
        pytest.param(_HEADER + "\n0.5,-0.25,0.9\n\n\n1,0,0.8\n\n", True, id="blank-lines"),
        pytest.param(_HEADER + "  \n0.5,-0.25,0.9\n \t \n1,0,0.8\n", False, id="whitespace-lines"),
        pytest.param(_HEADER + " 0.5 ,  -0.25,0.9  \n", True, id="padded-fields"),
        pytest.param(_HEADER + "\t0.5,-0.25\t,\t0.9\n", True, id="tab"),
        pytest.param(_HEADER + "+1,+0.5,+0.25\n", True, id="plus-sign"),
        pytest.param(_HEADER + ".5,5.,0.5\n", True, id="bare-point"),
        pytest.param(_HEADER + "1_0,0,0.5\n", False, id="underscore"),
        pytest.param(_HEADER + "0,0,0.5\nnan,0,0.5\n", False, id="nan-amplitude"),
        pytest.param(_HEADER + "0,0,nan\n", False, id="nan-fidelity"),
        pytest.param(_HEADER + "0,inf,0.5\n", False, id="inf"),
        pytest.param(_HEADER + "0,0,Infinity\n", False, id="Infinity"),
        pytest.param(_HEADER + "1e,0,0.5\n", False, id="bare-exponent"),
        pytest.param(_HEADER + "1d0,0,0.5\n", False, id="fortran-exponent"),
        pytest.param(_HEADER + "0x1p-1,0,0.5\n", False, id="hex-float"),
        pytest.param(_HEADER + '"1",0,0.5\n', False, id="quoted-field"),
        pytest.param(_HEADER + "# comment\n0,0,0.5\n", False, id="comment"),
        pytest.param(_HEADER + "0,0,0.5,\n", False, id="trailing-comma"),
        pytest.param(_HEADER + "0,,0.5\n", False, id="empty-field"),
        pytest.param(_HEADER + "0,0\n", False, id="two-fields"),
        pytest.param(_HEADER + "0,0,0.5,0.5\n1,1,0.5,0.5\n", False, id="four-fields"),
        pytest.param(_HEADER + "0,0,0.5\n1,1,1.2\n", False, id="fidelity-above-one"),
        pytest.param(_HEADER + "0.5,-0.25,0.9\n1,0,0.8", True, id="no-final-newline"),
        pytest.param("\ufeff" + _HEADER + "0.5,-0.25,0.9\n", True, id="utf8-bom"),
        pytest.param(_HEADER + "0,0,-0.0\n", True, id="negative-zero-fidelity"),
        pytest.param(_HEADER + "1,2\x0c,0.5\n3\x85,4,0.5\n", True, id="form-feed-and-nel"),
        pytest.param(_HEADER + "\uff11,0,0.5\n", False, id="fullwidth-digit"),
        pytest.param("x,y,f\n0,0,1\n", False, id="wrong-header"),
        pytest.param(_HEADER + "\n \n", False, id="header-then-blank"),
        pytest.param("", False, id="empty-file"),
        # A bytes input is written as is: here the 0xff sits on line 3, past
        # CR and CRLF line ends.
        pytest.param(_HEADER.encode() + b"0,0,0.5\r\n1,1,0.5\r0.\xff5,0,0.5\n", False, id="non-utf8"),
    ])
    def test_bulk_parse_matches_line_reader(self, tmp_path, monkeypatch, text, bulk):
        path = tmp_path / "ds.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            try:
                expected = _read_lines(fh)
            except DatasetFormatError as exc:
                expected = exc
        if bulk:
            # These files must not need the per-line reader at all.
            monkeypatch.setattr("telebound.data._read_lines", None)
        try:
            got = load_dataset(path)
        except DatasetFormatError as exc:
            assert isinstance(expected, DatasetFormatError)
            assert str(exc) == str(expected)
            return
        assert isinstance(expected, Dataset)
        for column in ("beta_re", "beta_im", "fidelity"):
            a, b = getattr(got, column), getattr(expected, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous

    @pytest.mark.parametrize("data,message", [
        # A bad byte in the header is reported as such, not as a wrong header.
        pytest.param(b"beta_re,\xff,fidelity\n0,0,0.5\n",
                     "line 1: not valid UTF-8 (invalid start byte)", id="header"),
        # A multibyte sequence cut by a line end, then by the end of the file:
        # each line keeps its line end, so the reasons are a strict decode's.
        pytest.param(_HEADER.encode() + b"0,0,0.5\xe2\x82\r\n1,1,0.5\n",
                     "line 2: not valid UTF-8 (invalid continuation byte)", id="cut-at-line-end"),
        pytest.param(_HEADER.encode() + b"0,0,0.5\n1,1,0.5\xe2\x82",
                     "line 3: not valid UTF-8 (unexpected end of data)", id="cut-at-eof"),
    ])
    def test_non_utf8_message(self, tmp_path, data, message):
        path = tmp_path / "ds.csv"
        path.write_bytes(data)
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
            load_dataset(path)

    @pytest.mark.parametrize("rows,message", [
        ("0.5,-0.25,0.9\n", None),
        ("0.5,-0.25,0.9\n1,1,1.2\n", "line 3: fidelity 1.2 outside [0, 1]"),
        pytest.param("0.5,-0.25,0.9\n1,1,\udcff\n", "line 3: not valid UTF-8 (invalid start byte)",
                     id="non-utf8"),
    ])
    def test_pipe_is_read_once(self, rows, message):
        # A pipe cannot be re-read after a rejected bulk parse; the per-line
        # reader must still name the line.
        read_fd, write_fd = os.pipe()
        os.write(write_fd, (_HEADER + rows).encode("utf-8", "surrogateescape"))
        os.close(write_fd)
        if message is None:
            assert load_dataset(read_fd)[0] == DatasetRecord(0.5, -0.25, 0.9)
        else:
            with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
                load_dataset(read_fd)

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


    def test_write_matches_per_row_writer(self, tmp_path):
        def write_per_row(path, ds):
            # The per-row writer write_dataset replaced, kept as the reference.
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(",".join(CSV_HEADER) + "\n")
                for i in range(len(ds)):
                    fh.write(f"{float(ds.beta_re[i])!r},{float(ds.beta_im[i])!r},"
                             f"{float(ds.fidelity[i])!r}\n")

        # CHUNK_SIZE + 1 rows cross a chunk boundary; the special values sit
        # at both ends of the first chunk and in the one-row second chunk.
        rng = np.random.default_rng(4)
        n = CHUNK_SIZE + 1
        re, im, fid = rng.normal(size=n), rng.normal(size=n) * 1e3, rng.random(n)
        special = [-0.0, 5e-324, 1e-5, 0.58, 1.0]
        for at in (0, CHUNK_SIZE - len(special), n - 1):
            k = min(len(special), n - at)
            re[at:at + k] = [-0.0, 5e-324, 1e-5, 1e16, -1e16][:k]
            im[at:at + k] = [0.58, -0.0, 1e16, 5e-324, 1e-5][:k]
            fid[at:at + k] = special[:k]
        datasets = [Dataset(re, im, fid)]

        # Random 52-bit mantissas of both signs, with binary exponents from
        # -14 to 53: most rows stay where orjson formats every value
        # (1e-4 <= |x| < 1e16), and the rows with a value just outside it are
        # scattered repr rows. Rows 50,000 to 55,000 hold random bit patterns
        # over every exponent, formatted by repr. The edge values sit where
        # orjson's notation departs from repr's (1e-4 and 1e16): 50 ulps
        # either side of each power of ten from 1e-5 to 1e17, signed zeros,
        # the smallest subnormal and the largest double. They fill one column
        # at a time, in consecutive blocks of rows whose other values need no
        # repr, on both sides of the first chunk boundary.
        n = 70_000
        sign = rng.choice([-1.0, 1.0], (2, n))
        re, im = sign * np.ldexp(1.0 + rng.random((2, n)), rng.integers(-14, 54, (2, n)))
        fid = np.ldexp(1.0 + rng.random(n), rng.integers(-14, 0, n))
        magnitude = np.abs(np.stack([re, im, fid])[:, :50_000])
        assert np.count_nonzero(((magnitude >= 1e-4) & (magnitude < 1e16)).all(axis=0)) > 45_000
        bits = rng.integers(0, 2**64, size=(2, 5_000), dtype=np.uint64).view(np.float64)
        bits[~np.isfinite(bits)] = 0.5
        re[50_000:55_000], im[50_000:55_000] = bits
        powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
        ulps = (powers.view(np.int64)[:, None] + np.arange(-50, 51)).view(np.float64).ravel()
        edge = np.concatenate([ulps, -ulps, [0.0, -0.0, 5e-324, 1.7976931348623157e308,
                                             -1.7976931348623157e308]])
        unit = edge[(edge >= 0.0) & (edge <= 1.0)]
        start = CHUNK_SIZE - 3 * edge.size // 2
        for column, values in ((re, edge), (im, edge), (fid, unit)):
            rows = slice(start, start + values.size)
            re[rows], im[rows], fid[rows] = *rng.normal(size=(2, values.size)), rng.random(values.size)
            column[rows] = values
            start += values.size
        assert start <= n
        datasets.append(Dataset(re, im, fid))

        # A block with no value outside orjson's range, and an empty dataset.
        datasets += [Dataset(1.0 + rng.random(1_000), -8.0 - rng.random(1_000), 0.5 + rng.random(1_000) / 2),
                     Dataset([], [], [])]
        for ds in datasets:
            write_dataset(tmp_path / "chunked.csv", ds)
            write_per_row(tmp_path / "per_row.csv", ds)
            assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()
        assert (tmp_path / "chunked.csv").read_bytes() == b"beta_re,beta_im,fidelity\n"


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


def _gather_bootstrap_ci(ds, lam, resamples, seed, level=0.95):
    """bootstrap_ci as it was written before resamples were counted: gather
    the drawn weights and fidelities. Kept as the reference."""
    rng = seeded_stream(seed, 0)
    f = ds.fidelity
    if np.all(f == f[0]):
        return float(f[0]), float(f[0])
    s = ds.beta_re**2 + ds.beta_im**2
    w = np.exp(-lam * (s - np.min(s)))
    point = float(np.dot(w, f) / np.sum(w))
    n = f.size
    stats = np.empty(resamples)
    for r in range(resamples):
        idx = rng.integers(0, n, n)
        wr = w[idx]
        stats[r] = np.dot(wr, f[idx]) / np.sum(wr)
    tail = 0.5 * (1.0 - level)
    lo, hi = np.quantile(stats, [tail, 1.0 - tail])
    return min(float(lo), point), max(float(hi), point)


class TestBootstrapCI:
    @pytest.mark.parametrize("model,lam,seed", [
        (SimulatedGain(0.6), 0.0, 0),
        (SimulatedGain(0.6), 1.0, 3),
        (SimulatedGain(0.3), 4.60517, 11),
        (Constant(0.58), 1.0, 5),
    ])
    def test_counts_match_gather_reference(self, model, lam, seed):
        ds = generate_dataset(2.0, 5_000, model, seed=seed)
        lo, hi = bootstrap_ci(ds, lam, resamples=300, seed=seed)
        ref_lo, ref_hi = _gather_bootstrap_ci(ds, lam, 300, seed)
        assert abs(lo - ref_lo) <= 1e-14 and abs(hi - ref_hi) <= 1e-14
        if isinstance(model, Constant):
            # The all-equal bypass: a zero-width interval at the point.
            assert (lo, hi) == (model.value, model.value)
        else:
            assert lo < hi

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
        for bad in (99, 100.5):
            with pytest.raises(ValueError, match="resamples"):
                bootstrap_ci(ds, 1.0, resamples=bad)
        for records in (ds, Dataset([0.0, 1.0], [0.0, 0.0], [0.5, 0.5])):
            with pytest.raises(ValueError, match="seed must .* got -1"):
                bootstrap_ci(records, 1.0, resamples=100, seed=-1)
        with pytest.raises(ValueError):
            bootstrap_ci(Dataset([0.0], [0.0], [0.5]), 1.0)
        with pytest.raises(ValueError):
            bootstrap_ci(ds, 1.0, level=1.0)

    @pytest.mark.parametrize("lam,weight", [(1e4, "0.0"), (744.4400719213812, "5e-324")])
    def test_underflowing_weight_rejected(self, lam, weight):
        # A resample drawing only the outer record would divide 0 by 0 (lam
        # 1e4), or divide subnormals into a statistic below both fidelities.
        ds = Dataset([0.0, 1.0], [0.0, 0.0], [0.9, 0.1])
        with pytest.raises(ValueError, match=rf"^lam = {lam} leaves the outermost record "
                                             rf"a weight of {weight}, below"):
            bootstrap_ci(ds, lam, resamples=100)
        assert weighted_fidelity(ds, lam) == 0.9

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

    def test_underflowing_weight_rejected(self):
        ds = Dataset([0.0, 1.0], [0.0, 0.0], [0.9, 0.1])
        with pytest.raises(ValueError, match="^lam = 744.44.* below the smallest normal float$"):
            verdict(ds, epsilon=5e-324, radius=1.0, resamples=100)

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
        with pytest.raises(ValueError, match="^verdict needs at least 2 records, got 1$"):
            verdict(Dataset([0.5], [0.0], [0.9]), epsilon=0.01)


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
        # Ordered: the keys are the JSON schema, and their order is part of it.
        assert list(d) == ["lambda", "tail_mass", "sample_radius", "weighted_fidelity",
                           "ci_low", "ci_high", "classical_bound", "verdict", "n_records", "seed"]

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
