import json
import math
import multiprocessing
import threading

import pytest

from telebound.cli import main
from telebound.simulate import CHUNK_SIZE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def kv(stdout):
    pairs = {}
    for line in stdout.splitlines():
        if line.startswith("note"):
            continue
        parts = line.split(None, 1)
        if len(parts) == 2:
            pairs[parts[0]] = parts[1].strip()
    return pairs


class TestBound:
    def test_lambda_zero(self, capsys):
        code, out, _ = run(capsys, "bound", "--lambda", "0")
        assert code == 0
        assert float(kv(out)["classical_bound"]) == 0.5

    def test_lambda_one(self, capsys):
        code, out, _ = run(capsys, "bound", "--lambda", "1")
        assert code == 0
        assert float(kv(out)["classical_bound"]) == pytest.approx(2 / 3, abs=1e-6)

    def test_disk(self, capsys):
        code, out, _ = run(capsys, "bound", "--disk-radius", "1")
        assert code == 0
        vals = kv(out)
        assert float(vals["classical_bound"]) == pytest.approx(0.742530, abs=1e-4)
        assert float(vals["optimal_gain"]) == pytest.approx(0.3614, abs=1e-3)

    def test_negative_lambda_is_input_error(self, capsys):
        code, _, err = run(capsys, "bound", "--lambda", "-1")
        assert code == 2
        assert "error" in err

    def test_requires_exactly_one_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound"])
        assert exc.value.code == 2


class TestQuad:
    def test_gaussian_gain(self, capsys):
        code, out, _ = run(capsys, "quad", "--prior", "gaussian:1", "--gain", "0.5")
        assert code == 0
        vals = kv(out)
        assert float(vals["value"]) == pytest.approx(2 / 3, abs=1e-8)
        assert float(vals["error_estimate"]) < 1e-6
        assert float(vals["outer_cut_radius"]) > 0

    def test_disk_prior(self, capsys):
        code, out, _ = run(capsys, "quad", "--prior", "disk:1", "--gain", "0")
        assert code == 0
        assert float(kv(out)["value"]) == pytest.approx(1 - math.exp(-1), abs=1e-8)

    def test_truncgauss_prior(self, capsys):
        code, out, _ = run(capsys, "quad", "--prior", "truncgauss:1,3", "--gain", "0.5")
        assert code == 0
        assert 0.6 < float(kv(out)["value"]) < 0.7

    def test_narrow_truncgauss_prior(self, capsys):
        code, out, _ = run(capsys, "quad", "--prior", "truncgauss:1e10,1", "--gain", "0.5")
        assert code == 0
        assert float(kv(out)["value"]) == pytest.approx(0.8, abs=1e-9)

    def test_curve_file(self, capsys, tmp_path):
        path = tmp_path / "curve.txt"
        path.write_text("# radius, guess radius\n0, 0\n1, 0.45\n3.0 0.9\n")
        code, out, _ = run(capsys, "quad", "--prior", "disk:1", "--curve", str(path))
        assert code == 0
        assert 0.5 < float(kv(out)["value"]) < 1.0

    def test_bad_prior_string(self, capsys):
        code, _, err = run(capsys, "quad", "--prior", "ring:1", "--gain", "0.5")
        assert code == 2
        assert "unknown prior" in err

    def test_gaussian_floor_is_input_error(self, capsys):
        code, _, err = run(capsys, "quad", "--prior", "gaussian:1e-9", "--gain", "0.5")
        assert code == 2

    def test_malformed_curve_file(self, capsys, tmp_path):
        path = tmp_path / "curve.txt"
        path.write_text("0 0\n1\n")
        code, _, err = run(capsys, "quad", "--prior", "disk:1", "--curve", str(path))
        assert code == 2
        assert ":2" in err

    def test_rows(self, capsys):
        code, out, _ = run(capsys, "quad", "--prior", "disk:2", "--gain", "0.5")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == [
            "value", "error_estimate", "outer_cut_radius", "radial_nodes"]

    def test_non_utf8_curve_file_names_line(self, capsys, tmp_path):
        path = tmp_path / "curve.txt"
        path.write_bytes(b"0, 0\r\n1, 0.45\r\n3.0 0.9 \xff\n")
        code, _, err = run(capsys, "quad", "--prior", "disk:1", "--curve", str(path))
        assert code == 2
        assert f"{path}:3: not valid UTF-8" in err

    def test_non_utf8_curve_comment_names_line(self, capsys, tmp_path):
        # A comment is text too: its bytes must be UTF-8.
        path = tmp_path / "curve.txt"
        path.write_bytes(b"0, 0\n1, 0.45  # gain \xff\n3.0, 0.9\n")
        code, _, err = run(capsys, "quad", "--prior", "disk:1", "--curve", str(path))
        assert code == 2
        assert err == f"error: {path}:2: not valid UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize("command", [("quad", "--gain", "0.5"), ("optimize", "--family", "gain")])
    def test_underflowing_prior_is_input_error(self, capsys, command):
        code, _, err = run(capsys, command[0], "--prior", "truncgauss:1e-200,1e-200", *command[1:])
        assert code == 2
        assert "lam = 1e-200 and radius = 1e-200" in err


class TestOptimize:
    def test_gain_family(self, capsys):
        code, out, _ = run(capsys, "optimize", "--prior", "disk:1", "--family", "gain")
        assert code == 0
        vals = kv(out)
        assert float(vals["best_value"]) == pytest.approx(0.742530, abs=1e-4)
        assert vals["converged"] == "true"

    def test_curve_family(self, capsys):
        code, out, _ = run(capsys, "optimize", "--prior", "disk:1", "--family", "curve",
                           "--nodes", "6")
        assert code == 0
        vals = kv(out)
        assert float(vals["best_value"]) >= 0.7415
        assert "node" in out

    @pytest.mark.parametrize("prior", ["gaussian:1e14", "truncgauss:1e14,1"])
    def test_degenerate_support_is_input_error(self, capsys, prior):
        code, out, err = run(capsys, "optimize", "--prior", prior, "--family", "curve")
        assert (code, out) == (2, "")
        assert err.startswith("error: prior support is degenerate")

    def test_unreachable_tolerance_is_numerical_failure(self, capsys):
        code, _, err = run(capsys, "optimize", "--prior", "disk:1", "--family", "curve",
                           "--nodes", "6", "--tol", "1e-15")
        assert code == 3
        assert "numerical failure" in err


class TestSimulate:
    def test_reports_mean_near_closed_form(self, capsys):
        code, out, _ = run(capsys, "simulate", "--prior", "gaussian:1", "--gain", "0.5",
                           "-n", "200000", "--seed", "7")
        assert code == 0
        vals = kv(out)
        mean, err = float(vals["mean_fidelity"]), float(vals["std_error"])
        assert mean == pytest.approx(2 / 3, abs=4 * err)

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_bad_worker_count_is_input_error(self, capsys, workers):
        code, _, err = run(capsys, "simulate", "--prior", "disk:1", "--gain", "0.36",
                           "-n", "100", "--workers", workers)
        assert code == 2
        assert "workers" in err

    def test_negative_seed_is_input_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--prior", "disk:1", "--gain", "0.36",
                           "-n", "100", "--seed", "-1")
        assert code == 2
        assert "seed" in err

    def test_repeat_runs_identical(self, capsys):
        _, out1, _ = run(capsys, "simulate", "--prior", "disk:1", "--gain", "0.36",
                         "-n", "50000", "--seed", "3")
        _, out2, _ = run(capsys, "simulate", "--prior", "disk:1", "--gain", "0.36",
                         "-n", "50000", "--seed", "3")
        assert out1 == out2


class TestGenerateAnalyze:
    def test_full_pipeline_json(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        code, _, _ = run(capsys, "generate", "--radius", "5", "-n", "4000",
                         "--model", "const:0.58", "--seed", "11", "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "analyze", str(path), "--epsilon", "0.01",
                           "--radius", "5", "--bootstrap", "150", "--seed", "2", "--json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"lambda", "tail_mass", "sample_radius", "weighted_fidelity",
                               "ci_low", "ci_high", "classical_bound", "verdict",
                               "n_records", "seed"}
        assert report["verdict"] == "NONCLASSICAL"
        assert report["classical_bound"] == pytest.approx(0.5422, abs=1e-4)
        assert report["n_records"] == 4000

    def test_generate_deterministic_bytes(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "generate", "--radius", "2", "-n", "5000", "--model", "gain:0.7",
            "--seed", "5", "-o", str(p1))
        run(capsys, "generate", "--radius", "2", "-n", "5000", "--model", "gain:0.7",
            "--seed", "5", "-o", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_analyze_table_output(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        run(capsys, "generate", "--radius", "1", "-n", "500", "--model", "const:0.58",
            "--seed", "1", "-o", str(path))
        code, out, _ = run(capsys, "analyze", str(path), "--epsilon", "0.01",
                           "--bootstrap", "150", "--seed", "0")
        assert code == 0
        vals = kv(out)
        assert vals["verdict"] == "INCONCLUSIVE"
        assert "note:" in out  # the CI rule is flagged as a library addition

    def test_single_record_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("beta_re,beta_im,fidelity\n0.5,0,0.9\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "verdict needs at least 2 records, got 1" in err

    def test_underflowing_radius_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "origin.csv"
        path.write_text("beta_re,beta_im,fidelity\n0,0,0.5\n0,0,0.6\n")
        code, _, err = run(capsys, "analyze", str(path), "--radius", "1e-200")
        assert code == 2
        assert "radius 1e-200" in err

    def test_underflowing_weight_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("beta_re,beta_im,fidelity\n0,0,0.9\n1,0,0.1\n")
        code, out, err = run(capsys, "analyze", str(path), "--epsilon", "5e-324",
                             "--radius", "1", "--bootstrap", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error: lam = 744.44") and "weight of 5e-324" in err

    def test_non_utf8_csv_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        # The 0xff sits on line 4, counted past CRLF and bare CR line ends.
        path.write_bytes(b"beta_re,beta_im,fidelity\n0,0,0.5\r\n1,1,0.5\r0.\xff5,0,0.5\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert err == "error: line 4: not valid UTF-8 (invalid start byte)\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/file.csv")
        assert code == 2

    def test_malformed_csv_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("beta_re,beta_im,fidelity\n0,0,2.0\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "line 2" in err

    def test_bad_model_string(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--radius", "1", "-n", "10",
                           "--model", "poisson:1", "--seed", "0", "-o", str(tmp_path / "x.csv"))
        assert code == 2
        assert "unknown model" in err

    def test_generate_bad_worker_count_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        code, _, err = run(capsys, "generate", "--radius", "1", "-n", "10", "--model", "const:0.5",
                           "--workers", "0", "-o", str(path))
        assert code == 2
        assert "workers" in err
        assert not path.exists()

    def test_generate_negative_seed_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        code, _, err = run(capsys, "generate", "--radius", "1", "-n", "10", "--model", "gain:0.5",
                           "--seed", "-1", "-o", str(path))
        assert code == 2
        assert "seed" in err
        assert not path.exists()

    def test_constant_out_of_range_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--radius", "1", "-n", "10",
                           "--model", "const:1.5", "--seed", "0", "-o", str(tmp_path / "x.csv"))
        assert code == 2


def test_no_worker_outlives_a_call(capsys, tmp_path):
    # CHUNK_SIZE + 1 samples make two chunks, so two workers both run.
    threads = threading.active_count()
    n = str(CHUNK_SIZE + 1)
    assert run(capsys, "simulate", "--prior", "disk:2", "--gain", "0.5", "-n", n,
               "--workers", "2")[0] == 0
    assert run(capsys, "generate", "--radius", "2", "-n", n, "--model", "gain:0.5",
               "--workers", "2", "-o", str(tmp_path / "d.csv"))[0] == 0
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []
