import json
import math
import multiprocessing
import os
import threading

import pytest

from telebound import cli
from telebound.cli import build_parser, main
from telebound.core import RadialCurve
from telebound.data import write_dataset
from telebound.simulate import CHUNK_SIZE, generate_dataset


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

    def test_out_of_memory_is_numerical_failure(self, capsys, monkeypatch):
        # A huge grid, such as truncgauss:1e-300,1e10, fails to allocate;
        # raised here instead, so that no test allocates it.
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(cli, "average_fidelity_quad", fail)
        code, out, err = run(capsys, "quad", "--prior", "truncgauss:1e-300,1e10", "--gain", "0.5")
        assert (code, out) == (3, "")
        assert err == "numerical failure: Unable to allocate 74.5 GiB for an array\n"

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
        # The panel budget refuses a prior too flat to integrate, down to
        # the smallest float, whose support radius is infinite. A count of
        # 151 digits prints in %g form.
        for prior in ("gaussian:1e-9", "gaussian:1e-300", "gaussian:5e-324"):
            code, out, err = run(capsys, "quad", "--prior", prior, "--gain", "0.5")
            assert (code, out) == (2, "")
            assert "budget of 4635" in err and len(err) < 200
        # Radial spans wider than the floor Gaussian's alpha range fail
        # before any grid is allocated (7.45 and 74.5 GiB here).
        for prior, span in [("disk:1e9", "1e+09"), ("truncgauss:1e-300,1e10", "1e+10")]:
            code, out, err = run(capsys, "quad", "--prior", prior, "--gain", "0.5")
            assert (code, out) == (2, "")
            assert err.startswith(f"error: radial span {span} needs ") and "budget of 4635" in err
            assert len(err) < 200

    @pytest.mark.parametrize("text, line", [
        ("0 0\n1\n", 2),
        ("0,0\n1,0.5\nnan,1\n", 3),
        ("0,0\n1,0.5\n0.5,1\n", 3),
        ("# radius, guess radius\n0,0\n\n1,0.5\n2,-1\n", 5),
        ("1,0\n2,1\n", 1),
        ("0,0\n1,0.5\n1.000000000000001,1e300\n", 3),
    ], ids=["one-field", "nan-radius", "falling-radius", "negative-guess", "no-origin",
            "slope-overflows"])
    def test_malformed_curve_file(self, capsys, tmp_path, text, line):
        # RadialCurve's rules are named at the first node that breaks one,
        # by the one parser every command's strategy goes through.
        path = tmp_path / "curve.txt"
        path.write_text(text)
        for command in [("quad", "--prior", "disk:1", "--curve", str(path)),
                        ("simulate", "--prior", "disk:1", "-n", "10", "--curve", str(path)),
                        ("generate", "--radius", "1", "-n", "10", "-o", f"{path}.csv",
                         "--model", f"curve:{path}")]:
            code, out, err = run(capsys, *command)
            assert (code, out) == (2, ""), command[0]
            assert err.startswith(f"error: {path}:{line}: "), command[0]
        assert not (tmp_path / "curve.txt.csv").exists()

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

    def test_non_ascii_curve_text_is_read(self, tmp_path):
        # Lines that are not ASCII go through the UTF-8 check and pass it:
        # a BOM and comments outside ASCII.
        path = tmp_path / "curve.txt"
        path.write_bytes("\ufeff0, 0  # \u03c1 = 0\n1, 0.45\n3.0 0.9  # \u2248 0.3\n".encode())
        assert cli._load_curve(str(path)).nodes == ((0.0, 0.0), (1.0, 0.45), (3.0, 0.9))

    def test_curve_file_names_its_first_bad_line(self, capsys, tmp_path):
        # A non-numeric node on line 2 comes before the bad byte on line 3.
        path = tmp_path / "curve.txt"
        path.write_bytes(b"0, 0\n1, x\n3.0, 0.9 \xff\n")
        code, _, err = run(capsys, "quad", "--prior", "disk:1", "--curve", str(path))
        assert code == 2
        assert err == f"error: {path}:2: non-numeric node\n"

    @pytest.mark.parametrize("data, error", [
        (b"0,0\n1,0.5\n0.5,1\n3,x\n", "3: RadialCurve node radii must be strictly increasing"),
        (b"0,0\n1,-1\n2,1\n3,0.9 \xff\n", "2: RadialCurve guess radii must be >= 0"),
    ], ids=["rule-before-number", "rule-before-byte"])
    def test_curve_rule_break_comes_before_a_later_parse_error(self, capsys, tmp_path, data, error):
        # Each node is checked against the curve rules as it is read, so a
        # rule break is named before a bad number or byte further down.
        path = tmp_path / "curve.txt"
        path.write_bytes(data)
        code, _, err = run(capsys, "quad", "--prior", "disk:1", "--curve", str(path))
        assert code == 2
        assert err == f"error: {path}:{error}\n"

    def test_long_curve_file_builds_its_curve_once(self, monkeypatch, tmp_path):
        # A rule break on the last of 16,001 lines is found as that line is
        # read, with no curve built; the 16,000 valid lines before it build
        # one.
        builds = []
        monkeypatch.setattr(cli, "RadialCurve", lambda nodes: builds.append(1) or RadialCurve(nodes))
        lines = [f"{k},{0.5 * k}\n" for k in range(16_000)]
        path = tmp_path / "curve.txt"
        path.write_text("".join(lines) + "15999,1\n")
        with pytest.raises(ValueError) as exc:
            cli._load_curve(str(path))
        assert str(exc.value) == f"{path}:16001: RadialCurve node radii must be strictly increasing"
        assert builds == []
        path.write_text("".join(lines))
        assert len(cli._load_curve(str(path)).nodes) == 16_000
        assert builds == [1]

    def test_curve_pipe_stops_at_the_first_bad_line(self):
        # A falling radius on line 2, and the writer keeps the pipe open
        # after it: the reader must not wait for the rest.
        read_fd, write_fd = os.pipe()
        path = f"/dev/fd/{read_fd}"
        release, errors = threading.Event(), []

        def write():
            os.write(write_fd, b"0,0\n-1,0.5\n" + b"1,0.5\n" * 1000)
            release.wait()
            os.close(write_fd)

        def load():
            try:
                cli._load_curve(path)
            except ValueError as exc:
                errors.append(str(exc))

        writer, loader = threading.Thread(target=write), threading.Thread(target=load)
        writer.start()
        loader.start()
        try:
            loader.join(timeout=10.0)
            assert not loader.is_alive()
            assert errors == [f"{path}:2: RadialCurve node radii must be strictly increasing"]
        finally:
            release.set()
            writer.join()
            loader.join()
            os.close(read_fd)

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

    def test_flat_prior_is_refused_before_any_node_radius(self, capsys):
        # The node radii of a prior whose support radius is infinite would
        # be np.linspace(0, inf), which warns; pytest turns that into an
        # error here. The panel budget refuses the prior first.
        code, out, err = run(capsys, "optimize", "--prior", "gaussian:5e-324", "--family", "curve")
        assert (code, out) == (2, "")
        assert "budget of 4635" in err

    def test_unreachable_tolerance_is_numerical_failure(self, capsys):
        code, _, err = run(capsys, "optimize", "--prior", "disk:1", "--family", "curve",
                           "--nodes", "6", "--tol", "1e-15")
        assert code == 3
        assert "numerical failure" in err

    def test_gain_unreachable_tolerance_is_numerical_failure(self, capsys):
        # Near the optimum floats are 1.1e-16 apart, so 1e-17 cannot be met.
        code, out, err = run(capsys, "optimize", "--prior", "disk:2", "--family", "gain",
                             "--tol", "1e-17")
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: a bracket of width ")
        assert "cannot narrow to tol 1.0e-17 at float resolution" in err


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
        assert "unknown model" in err and "curve:FILE" in err
        with pytest.raises(SystemExit):
            run(capsys, "generate", "--help")
        assert "const:C | gain:G | curve:FILE" in capsys.readouterr().out

    def test_generate_curve_model(self, capsys, tmp_path):
        curve, path = tmp_path / "curve.txt", tmp_path / "d.csv"
        curve.write_text("0,0\n1,0.45\n3,0.9\n")
        code, _, _ = run(capsys, "generate", "--radius", "2", "-n", "5000", "--model",
                         f"curve:{curve}", "--seed", "5", "-o", str(path))
        assert code == 0
        expected = tmp_path / "e.csv"
        write_dataset(expected, generate_dataset(2.0, 5000, cli._load_curve(str(curve)), 5))
        assert path.read_bytes() == expected.read_bytes()
        code, _, err = run(capsys, "generate", "--radius", "2", "-n", "10", "--model",
                           f"curve:{tmp_path / 'missing.txt'}", "-o", str(tmp_path / "x.csv"))
        assert code == 2
        assert "missing.txt" in err

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


@pytest.mark.parametrize("gain", ["abc", "-0.5"])
@pytest.mark.parametrize("command", [
    ("quad", "--prior", "disk:1"),
    ("simulate", "--prior", "disk:1", "-n", "10"),
], ids=["quad", "simulate"])
def test_bad_gain_is_a_bad_model(capsys, command, gain):
    # --gain G spells generate's gain:G, and is read by the same parser.
    code, out, err = run(capsys, *command, "--gain", gain)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad model 'gain:{gain}': ")


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


def test_parser_keeps_no_state_between_calls(capsys, tmp_path, monkeypatch):
    # main parses with one parser per process; no call may leave anything
    # in it that the next call sees.
    path = tmp_path / "d.csv"
    workers = []

    def record(*args, **kwargs):
        workers.append(kwargs["workers"])
        return generate_dataset(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_dataset", record)
    for count in ("3", None):
        argv = ["generate", "--radius", "2", "-n", "300", "--model", "gain:0.6", "-o", str(path)]
        assert run(capsys, *argv, *(["--workers", count] if count else []))[0] == 0
    assert workers == [3, 1]

    code, out, _ = run(capsys, "analyze", str(path), "--bootstrap", "100", "--json")
    assert code == 0 and json.loads(out)["n_records"] == 300
    code, out, _ = run(capsys, "analyze", str(path), "--bootstrap", "100")
    assert code == 0 and kv(out)["records"] == "300" and not out.startswith("{")

    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(path), "--bootstrap", "many"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    code, out, _ = run(capsys, "analyze", str(path), "--bootstrap", "100", "--json")
    assert code == 0 and json.loads(out)["seed"] == 0

    assert build_parser() is not build_parser()
