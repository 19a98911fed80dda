"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json

from telebound import (
    Constant,
    Gain,
    GaussianIso,
    TruncatedGaussian,
    UniformDisk,
    average_fidelity_quad,
    decomposition_residual,
    gaussian_bound,
    generate_dataset,
    optimal_gain_gaussian,
    optimize_gain,
    simulate,
    verdict,
    write_dataset,
)
from telebound.cli import main as cli_main


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_classical_bound_formula():
    assert gaussian_bound(0.0) == 0.5
    for lam in (0.1, 1.0, 7.0):
        assert gaussian_bound(lam) == (1.0 + lam) / (2.0 + lam)
    worst = 0.0
    for lam in (0.2, 1.0, 5.0):
        res = average_fidelity_quad(GaussianIso(lam), Gain(optimal_gain_gaussian(lam)))
        rel = abs(res.value - gaussian_bound(lam)) / gaussian_bound(lam)
        worst = max(worst, rel)
    _report(1, worst <= 1e-6,
            f"bound formula exact, quadrature at optimal gain matches to {worst:.2e} relative")


def test_criterion_2_decomposition_identity():
    triples = [(1.0, 1.0, 0.5), (2.0, 0.5, 1.0 / 3.0), (1.0, 1.0, 0.0)]
    residuals = [decomposition_residual(lam, radius, Gain(g)) for lam, radius, g in triples]
    worst = max(residuals)
    _report(2, worst <= 1e-6, f"largest split residual {worst:.2e} over {len(triples)} cases")


def test_criterion_3_finite_area_thesis():
    floors = {1.0: 0.74, 2.0: 0.59, 3.0: 0.54}
    values = {}
    ok = True
    notes = []
    for radius, floor in floors.items():
        report = optimize_gain(UniformDisk(radius))
        g_star, f_star = report.best_strategy.g, report.best_value
        quad = average_fidelity_quad(UniformDisk(radius), Gain(g_star))
        mc = simulate(UniformDisk(radius), Gain(g_star), 1_000_000, seed=int(radius))
        agree_quad = abs(quad.value - f_star) <= 1e-6 + quad.error_estimate
        agree_mc = abs(mc.mean - f_star) <= 3.0 * mc.std_error
        ok &= f_star >= floor and f_star > 0.5 and agree_quad and agree_mc
        values[radius] = f_star
        notes.append(f"R={radius:g}: {f_star:.4f}")
    decreasing = values[1.0] > values[2.0] > values[3.0]
    beats_experiment = values[2.0] > 0.58
    ok &= decreasing and beats_experiment
    _report(3, ok, ", ".join(notes) + f"; monotone={decreasing}, R=2 beats 0.58={beats_experiment}")


def test_criterion_4_universal_floor():
    from telebound import disk_gain_fidelity, gaussian_gain_fidelity, truncated_gain_fidelity

    assert gaussian_gain_fidelity(0.7, 1.0) == 0.5
    assert disk_gain_fidelity(2.5, 1.0) == 0.5
    assert truncated_gain_fidelity(1.2, 2.0, 1.0) == 0.5
    priors = [GaussianIso(1.0), GaussianIso(0.2), UniformDisk(1.0), UniformDisk(3.0),
              TruncatedGaussian(0.5, 2.0)]
    worst_sigma = 0.0
    for i, prior in enumerate(priors):
        est = simulate(prior, Gain(1.0), 1_000_000, seed=100 + i)
        worst_sigma = max(worst_sigma, abs(est.mean - 0.5) / est.std_error)
    _report(4, worst_sigma <= 3.0,
            f"unit gain gives 1/2 exactly in closed form; worst MC deviation {worst_sigma:.2f} sigma "
            f"over {len(priors)} priors")


def test_criterion_5_verification_protocol_scenarios(tmp_path, capsys):
    expected = {1.0: ("INCONCLUSIVE", 0.8486), 3.0: ("INCONCLUSIVE", 0.6019),
                5.0: ("NONCLASSICAL", 0.5422)}
    ok = True
    notes = []
    for radius, (want_verdict, want_bound) in expected.items():
        path = tmp_path / f"const58_r{radius:g}.csv"
        code = cli_main(["generate", "--radius", str(radius), "-n", "5000",
                         "--model", "const:0.58", "--seed", "17", "-o", str(path)])
        assert code == 0
        code = cli_main(["analyze", str(path), "--epsilon", "0.01", "--radius", str(radius),
                         "--bootstrap", "300", "--seed", "1", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        ok &= report["verdict"] == want_verdict
        ok &= abs(report["classical_bound"] - want_bound) <= 1e-4
        notes.append(f"R={radius:g}: bound={report['classical_bound']:.4f} {report['verdict']}")
    with capsys.disabled():
        _report(5, ok, "; ".join(notes))


def test_criterion_6_no_false_positives():
    # Classical channels: per-disk optimal gain, analyzed at three epsilon
    # values inside the protocol's sound range (the tail must be almost 0;
    # see the certify tests for the measured epsilon = 0.1 failure mode).
    epsilons = (0.01, 1e-3, 1e-4)
    radii = {1.0: 0.361410, 2.0: 0.686578, 3.0: 0.826165}
    false_positives = 0
    runs = 0
    for seed in range(20):
        radius = (1.0, 2.0, 3.0)[seed % 3]
        ds = generate_dataset(radius, 20_000, Gain(radii[radius]), seed=5000 + seed)
        for eps in epsilons:
            report = verdict(ds, epsilon=eps, resamples=300, seed=seed)
            runs += 1
            false_positives += report.verdict == "NONCLASSICAL"
    _report(6, false_positives == 0,
            f"{false_positives} false certifications in {runs} classical runs "
            f"(20 seeds x {len(epsilons)} epsilons)")


def test_criterion_7_determinism(tmp_path):
    est_a = simulate(UniformDisk(2.0), Gain(0.7), 300_000, seed=9)
    est_b = simulate(UniformDisk(2.0), Gain(0.7), 300_000, seed=9)
    est_c = simulate(UniformDisk(2.0), Gain(0.7), 300_000, seed=9, workers=4)
    ds_a = generate_dataset(2.0, 100_000, Gain(0.7), seed=9)
    ds_b = generate_dataset(2.0, 100_000, Gain(0.7), seed=9, workers=3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(p1, ds_a)
    write_dataset(p2, ds_b)
    r1 = verdict(ds_a, epsilon=0.01, resamples=300, seed=5)
    r2 = verdict(ds_b, epsilon=0.01, resamples=300, seed=5)
    same = (est_a == est_b == est_c) and p1.read_bytes() == p2.read_bytes() and r1 == r2
    _report(7, same, "bit-identical estimates, datasets and reports across reruns and worker counts")
