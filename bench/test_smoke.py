"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Checks that each run emits exactly the metrics BENCHMARK.json names, with
their units, and that a corrupted output is counted as a failed operation.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.NAMES)
def test_every_metric_emitted(workload, trace):
    out = run.run(workload, seed=0, seconds=0, trace=bool(trace), tiny=True)
    result = out["result"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert (result["correct"], result["failed"]) == (True, 0), out["record"]["failures"]
    assert result["attempted"] >= 1
    assert out["record"]["metrics"]["fail_ratio"]["value"] == 0.0
    for name, m in result["metrics"].items():
        if not trace:
            assert m["value"] > 0, name


def test_same_seed_same_digest():
    digests = {run.run("bounds_wide", seed=3, seconds=0, trace=False, tiny=True)["record"]["digest"]
               for _ in range(2)}
    assert len(digests) == 1


def _tampered_report(monkeypatch):
    from telebound.certify import Report

    to_dict = Report.to_dict

    def tampered(self):
        d = to_dict(self)
        d["weighted_fidelity"] += 1e-6
        return d

    monkeypatch.setattr(Report, "to_dict", tampered)
    return "certify_small"


def _tampered_quadrature(monkeypatch):
    import telebound.quadrature as quadrature

    quad = quadrature.average_fidelity_quad

    def tampered(*args, **kwargs):
        res = quad(*args, **kwargs)
        return dataclasses.replace(res, value=res.value + 1e-6)

    monkeypatch.setattr(quadrature, "average_fidelity_quad", tampered)
    return "bounds_wide"


@pytest.mark.parametrize("tamper", [_tampered_report, _tampered_quadrature])
def test_corrupted_output_counts_as_failure(monkeypatch, tamper):
    workload = tamper(monkeypatch)
    out = run.run(workload, seed=0, seconds=0, trace=False, tiny=True)
    result = out["result"]
    assert result["correct"] is False
    assert result["failed"] > 0
    assert out["record"]["metrics"]["fail_ratio"]["value"] == result["failed"] / result["attempted"]
