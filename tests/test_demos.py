"""The demos are documentation that runs: each one must finish without error."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["certification_walkthrough", "classical_bounds_tour",
                                  "quadrature_and_optimizers"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert "=" * 72 in capsys.readouterr().out
