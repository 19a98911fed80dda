"""The benchmark's workloads: inputs derived from the seed, the timed round,
and the output checks made outside the timed window.

Each workload is a closed loop with one client: the next call is issued only
after the previous one has returned. Every call goes through the public API
or ``telebound.cli.main`` in this process, looked up through its module at
call time so that the traced run can wrap it.

certify_large  generate + analyze through the CLI on two 1e6-record files.
               CSV write/parse and the bootstrap gather dominate; quadrature
               does nothing. gain:0.458 at R = 2 is the classical channel the
               certification rule is known to certify falsely; const:0.58 at
               R = 5 takes the all-equal bootstrap bypass, so it isolates the
               data layer.
certify_small  the same CLI path on 120 quickstart-sized files, where
               per-call overhead (argparse, file open, Philox set-up, the
               per-resample loop at small n) dominates. Three files in four
               are gain:0.839 (the gain optimum of the R = 5, eps = 0.01
               truncated Gaussian), one in four const:0.58, so the median and
               the p90 of the analyze latency both sit inside the gain mode.
bounds_wide    a theorist's session with no CSV and no bootstrap: quadrature
               on widening Gaussians and on disks, guess-curve optimization
               confirmed by quadrature and by simulation, and the classical
               bound estimate on the truncated-Gaussian grid. lam = 0.01
               (about 106 s per call at the seed) is left out because a run
               that long cannot be repeated for every sample.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import telebound as tb

cli = importlib.import_module("telebound.cli")
optimize = importlib.import_module("telebound.optimize")
quadrature = importlib.import_module("telebound.quadrature")
simulate = importlib.import_module("telebound.simulate")

EPSILON = 0.01
# The fields `analyze --json` is documented to emit, no more and no fewer.
REPORT_KEYS = frozenset({"lambda", "tail_mass", "sample_radius", "weighted_fidelity", "ci_low",
                         "ci_high", "classical_bound", "verdict", "n_records", "seed"})
# Gain grid for the closed-form reference optima.
GAIN_GRID = np.linspace(0.0, 1.5, 3001)


@dataclass
class Op:
    """One call of the timed round and what it returned."""

    kind: str
    label: str
    latency: float = 0.0
    result: object = None
    error: str = ""
    inputs: dict = field(default_factory=dict)


@dataclass
class Checks:
    """Operations attempted and the failures found among them."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    false_nonclassical: int = 0

    def record(self, label: str, check, *args) -> None:
        """Count one operation; it fails if `check(*args)` lists a problem
        or raises."""
        self.attempted += 1
        try:
            problems = check(*args)
        except Exception as exc:  # malformed output can break a check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")


def _call(op: Op, fn, *args, **kwargs) -> Op:
    start = time.perf_counter()
    try:
        op.result = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        op.error = f"{type(exc).__name__}: {exc}"
    op.latency = time.perf_counter() - start
    return op


def _run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- certify


@dataclass(frozen=True)
class Job:
    model: str  # const:C or gain:G, as the CLI takes it
    radius: float
    n: int
    gen_seed: int
    resamples: int
    boot_seed: int


class CertifyWorkload:
    """generate then analyze --json, file by file, through cli.main."""

    def __init__(self, name: str, jobs: list, nproc: int):
        self.name = name
        self.jobs = jobs
        self.nproc = nproc
        self.csv_bytes = {}

    def inputs(self) -> dict:
        return {"files": len(self.jobs), "epsilon": EPSILON,
                "jobs": [vars(job) for job in self.jobs], "csv_bytes": self.csv_bytes}

    def warmup(self, tmp: Path) -> None:
        for model in ("gain:0.5", "const:0.58"):
            self._pair(Job(model, 5.0, 2000, 0, 100, 0), tmp / "warmup.csv")

    def run_round(self, tmp: Path) -> list:
        ops = []
        for i, job in enumerate(self.jobs):
            ops += self._pair(job, tmp / f"{i:03d}.csv")
        return ops

    def _pair(self, job: Job, path: Path) -> list:
        gen = ["generate", "--radius", repr(job.radius), "-n", str(job.n), "--model", job.model,
               "--seed", str(job.gen_seed), "--workers", str(self.nproc), "-o", str(path)]
        ana = ["analyze", str(path), "--epsilon", repr(EPSILON), "--radius", repr(job.radius),
               "--bootstrap", str(job.resamples), "--seed", str(job.boot_seed), "--json"]
        return [_call(Op("generate", path.name, inputs={"job": job, "path": path}), _run_cli, gen),
                _call(Op("analyze", path.name, inputs={"job": job, "path": path}), _run_cli, ana)]

    def analyze_latencies(self, ops: list) -> list:
        return [op.latency for op in ops if op.kind == "analyze"]

    def check(self, ops: list, tmp: Path, checks: Checks) -> str:
        digest = hashlib.sha256()
        parsed = {}
        for op in ops:
            checks.record(f"{self.name} {op.kind} {op.label}", self._check, op, tmp, digest,
                          parsed, checks)
        return digest.hexdigest()

    def _check(self, op, tmp, digest, parsed, checks) -> list:
        if op.error:
            return [op.error]
        job, path = op.inputs["job"], op.inputs["path"]
        code, out, err = op.result
        digest.update(out.replace(str(tmp), "<tmp>").encode())
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        if op.kind == "generate":
            self.csv_bytes[path.name] = path.stat().st_size
            return self._check_file(job, path, digest, parsed)
        return self._check_report(job, out, parsed.get(path), checks)

    @staticmethod
    def _check_file(job, path, digest, parsed) -> list:
        digest.update(path.read_bytes())
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        parsed[path] = table
        problems = []
        if table.shape != (job.n, 3):
            problems.append(f"file holds {table.shape} values, expected ({job.n}, 3)")
        elif np.max(np.hypot(table[:, 0], table[:, 1])) > job.radius * (1.0 + 1e-12):
            problems.append("an input lies outside the disk")
        elif not (0.0 <= table[:, 2].min() and table[:, 2].max() <= 1.0):
            problems.append("a fidelity lies outside [0, 1]")
        return problems

    @staticmethod
    def _check_report(job, out, table, checks) -> list:
        if table is None:
            return ["no parsed file to check against"]
        try:
            rep = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"stdout is not one JSON object: {exc}"]
        if set(rep) != REPORT_KEYS:
            return [f"JSON keys {sorted(rep)} differ from the documented ten"]
        problems = []
        lam = tb.select_lambda(job.radius, EPSILON)
        if rep["lambda"] != lam:
            problems.append(f"lambda {rep['lambda']!r} != select_lambda {lam!r}")
        if not math.isclose(rep["classical_bound"], (1.0 + lam) / (2.0 + lam), rel_tol=1e-14):
            problems.append(f"classical_bound {rep['classical_bound']!r} != (1+lam)/(2+lam)")
        if not rep["ci_low"] <= rep["weighted_fidelity"] <= rep["ci_high"]:
            problems.append("point estimate outside its confidence interval")
        expected = "NONCLASSICAL" if rep["ci_low"] > rep["classical_bound"] else "INCONCLUSIVE"
        if rep["verdict"] != expected:
            problems.append(f"verdict {rep['verdict']} but ci_low vs bound implies {expected}")
        if (rep["n_records"], rep["seed"], rep["sample_radius"]) != (job.n, job.boot_seed,
                                                                     job.radius):
            problems.append("n_records, seed or sample_radius differ from the request")
        kind, _, arg = job.model.partition(":")
        wf = rep["weighted_fidelity"]
        if kind == "const":
            if wf != float(arg):
                problems.append(f"weighted_fidelity {wf!r} != constant {arg}")
        else:
            w = np.exp(-lam * (table[:, 0] ** 2 + table[:, 1] ** 2))
            ref = math.fsum(w * table[:, 2]) / math.fsum(w)
            if abs(wf - ref) > 1e-12 * abs(ref):
                problems.append(f"weighted_fidelity {wf!r} != recomputed {ref!r}")
            if rep["verdict"] == "NONCLASSICAL":
                # Known defect: a classical channel certified. Reported, not a
                # benchmark failure.
                checks.false_nonclassical += 1
        return problems


def certify_large(seed: int, nproc: int, n: int = 10**6, resamples: int = 200):
    rng = random.Random(seed)
    jobs = [Job(model, radius, n, rng.randrange(2**32), resamples, rng.randrange(2**32))
            for model, radius in (("gain:0.458", 2.0), ("const:0.58", 5.0))]
    return CertifyWorkload("certify_large", jobs, nproc)


def certify_small(seed: int, nproc: int, files: int = 120, n: int = 5000,
                  resamples: int = 1000):
    rng = random.Random(seed)
    jobs = [Job("const:0.58" if i % 4 == 3 else "gain:0.839", 5.0, n, rng.randrange(2**32),
                resamples, rng.randrange(2**32)) for i in range(files)]
    return CertifyWorkload("certify_small", jobs, nproc)


# ---------------------------------------------------------------- bounds


def _best_on_grid(fidelity) -> float:
    return max(fidelity(float(g)) for g in GAIN_GRID)


def _check_quad(res, reference: float) -> list:
    err, tol = res.error_estimate, res.spec.truncation_tol
    if not abs(res.value - reference) <= err <= tol:
        return [f"|{res.value!r} - {reference!r}| <= {err:.3e} <= {tol:.1e} fails"]
    return []


class BoundsWorkload:
    """Quadrature, optimizers and simulate through the public API."""

    name = "bounds_wide"

    def __init__(self, seed: int, nproc: int, lams, disk_radii, curve_radii, grid,
                 samples: int):
        rng = random.Random(seed)
        self.nproc = nproc
        self.lams = tuple(lams)
        self.disk_radii = tuple(disk_radii)
        self.curve = [(r, rng.randrange(2**32)) for r in curve_radii]
        self.grid = tuple(grid)
        self.samples = samples

    def inputs(self) -> dict:
        return {"gaussian_lams": self.lams, "disk_radii": self.disk_radii,
                "curve_radii_and_simulate_seeds": self.curve, "bound_grid_R_eps": self.grid,
                "simulate_samples": self.samples, "truncation_tol": 1e-9}

    def warmup(self, tmp: Path) -> None:
        disk = tb.UniformDisk(1.0)
        quadrature.average_fidelity_quad(disk, tb.Gain(0.5))
        optimize.optimize_guess_curve(disk)
        simulate.simulate(disk, tb.Gain(0.5), 10_000, 0, workers=self.nproc)
        optimize.classical_bound_estimate(tb.TruncatedGaussian(1.0, 1.0))

    def run_round(self, tmp: Path) -> list:
        ops = []

        def op(kind, label, thunk, needs=None, **inputs):
            o = Op(kind, label, inputs=inputs)
            if needs is not None and needs.error:
                o.error = f"not run: {needs.kind} {needs.label} failed"
            else:
                _call(o, thunk)
            ops.append(o)
            return o

        for lam in self.lams:
            g = tb.optimal_gain_gaussian(lam)
            op("quad_gaussian", f"lam={lam}",
               lambda: quadrature.average_fidelity_quad(tb.GaussianIso(lam), tb.Gain(g)),
               lam=lam, g=g)
        for r in self.disk_radii:
            disk = tb.UniformDisk(r)
            best = op("gain_disk", f"R={r}", lambda: optimize.optimize_gain(disk), radius=r)
            op("quad_disk", f"R={r}",
               lambda: quadrature.average_fidelity_quad(disk, best.result.best_strategy),
               needs=best, radius=r, g=None if best.error else best.result.best_strategy.g)
        for r, seed in self.curve:
            disk = tb.UniformDisk(r)
            best = op("curve_disk", f"R={r}", lambda: optimize.optimize_guess_curve(disk),
                      radius=r)
            quad = op("quad_curve", f"R={r}",
                      lambda: quadrature.average_fidelity_quad(disk, best.result.best_strategy),
                      needs=best, best=best)
            op("simulate_curve", f"R={r}",
               lambda: simulate.simulate(disk, best.result.best_strategy, self.samples, seed,
                                         workers=self.nproc),
               needs=quad, quad=quad)
        for r, eps in self.grid:
            lam = tb.select_lambda(r, eps)
            op("bound_truncated", f"R={r} eps={eps}",
               lambda: optimize.classical_bound_estimate(tb.TruncatedGaussian(lam, r)),
               lam=lam, radius=r)
        return ops

    def analyze_latencies(self, ops: list) -> list:
        return []  # no analyze calls

    def check(self, ops: list, tmp: Path, checks: Checks) -> str:
        digest = hashlib.sha256()
        for op in ops:
            checks.record(f"{self.name} {op.kind} {op.label}", self._check, op, digest)
        return digest.hexdigest()

    def _check(self, op: Op, digest) -> list:
        if op.error:
            return [op.error]
        digest.update(f"{op.kind} {op.label} {_fingerprint(op.result)}\n".encode())
        res, x = op.result, op.inputs
        if op.kind == "quad_gaussian":
            return _check_quad(res, tb.gaussian_gain_fidelity(x["lam"], x["g"]))
        if op.kind == "quad_disk":
            return _check_quad(res, tb.disk_gain_fidelity(x["radius"], x["g"]))
        if op.kind == "quad_curve":
            return _check_quad(res, x["best"].result.best_value)
        if op.kind in ("gain_disk", "curve_disk"):
            ref = _best_on_grid(lambda g: tb.disk_gain_fidelity(x["radius"], g))
            problems = [] if res.best_value >= ref - 1e-9 else [
                f"best_value {res.best_value!r} below the gain-grid optimum {ref!r}"]
            if op.kind == "gain_disk":
                closed = tb.disk_gain_fidelity(x["radius"], res.best_strategy.g)
                if abs(res.best_value - closed) > 1e-12:
                    problems.append(f"best_value {res.best_value!r} != closed form {closed!r}")
            return problems
        if op.kind == "simulate_curve":
            target = x["quad"].result.value
            if abs(res.mean - target) > 5.0 * res.std_error:
                return [f"mean {res.mean!r} more than 5 standard errors from {target!r}"]
            return [] if res.n_samples == self.samples else ["wrong sample count"]
        # bound_truncated
        lam, r = x["lam"], x["radius"]
        ref = _best_on_grid(lambda g: tb.truncated_gain_fidelity(lam, r, g))
        if not ref - 1e-9 <= res.value < 1.0:
            return [f"estimate {res.value!r} outside [gain-grid optimum {ref!r}, 1)"]
        if isinstance(res.strategy, tb.Gain):
            closed = tb.truncated_gain_fidelity(lam, r, res.strategy.g)
            if abs(res.value - closed) > 1e-12:
                return [f"estimate {res.value!r} != closed form {closed!r}"]
        return []


def _fingerprint(result) -> str:
    if isinstance(result, tb.QuadResult):
        return f"{result.value!r} {result.error_estimate!r} {result.spec!r}"
    if isinstance(result, tb.OptimizationReport):
        return f"{result.best_value!r} {result.evaluations} {result.best_strategy!r}"
    if isinstance(result, tb.FidelityEstimate):
        return f"{result.mean!r} {result.std_error!r}"
    return f"{result.value!r} {result.strategy!r}"


def bounds_wide(seed: int, nproc: int, lams=(1.0, 0.2, 0.05), disk_radii=(1.0, 3.0, 5.0),
                curve_radii=(1.0, 2.0, 3.0, 5.0),
                grid=tuple((r, e) for r in (2.0, 3.0, 5.0) for e in (0.1, 0.01, 0.001)),
                samples: int = 10**6):
    return BoundsWorkload(seed, nproc, lams, disk_radii, curve_radii, grid, samples)


WORKLOADS = {"certify_large": certify_large, "certify_small": certify_small,
             "bounds_wide": bounds_wide}

# Sizes small enough for the smoke test to run every workload in seconds.
TINY = {
    "certify_large": {"n": 3000, "resamples": 100},
    "certify_small": {"files": 8, "n": 500, "resamples": 100},
    "bounds_wide": {"lams": (1.0,), "disk_radii": (1.0,), "curve_radii": (1.0,),
                    "grid": ((2.0, 0.1),), "samples": 20_000},
}
