"""Non-classicality certification of experimental fidelity records.

The procedure: pick the Gaussian inverse width lam so that the Gaussian mass
outside the sampled area is at most epsilon, reweight the records by
exp(-lam |beta|^2), and compare the weighted average fidelity against the
classical bound (1 + lam) / (2 + lam). Certification additionally requires
the bootstrap confidence interval, not just the point estimate, to clear the
bound; the interval rule is this library's addition to the comparison.

No epsilon is known to be sound yet. The weighted average estimates the
truncated-Gaussian ensemble fidelity, which classical strategies can push
above the whole-plane bound. At epsilon = 0.1 a purely classical channel is
falsely certified (see the test suite), and at epsilon = 0.01 so is a
classical gain-0.458 channel on a radius-2 disk with 1e6 records (ci_low
0.68575 against the bound 0.68267). A tail-corrected threshold is ROADMAP
item 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from .bounds import gaussian_bound, select_lambda
from .core import check_count, check_positive, seeded_stream, tail_mass
from .data import Dataset

__all__ = ["Report", "NONCLASSICAL", "INCONCLUSIVE", "weighted_fidelity", "bootstrap_ci", "verdict"]

NONCLASSICAL = "NONCLASSICAL"
INCONCLUSIVE = "INCONCLUSIVE"

# Report fields whose serialized key differs from the field name.
_KEYS = {"lam": "lambda"}

# Bootstrap indices drawn per rng call: small data draws many resamples at
# once, and data of this many records or more draws one resample a call.
_DRAWS_PER_BLOCK = 1 << 16


@dataclass(frozen=True)
class Report:
    """Outcome of one certification run; serializes to/from a flat dict."""

    lam: float
    tail_mass: float
    sample_radius: float
    weighted_fidelity: float
    ci_low: float
    ci_high: float
    classical_bound: float
    verdict: str
    n_records: int
    seed: int

    def __post_init__(self):
        if self.verdict not in (NONCLASSICAL, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if not (self.ci_low <= self.weighted_fidelity <= self.ci_high):
            raise ValueError("confidence interval must contain the point estimate")

    def to_dict(self) -> dict:
        return {_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        return cls(**{f.name: d[_KEYS.get(f.name, f.name)] for f in fields(cls)})


def _weighted_mean(records: Dataset, lam: float, minimum: int, caller: str):
    """(point estimate, fidelities, weights) of the Gaussian-weighted mean.

    The weights are None when every fidelity is equal: the mean is then that
    value whatever the weights.
    """
    check_positive(lam, "lam", zero_ok=True)
    if len(records) < minimum:
        raise ValueError(f"{caller} needs at least {minimum} record(s), got {len(records)}")
    f = records.fidelity
    if np.all(f == f[0]):
        return float(f[0]), f, None
    s = records.beta_re**2 + records.beta_im**2
    # Shift the exponent so large lam cannot underflow every weight; the
    # self-normalized ratio is unchanged.
    w = np.exp(-lam * (s - np.min(s)))
    return float(np.dot(w, f) / np.sum(w)), f, w


def weighted_fidelity(records: Dataset, lam: float) -> float:
    """Self-normalized Gaussian-weighted mean fidelity.

    sum_i exp(-lam |beta_i|^2) F_i / sum_i exp(-lam |beta_i|^2). Over
    area-uniform samples this estimates the truncated-Gaussian ensemble
    average; lam = 0 is the plain mean.
    """
    return _weighted_mean(records, lam, 1, "weighted_fidelity")[0]


def bootstrap_ci(records: Dataset, lam: float, resamples: int = 1000, seed: int = 0,
                 level: float = 0.95) -> Tuple[float, float]:
    """Percentile bootstrap interval for weighted_fidelity.

    Deterministic for a fixed seed: resample r draws n record indices from
    stream 0 of the seed, and its statistic is computed from how often each
    record was drawn. The indices of several resamples are drawn with one
    call, a block of about 65,536 draws; that is the same stream in the same
    order as one call per resample, so the statistics do not depend on the
    block size. The interval is widened, if necessary, to contain the
    point estimate; identical records give a zero-width interval. A lam
    that sets some record's weight below the smallest normal float raises
    ValueError: a resample's ratio would be rounding noise, or 0 / 0.
    """
    check_count(resamples, "resamples", 100)
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level}")
    rng = seeded_stream(seed, 0)
    point, f, w = _weighted_mean(records, lam, 2, "bootstrap_ci")
    if w is None:
        return point, point
    if np.min(w) < np.finfo(float).tiny:
        raise ValueError(f"lam = {lam} leaves the outermost record a weight of "
                         f"{float(np.min(w))}, below the smallest normal float")
    n = f.size
    wf = w * f
    stats = np.empty(resamples)
    # One float buffer takes every resample's counts, and each block's draws
    # are freed before the next are drawn. Large data draws one resample a
    # block, so these n-length arrays are what sets the peak memory and how
    # many fresh pages each resample faults in.
    counts = np.empty(n)
    block = max(1, _DRAWS_PER_BLOCK // n)
    for start in range(0, resamples, block):
        draws = rng.integers(0, n, (min(block, resamples - start), n))
        for r, row in enumerate(draws, start):
            np.copyto(counts, np.bincount(row, minlength=n))
            stats[r] = np.dot(counts, wf) / np.dot(counts, w)
        del draws
    tail = 0.5 * (1.0 - level)
    lo, hi = np.quantile(stats, [tail, 1.0 - tail])
    return min(float(lo), point), max(float(hi), point)


def verdict(records: Dataset, epsilon: float, resamples: int = 1000, seed: int = 0,
            radius: Optional[float] = None, level: float = 0.95) -> Report:
    """Run the certification procedure on a dataset.

    The analysis radius defaults to the largest sampled |beta|; an explicit
    `radius` asserts the experimental area instead and must contain all
    records. lam is then the smallest inverse width whose Gaussian tail
    outside that radius is epsilon, and the verdict is NONCLASSICAL exactly
    when the CI lower bound clears (1 + lam) / (2 + lam). The bootstrap
    needs at least 2 records.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if len(records) < 2:
        raise ValueError(f"verdict needs at least 2 records, got {len(records)}")
    data_radius = records.radius
    if radius is not None:
        check_positive(radius, "radius")
        if data_radius > radius * (1.0 + 1e-12):
            raise ValueError(
                f"records reach |beta| = {data_radius:.6g}, outside the asserted radius {radius:.6g}")
        used_radius = radius
    else:
        if data_radius <= 0.0:
            raise ValueError("all records sit at the origin; provide an explicit radius")
        used_radius = data_radius

    lam = select_lambda(used_radius, epsilon)
    tail = tail_mass(lam, used_radius)
    bound = gaussian_bound(lam)
    wf = weighted_fidelity(records, lam)
    ci_low, ci_high = bootstrap_ci(records, lam, resamples=resamples, seed=seed, level=level)
    return Report(lam=lam, tail_mass=tail, sample_radius=used_radius, weighted_fidelity=wf,
                  ci_low=ci_low, ci_high=ci_high, classical_bound=bound,
                  verdict=NONCLASSICAL if ci_low > bound else INCONCLUSIVE,
                  n_records=len(records), seed=seed)
