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
0.68605 against the bound 0.68267). A tail-corrected threshold is ROADMAP
item 1.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
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

# Bootstrap indices drawn per rng call, from one flat stream of
# resamples * n draws.
_DRAWS_PER_BLOCK = 1 << 16

# OpenBLAS's x86_64 ddot kernel (kernel/x86_64/ddot.c) runs a dot of up to
# 10,000 elements on one thread, so a dot taken in slices of at most this
# many has the same bits for any OpenBLAS thread count.
_DOT_SLICE = 1 << 13


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """np.dot summed over consecutive slices of at most _DOT_SLICE elements,
    in index order; one slice is exactly np.dot."""
    if a.size <= _DOT_SLICE:
        return np.dot(a, b)
    total = np.dot(a[:_DOT_SLICE], b[:_DOT_SLICE])
    for start in range(_DOT_SLICE, a.size, _DOT_SLICE):
        total += np.dot(a[start:start + _DOT_SLICE], b[start:start + _DOT_SLICE])
    return total


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
    return float(_dot(w, f) / np.sum(w)), f, w


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
    record was drawn. The indices of all resamples are one flat stream of
    resamples * n draws, taken 65,536 at a time; that is the same stream in
    the same order as one call per resample, so the statistics do not
    depend on the block size. The caller draws the stream while one helper
    thread counts it, at most two blocks behind. Every dot is _dot, summed
    over slices that OpenBLAS runs on one thread, so the bits do not depend
    on the OpenBLAS thread count. The interval is widened, if
    necessary, to contain the point estimate; identical records give a
    zero-width interval. A lam that sets some record's weight below the
    smallest normal float raises ValueError: a resample's ratio would be
    rounding noise, or 0 / 0.
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
    # One float buffer takes every resample's counts. Adding 1.0 per draw
    # keeps them exact integers, so each statistic is a bincount's.
    counts = np.zeros(n)
    r = filled = 0

    def count(block):
        # Called once per block, in stream order, by one thread at a time.
        nonlocal r, filled
        start = 0
        while start < block.size:
            piece = block[start:start + n - filled]
            np.add.at(counts, piece, 1.0)
            start += piece.size
            filled += piece.size
            if filled == n:
                stats[r] = _dot(counts, wf) / _dot(counts, w)
                counts.fill(0.0)
                r, filled = r + 1, 0

    # The caller draws the stream while the helper counts, at most two
    # blocks behind.
    total = resamples * n
    with ThreadPoolExecutor(max_workers=1) as pool:
        counted = deque()
        for start in range(0, total, _DRAWS_PER_BLOCK):
            block = rng.integers(0, n, min(_DRAWS_PER_BLOCK, total - start))
            counted.append(pool.submit(count, block))
            if len(counted) > 2:
                counted.popleft().result()
        for future in counted:
            future.result()
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
