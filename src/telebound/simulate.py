"""Stochastic simulation of the classical measure-and-prepare channel and
synthetic dataset generation.

Noise convention
----------------
The heterodyne outcome for an input amplitude beta is alpha = beta + w where
the real and imaginary parts of w are independent zero-mean Gaussians of
variance 1/2 each. That makes the outcome density exactly
(1/pi) exp(-|alpha-beta|^2), the single convention every oracle in this
package depends on; do not change it.

Determinism
-----------
Samples are drawn in fixed-size chunks. Chunk i draws from
core.seeded_stream(seed, i), a Philox generator seeded with
SeedSequence(seed, spawn_key=(i,)). simulate sums the chunk results in
index order, and generate_dataset has each chunk write its own slice of
the output, so a run is bit-identical for fixed (seed, n, prior, strategy)
regardless of the worker count. A run of one chunk starts no threads: it
runs in the caller's thread whatever the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Gain, Prior, RadialCurve, Strategy, UniformDisk, apply_strategy,
                   check_count, check_positive, fidelity_kernel, seeded_stream)
from .data import Dataset

__all__ = [
    "FidelityEstimate",
    "Constant",
    "sample_heterodyne",
    "sample_prior",
    "simulate",
    "generate_dataset",
]

CHUNK_SIZE = 1 << 16

NOISE_STD = math.sqrt(0.5)  # per real component


@dataclass(frozen=True)
class FidelityEstimate:
    """Monte Carlo estimate of an average fidelity."""

    mean: float
    std_error: float
    n_samples: int
    seed: int


def sample_heterodyne(beta, rng: np.random.Generator, size: Optional[int] = None):
    """Draw heterodyne outcomes alpha = beta + w for input amplitude(s) beta.

    With size=None the output matches the shape of beta; a scalar beta with
    an integer size gives that many outcomes.
    """
    shape = np.shape(beta) if size is None else size
    noise = rng.standard_normal(shape) * NOISE_STD + 1j * rng.standard_normal(shape) * NOISE_STD
    out = np.asarray(beta) + noise
    if size is None and np.isscalar(beta):
        return complex(out)
    return out


def sample_prior(prior: Prior, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw input amplitudes from `prior`: two normal components for a
    whole-plane prior, else an inverse-CDF radius (no rejection)."""
    if prior.radius == math.inf:
        s = math.sqrt(1.0 / (2.0 * prior.lam))
        return rng.standard_normal(size) * s + 1j * rng.standard_normal(size) * s
    u = rng.random(size)
    if prior.lam == 0.0:
        r = prior.radius * np.sqrt(u)
    else:
        r = np.sqrt(-np.log1p(-u * prior.mass) / prior.lam)
    theta = 2.0 * np.pi * rng.random(size)
    return r * np.exp(1j * theta)


def _round(prior: Prior, strategy: Strategy, rng: np.random.Generator, count: int):
    """`count` measure-and-prepare rounds on `rng`, as described in simulate;
    returns the inputs beta and their fidelities."""
    beta = sample_prior(prior, rng, count)
    guess = apply_strategy(strategy, sample_heterodyne(beta, rng))
    return beta, fidelity_kernel(guess, beta)


def _map_chunks(fn, n: int, workers: int):
    check_count(workers, "workers", 1)
    tasks = [(i, min(CHUNK_SIZE, n - start)) for i, start in enumerate(range(0, n, CHUNK_SIZE))]
    if workers == 1 or len(tasks) == 1:
        return [fn(i, c) for i, c in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda t: fn(*t), tasks))


def simulate(prior: Prior, strategy: Strategy, n: int, seed: int, workers: int = 1) -> FidelityEstimate:
    """Monte Carlo average fidelity of one measure-and-prepare round.

    Per sample: draw beta from the prior, draw the heterodyne outcome,
    re-prepare the strategy's guess and score exp(-|guess - beta|^2).
    """
    check_count(n, "n", 1)

    def run_chunk(index: int, count: int):
        _, f = _round(prior, strategy, seeded_stream(seed, index), count)
        return float(np.sum(f)), float(np.sum(f * f))

    total = 0.0
    total_sq = 0.0
    for s, s2 in _map_chunks(run_chunk, n, workers):
        total += s
        total_sq += s2
    mean = total / n
    if n > 1:
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        std_error = math.sqrt(var / n)
    else:
        std_error = 0.0
    return FidelityEstimate(mean=mean, std_error=std_error, n_samples=n, seed=seed)


@dataclass(frozen=True)
class Constant:
    """Every record carries the same fidelity value."""

    value: float

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"Constant fidelity must be in [0, 1], got {self.value}")


def generate_dataset(radius: float, n: int, model: Constant | Strategy, seed: int,
                     workers: int = 1) -> Dataset:
    """Synthetic dataset: inputs uniform on the disk of `radius`. A Constant
    model gives every record its value; a strategy gives each record the
    fidelity of one measure-and-prepare round with that strategy, as in
    simulate. Deterministic for fixed (radius, n, model, seed)."""
    check_positive(radius, "radius")
    check_count(n, "n", 1)
    if not isinstance(model, (Constant, Gain, RadialCurve)):
        raise TypeError(f"unsupported fidelity model: {model!r}")
    prior = UniformDisk(radius)
    beta = np.empty(n, dtype=complex)
    fid = np.empty(n)

    def run_chunk(index: int, count: int):
        # Chunks write disjoint slices, so workers share the arrays safely.
        rows = slice(index * CHUNK_SIZE, index * CHUNK_SIZE + count)
        rng = seeded_stream(seed, index)
        if isinstance(model, Constant):
            beta[rows] = sample_prior(prior, rng, count)
            fid[rows] = model.value
        else:
            beta[rows], fid[rows] = _round(prior, model, rng, count)

    _map_chunks(run_chunk, n, workers)
    return Dataset(beta.real, beta.imag, fid)
