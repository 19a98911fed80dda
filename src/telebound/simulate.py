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
SeedSequence(seed, spawn_key=(i,)), in the order input radius, input angle
(or the two normal components of a whole-plane input), then the real and
imaginary heterodyne noise. Each worker allocates one set of chunk-sized
buffers for the whole call and runs every chunk it takes in them, in place;
generate_dataset's chunks write their inputs and fidelities straight into
their own slices of the output. Results are kept in chunk order and
simulate sums them in that order, so a run is bit-identical for fixed
(seed, n, prior, strategy) regardless of the worker count, and bit-identical
to drawing and scoring each step into a new array. A run of one chunk
starts no threads: it runs in the caller's thread whatever the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, get_args

import numpy as np

from .core import (Prior, Strategy, UniformDisk, check_count, check_positive, overlap,
                   seeded_stream)
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
    out = _draw_heterodyne(beta, rng, np.empty(shape, complex), np.empty(shape), np.empty(shape))
    if size is None and np.isscalar(beta):
        return complex(out)
    return out


def sample_prior(prior: Prior, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw input amplitudes from `prior`: two normal components for a
    whole-plane prior, else an inverse-CDF radius (no rejection)."""
    return _draw_prior(prior, rng, np.empty(size, complex), np.empty(size), np.empty(size))


def _complex_normal(rng: np.random.Generator, std: float, out, re, im):
    """Fill out with std * (x + iy), x and y standard normals drawn in that
    order into the float buffers re and im, and return it."""
    np.multiply(rng.standard_normal(out=re), std, out=re)
    np.multiply(1j, rng.standard_normal(out=im), out=out)
    np.multiply(out, std, out=out)
    return np.add(re, out, out=out)


def _draw_prior(prior: Prior, rng: np.random.Generator, beta, re, im):
    """sample_prior into beta, with the float buffers re and im as scratch."""
    if prior.radius == math.inf:
        return _complex_normal(rng, math.sqrt(1.0 / (2.0 * prior.lam)), beta, re, im)
    r = rng.random(out=re)
    if prior.lam == 0.0:
        np.multiply(prior.radius, np.sqrt(r, out=r), out=r)
    else:
        # sqrt(-log1p(-u mass) / lam); a negated factor gives the same bits.
        np.log1p(np.multiply(r, -prior.mass, out=r), out=r)
        np.sqrt(np.divide(r, -prior.lam, out=r), out=r)
    theta = np.multiply(2.0 * np.pi, rng.random(out=im), out=im)
    np.exp(np.multiply(1j, theta, out=beta), out=beta)
    return np.multiply(r, beta, out=beta)


def _draw_heterodyne(beta, rng: np.random.Generator, alpha, re, im):
    """sample_heterodyne into alpha, with the float buffers re and im as
    scratch."""
    return np.add(beta, _complex_normal(rng, NOISE_STD, alpha, re, im), out=alpha)


def _round(prior: Prior, strategy: Strategy, rng: np.random.Generator, beta, fid, work):
    """One measure-and-prepare round per element of beta, on `rng`, as
    described in simulate: fill beta with the inputs and fid with their
    fidelities. work holds a complex and two float buffers as long as beta;
    fid may be the second of them."""
    alpha, re, im = work
    _draw_prior(prior, rng, beta, re, im)
    _draw_heterodyne(beta, rng, alpha, re, im)
    np.multiply(alpha, strategy.guess_factor(alpha, re), out=alpha)
    # A guess far from its input overflows |guess - beta|^2; exp(-inf) = 0 is exact.
    with np.errstate(over="ignore"):
        overlap(np.subtract(alpha, beta, out=alpha), out=fid)


def _map_chunks(fn, n: int, workers: int, dtypes):
    """[fn(i, buffers) for each chunk i of the n samples], in chunk order.
    buffers holds one array of each of `dtypes`, as long as the chunk. Each
    worker allocates one set for the whole call and takes every workers-th
    chunk, so no chunk allocates its own."""
    check_count(workers, "workers", 1)
    starts = range(0, n, CHUNK_SIZE)
    workers = min(workers, len(starts))
    results = [None] * len(starts)

    def work(first: int):
        own = [np.empty(min(CHUNK_SIZE, n), dtype) for dtype in dtypes]
        for i in range(first, len(starts), workers):
            count = min(CHUNK_SIZE, n - starts[i])
            results[i] = fn(i, [b[:count] for b in own])

    if workers == 1:
        work(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(work, w) for w in range(workers)]:
                future.result()
    return results


def simulate(prior: Prior, strategy: Strategy, n: int, seed: int, workers: int = 1) -> FidelityEstimate:
    """Monte Carlo average fidelity of one measure-and-prepare round.

    Per sample: draw beta from the prior, draw the heterodyne outcome,
    re-prepare the strategy's guess and score exp(-|guess - beta|^2).
    """
    check_count(n, "n", 1)

    def run_chunk(index: int, buffers):
        beta, alpha, f, sq = buffers
        _round(prior, strategy, seeded_stream(seed, index), beta, f, (alpha, f, sq))
        return float(np.sum(f)), float(np.sum(np.square(f, out=sq)))

    total = 0.0
    total_sq = 0.0
    for s, s2 in _map_chunks(run_chunk, n, workers, (complex, complex, float, float)):
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
    if not isinstance(model, (Constant, *get_args(Strategy))):
        raise TypeError(f"unsupported fidelity model: {model!r}")
    prior = UniformDisk(radius)
    beta = np.empty(n, dtype=complex)
    fid = np.empty(n)

    def run_chunk(index: int, work):
        # Chunks write disjoint slices, so workers share the arrays safely.
        rows = slice(index * CHUNK_SIZE, index * CHUNK_SIZE + len(work[0]))
        rng = seeded_stream(seed, index)
        if isinstance(model, Constant):
            _draw_prior(prior, rng, beta[rows], *work[1:])
            fid[rows] = model.value
        else:
            _round(prior, model, rng, beta[rows], fid[rows], work)

    _map_chunks(run_chunk, n, workers, (complex, float, float))
    return Dataset(beta.real, beta.imag, fid)
