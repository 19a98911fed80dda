"""Stochastic simulation of the classical measure-and-prepare channel and
synthetic dataset generation.

Noise convention
----------------
The heterodyne outcome for an input amplitude beta is alpha = beta + w where
the real and imaginary parts of w are independent zero-mean Gaussians of
variance 1/2 each. That makes the outcome density exactly
(1/pi) exp(-|alpha-beta|^2), the single convention every oracle in this
package depends on; do not change it.

Rotation symmetry
-----------------
Every strategy keeps the outcome's direction and sets its modulus from
|alpha| alone, and the heterodyne noise is isotropic, so a round at input
r e^{it} with noise e^{it} w scores exactly what a round at input r with
noise w scores. simulate therefore draws only each round's input radius r,
through the prior's inverse radial CDF, and scores the round with its input
on the positive real axis: alpha = (r + w_re) + i w_im, then exp(-|d|^2)
for d = guess(alpha) - r = c alpha - r, c the strategy's guess factor. d is
formed as (c - 1)(r + w_re) + w_re + i c w_im: once r passes about
1e16 |w_re|, r + w_re rounds to r and c alpha - r would lose w_re, while
here that rounding is scaled by c - 1 and w_re is kept whole. w_re is
finite, so a guess that overflows makes d infinite, never inf - inf.
generate_dataset draws every record's input, radius and angle, in one loop
whatever its model, and hands a strategy's round the radii it drew; the
angle is independent of the noise, which gives the records the joint law
of (beta, w).

Determinism
-----------
Samples are drawn in fixed-size chunks. Chunk i of count rounds reads
three streams, each front to back: core.seeded_stream(seed, i) gives count
input radii, then count input angles, and seeded_stream(seed, i, 1) and
seeded_stream(seed, i, 2) give the real and the imaginary heterodyne
noise. Scoring never reads the angles. The radii are drawn whole into the
chunk's float buffer, and the chunk is then scored in blocks of BLOCK_SIZE
rounds, each overwriting its radii with their fidelities. Each worker's
buffers, one block set (a complex and four float blocks) and, for
simulate, one float chunk, are allocated by the calling thread and serve
every chunk the worker takes; generate_dataset's chunks write their inputs
and fidelities straight into their own slices of the output, the fidelity
slice serving as the float chunk.
Results are kept in chunk order and simulate sums them in that order, so a
run is bit-identical for fixed (seed, n, prior, strategy) regardless of the
worker count, and bit-identical to drawing and scoring each chunk's steps
whole, each into a new array. A run of one chunk starts no threads: it runs
in the caller's thread whatever the worker count.
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
# Rounds scored at a time. A block set (one complex and four float buffers)
# of 16K rounds takes 768 KiB, which fits a core's L2 cache. Each block
# pays the fixed cost of its numpy calls, 13 for a gain and more for a
# curve's guess factor, which workers pay one at a time under the GIL: with
# two workers, blocks of 8K slowed simulate by 5-8% when a block made 18
# calls.
BLOCK_SIZE = 1 << 14
# The (length, dtype) of _round's block buffers, as _map_chunks takes them.
_BLOCK_SET = ((BLOCK_SIZE, complex), *[(BLOCK_SIZE, float)] * 4)

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
    out, scratch = np.empty(shape, complex), np.empty(shape)
    np.multiply(rng.standard_normal(out=scratch), NOISE_STD, out=out.real)
    np.multiply(rng.standard_normal(out=scratch), NOISE_STD, out=out.imag)
    out = np.add(beta, out, out=out)
    if size is None and np.isscalar(beta):
        return complex(out)
    return out


def sample_prior(prior: Prior, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw input amplitudes from `prior`: `size` inverse-CDF radii (no
    rejection), then as many uniform angles, both from rng."""
    radii = _radii(prior, rng, np.empty(size))
    return _turn(radii, rng, np.empty(size, complex), np.empty(size))


def _radii(prior: Prior, stream, out):
    """Fill the float buffer out with input radii of `prior`, one uniform u
    of `stream` each, through the inverse radial CDF: R sqrt(u) at lam = 0,
    else sqrt(-log1p(-u mass)) / sqrt(lam), with mass = 1.0 for a
    whole-plane prior. Taking the roots apart keeps every radius finite."""
    r = stream.random(out=out)
    if prior.lam == 0.0:
        return np.multiply(prior.radius, np.sqrt(r, out=r), out=r)
    np.log1p(np.multiply(r, -prior.mass, out=r), out=r)
    return np.divide(np.sqrt(np.negative(r, out=r), out=r), math.sqrt(prior.lam), out=r)


def _turn(radii, stream, beta, scratch):
    """Fill the complex buffer beta with radii * exp(i theta), theta = 2 pi u
    for one uniform u of `stream` each, drawn through the float buffer
    scratch, and return it."""
    # i theta written as its parts: the bits of 1j * theta, without the
    # complex cast of theta. r * beta stays one multiply, since writing its
    # parts apart can flip the sign of a zero at r = 0.
    beta.real = 0.0
    np.multiply(2.0 * np.pi, stream.random(out=scratch), out=beta.imag)
    np.exp(beta, out=beta)
    return np.multiply(radii, beta, out=beta)


def _blocks(count: int):
    """The slices of a chunk of `count` rounds, BLOCK_SIZE at a time."""
    return (slice(s, min(s + BLOCK_SIZE, count)) for s in range(0, count, BLOCK_SIZE))


def _round(strategy: Strategy, seed: int, index: int, fid, block):
    """Chunk `index` of seed's measure-and-prepare rounds, one per input
    radius in the float buffer fid, as described in simulate: overwrite fid
    with their fidelities, each round scored with its input radius on the
    positive real axis through the difference d of the module docstring.
    block holds a complex and four float buffers of up to BLOCK_SIZE
    elements."""
    alpha, *floats = block
    real, imag = seeded_stream(seed, index, 1), seeded_stream(seed, index, 2)
    for rows in _blocks(len(fid)):
        m = rows.stop - rows.start
        a, f, (w_re, w_im, *scratch) = alpha[:m], fid[rows], (b[:m] for b in floats)
        np.multiply(real.standard_normal(out=w_re), NOISE_STD, out=w_re)
        np.add(f, w_re, out=a.real)
        np.multiply(imag.standard_normal(out=w_im), NOISE_STD, out=a.imag)
        # A guess far from its input overflows, or its |guess - r|^2 does;
        # exp(-inf) = 0 is exact. The radii and the imaginary noise, now in
        # a, are spent, so the guess factor may use their buffers.
        with np.errstate(over="ignore"):
            factor = strategy.guess_factor(a, f, w_im, *scratch)
            # d = (c - 1)(r + w_re) + w_re + i c w_im. An array factor c
            # is f's buffer, so c - 1 is taken in place.
            np.multiply(a.imag, factor, out=a.imag)
            factor -= 1.0
            np.multiply(a.real, factor, out=a.real)
            np.add(a.real, w_re, out=a.real)
            overlap(a, out=f)


def _map_chunks(fn, n: int, workers: int, buffers):
    """[fn(i, arrays) for each chunk i of the n samples], in chunk order.
    buffers lists (length, dtype) pairs; arrays holds one array of each,
    as long as the chunk or `length`, whichever is shorter. Each worker
    takes every workers-th chunk and runs them all in one set of arrays,
    which the calling thread allocates, so no chunk and no worker thread
    allocates its own."""
    check_count(workers, "workers", 1)
    starts = range(0, n, CHUNK_SIZE)
    workers = min(workers, len(starts))
    results = [None] * len(starts)
    sets = [[np.empty(min(length, n), dtype) for length, dtype in buffers]
            for _ in range(workers)]

    def work(first: int):
        for i in range(first, len(starts), workers):
            count = min(CHUNK_SIZE, n - starts[i])
            results[i] = fn(i, [b[:count] for b in sets[first]])

    if workers == 1:
        work(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(work, w) for w in range(workers)]:
                future.result()
    return results


def simulate(prior: Prior, strategy: Strategy, n: int, seed: int, workers: int = 1) -> FidelityEstimate:
    """Monte Carlo average fidelity of one measure-and-prepare round.

    Per sample: draw the input radius r from the prior, draw the heterodyne
    outcome alpha = r + w, re-prepare the strategy's guess and score
    exp(-|guess - r|^2), the difference formed so that no radius, however
    large, rounds the noise away. By rotation symmetry that is the score of
    the round at input r e^{it} for every angle t (see the module
    docstring).
    """
    check_count(n, "n", 1)

    def run_chunk(index: int, buffers):
        f, *block = buffers
        _round(strategy, seed, index, _radii(prior, seeded_stream(seed, index), f), block)
        return float(np.sum(f)), float(np.sum(np.square(f, out=f)))

    total = 0.0
    total_sq = 0.0
    for s, s2 in _map_chunks(run_chunk, n, workers, ((CHUNK_SIZE, float), *_BLOCK_SET)):
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

    def run_chunk(index: int, block):
        # Chunks write disjoint slices, so workers share the arrays safely.
        count = min(CHUNK_SIZE, n - index * CHUNK_SIZE)
        rows = slice(index * CHUNK_SIZE, index * CHUNK_SIZE + count)
        inputs = seeded_stream(seed, index)
        radii = _radii(prior, inputs, fid[rows])
        for part in _blocks(count):
            _turn(radii[part], inputs, beta[rows][part], block[1][:part.stop - part.start])
        if isinstance(model, Constant):
            fid[rows] = model.value
        else:
            _round(model, seed, index, radii, block)

    _map_chunks(run_chunk, n, workers, _BLOCK_SET)
    return Dataset(beta.real, beta.imag, fid)
