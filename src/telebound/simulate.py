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
on the positive real axis: alpha = (r + w_re) + i w_im, then
exp(-|guess(alpha) - r|^2). generate_dataset runs the same round and turns
each record's input by an angle drawn independently of the noise, which
gives the records the joint law of (beta, w).

Determinism
-----------
Samples are drawn in fixed-size chunks. Chunk i of count rounds draws from
core.seeded_stream(seed, i), a Philox generator seeded with
SeedSequence(seed, spawn_key=(i,)), in the order input radius (count
uniforms from draw 0), input angle (count uniforms from draw count), then
the real and imaginary heterodyne noise (from draw 2 count). simulate never
reads the angle segment. A chunk is scored in blocks of BLOCK_SIZE rounds,
and each segment of its stream is read through its own cursor: a copy of
stream i moved to the segment's start, past one 64-bit draw per uniform
double. A normal draw takes a varying number of 64-bit draws, so a segment
that follows normals cannot be reached that way: the real noise is drawn
whole into the chunk's fidelity buffer, which each block then overwrites
with its fidelities, and the imaginary noise, which follows it, is drawn
one block at a time. Each worker's buffers, one float chunk, one complex
block and one block set, are allocated by the calling thread and serve
every chunk the worker takes; generate_dataset's chunks write their inputs
and fidelities straight into their own slices of the output, which serve
as the float chunk and the complex block until they are written.
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
# Rounds scored at a time. A block set (one complex and two float buffers)
# of 16K rounds takes 512 KiB, and with simulate's complex scratch block
# 768 KiB, which fits a core's L2 cache. Each block pays the fixed cost of
# its numpy calls, 12 for a gain and more for a curve's guess factor, which
# workers pay one at a time under the GIL: with two workers, blocks of 8K
# slowed simulate by 5-8% when a block made 18 calls.
BLOCK_SIZE = 1 << 14
# The (length, dtype) of _round's block buffers, as _map_chunks takes them.
_BLOCK_SET = ((BLOCK_SIZE, complex), (BLOCK_SIZE, float), (BLOCK_SIZE, float))

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
    if prior.radius == math.inf and math.sqrt(1.0 / (2.0 * prior.lam)) == math.inf:
        raise ValueError(f"a whole-plane prior with lam = {prior.lam!r} cannot be sampled: "
                         "its input scale sqrt(1 / (2 lam)) overflows")
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


def _cursor(seed: int, index: int, offset: int) -> np.random.Generator:
    """Stream `index` of seed, moved past its first `offset` 64-bit draws,
    as many as that many uniform doubles take: Philox makes four per
    counter step."""
    rng = seeded_stream(seed, index)
    rng.bit_generator.advance(offset // 4)
    rng.bit_generator.random_raw(offset % 4)
    return rng


def _blocks(count: int):
    """The slices of a chunk of `count` rounds, BLOCK_SIZE at a time."""
    return (slice(s, min(s + BLOCK_SIZE, count)) for s in range(0, count, BLOCK_SIZE))


def _round(prior: Prior, strategy: Strategy, seed: int, index: int, beta, fid, block,
           turn: bool = False):
    """Chunk `index` of seed's measure-and-prepare rounds, one per element
    of the float buffer fid, as described in simulate: fill fid with their
    fidelities, each round scored with its input radius on the positive
    real axis. beta is a complex buffer, as long as fid or BLOCK_SIZE, that
    each block may overwrite; with turn it is as long as fid and ends up
    holding the inputs, each radius turned by its angle. block holds a
    complex and two float buffers of up to BLOCK_SIZE elements."""
    count = len(fid)
    alpha, radii, im = block
    radius, noise = seeded_stream(seed, index), _cursor(seed, index, 2 * count)
    angle = _cursor(seed, index, count) if turn else None
    # The real noise, drawn whole; each block overwrites its part with fidelities.
    np.multiply(noise.standard_normal(out=fid), NOISE_STD, out=fid)
    for rows in _blocks(count):
        m = rows.stop - rows.start
        a, f, b = alpha[:m], fid[rows], beta[rows] if turn else beta[:m]
        r = _radii(prior, radius, radii[:m])
        np.add(f, r, out=a.real)
        np.multiply(noise.standard_normal(out=im[:m]), NOISE_STD, out=a.imag)
        # A guess far from its input overflows, or its |guess - r|^2 does;
        # exp(-inf) = 0 is exact. The noise buffers f and im are spent, and
        # b is not yet written, so the guess factor may use them as scratch.
        with np.errstate(over="ignore"):
            factor = strategy.guess_factor(a, f, im[:m], *b.view(float).reshape(2, m))
            np.multiply(a, factor, out=a)
            np.subtract(a.real, r, out=a.real)
            overlap(a, out=f)
        if turn:
            _turn(r, angle, b, im[:m])


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
    exp(-|guess - r|^2). By rotation symmetry that is the score of the
    round at input r e^{it} for every angle t (see the module docstring).
    """
    check_count(n, "n", 1)

    def run_chunk(index: int, buffers):
        f, beta, *block = buffers
        _round(prior, strategy, seed, index, beta, f, block)
        return float(np.sum(f)), float(np.sum(np.square(f, out=f)))

    total = 0.0
    total_sq = 0.0
    for s, s2 in _map_chunks(run_chunk, n, workers,
                             ((CHUNK_SIZE, float), (BLOCK_SIZE, complex), *_BLOCK_SET)):
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
        if isinstance(model, Constant):
            radius, angle = seeded_stream(seed, index), _cursor(seed, index, count)
            for part in _blocks(count):
                m = part.stop - part.start
                _turn(_radii(prior, radius, block[1][:m]), angle, beta[rows][part], block[2][:m])
            fid[rows] = model.value
        else:
            _round(prior, model, seed, index, beta[rows], fid[rows], block, turn=True)

    _map_chunks(run_chunk, n, workers, _BLOCK_SET)
    return Dataset(beta.real, beta.imag, fid)
