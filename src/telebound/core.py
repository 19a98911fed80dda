"""Shared vocabulary: coherent amplitudes, the overlap kernel, input priors,
and classical guess strategies.

Amplitudes are plain Python complex numbers (dimensionless quadrature units).
The overlap fidelity between two coherent states with amplitudes a and b is
exp(-|a-b|^2), which is the single convention everything else in this package
is pinned to; fidelity_kernel evaluates it, elementwise, for every caller.

Every input prior is one family, TruncatedGaussian(lam, radius): a Gaussian
of inverse width lam restricted to the disk |beta| <= radius. The uniform
disk is lam = 0 and the whole-plane Gaussian is radius = inf; UniformDisk
and GaussianIso construct those two cases. A prior's `mass` is the share of
(lam/pi) exp(-lam |beta|^2) inside its disk, and tail_mass(lam, radius)
the share beyond it; the sampler, the quadrature cuts and
bounds.gain_fidelity read these.
prior.support_radius(tail), the radius holding all but `tail` of the
prior's own mass, is the one cut that the quadrature and the optimizer read.

A strategy applies itself: guess_factor(alpha, out, *scratch) is the real
factor that takes outcomes to their guesses and kinks the radii where the
guess modulus bends, so no other module asks whether it holds a Gain or a
RadialCurve.

seeded_stream(seed, i), a Philox generator on SeedSequence(seed,
spawn_key=(i,)), is the one random stream: simulation chunk i draws stream i
and the bootstrap draws stream 0. A simulation chunk of count rounds lays
its stream out as count input radii from draw 0, count input angles from
draw count and the heterodyne noise from draw 2 count, and reads each
segment through its own copy of stream i, moved to the segment's start:
Philox makes four 64-bit draws per counter step and a uniform double takes
one, so advance(k // 4) and then k % 4 raw draws pass k doubles.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

__all__ = [
    "GaussianIso",
    "UniformDisk",
    "TruncatedGaussian",
    "Prior",
    "Gain",
    "RadialCurve",
    "Strategy",
    "fidelity_kernel",
    "tail_mass",
    "apply_strategy",
]

def check_positive(value: float, name: str, zero_ok: bool = False) -> None:
    """Raise ValueError, naming `name` and `value`, unless value is finite
    and > 0 (>= 0 with zero_ok)."""
    if not (math.isfinite(value) and (value > 0.0 or (zero_ok and value == 0.0))):
        raise ValueError(f"{name} must be finite and {'>= 0' if zero_ok else '> 0'}, got {value}")


def check_count(value: int, name: str, minimum: int) -> None:
    """Raise ValueError, naming `name` and `value`, unless value is an
    integer (operator.index accepts it) and >= minimum."""
    try:
        ok = operator.index(value) >= minimum
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def seeded_stream(seed: int, index: int) -> np.random.Generator:
    """Random stream `index` of `seed`: a Philox generator on
    SeedSequence(seed, spawn_key=(index,))."""
    check_count(seed, "seed", 0)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))


def _require_finite(value, name: str):
    bad = ~np.isfinite(value)
    if bad.any():
        raise ValueError(f"{name} must be finite, got {np.asarray(value)[bad][0].item()!r}")
    return value


def fidelity_kernel(alpha, beta):
    """Overlap fidelity exp(-|alpha - beta|^2) between two coherent states.

    Elementwise over broadcastable amplitudes: scalars give a float, arrays
    an array. Symmetric in its arguments, 1 exactly when they coincide, and
    strictly positive for any finite pair.
    """
    a, b = _require_finite(alpha, "alpha"), _require_finite(beta, "beta")
    # Amplitudes too far apart overflow the distance; exp(-inf) = 0 is exact.
    with np.errstate(over="ignore"):
        f = overlap(np.subtract(a, b))
    return float(f) if f.ndim == 0 else f


def overlap(d, out=None):
    """exp(-|d|^2) for amplitude differences d, written into `out` when
    given: fidelity_kernel's formula, which the simulator also runs in
    place on its chunk buffers. Arguments are not checked, and a |d| above
    about 1.3e154 overflows |d|^2: callers that admit one run this under
    np.errstate(over="ignore")."""
    s = np.square(np.abs(d, out=out), out=out)
    return np.exp(np.negative(s, out=out), out=out)


@dataclass(frozen=True)
class TruncatedGaussian:
    """Gaussian ensemble restricted to |beta| <= radius and renormalized.

    Density (lam/pi) exp(-lam |beta|^2) / (1 - exp(-lam radius^2)) inside
    the disk; lam is the inverse-width parameter, small lam means a wide
    ensemble. lam = 0 is the uniform disk, and radius = inf (with lam > 0)
    the whole-plane Gaussian.
    """

    lam: float
    radius: float

    def __post_init__(self):
        check_positive(self.lam, "lam", zero_ok=True)
        if self.radius == math.inf:
            if self.lam == 0.0:
                raise ValueError(f"a whole-plane prior (radius = inf) needs lam > 0, got {self.lam}")
            return
        check_positive(self.radius, "radius")
        try:
            # The density divides by this; below the smallest normal float
            # the quotient overflows.
            norm = self.mass if self.lam > 0.0 else self.radius**2
        except OverflowError:
            raise ValueError(f"radius**2 overflows, got radius {self.radius}") from None
        if norm < sys.float_info.min:
            what = "disk mass" if self.lam > 0.0 else "radius**2"
            raise ValueError(f"lam = {self.lam} and radius = {self.radius} leave a {what} of "
                             f"{norm}, below the smallest normal float")

    @property
    def mass(self) -> float:
        """Mass of (lam/pi) exp(-lam |beta|^2) inside the disk,
        1 - exp(-lam radius^2); expm1 keeps the lam -> 0 limit exact, and it
        is exactly 1.0 at radius = inf."""
        return -math.expm1(-self.lam * self.radius**2)

    def density(self, beta: complex) -> float:
        """Density at the amplitude `beta`: radial_density(|beta|)."""
        return float(self.radial_density(abs(_require_finite(beta, "beta"))))

    def radial_density(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        # A radius too large overflows lam r^2; exp(-inf) = 0 is exact.
        with np.errstate(over="ignore"):
            inside = (1.0 / (np.pi * self.radius**2) if self.lam == 0.0
                      else (self.lam / np.pi) * np.exp(-self.lam * r * r) / self.mass)
        return np.where(r <= self.radius, inside, 0.0)

    def support_radius(self, tail: float) -> float:
        """Radius of the disk holding all but `tail` of the probability mass:
        the mass beyond b is exp(-lam b^2) / mass, and the disk caps b."""
        if self.lam == 0.0:
            return self.radius
        return min(self.radius, math.sqrt((math.log(1.0 / tail) - math.log(self.mass)) / self.lam))


@dataclass(frozen=True)
class GaussianIso(TruncatedGaussian):
    """Isotropic Gaussian ensemble over the whole plane: TruncatedGaussian
    with radius = inf, density (lam/pi) exp(-lam |beta|^2)."""

    radius: float = field(default=math.inf, init=False, repr=False)


@dataclass(frozen=True)
class UniformDisk(TruncatedGaussian):
    """Uniform ensemble over the origin-centered disk |beta| <= radius:
    TruncatedGaussian with lam = 0."""

    lam: float = field(default=0.0, init=False, repr=False)
    radius: float


# Every supported prior is a TruncatedGaussian; GaussianIso and UniformDisk
# only fix one of its fields.
Prior = TruncatedGaussian


def tail_mass(lam: float, radius: float) -> float:
    """Probability mass of GaussianIso(lam) outside the disk of `radius`.

    Closed form exp(-lam radius^2), from the polar integral of the density.
    """
    check_positive(lam, "lam")
    check_positive(radius, "radius")
    return math.exp(-lam * radius**2)


@dataclass(frozen=True)
class Gain:
    """Proportional guess: measurement outcome alpha is mapped to g * alpha."""

    g: float

    # The guess modulus is linear in |alpha|: nothing for a radial rule to split at.
    kinks = ()

    def __post_init__(self):
        check_positive(self.g, "g", zero_ok=True)

    def guess_radius(self, r: np.ndarray) -> np.ndarray:
        return self.g * np.asarray(r, dtype=float)

    def guess_factor(self, alpha, out, *scratch):
        """The real factor taking outcomes alpha to their guesses: g. The
        float buffers out and scratch are not used."""
        return self.g


def check_curve_node(node: tuple, previous: Optional[tuple] = None) -> None:
    """Raise ValueError naming the first RadialCurve rule that node, a
    (radius, guess radius) pair of floats, breaks after previous, the node
    before it (None for the first). No rule reaches further back, so a
    reader can check each node as it reads it."""
    r, rho = node
    if previous is None and r != 0.0:
        raise ValueError("RadialCurve nodes must start at radius 0")
    if not (math.isfinite(r) and math.isfinite(rho)):
        raise ValueError("RadialCurve nodes must be finite")
    if previous is not None and r <= previous[0]:
        raise ValueError("RadialCurve node radii must be strictly increasing")
    if rho < 0.0:
        raise ValueError("RadialCurve guess radii must be >= 0")
    # np.interp's slope, in its operation order; a quotient that overflows is inf.
    if previous is not None and not math.isfinite((rho - previous[1]) / (r - previous[0])):
        raise ValueError("RadialCurve node slopes must be finite")


@dataclass(frozen=True)
class RadialCurve:
    """Tabulated radial guess profile.

    nodes are (outcome radius, guess radius) pairs, radii strictly rising
    from 0, that keep check_curve_node's rules. Between nodes the guess
    radius is linear in the outcome radius; beyond the last node the last
    node's ratio is kept, so far out the curve behaves like a plain gain.

    guess_radius finds each radius's segment in a table of evenly spaced
    buckets over [0, last node radius], built once here. Each bucket names
    the segment at its left edge; a radius then moves past the nodes that
    share its bucket by a branchless binary search, whose probes the
    constructor lists (one probe when no two nodes share a bucket).
    """

    nodes: tuple

    def __post_init__(self):
        # A guess radius of -0.0 becomes 0.0, so that the lookup's
        # slope * 0 + rho gives a node's own guess at its radius.
        nodes = tuple((float(r), float(rho) + 0.0) for r, rho in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 2:
            raise ValueError("RadialCurve needs at least 2 nodes")
        for previous, node in zip((None,) + nodes, nodes):
            check_curve_node(node, previous)
        radii, guesses = map(np.array, zip(*nodes))
        # np.interp's slopes, in its operation order, as check_curve_node's.
        slopes = np.diff(guesses) / np.diff(radii)
        last = nodes[-1][0]
        # Four buckets per segment; a scale that overflows (a last radius
        # below about 1e-308) is capped, which only puts nodes in one bucket.
        scale = min(4.0 * (len(nodes) - 1) / last, sys.float_info.max)
        # Bucket of a radius r: int(min(r, last) * scale), as guess_radius
        # computes it, so a node's bucket is its radius's. Each bucket names
        # the last node in an earlier bucket, which lies below any radius
        # in this one.
        bucket = (radii * scale).astype(np.intp)
        table = np.maximum(np.searchsorted(bucket, np.arange(bucket[-1] + 1)) - 1, 0)
        # A radius lies at most `shared` nodes past its bucket's segment, so
        # a binary search over shared + 1 candidates finds its own.
        shared = int(np.bincount(bucket[1:]).max())
        halves, size = [], shared + 1
        while size > 1:
            halves.append(size // 2)
            size -= size // 2
        padded = np.concatenate((radii, np.full(max(halves), np.inf)))
        lookup = {
            "_last": last,
            "_ratio": nodes[-1][1] / last,
            "_scale": scale,
            "_table": table,
            # The probe at step h reads the radius h nodes past a segment.
            "_probes": tuple((h, padded[h:h + len(nodes)]) for h in halves),
            "_radii": radii,
            # The last node is a segment of slope 0, which gives its own
            # guess at its radius.
            "_slopes": np.append(slopes, 0.0),
            "_guesses": guesses,
        }
        for name, value in lookup.items():
            object.__setattr__(self, name, value)

    def guess_radius(self, r: np.ndarray, work=None) -> np.ndarray:
        """Guess radius for outcome radii r >= 0 (any shape): bit for bit
        np.interp over the nodes up to the last node's radius, and the last
        node's ratio beyond it. work, when given, is three float arrays of
        r's shape that the call overwrites; the result is the second."""
        r = np.asarray(r, dtype=float)
        scaled, guess, part = work if work is not None else [np.empty(r.shape) for _ in range(3)]
        # min(r, last) before the cast: a radius of 1e300 still has a bucket.
        np.fmin(r, self._last, out=scaled)
        scaled *= self._scale
        bucket = guess.view(np.intp)
        np.copyto(bucket, scaled, casting="unsafe")
        # take(mode="clip") writes straight into out; mode="raise" buffers it.
        segment = np.take(self._table, bucket, out=scaled.view(np.intp), mode="clip")
        for h, probe in self._probes:
            past = np.greater_equal(r, np.take(probe, segment, out=guess, mode="clip"))
            # A masked add runs about six times slower than these.
            segment += past if h == 1 else np.multiply(past, h, out=part.view(np.intp))
        # slope * (r - radius) + guess, as np.interp evaluates a segment.
        np.subtract(r, np.take(self._radii, segment, out=guess, mode="clip"), out=guess)
        guess *= np.take(self._slopes, segment, out=part, mode="clip")
        guess += np.take(self._guesses, segment, out=part, mode="clip")
        return np.multiply(self._ratio, r, out=guess, where=r > self._last)

    @property
    def kinks(self) -> tuple:
        """The node radii, where the guess modulus has its kinks."""
        return tuple(r for r, _ in self.nodes)

    def guess_factor(self, alpha, out, *scratch):
        """The real factor taking outcomes alpha to their guesses: the guess
        modulus over |alpha|, written into out, a float buffer of alpha's
        shape, and returned. scratch holds up to three more such buffers
        that the call may overwrite; it allocates the rest. The origin keeps
        the factor 0."""
        r = np.abs(alpha, out=out)
        work = [*scratch, *(np.empty(r.shape) for _ in range(3 - len(scratch)))]
        # Where r is 0 the division is skipped and r keeps its 0.
        return np.divide(self.guess_radius(r, work), r, out=r, where=r > 0.0)


Strategy = Union[Gain, RadialCurve]


def apply_strategy(strategy: Strategy, alpha):
    """Guess amplitude for the measurement outcome `alpha`.

    The guess keeps the direction of alpha; its modulus is the strategy's
    radial profile evaluated at |alpha|. Each component of alpha is scaled
    by the real guess factor on its own, and a zero component stays zero,
    so the origin maps to the origin and a guess that overflows is
    infinite along alpha's direction, with no NaN part and no warning. A
    scalar alpha gives a complex; an array gives a complex array of its
    shape. A non-finite alpha, or array element, raises ValueError.
    """
    a = np.asarray(_require_finite(alpha, "alpha"))
    guess = a.astype(complex)
    with np.errstate(over="ignore"):
        factor = strategy.guess_factor(a, np.empty(a.shape))
        for part in (guess.real, guess.imag):
            np.multiply(part, factor, out=part, where=part != 0.0)
    return complex(guess) if guess.ndim == 0 else guess
