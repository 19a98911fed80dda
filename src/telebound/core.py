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
(lam/pi) exp(-lam |beta|^2) inside its disk, written once as
disk_mass(lam, radius), and tail_mass(lam, radius) the share beyond it; the
sampler, the quadrature cuts and bounds.truncated_gain_fidelity read these.
prior.support_radius(tail), the radius holding all but `tail` of the
prior's own mass, is the one cut that the quadrature and the optimizer read.

seeded_stream(seed, i), a Philox generator on SeedSequence(seed,
spawn_key=(i,)), is the one random stream: simulation chunk i draws stream i
and the bootstrap draws stream 0.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "ComplexAmp",
    "GaussianIso",
    "UniformDisk",
    "TruncatedGaussian",
    "Prior",
    "Gain",
    "RadialCurve",
    "Strategy",
    "fidelity_kernel",
    "prior_density",
    "tail_mass",
    "apply_strategy",
]

# A coherent-state amplitude is just a point in the complex plane.
ComplexAmp = complex


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
        f = np.exp(-np.abs(np.subtract(a, b)) ** 2)
    return float(f) if f.ndim == 0 else f


def disk_mass(lam: float, radius: float) -> float:
    """Mass of (lam/pi) exp(-lam |beta|^2) inside |beta| <= radius,
    1 - exp(-lam radius^2); expm1 keeps the lam -> 0 limit exact, and it is
    exactly 1.0 at radius = inf. Arguments are not checked."""
    return -math.expm1(-lam * radius**2)


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
        """Mass of (lam/pi) exp(-lam |beta|^2) inside the disk: disk_mass."""
        return disk_mass(self.lam, self.radius)

    def density(self, beta: ComplexAmp) -> float:
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


def prior_density(prior: Prior, beta: ComplexAmp) -> float:
    """Probability density of `prior` at the amplitude `beta`."""
    return prior.density(beta)


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

    def __post_init__(self):
        check_positive(self.g, "g", zero_ok=True)

    def guess_radius(self, r: np.ndarray) -> np.ndarray:
        return self.g * np.asarray(r, dtype=float)


@dataclass(frozen=True)
class RadialCurve:
    """Tabulated radial guess profile.

    nodes are (outcome radius, guess radius) pairs with strictly increasing
    radii starting at 0. Between nodes the guess radius is linear in the
    outcome radius; beyond the last node the last node's ratio is kept, so
    far out the curve behaves like a plain gain.
    """

    nodes: tuple

    def __post_init__(self):
        nodes = tuple((float(r), float(rho)) for r, rho in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 2:
            raise ValueError("RadialCurve needs at least 2 nodes")
        rs = [r for r, _ in nodes]
        rhos = [rho for _, rho in nodes]
        if rs[0] != 0.0:
            raise ValueError("RadialCurve nodes must start at radius 0")
        if any(not math.isfinite(v) for v in rs + rhos):
            raise ValueError("RadialCurve nodes must be finite")
        if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
            raise ValueError("RadialCurve node radii must be strictly increasing")
        if any(rho < 0.0 for rho in rhos):
            raise ValueError("RadialCurve guess radii must be >= 0")

    def guess_radius(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        rs = np.array([p[0] for p in self.nodes])
        rhos = np.array([p[1] for p in self.nodes])
        out = np.interp(r, rs, rhos)
        last_r, last_rho = self.nodes[-1]
        return np.where(r > last_r, (last_rho / last_r) * r, out)


Strategy = Union[Gain, RadialCurve]


def apply_strategy(strategy: Strategy, alpha):
    """Guess amplitude for the measurement outcome `alpha`.

    The guess keeps the direction of alpha; its modulus is the strategy's
    radial profile evaluated at |alpha|. The origin maps to the origin. A
    scalar alpha gives a complex; an array gives an array of its shape.
    """
    scalar = np.ndim(alpha) == 0
    a = complex(_require_finite(alpha, "alpha")) if scalar else np.asarray(alpha)
    if isinstance(strategy, Gain):
        out = strategy.g * a
    else:
        # Built-in abs: Python's for a scalar, np.abs for an array. The two
        # can differ in the last bit, and each path keeps its own.
        r = abs(a)
        rho = strategy.guess_radius(r)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(r > 0.0, rho / np.where(r > 0.0, r, 1.0), 0.0) * a
    return complex(out) if scalar else out
