"""Closed-form average fidelities for gain strategies, and the tail-driven
width selection used by the certification protocol.

The gain formula comes from completing squares in the double Gaussian
integral of the measure-and-prepare fidelity. It is written once, in
gain_fidelity, for the whole prior family, and cross-validated against the
numerical engine in the test suite before anything else relies on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import GaussianIso, Prior, Strategy, TruncatedGaussian, UniformDisk, check_positive

__all__ = [
    "BoundResult",
    "gaussian_bound",
    "gaussian_gain_fidelity",
    "optimal_gain_gaussian",
    "disk_gain_fidelity",
    "truncated_gain_fidelity",
    "select_lambda",
    "gain_fidelity",
]


@dataclass(frozen=True)
class BoundResult:
    """A classical average-fidelity bound for one prior.

    value is the bound itself and strategy the strategy that reaches it.
    The value is a lower estimate of the true classical optimum: the
    measurement is fixed to heterodyne detection and guesses are restricted
    to coherent states.
    """

    value: float
    prior: str
    strategy: Strategy


def gaussian_bound(lam: float) -> float:
    """Classical fidelity bound (1 + lam) / (2 + lam) for the whole-plane
    Gaussian ensemble of inverse width lam.

    At lam = 0 this is exactly 1/2, the uniform-plane threshold; it increases
    to 1 as the ensemble concentrates at the origin.
    """
    check_positive(lam, "lam", zero_ok=True)
    return (1.0 + lam) / (2.0 + lam)


def gaussian_gain_fidelity(lam: float, g: float) -> float:
    """Average fidelity of the gain-g strategy on the Gaussian ensemble:
    gain_fidelity(GaussianIso(lam), g), lam / ((1 - g)^2 + lam (1 + g^2)).

    At lam = 0 with g = 1 the underlying integral diverges, which is why
    lam = 0 is rejected here (the limit is served by gaussian_bound).
    """
    return gain_fidelity(GaussianIso(lam), g)


def optimal_gain_gaussian(lam: float) -> float:
    """Gain maximizing gaussian_gain_fidelity: 1 / (1 + lam)."""
    check_positive(lam, "lam")
    return 1.0 / (1.0 + lam)


def disk_gain_fidelity(radius: float, g: float) -> float:
    """Average fidelity of the gain-g strategy on the uniform disk ensemble:
    gain_fidelity(UniformDisk(radius), g)."""
    return gain_fidelity(UniformDisk(radius), g)


def truncated_gain_fidelity(lam: float, radius: float, g: float) -> float:
    """Average fidelity of the gain-g strategy on the truncated Gaussian
    ensemble (Gaussian of inverse width lam restricted to |beta| <= radius):
    gain_fidelity(TruncatedGaussian(lam, radius), g)."""
    return gain_fidelity(TruncatedGaussian(lam, radius), g)


def select_lambda(radius: float, epsilon: float) -> float:
    """Smallest Gaussian inverse width whose mass outside the disk of
    `radius` is at most epsilon: lam = ln(1/epsilon) / radius^2.

    By construction tail_mass(select_lambda(R, eps), R) equals eps to
    machine precision.
    """
    check_positive(radius, "radius")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"select_lambda requires 0 < epsilon < 1, got {epsilon}")
    try:
        lam = -math.log(epsilon) / radius**2
    except (OverflowError, ZeroDivisionError):
        lam = math.nan
    if not (0.0 < lam < math.inf):
        raise ValueError(f"select_lambda: ln(1/epsilon) / radius**2 is not a finite lam > 0 "
                         f"for radius {radius} and epsilon {epsilon}")
    return lam


def gain_fidelity(prior: Prior, g: float) -> float:
    """Closed-form average fidelity of Gain(g) for any prior:

        w (1 - exp(-(lam + k) R^2)) / ((1 - g)^2 + lam (1 + g^2)),

    with k = (1 - g)^2 / (1 + g^2) and w = lam / prior.mass, or 1 / R^2 at
    lam = 0. Every term of the denominator is >= 0, so nothing cancels, and
    at R = inf the numerator is exactly lam. g = 1 gives exactly 1/2 for any
    prior, since the residual noise is then prior-independent.
    """
    check_positive(g, "g", zero_ok=True)
    if g == 1.0:
        return 0.5
    lam, radius = prior.lam, prior.radius
    w = lam / prior.mass if lam > 0.0 else 1.0 / radius**2
    k = (1.0 - g) ** 2 / (1.0 + g * g)
    return w * -math.expm1(-(lam + k) * radius**2) / ((1.0 - g) ** 2 + lam * (1.0 + g * g))
