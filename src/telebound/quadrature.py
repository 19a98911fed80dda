"""Numerical evaluation of the measure-and-prepare average fidelity

    F = II p(beta) (1/pi) exp(-|alpha-beta|^2) exp(-|f(alpha)-beta|^2)
        d2beta d2alpha

for any prior x strategy pair, in polar coordinates.

Scheme
------
Every supported prior and strategy is rotationally symmetric, so the joint
integrand depends on the two radii (a = |alpha|, b = |beta|) and the relative
angle t only. The angle is integrated exactly,

    int_0^{2 pi} exp(-z (1 - cos t)) dt = 2 pi i0e(z),

which leaves one radial kernel

    K(a, rho, b) = exp(-(a-b)^2 - (rho-b)^2) i0e(2 (a + rho) b),   rho = |f(alpha)|,

summed with composite Gauss-Legendre panels in both radial directions. Both
factors lie in [0, 1], so the kernel is evaluated without overflow for any
radii. i0e is the exponentially scaled modified Bessel function of order
zero, evaluated with the Cephes Chebyshev expansions.

Truncation
----------
The outer (alpha) integral is cut at

    outer_cut_radius = b_max + sqrt(ln(2/tol)) + 2

where b_max = prior.support_radius(tol / 2); support_radius is the one cut
that the quadrature and the optimizer read. Beyond the alpha cut the integrand is
bounded by exp(-(a - b_max)^2), giving a certified tail below tol, and the
prior mass beyond b_max is below tol as well. Both contributions enter the
reported error estimate, together with the difference between the requested
resolution and a doubled-resolution pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import bounds
from .core import (Gain, GaussianIso, Prior, RadialCurve, Strategy, check_count,
                   check_positive, tail_mass)

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "auto_spec",
    "average_fidelity_quad",
    "restricted_fidelity_quad",
    "decomposition_residual",
    "guess_slice_quad",
]

# Whole-plane Gaussian priors flatter than this make the alpha integral
# arbitrarily wide; the analytic limits serve lam -> 0 instead.
GAUSSIAN_LAMBDA_FLOOR = 1e-6

# Kernel points (a, b) evaluated at once; bounds the working set at a few
# arrays of 8 MiB whatever the radial grid sizes.
_BLOCK_POINTS = 1 << 20

# Cephes Chebyshev coefficients of i0e: _I0E_SMALL on [0, 8] in the variable
# z/2 - 2, _I0E_LARGE for z > 8 in 32/z - 2 (scaled by sqrt(z) there).
_I0E_SMALL = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17,
    -2.43127984654795469359e-16, 1.71539128555513303061e-15,
    -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12,
    -1.72682629144155570723e-11, 9.67580903537323691224e-11,
    -5.18979560163526290666e-10, 2.65982372468238665035e-9,
    -1.30002500998624804212e-8, 6.04699502254191894932e-8,
    -2.67079385394061173391e-7, 1.11738753912010371815e-6,
    -4.41673835845875056359e-6, 1.64484480707288970893e-5,
    -5.75419501008210370398e-5, 1.88502885095841655729e-4,
    -5.76375574538582365885e-4, 1.63947561694133579842e-3,
    -4.32430999505057594430e-3, 1.05464603945949983183e-2,
    -2.37374148058994688156e-2, 4.93052842396707084878e-2,
    -9.49010970480476444210e-2, 1.71620901522208775349e-1,
    -3.04682672343198398683e-1, 6.76795274409476084995e-1,
)
_I0E_LARGE = (
    -7.23318048787475395456e-18, -4.83050448594418207126e-18,
    4.46562142029675999901e-17, 3.46122286769746109310e-17,
    -2.82762398051658348494e-16, -3.42548561967721913462e-16,
    1.77256013305652638360e-15, 3.81168066935262242075e-15,
    -9.55484669882830764870e-15, -4.15056934728722208663e-14,
    1.54008621752140982691e-14, 3.85277838274214270114e-13,
    7.18012445138366623367e-13, -1.79417853150680611778e-12,
    -1.32158118404477131188e-11, -3.14991652796324136454e-11,
    1.18891471078464383424e-11, 4.94060238822496958910e-10,
    3.39623202570838634515e-9, 2.26666899049817806459e-8,
    2.04891858946906374183e-7, 2.89137052083475648297e-6,
    6.88975834691682398426e-5, 3.36911647825569408990e-3,
    8.04490411014108831608e-1,
)


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution and truncation parameters of one quadrature evaluation.

    radial_nodes     Gauss-Legendre points per radial panel (>= 8)
    truncation_tol   target bound on the neglected integrand mass
    panel_width      maximum radial panel width
    outer_cut_radius alpha cut; derived from the prior when None and recorded
                     in the result for reproducibility

    The relative angle is integrated in closed form, so there is no angular
    resolution to choose; angular_nodes reads 1 for the benchmark's
    per-layer report, which still lists it.
    """

    radial_nodes: int = 16
    truncation_tol: float = 1e-9
    panel_width: float = 1.0
    outer_cut_radius: Optional[float] = None

    @property
    def angular_nodes(self) -> int:
        return 1

    def __post_init__(self):
        check_count(self.radial_nodes, "radial_nodes", 8)
        if not (0.0 < self.truncation_tol < 1.0):
            raise ValueError(f"truncation_tol must be in (0, 1), got {self.truncation_tol}")
        check_positive(self.panel_width, "panel_width")
        if self.outer_cut_radius is not None:
            check_positive(self.outer_cut_radius, "outer_cut_radius")


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with an error estimate.

    error_estimate adds the certified truncation bound to the difference
    against a doubled-resolution recomputation, so a further refinement is
    expected to stay within it.
    """

    value: float
    error_estimate: float
    spec: QuadratureSpec


@lru_cache(maxsize=None)
def _leggauss(n: int):
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_rule(lo: float, hi: float, width: float, nodes: int, breaks=()):
    """Composite Gauss-Legendre rule on [lo, hi] with panels of at most
    `width`, additionally split at each of `breaks` so kinks (for example
    the nodes of a tabulated guess curve) never sit inside a panel."""
    span = hi - lo
    if span <= 0.0:
        return np.empty(0), np.empty(0)
    cuts = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    edges = []
    for seg_lo, seg_hi in zip(cuts, cuts[1:]):
        n_panels = max(1, int(math.ceil((seg_hi - seg_lo) / width)))
        edges.append(np.linspace(seg_lo, seg_hi, n_panels + 1)[:-1])
    edges.append(np.array([hi]))
    edges = np.concatenate(edges)
    x, w = _leggauss(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


def _strategy_breaks(strategy: Strategy):
    if isinstance(strategy, RadialCurve):
        return tuple(r for r, _ in strategy.nodes)
    return ()


def _alpha_cut(spec: QuadratureSpec, b_max: float) -> float:
    """The spec's alpha cut, else b_max plus enough noise widths that the
    neglected outer integrand stays below half the truncation budget."""
    if spec.outer_cut_radius is not None:
        return spec.outer_cut_radius
    return b_max + math.sqrt(math.log(1.0 / (spec.truncation_tol / 2.0))) + 2.0


def auto_spec(prior: Prior, strategy: Strategy, truncation_tol: float = 1e-9,
              radial_nodes: int = 16) -> QuadratureSpec:
    """Spec for integrating `strategy` against `prior`.

    The relative angle is integrated exactly and unit-width radial panels are
    resolved to near machine precision by Gauss-Legendre for every supported
    prior and strategy, so the spec depends on neither; both stay in the
    signature so existing callers keep working.
    """
    return QuadratureSpec(radial_nodes=radial_nodes, truncation_tol=truncation_tol)


def _chbevl(x: np.ndarray, coef) -> np.ndarray:
    """Chebyshev series sum by Clenshaw's recurrence, in the operation order
    of Cephes' chbevl; the three buffers rotate instead of reallocating."""
    b0 = np.full_like(x, coef[0])
    b1 = np.zeros_like(x)
    b2 = np.empty_like(x)
    for c in coef[1:]:
        b0, b1, b2 = b2, b0, b1
        np.multiply(x, b1, out=b0)
        b0 -= b2
        b0 += c
    b0 -= b2
    b0 *= 0.5
    return b0


def _i0e(z: np.ndarray) -> np.ndarray:
    """exp(-z) I0(z) for an array z >= 0, elementwise."""
    out = np.empty_like(z)
    small = z <= 8.0
    out[small] = _chbevl(z[small] / 2.0 - 2.0, _I0E_SMALL)
    large = z[~small]
    out[~small] = _chbevl(32.0 / large - 2.0, _I0E_LARGE) / np.sqrt(large)
    return out


def _kernel(a: np.ndarray, rho: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K(a, rho, b) = exp(-(a-b)^2 - (rho-b)^2) i0e(2 (a+rho) b), broadcast.

    2 pi K is the relative-angle integral of the fidelity integrand for an
    outcome at radius a, guessed at radius rho, and an input at radius b.
    """
    k = a - b
    k *= k
    d = rho - b
    d *= d
    k += d
    np.negative(k, out=k)
    np.exp(k, out=k)
    k *= _i0e(2.0 * (a + rho) * b)
    return k


def _kernel_sums(a: np.ndarray, rho: np.ndarray, b: np.ndarray,
                 b_weight: np.ndarray) -> np.ndarray:
    """sum_j K(a_i, rho_i, b_j) b_weight_j for 1-D a and rho, in blocks of
    about _BLOCK_POINTS kernel points.

    einsum sums each row on its own, so a row's value does not depend on the
    block it shares (a BLAS matrix-vector product can differ in the last bit).
    """
    rows = max(1, _BLOCK_POINTS // b.size)
    out = np.empty(a.size)
    for i in range(0, a.size, rows):
        k = _kernel(a[i:i + rows, None], rho[i:i + rows, None], b)
        out[i:i + rows] = np.einsum("ij,j->i", k, b_weight)
    return out


def _evaluate(radial_weight, b_lo, b_hi, strategy, spec, beta_tail) -> QuadResult:
    rules = [BetaRule(radial_weight, b_lo, b_hi, spec, mult) for mult in (1, 2)]
    coarse, fine = (rule.average(strategy) for rule in rules)
    a_hi = rules[1].a_hi
    alpha_tail = math.exp(-((a_hi - b_hi) ** 2)) if a_hi > b_hi else 1.0
    # The final term floors the estimate at the summation rounding level.
    err = abs(fine - coarse) + beta_tail + alpha_tail + 8.0 * np.finfo(float).eps * abs(fine)
    return QuadResult(value=fine, error_estimate=err, spec=replace(spec, outer_cut_radius=a_hi))


def _beta_support(prior: Prior, spec: QuadratureSpec):
    """Upper beta cut for `prior`, its support radius at half the truncation
    budget, and the prior mass beyond it."""
    if prior.radius == math.inf and prior.lam < GAUSSIAN_LAMBDA_FLOOR:
        raise ValueError(
            f"whole-plane Gaussian integrals need lam >= {GAUSSIAN_LAMBDA_FLOOR} "
            f"(the alpha integrand flattens as lam -> 0), got {prior.lam}")
    b_hi = prior.support_radius(spec.truncation_tol / 2.0)
    return b_hi, tail_mass(prior.lam, b_hi) / prior.mass if b_hi < prior.radius else 0.0


def average_fidelity_quad(prior: Prior, strategy: Strategy,
                          spec: Optional[QuadratureSpec] = None) -> QuadResult:
    """Average fidelity of `strategy` against `prior` by polar quadrature.

    For gain strategies this agrees with the closed forms in `bounds` within
    the reported error estimate; the test suite enforces exactly that, which
    is the mutual validation of the two routes.
    """
    if spec is None:
        spec = QuadratureSpec()
    b_hi, beta_tail = _beta_support(prior, spec)
    return _evaluate(prior.radial_density, 0.0, b_hi, strategy, spec, beta_tail)


def restricted_fidelity_quad(lam: float, radius: float, strategy: Strategy, inside: bool,
                             spec: Optional[QuadratureSpec] = None) -> QuadResult:
    """Average-fidelity integral with the unnormalized Gaussian weight
    (lam/pi) exp(-lam |beta|^2) and beta restricted to |beta| <= radius
    (inside) or |beta| > radius (outside).

    The two pieces sum to the whole-plane value; decomposition_residual
    checks that identity numerically.
    """
    check_positive(lam, "lam")
    check_positive(radius, "radius")
    if spec is None:
        spec = QuadratureSpec()
    gaussian = GaussianIso(lam)
    b_hi, beta_tail = _beta_support(gaussian, spec)
    if inside:
        return _evaluate(gaussian.radial_density, 0.0, radius, strategy, spec, 0.0)
    if b_hi <= radius:
        # The entire outside region already carries less weight than the
        # truncation budget.
        return QuadResult(value=0.0, error_estimate=tail_mass(lam, radius),
                          spec=replace(spec, outer_cut_radius=_alpha_cut(spec, radius)))
    return _evaluate(gaussian.radial_density, radius, b_hi, strategy, spec, beta_tail)


def decomposition_residual(lam: float, radius: float, strategy: Strategy,
                           spec: Optional[QuadratureSpec] = None) -> float:
    """|F - F_inside - F_outside| for the Gaussian weight split at `radius`.

    F comes from the closed form for gain strategies and from whole-plane
    quadrature otherwise; the restricted pieces always come from quadrature.
    Exact decomposition makes the residual a direct consistency check of the
    engine.
    """
    f_in = restricted_fidelity_quad(lam, radius, strategy, True, spec)
    f_out = restricted_fidelity_quad(lam, radius, strategy, False, spec)
    if isinstance(strategy, Gain):
        whole = bounds.gaussian_gain_fidelity(lam, strategy.g)
    else:
        whole = average_fidelity_quad(GaussianIso(lam), strategy, spec).value
    return abs(whole - f_in.value - f_out.value)


class BetaRule:
    """Radial rule over the input radius b = |beta| at `mult` times the spec
    resolution, weighted by radial_weight on [b_lo, b_hi].

    A call gives the single-outcome slice integral for an outcome at radius a
    whose guess lies on the same ray at radius rho,

        S(a, rho) = (1/pi) int p(beta) exp(-|alpha-beta|^2 - |f-beta|^2) d2beta
                  = 2 int b p(b) K(a, rho, b) db,

    for any broadcastable arrays of (a, rho). `average` integrates the slices
    over the outcome plane, 2 pi int a S(a, |f(a)|) da, which is the average
    fidelity of a strategy. The beta nodes are prepared once, so the
    guess-curve optimizer scores its slices and its curves on one rule.
    """

    def __init__(self, radial_weight: Callable[[np.ndarray], np.ndarray], b_lo: float,
                 b_hi: float, spec: QuadratureSpec, mult: int = 1):
        self.spec = spec
        self.nodes = spec.radial_nodes * mult
        self.a_hi = _alpha_cut(spec, b_hi)
        b, b_w = _panel_rule(b_lo, b_hi, spec.panel_width, self.nodes)
        self.b = b
        self.b_weight = b_w * b * radial_weight(b)

    @classmethod
    def for_prior(cls, prior: Prior, spec: QuadratureSpec) -> "BetaRule":
        return cls(prior.radial_density, 0.0, _beta_support(prior, spec)[0], spec)

    def __call__(self, a, rho) -> np.ndarray:
        a, rho = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(rho, dtype=float))
        sums = _kernel_sums(a.ravel(), rho.ravel(), self.b, self.b_weight)
        return 2.0 * sums.reshape(a.shape)

    def average(self, strategy: Strategy) -> float:
        a, a_w = _panel_rule(0.0, self.a_hi, self.spec.panel_width, self.nodes,
                             breaks=_strategy_breaks(strategy))
        if a.size == 0 or self.b.size == 0:
            return 0.0
        return 2.0 * np.pi * float(np.dot(a_w * a, self(a, strategy.guess_radius(a))))


def guess_slice_quad(prior: Prior, outcome_radius: float, guess_radius: float,
                     spec: Optional[QuadratureSpec] = None) -> float:
    """Expected fidelity contribution of a single outcome at `outcome_radius`
    when the guess lies on the same ray at `guess_radius`."""
    check_positive(outcome_radius, "outcome_radius", zero_ok=True)
    check_positive(guess_radius, "guess_radius", zero_ok=True)
    if spec is None:
        spec = QuadratureSpec()
    return float(BetaRule.for_prior(prior, spec)(outcome_radius, guess_radius))
