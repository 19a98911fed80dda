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
zero, from the Cephes Chebyshev expansions: for z <= 8 summed by Clenshaw's
recurrence as Cephes does, and for z > 8, where most kernel points lie, as
the same 25-term series converted once to powers of t = 16/z - 1 and summed
by Horner's rule, two array passes a term instead of three (within 2 ulp of
scipy's i0e on [8, 1e5]; on [0, 8] Horner lost up to 8 ulp, so Clenshaw
stays there).

Band
----
The exponent is (a-b)^2 + (rho-b)^2 = 2 (b - m)^2 + (a-rho)^2 / 2 with
m = (a+rho)/2, so for each outcome row the kernel is negligible outside a
band of b around m. K is set to 0 wherever the exponent exceeds
_BAND = 60, elementwise, and each block of rows is evaluated only on the
b-columns inside its rows' bands |b - m| <= sqrt(30). On a wide Gaussian
the band is a small share of the grid (about 11 of b's 146 units at
lam = 1e-3), which makes the kernel cost linear in the grid size. Each
dropped point weighs less than exp(-60) (i0e <= 1), so the dropped mass is
below 4 pi exp(-60) sum(a_w a) sum(b_weight), a term of the error
estimate. The band stops at exp(-60), not where exp underflows to an exact
zero: at exact zeros only 5% of the points at lam = 0.05 drop, and none at
the benchmark's other priors.

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
from numpy.polynomial.chebyshev import cheb2poly
from numpy.polynomial.legendre import leggauss

from . import bounds
from .core import Gain, GaussianIso, Prior, Strategy, check_count, check_positive, tail_mass

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "average_fidelity_quad",
    "restricted_fidelity_quad",
    "decomposition_residual",
]

# The panel budget of _panel_rule is the alpha range of a whole-plane
# Gaussian at this lam. A flatter one needs a wider range and is refused
# there; the analytic limits serve lam -> 0 instead.
GAUSSIAN_LAMBDA_FLOOR = 1e-6

# Kernel points (a, b) evaluated at once; bounds the working set at about a
# dozen arrays of 256 KiB whatever the radial grid sizes. The block does not
# move a bit of the sums (see _kernel_sums), and blocks of 8 MiB ran 2.5-3.5x
# slower on wide Gaussians.
_BLOCK_POINTS = 1 << 15

# The kernel is set to 0 where its exponent (a-b)^2 + (rho-b)^2 exceeds
# _BAND; each dropped point weighs less than exp(-_BAND) (see _band_error).
_BAND = 60.0

# A block's columns start and end at multiples of this. einsum sums a row in
# SIMD lanes, four vectors a step (32 doubles with AVX-512), so columns
# aligned to it fall in the same lane and step whatever the block's span.
_ALIGN = 32

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
# The same z > 8 series as a power series in t = 16/z - 1, highest degree
# first, for Horner's rule. chbevl sums c_0/2 + sum_k c_k T_k(t), with c_k
# listed from the highest k, so the constant term is halved first.
_I0E_LARGE_POWERS = tuple(cheb2poly((_I0E_LARGE[-1] / 2.0,) + _I0E_LARGE[-2::-1])[::-1])


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


def _panel_rule(lo: float, hi: float, spec: QuadratureSpec, nodes: int, breaks=()):
    """Composite Gauss-Legendre rule on [lo, hi] with panels of at most
    spec.panel_width, additionally split at each of `breaks` so kinks (for
    example the nodes of a tabulated guess curve) never sit inside a panel.
    Before allocating, a span that needs more panels than the alpha range of
    a whole-plane Gaussian at lam = GAUSSIAN_LAMBDA_FLOOR at the same spec
    raises ValueError; this is the one guard on the width of an integral.
    The comparison is made in floats, so an infinite span is refused too."""
    span = hi - lo
    if span <= 0.0:
        return np.empty(0), np.empty(0)
    width = spec.panel_width
    floor_cut = _alpha_cut(replace(spec, outer_cut_radius=None),
                           GaussianIso(GAUSSIAN_LAMBDA_FLOOR).support_radius(spec.truncation_tol / 2.0))
    budget = math.ceil(floor_cut / width)
    panels = span / width
    if panels > budget:
        # At the budget's digit count a count prints whole, or rounds to at
        # least 10^digits: never to the budget or below it.
        raise ValueError(
            f"radial span {span:g} needs {np.ceil(panels):.{len(str(budget))}g} panels "
            f"of width {width:g}, over the budget of {budget}: the alpha range of a whole-plane "
            f"Gaussian at lam = {GAUSSIAN_LAMBDA_FLOOR:g}")
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


def _alpha_cut(spec: QuadratureSpec, b_max: float) -> float:
    """The spec's alpha cut, else b_max plus enough noise widths that the
    neglected outer integrand stays below half the truncation budget."""
    if spec.outer_cut_radius is not None:
        return spec.outer_cut_radius
    return b_max + math.sqrt(math.log(1.0 / (spec.truncation_tol / 2.0))) + 2.0


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


def _horner(t: np.ndarray, coef) -> np.ndarray:
    """Power series sum by Horner's rule, coef from the highest degree
    down: two array passes per term."""
    p = coef[0] * t
    for c in coef[1:-1]:
        p += c
        p *= t
    p += coef[-1]
    return p


def _i0e(z: np.ndarray) -> np.ndarray:
    """exp(-z) I0(z) for an array z >= 0, elementwise."""
    out = np.empty_like(z)
    small = z <= 8.0
    # Each gather is a new array, so the arithmetic runs in place on it.
    x = z[small]
    x /= 2.0
    x -= 2.0
    out[small] = _chbevl(x, _I0E_SMALL)
    large = z[~small]
    t = np.divide(16.0, large)
    t -= 1.0
    p = _horner(t, _I0E_LARGE_POWERS)
    p /= np.sqrt(large, out=large)
    out[~small] = p
    return out


def _kernel(a: np.ndarray, rho: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K(a, rho, b) = exp(-(a-b)^2 - (rho-b)^2) i0e(2 (a+rho) b), broadcast,
    and 0 wherever the exponent is below -_BAND.

    2 pi K is the relative-angle integral of the fidelity integrand for an
    outcome at radius a, guessed at radius rho, and an input at radius b.
    """
    k = a - b
    k *= k
    d = rho - b
    d *= d
    k += d
    k[k > _BAND] = np.inf
    np.negative(k, out=k)
    np.exp(k, out=k)
    k *= _i0e(2.0 * (a + rho) * b)
    return k


def _kernel_sums(a: np.ndarray, rho: np.ndarray, b: np.ndarray, b_weight: np.ndarray,
                 reach: float) -> np.ndarray:
    """sum_j K(a_i, rho_i, b_j) b_weight_j for 1-D a and rho, and b sorted.

    Since (a-b)^2 + (rho-b)^2 = 2 (b - m)^2 + (a-rho)^2 / 2 with
    m = (a+rho)/2, row i's kernel is 0 outside its band
    |b - m_i| <= reach / 2 (see BetaRule.reach). Rows go in blocks of at
    most _BLOCK_POINTS kernel points (one row when a row is longer), each
    evaluated only on the b-columns of its rows' bands, widened to
    multiples of _ALIGN.

    einsum sums each row on its own, and a block's extra columns add exact
    zeros to whole SIMD steps, so a row's value does not depend on the
    block it shares or on the block size (a BLAS matrix-vector product can
    differ in the last bit).
    """
    if a.size * b.size <= _BLOCK_POINTS:
        # One block holds the grid, and finding its bands would cost more
        # than the columns they drop (the optimizer's slice calls).
        return np.einsum("ij,j->i", _kernel(a[:, None], rho[:, None], b), b_weight)
    half = reach / 2.0
    mid = 0.5 * (a + rho)
    lo = np.searchsorted(b, mid - half) // _ALIGN * _ALIGN
    hi = np.minimum(-(-np.searchsorted(b, mid + half, side="right") // _ALIGN) * _ALIGN, b.size)
    out = np.empty(a.size)
    i = 0
    while i < a.size:
        # The longest run of rows from i whose joint columns fit the block.
        ahead = slice(i, i + _BLOCK_POINTS // _ALIGN)
        width = np.maximum.accumulate(hi[ahead]) - np.minimum.accumulate(lo[ahead])
        rows = max(1, int(np.count_nonzero(width * np.arange(1, width.size + 1) <= _BLOCK_POINTS)))
        block = slice(i, i + rows)
        cols = slice(lo[block].min(), hi[block].max())
        k = _kernel(a[block, None], rho[block, None], b[cols])
        out[block] = np.einsum("ij,j->i", k, b_weight[cols])
        i += rows
    return out


def _band_error(rule: "BetaRule") -> float:
    """Bound on the mass that _BAND drops from rule.average: each dropped
    kernel point is below exp(-_BAND) (i0e <= 1), and the weights sum to
    2 pi sum(a_w a) * 2 sum(b_weight), where sum(a_w a) = a_hi^2 / 2."""
    return 4.0 * math.pi * math.exp(-_BAND) * 0.5 * rule.a_hi**2 * float(np.sum(rule.b_weight))


def _evaluate(radial_weight, b_lo, b_hi, strategy, spec, beta_tail) -> QuadResult:
    rules = [BetaRule(radial_weight, b_lo, b_hi, spec, mult) for mult in (1, 2)]
    coarse, fine = (rule.average(strategy) for rule in rules)
    a_hi = rules[1].a_hi
    alpha_tail = math.exp(-((a_hi - b_hi) ** 2)) if a_hi > b_hi else 1.0
    # The final term floors the estimate at the summation rounding level.
    err = (abs(fine - coarse) + beta_tail + alpha_tail + _band_error(rules[1])
           + 8.0 * np.finfo(float).eps * abs(fine))
    return QuadResult(value=fine, error_estimate=err, spec=replace(spec, outer_cut_radius=a_hi))


def _beta_support(prior: Prior, spec: QuadratureSpec):
    """Upper beta cut for `prior`, its support radius at half the truncation
    budget, and the prior mass beyond it. A prior too flat to integrate
    is refused by the panel budget of the rule on [0, b_hi]."""
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
    check_positive(radius, "radius")
    if spec is None:
        spec = QuadratureSpec()
    gaussian = GaussianIso(lam)
    if inside:
        return _evaluate(gaussian.radial_density, 0.0, radius, strategy, spec, 0.0)
    # An outside region lighter than the truncation budget has an empty rule.
    b_hi = max(radius, gaussian.support_radius(spec.truncation_tol / 2.0))
    return _evaluate(gaussian.radial_density, radius, b_hi, strategy, spec, tail_mass(lam, b_hi))


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
        b, b_w = _panel_rule(b_lo, b_hi, spec, self.nodes)
        self.b = b
        self.b_weight = b_w * b * radial_weight(b)

    @property
    def reach(self) -> float:
        """|a - rho| past which a slice is an exact 0: the kernel's exponent
        2 (b - m)^2 + (a - rho)^2 / 2 then passes _BAND for every b, as it
        does where |b - m| passes reach / 2. Read from _BAND at call time;
        the margin covers the exponent's rounding at the band's edge."""
        return math.sqrt(2.0 * _BAND) + 2e-6

    @classmethod
    def for_prior(cls, prior: Prior, spec: QuadratureSpec) -> "BetaRule":
        return cls(prior.radial_density, 0.0, _beta_support(prior, spec)[0], spec)

    def __call__(self, a, rho) -> np.ndarray:
        a, rho = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(rho, dtype=float))
        sums = _kernel_sums(a.ravel(), rho.ravel(), self.b, self.b_weight, self.reach)
        return 2.0 * sums.reshape(a.shape)

    def average(self, strategy: Strategy) -> float:
        a, a_w = _panel_rule(0.0, self.a_hi, self.spec, self.nodes, breaks=strategy.kinks)
        if a.size == 0 or self.b.size == 0:
            return 0.0
        # A guess that overflows lies infinitely far from every input: its
        # kernel is an exact exp(-inf) = 0.
        with np.errstate(over="ignore"):
            return 2.0 * np.pi * float(np.dot(a_w * a, self(a, strategy.guess_radius(a))))

