"""Maximization of the average fidelity over classical strategy families.

Two families are searched: plain gains, with the closed forms as the
objective, and tabulated radial guess curves, with the quadrature engine's
slice integrals at the curve nodes as the objective. Both are maximized by
one lockstep grid refinement. The resulting values are lower estimates of the
true classical optimum, since the measurement is fixed to heterodyne
detection and guesses stay coherent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundResult, gain_fidelity
from .core import Gain, Prior, RadialCurve, Strategy, check_count, check_positive
from .quadrature import BetaRule, QuadratureSpec

__all__ = [
    "OptimizationReport",
    "ConvergenceError",
    "optimize_gain",
    "optimize_guess_curve",
    "classical_bound_estimate",
]

# Points that each refinement round scans per bracket. A round narrows a
# bracket to its best point's two neighbours, an eighth of its width. On the
# benchmark's optimizer calls (2-vCPU x86-64), 13 to 21 points timed alike
# and 9 points 9% slower: a slice-rule call costs about the same for 60
# points as for 120.
_REFINE_POINTS = 17


class ConvergenceError(RuntimeError):
    """Raised when a search bracket cannot narrow to the tolerance at float
    resolution; carries the best report found."""

    def __init__(self, message: str, report: "OptimizationReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class OptimizationReport:
    best_strategy: Strategy
    best_value: float
    evaluations: int
    convergence_gap: float
    converged: bool = True


def _refine_max(f, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Maxima of f on the brackets [lo, hi], elementwise and in lockstep.

    Each round scans _REFINE_POINTS points of every open bracket in one call
    f(xs, live), where live masks the open brackets and xs holds their
    points, shape (_REFINE_POINTS, live.sum()), and keeps the best point's
    neighbours. A bracket closes once it is within tol, or once its grid
    steps would fall below one float spacing of its ends, so each element
    sees the same arithmetic as a search on its own, whatever else shares
    the batch.

    Returns (x_best, f_best, evaluations, width), 1-D arrays shaped like lo;
    a width above tol is a bracket that float resolution stopped.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    x = np.zeros_like(lo)
    fx = np.zeros_like(lo)
    evals = np.zeros(lo.shape, dtype=int)
    live = np.ones(lo.shape, dtype=bool)
    while live.any():
        xs = np.linspace(lo[live], hi[live], _REFINE_POINTS)
        ys = f(xs, live)
        i, j = np.argmax(ys, axis=0), np.arange(xs.shape[1])
        x[live], fx[live] = xs[i, j], ys[i, j]
        lo[live], hi[live] = xs[np.maximum(i - 1, 0), j], xs[np.minimum(i + 1, _REFINE_POINTS - 1), j]
        evals[live] += _REFINE_POINTS
        resolution = (_REFINE_POINTS - 1) * np.spacing(np.maximum(abs(lo), abs(hi)))
        live = live & (hi - lo > tol) & (hi - lo > resolution)
    return x, fx, evals, hi - lo


def _checked(report: OptimizationReport, tol: float) -> OptimizationReport:
    """report, unless its convergence_gap is above tol: then ConvergenceError
    carries it, with converged false."""
    if report.convergence_gap > tol:
        raise ConvergenceError(f"a bracket of width {report.convergence_gap:.3e} cannot narrow to "
                               f"tol {tol:.1e} at float resolution",
                               replace(report, converged=False))
    return report


def optimize_gain(prior: Prior, tol: float = 1e-6) -> OptimizationReport:
    """Best gain strategy for `prior` via closed forms.

    Grid refinement on [0, 1]; the final bracket width, the report's
    convergence_gap, is at most tol. No gain above 1 can win: averaged over
    the heterodyne noise, F(g) = E[exp(-(1 - g)^2 |beta|^2 / (1 + g^2))] /
    (1 + g^2) <= 1 / (1 + g^2), below 1/2 = F(1) for every prior.
    """
    check_positive(tol, "tol")
    objective = np.vectorize(lambda g: gain_fidelity(prior, g), otypes=[float])
    g, value, evals, width = _refine_max(lambda xs, live: objective(xs), np.zeros(1), np.ones(1), tol)
    return _checked(OptimizationReport(best_strategy=Gain(float(g[0])), best_value=float(value[0]),
                                       evaluations=int(evals[0]), convergence_gap=float(width[0])),
                    tol)


def optimize_guess_curve(prior: Prior, n_nodes: int = 8, tol: float = 1e-3) -> OptimizationReport:
    """Best tabulated radial guess curve for `prior`.

    Each node's guess radius maximizes the single-outcome slice integral at
    the node's radius, which is exact up to the interpolation between nodes.
    The slices do not depend on each other, so all nodes are refined in
    lockstep, to tol * 1e-2, each on [max(0, r - reach), r] for its radius
    r: a slice is unimodal in the guess radius, no guess beyond r beats r,
    and the quadrature band makes a slice 0 more than reach below r.
    convergence_gap is the widest final node bracket. The curve is then
    scored once by the quadrature engine; if it scores below the best gain,
    the gain's own curve g * radii is returned at the gain's closed-form
    value. Raises ConvergenceError with that report if a node cannot narrow
    to its tolerance.
    """
    return _search_curve(prior, n_nodes, tol)[1]


def _search_curve(prior: Prior, n_nodes: int, tol: float):
    """optimize_guess_curve's search: (gain_report, curve_report), where
    gain_report is the best gain for `prior` at tol min(tol, 1e-6)."""
    gain_report = optimize_gain(prior, tol=min(tol, 1e-6))
    check_count(n_nodes, "n_nodes", 4)
    check_positive(tol, "tol")
    support = prior.support_radius(1e-4)
    if support <= 1e-6:
        raise ValueError(f"prior support is degenerate: {prior!r}")
    # The rule's panel budget refuses a prior too flat to integrate, before
    # its node radii could reach inf.
    rule = BetaRule.for_prior(prior, QuadratureSpec())
    # Outcomes concentrate within the prior support plus a few noise widths;
    # past the last node the constant-ratio extrapolation takes over.
    radii = np.linspace(0.0, support + 2.5, n_nodes)

    # The first node sits at the origin, where the best guess is the origin;
    # the other nodes' slices are independent, so they are searched together.
    r = radii[1:]

    # A slice is exp(-(r - rho)^2 / 2) G((r + rho) / 2), with G the prior
    # smoothed by a Gaussian. For every truncated Gaussian G is radially
    # non-increasing (Anderson) and log-concave (Prekopa): no rho > r beats
    # rho = r, the slice is unimodal in rho, and the band makes it exactly 0
    # below r - rule.reach.
    rho, _, counts, width = _refine_max(lambda rho, live: rule(r[live], rho),
                                        np.maximum(r - rule.reach, 0.0), r, tol * 1e-2)

    curve = RadialCurve(tuple(zip(radii, np.concatenate(([0.0], rho)))))
    value = rule.average(curve)
    # The family holds the best gain as the curve g * radii, whose average is
    # the gain's closed form; it replaces a searched curve that scores below.
    if value < gain_report.best_value:
        curve = RadialCurve(tuple(zip(radii, gain_report.best_strategy.g * radii)))
        value = gain_report.best_value
    report = OptimizationReport(best_strategy=curve, best_value=value, convergence_gap=float(width.max()),
                                evaluations=gain_report.evaluations + int(counts.sum()) + 1)
    return gain_report, _checked(report, tol * 1e-2)


def classical_bound_estimate(prior: Prior, n_nodes: int = 8, tol: float = 1e-3) -> BoundResult:
    """Best known classical average fidelity for `prior` within the
    implemented families: the larger of the gain optimum and the guess-curve
    optimum.

    This is a lower estimate of the true classical optimum, which is open;
    the measurement is fixed to heterodyne detection and guesses are
    coherent states.
    """
    # On a tie max keeps the first report, the gain.
    best = max(*_search_curve(prior, n_nodes, tol), key=lambda report: report.best_value)
    return BoundResult(value=best.best_value, prior=repr(prior), strategy=best.best_strategy)
