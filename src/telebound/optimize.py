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

# Optima are provably at or below gain 1 for the supported priors; the extra
# headroom exists so a runaway optimizer trips the property tests.
GAIN_SEARCH_MAX = 1.5

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


def _scan(f, lo: np.ndarray, hi: np.ndarray, n: int):
    """Scan n points of each bracket [lo, hi], 1-D arrays, in one call of f
    on an array of shape (n, lo.size). Returns the best points, their values
    and the best points' neighbours, the narrowed brackets."""
    xs = np.linspace(lo, hi, n)
    ys = f(xs)
    i = np.argmax(ys, axis=0)
    j = np.arange(lo.size)
    return xs[i, j], ys[i, j], xs[np.maximum(i - 1, 0), j], xs[np.minimum(i + 1, n - 1), j]


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
        x[live], fx[live], lo[live], hi[live] = _scan(lambda xs: f(xs, live), lo[live], hi[live],
                                                      _REFINE_POINTS)
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

    Grid refinement on [0, GAIN_SEARCH_MAX]; the final bracket width, the
    report's convergence_gap, is at most tol.
    """
    check_positive(tol, "tol")
    objective = np.vectorize(lambda g: gain_fidelity(prior, g), otypes=[float])
    g, value, evals, width = _refine_max(lambda xs, live: objective(xs), np.zeros(1),
                                         np.full(1, GAIN_SEARCH_MAX), tol)
    return _checked(OptimizationReport(best_strategy=Gain(float(g[0])), best_value=float(value[0]),
                                       evaluations=int(evals[0]), convergence_gap=float(width[0])),
                    tol)


def _curve_node_radii(prior: Prior, n_nodes: int) -> np.ndarray:
    # Outcomes concentrate within the prior support plus a few noise widths;
    # past the last node the constant-ratio extrapolation takes over.
    reach = prior.support_radius(1e-4) + 2.5
    return np.linspace(0.0, reach, n_nodes)


def optimize_guess_curve(prior: Prior, n_nodes: int = 8, tol: float = 1e-3) -> OptimizationReport:
    """Best tabulated radial guess curve for `prior`.

    Each node's guess radius maximizes the single-outcome slice integral at
    the node's radius, which is exact up to the interpolation between nodes.
    The slices do not depend on each other, so all nodes are scanned and
    refined in lockstep, to tol * 1e-2; convergence_gap is the widest final
    node bracket. The curve is then scored once by the quadrature engine and
    kept unless the best gain, as a curve, scores higher. Raises
    ConvergenceError with that report if a node cannot narrow to its
    tolerance.
    """
    return _search_curve(prior, optimize_gain(prior, tol=min(tol, 1e-6)), n_nodes, tol)


def _search_curve(prior: Prior, gain_report: OptimizationReport, n_nodes: int,
                  tol: float) -> OptimizationReport:
    """optimize_guess_curve's search. gain_report is the best gain for
    `prior` at tol min(tol, 1e-6)."""
    check_count(n_nodes, "n_nodes", 4)
    check_positive(tol, "tol")
    if prior.support_radius(1e-4) <= 1e-6:
        raise ValueError(f"prior support is degenerate: {prior!r}")
    # The rule's panel budget refuses a prior too flat to integrate, before
    # its node radii could reach inf.
    rule = BetaRule.for_prior(prior, QuadratureSpec())
    radii = _curve_node_radii(prior, n_nodes)

    # The first node sits at the origin, where the best guess is the origin;
    # the other nodes' slices are independent, so they are searched together.
    r = radii[1:]

    # A 25-point scan brackets each node's maximizer. None has been seen
    # above 2/3 of this range, so one search settles every node: a wider
    # range would change nothing.
    g = gain_report.best_strategy.g
    grid = 25
    _, _, lo, hi = _scan(lambda rho: rule(r, rho), np.zeros_like(r),
                         np.maximum(GAIN_SEARCH_MAX * r, g * r + 1.0), grid)
    rho, _, counts, width = _refine_max(lambda rho, live: rule(r[live], rho), lo, hi, tol * 1e-2)

    curve = RadialCurve(tuple(zip(radii, np.concatenate(([0.0], rho)))))
    value = rule.average(curve)
    evals = gain_report.evaluations + grid * r.size + int(counts.sum()) + 1
    # The curve family holds the best gain as the curve g * radii. It is
    # scored only if the search's curve falls below the gain, and wins a tie.
    if value < gain_report.best_value:
        start = RadialCurve(tuple(zip(radii, g * radii)))
        start_value = rule.average(start)
        evals += 1
        if start_value >= value:
            curve, value = start, start_value
    return _checked(OptimizationReport(best_strategy=curve, best_value=value, evaluations=evals,
                                       convergence_gap=float(width.max())), tol * 1e-2)


def classical_bound_estimate(prior: Prior, n_nodes: int = 8, tol: float = 1e-3) -> BoundResult:
    """Best known classical average fidelity for `prior` within the
    implemented families: the larger of the gain optimum and the guess-curve
    optimum.

    This is a lower estimate of the true classical optimum, which is open;
    the measurement is fixed to heterodyne detection and guesses are
    coherent states.
    """
    gain_report = optimize_gain(prior, tol=min(tol, 1e-6))
    # The curve search starts from the same gain report, computed once.
    curve_report = _search_curve(prior, gain_report, n_nodes, tol)
    # On a tie max keeps the first report, the gain.
    best = max(gain_report, curve_report, key=lambda report: report.best_value)
    return BoundResult(value=best.best_value, prior=repr(prior), strategy=best.best_strategy)
