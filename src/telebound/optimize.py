"""Maximization of the average fidelity over classical strategy families.

Two families are searched: plain gains (closed-form objective, golden-section
search) and tabulated radial guess curves (slice-wise coordinate ascent with
the quadrature engine as the objective). The resulting values are lower
estimates of the true classical optimum, since the measurement is fixed to
heterodyne detection and guesses stay coherent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# The guess-curve ascent's sweep cap.
_MAX_SWEEPS = 12

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class ConvergenceError(RuntimeError):
    """Raised when an optimizer hits its iteration cap; carries the best
    report found so far."""

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


def _golden_max(f, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Golden-section search for the maxima of f on the brackets [lo, hi],
    elementwise and in lockstep.

    f maps an array of points, shaped like lo, to their values. Returns
    arrays (x_best, f_best, evaluations, final bracket width). Each element
    takes the step count fixed by its own bracket and the tolerance and sees
    the same arithmetic as a search on its own, so the search is exactly
    reproducible whatever else shares the batch.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    h = hi - lo
    steps = np.array([math.ceil(math.log(tol / w) / math.log(_INV_PHI)) if w > tol else 0
                      for w in h.flat], dtype=int).reshape(h.shape)
    c = lo + _INV_PHI2 * h
    d = lo + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for k in range(1, int(steps.max(initial=0))):
        live = steps > k
        left = live & (yc > yd)
        right = live & ~left
        lo = np.where(right, c, lo)
        hi = np.where(left, d, hi)
        h = np.where(live, _INV_PHI * h, h)
        x = np.where(left, lo + _INV_PHI2 * h, lo + _INV_PHI * h)
        y = f(x)
        # Moving left, the old c becomes d and x the new c; moving right, the
        # old d becomes c and x the new d.
        c, d = np.where(left, x, np.where(right, d, c)), np.where(right, x, np.where(left, c, d))
        yc, yd = np.where(left, y, np.where(right, yd, yc)), np.where(right, y, np.where(left, yc, yd))
    better = yc > yd
    x_best = np.where(better, c, d)
    f_best = np.where(better, yc, yd)
    width = np.where(better, d - lo, hi - c)
    evals = steps + 1
    flat = steps == 0
    if flat.any():
        # A bracket already within tol is settled by its midpoint.
        mid = 0.5 * (lo + hi)
        x_best = np.where(flat, mid, x_best)
        f_best = np.where(flat, f(mid), f_best)
        width = np.where(flat, h, width)
        evals = np.where(flat, 1, evals)
    return x_best, f_best, evals, width


def _grid_bracket(f, lo: np.ndarray, hi: np.ndarray, n: int = 37):
    """Coarse scan that brackets the maximum before the golden section.

    Scans n points of each bracket [lo, hi] in one call of f, on an array of
    shape (n,) + lo.shape; returns the narrowed brackets and n.
    """
    xs = np.linspace(lo, hi, n)
    i = np.argmax(f(xs), axis=0)
    below = np.take_along_axis(xs, np.maximum(i - 1, 0)[None], axis=0)[0]
    above = np.take_along_axis(xs, np.minimum(i + 1, n - 1)[None], axis=0)[0]
    return below, above, n


def optimize_gain(prior: Prior, tol: float = 1e-6) -> OptimizationReport:
    """Best gain strategy for `prior` via closed forms.

    Grid scan plus golden-section search on [0, GAIN_SEARCH_MAX]; the final
    bracket width is at most tol.
    """
    check_positive(tol, "tol")

    objective = np.vectorize(lambda g: gain_fidelity(prior, g), otypes=[float])
    lo, hi, grid_evals = _grid_bracket(objective, np.zeros(1), np.full(1, GAIN_SEARCH_MAX))
    g_star, f_star, evals, width = _golden_max(objective, lo, hi, tol)
    return OptimizationReport(best_strategy=Gain(float(g_star[0])), best_value=float(f_star[0]),
                              evaluations=grid_evals + int(evals[0]),
                              convergence_gap=float(width[0]))


def _curve_node_radii(prior: Prior, n_nodes: int) -> np.ndarray:
    # Outcomes concentrate within the prior support plus a few noise widths;
    # past the last node the constant-ratio extrapolation takes over.
    reach = prior.support_radius(1e-4) + 2.5
    return np.linspace(0.0, reach, n_nodes)


def optimize_guess_curve(prior: Prior, n_nodes: int = 8, tol: float = 1e-3) -> OptimizationReport:
    """Best tabulated radial guess curve for `prior`.

    Coordinate ascent over the node guess radii. Each sweep maximizes the
    single-outcome slice integral at every node's radius, which is exact up
    to the interpolation between nodes; the slices do not depend on each
    other, so all nodes are bracketed and golden-searched in lockstep. The
    full objective is then re-evaluated by the quadrature engine and sweeps
    stop once the improvement drops to tol. Raises ConvergenceError with the
    best report so far if the sweep cap is hit first.
    """
    _check_curve_search(prior, n_nodes, tol)
    return _ascend_curve(prior, optimize_gain(prior, tol=min(tol, 1e-6)), n_nodes, tol)


def _check_curve_search(prior: Prior, n_nodes: int, tol: float) -> None:
    check_count(n_nodes, "n_nodes", 4)
    check_positive(tol, "tol")
    if prior.support_radius(1e-4) <= 1e-6:
        raise ValueError(f"prior support is degenerate: {prior!r}")


def _ascend_curve(prior: Prior, gain_report: OptimizationReport, n_nodes: int,
                  tol: float) -> OptimizationReport:
    """optimize_guess_curve's ascent, started from gain_report, the best
    gain for `prior` at tol min(tol, 1e-6), on arguments already checked."""
    radii = _curve_node_radii(prior, n_nodes)

    # The first node sits at the origin, where the best guess is the origin;
    # the other nodes' slices are independent, so they are searched together.
    r = radii[1:]
    rule = BetaRule.for_prior(prior, QuadratureSpec())

    def slices(rho: np.ndarray) -> np.ndarray:
        return rule(r, rho)

    # Start from the best plain gain; the curve family contains it exactly.
    evals = gain_report.evaluations
    guesses = gain_report.best_strategy.g * radii

    best_curve = RadialCurve(tuple(zip(radii, guesses)))
    best_value = rule.average(best_curve)
    evals += 1

    gap = math.inf
    converged = False
    for _ in range(_MAX_SWEEPS):
        hi = np.maximum(GAIN_SEARCH_MAX * r, guesses[1:] + 1.0)
        lo_b, hi_b, grid_evals = _grid_bracket(slices, np.zeros_like(hi), hi, n=25)
        rho_star, _, ev, _ = _golden_max(slices, lo_b, hi_b, tol * 1e-2)
        guesses[1:] = rho_star
        evals += grid_evals * r.size + int(ev.sum())
        curve = RadialCurve(tuple(zip(radii, guesses)))
        value = rule.average(curve)
        evals += 1
        gap = value - best_value
        if value > best_value:
            best_curve, best_value = curve, value
        if abs(gap) <= tol:
            converged = True
            break

    report = OptimizationReport(best_strategy=best_curve, best_value=best_value,
                                evaluations=evals, convergence_gap=abs(gap), converged=converged)
    if not converged:
        raise ConvergenceError(
            f"guess-curve ascent did not settle within {_MAX_SWEEPS} sweeps "
            f"(last improvement {gap:.3e})", report)
    return report


def classical_bound_estimate(prior: Prior, n_nodes: int = 8, tol: float = 1e-3) -> BoundResult:
    """Best known classical average fidelity for `prior` within the
    implemented families: the larger of the gain optimum and the guess-curve
    optimum.

    This is a lower estimate of the true classical optimum, which is open;
    the measurement is fixed to heterodyne detection and guesses are
    coherent states.
    """
    gain_report = optimize_gain(prior, tol=min(tol, 1e-6))
    _check_curve_search(prior, n_nodes, tol)
    # The curve ascent starts from the same gain report, computed once.
    curve_report = _ascend_curve(prior, gain_report, n_nodes, tol)
    # On a tie max keeps the first report, the gain.
    best = max(gain_report, curve_report, key=lambda report: report.best_value)
    return BoundResult(value=best.best_value, prior=repr(prior), strategy=best.best_strategy)
