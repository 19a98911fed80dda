"""Property tests: facts checked on drawn inputs across the supported range,
not on hand-picked cases.

Hypothesis runs derandomized, with no example database, a bounded number of
examples and no deadline, so every run draws the same inputs and the suite
stays reproducible.
"""

import cmath

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from telebound import (Gain, GaussianIso, RadialCurve, TruncatedGaussian, UniformDisk,
                       apply_strategy, average_fidelity_quad, fidelity_kernel, gain_fidelity,
                       simulate)
from telebound.quadrature import BetaRule, QuadratureSpec

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

PRIORS = st.one_of(
    st.floats(0.05, 2000.0).map(UniformDisk),
    st.floats(1e-3, 1e3).map(GaussianIso),
    st.builds(TruncatedGaussian, st.floats(1e-3, 1e3), st.floats(0.05, 2000.0)),
)


@st.composite
def slice_rules(draw):
    """A prior's slice rule and a guess-curve node radius r, drawn up to the
    optimizer's last node, support_radius(1e-4) + 2.5."""
    prior = draw(PRIORS)
    r = draw(st.floats(0.0, prior.support_radius(1e-4) + 2.5, exclude_min=True))
    return BetaRule.for_prior(prior, QuadratureSpec()), r


class TestCurveBracketPremises:
    """optimize_guess_curve searches each node r on [max(0, r - reach), r]."""

    @PROPERTY
    @given(slice_rules())
    def test_slice_is_zero_below_the_reach_and_positive_at_r(self, case):
        rule, r = case
        assert rule(r, r) > 0.0
        edge = r - rule.reach
        below = np.append(np.linspace(0.0, edge, 64, endpoint=False), np.nextafter(edge, -np.inf))
        assert (rule(r, below[(0.0 <= below) & (below < edge)]) == 0.0).all()

    @PROPERTY
    @given(slice_rules())
    def test_no_guess_beyond_r_beats_r(self, case):
        # The smoothed prior is radially non-increasing, so the continuous
        # slice is; the rule may exceed it by its summation rounding only.
        rule, r = case
        above = np.append(np.nextafter(r, np.inf), r + (0.5 * r + 1.0) * np.linspace(0.0, 1.0, 65)[1:])
        assert (rule(r, above) <= rule(r, r) * (1.0 + 8.0 * np.finfo(float).eps)).all()



class TestGainBracketPremise:
    """optimize_gain searches [0, 1]."""

    @PROPERTY
    @given(PRIORS, st.floats(1.0, 1e3, exclude_min=True))
    def test_no_gain_above_one_beats_one(self, prior, h):
        # Averaged over the heterodyne noise, F(h) <= 1 / (1 + h^2) < 1/2 =
        # F(1); the closed form may exceed the bound by its rounding only.
        value = gain_fidelity(prior, h)
        assert value < 0.5
        assert value * (1.0 + h * h) <= 1.0 + 2.0 * np.finfo(float).eps


# Priors on which the quadrature's error estimate covers the closed forms.
# Near lam = 1e3 the error reached 0.97 of the estimate, so the range stops
# at lam = 100.
QUAD_PRIORS = st.one_of(
    st.floats(0.05, 20.0).map(UniformDisk),
    st.floats(0.02, 100.0).map(GaussianIso),
    st.builds(TruncatedGaussian, st.floats(0.02, 100.0), st.floats(0.05, 20.0)),
)


class TestGainRoutesAgree:
    """Quadrature and the closed form give a gain's average fidelity."""

    @settings(PROPERTY, max_examples=100)
    @given(QUAD_PRIORS, st.floats(0.0, 1.0))
    def test_quadrature_matches_the_closed_form_within_its_estimate(self, prior, g):
        result = average_fidelity_quad(prior, Gain(g))
        assert abs(result.value - gain_fidelity(prior, g)) <= result.error_estimate


@st.composite
def radial_curves(draw, reachable=False):
    """RadialCurves with 2 to 8 nodes at random non-negative radii and guess
    radii: kinks at every node, rising and falling segments. With
    reachable, each node's guess radius is at most 2 r + 1 at its radius r,
    and the last node's at most 2 r, so the guess modulus stays below
    2 |alpha| + 1 on every segment and beyond the last node."""
    steps = draw(st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=7))
    radii = np.concatenate(([0.0], np.cumsum(steps)))
    if not reachable:
        guesses = draw(st.lists(st.floats(0.0, 10.0), min_size=len(radii), max_size=len(radii)))
    else:
        shares = draw(st.lists(st.floats(0.0, 1.0), min_size=len(radii), max_size=len(radii)))
        guesses = shares * np.append(2.0 * radii[:-1] + 1.0, 2.0 * radii[-1])
    return RadialCurve(tuple(zip(radii, guesses)))


STRATEGIES = st.one_of(st.floats(0.0, 2.0).map(Gain), radial_curves())
AMPLITUDES = st.builds(complex, st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))


class TestRotationPremise:
    """simulate scores each round with its input on the positive real axis."""

    @PROPERTY
    @given(STRATEGIES, AMPLITUDES, AMPLITUDES, st.floats(0.0, 2.0 * np.pi))
    def test_turning_input_and_noise_leaves_the_score(self, strategy, beta, w, t):
        # Every strategy keeps the outcome's direction and sets its modulus
        # from |alpha|, so F(e^{it} beta, e^{it} w) = F(beta, w).
        turn = cmath.exp(1j * t)
        plain = fidelity_kernel(apply_strategy(strategy, beta + w), beta)
        turned = fidelity_kernel(apply_strategy(strategy, turn * (beta + w)), turn * beta)
        assert abs(turned - plain) <= 1e-12


# Strategies whose guess modulus stays below 2 |alpha| + 1: the gains up to
# 2 and every curve under that line. A guess far above its input scores
# almost only on rare rounds, and there 2^16 rounds understate the error:
# RadialCurve(((0, 0), (2^-7, 1))) on UniformDisk(4) has F = 3.9e-6 by
# quadrature, and seed 0 estimates 2.0e-10 with a standard error of 2.0e-10.
REACHABLE = st.one_of(st.floats(0.0, 2.0).map(Gain), radial_curves(reachable=True))


class TestSimulateAgreesWithQuadrature:
    """A seeded Monte Carlo estimate and the quadrature are two routes to
    one average fidelity."""

    @settings(PROPERTY, max_examples=100)
    @given(QUAD_PRIORS, REACHABLE, st.integers(0, 2**32))
    def test_estimate_lands_within_five_standard_errors(self, prior, strategy, seed):
        est = simulate(prior, strategy, 1 << 16, seed)
        quad = average_fidelity_quad(prior, strategy)
        assert abs(est.mean - quad.value) <= 5.0 * est.std_error + quad.error_estimate
