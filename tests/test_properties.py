"""Property tests: facts checked on drawn inputs across the supported range,
not on hand-picked cases.

Hypothesis runs derandomized, with no example database, a bounded number of
examples and no deadline, so every run draws the same inputs and the suite
stays reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from telebound import GaussianIso, TruncatedGaussian, UniformDisk
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
