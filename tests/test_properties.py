"""Property tests: facts checked on drawn inputs across the supported range,
not on hand-picked cases.

Hypothesis runs derandomized, with no example database, a bounded number of
examples and no deadline, so every run draws the same inputs and the suite
stays reproducible.
"""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telebound import (Dataset, DatasetFormatError, Gain, GaussianIso, RadialCurve,
                       TruncatedGaussian, UniformDisk, apply_strategy, average_fidelity_quad,
                       fidelity_kernel, gain_fidelity, load_dataset, simulate, write_dataset)
from telebound import data
from telebound.data import CSV_HEADER
from telebound.quadrature import BetaRule, QuadratureSpec

from _oracles import _read_lines

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


def _sides(x):
    """x and the doubles either side of it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# Signed zeros, subnormals and both sides of the writer's split: orjson
# writes the rows whose values are all 0 or inside 1e-4 <= |x| < 1e16, and
# repr the others.
SMALL = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, *_sides(1e-4)]
AMPLITUDE_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                             st.sampled_from([sign * x for x in SMALL + _sides(1e16)
                                              for sign in (1.0, -1.0)]))
FIDELITY_VALUES = st.one_of(st.floats(0.0, 1.0), st.sampled_from(SMALL + [1.0]))


def rows(max_size):
    """Lists of 1 to max_size records (beta_re, beta_im, fidelity)."""
    return st.lists(st.tuples(AMPLITUDE_VALUES, AMPLITUDE_VALUES, FIDELITY_VALUES), min_size=1,
                    max_size=max_size)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "ds.csv"


class TestCsvRoundTrip:
    """write_dataset writes each double so that load_dataset reads it back."""

    @PROPERTY
    @given(rows(12))
    def test_write_then_load_is_bit_exact(self, csv_path, records):
        columns = [np.array(column, dtype=float) for column in zip(*records)]
        write_dataset(csv_path, Dataset(*columns))
        got = load_dataset(csv_path)
        for a, b in zip((got.beta_re, got.beta_im, got.fidelity), columns):
            assert a.tobytes() == b.tobytes()


# Spellings of one double that float() reads back to it. Those that JSON
# also reads (repr, an E exponent, a nonzero integer, padding) keep a block
# on orjson; the others send it line by line.
SPELLINGS = ("repr", "repr", "repr", "integer", "plus", "leading-point", "trailing-point",
             "upper-e", "exponent")


def _spell(value: float, how: str) -> str:
    text = repr(value)
    if how == "integer" and value.is_integer():
        return ("-" if math.copysign(1.0, value) < 0.0 else "") + str(abs(int(value)))
    if how == "plus" and not text.startswith("-"):
        return "+" + text
    if how == "leading-point" and text.lstrip("-").startswith("0."):
        return text.replace("0.", ".", 1)
    if how == "trailing-point" and text.endswith(".0"):
        return text[:-1]
    if how == "upper-e":
        return text.upper()
    if how == "exponent" and "e" not in text:
        return text + "E+0"
    return text


@st.composite
def spelled_lines(draw):
    """(records, lines): records of doubles, fidelities in [0, 1], and the
    CSV lines that spell them, each field in a drawn spelling padded with
    spaces or tabs, each line ended by LF, CRLF or a bare CR."""
    records = draw(rows(4))
    pad = st.text(" \t", max_size=2)
    lines = []
    for record in records:
        fields = [draw(pad) + _spell(v, draw(st.sampled_from(SPELLINGS))) + draw(pad) for v in record]
        lines.append((",".join(fields) + draw(st.sampled_from(["\n", "\r\n", "\r"]))).encode())
    return records, lines


class TestCsvReadersAgree:
    """load_dataset's orjson block parser and its line parser read the same
    files to the same doubles."""

    @PROPERTY
    @given(spelled_lines())
    def test_block_parser_reads_what_the_line_parser_reads(self, case):
        records, lines = case
        by_line = data._parse_lines(lines, 2)
        assert by_line.tobytes() == np.array(records, dtype=float).tobytes()
        by_block = data._parse_block(b"".join(lines))
        assert by_block is None or by_block.tobytes() == by_line.tobytes()

    @settings(PROPERTY, max_examples=100)
    @given(spelled_lines(), spelled_lines(),
           st.sampled_from(["0,oops,0.5", "0.5,0.5,1.5", "0.5,0.5,-1e-300", "0.5,0.5",
                            "0.5,0.5,0.5,0.5", "nan,0,0.5", "0,inf,0.5", "1e400,0,0.5",
                            "0,0,true", "0,0,null", "[1],0,0.5", "0,0,0.5\x00", "0.\xff5,0,0.5"]),
           st.sampled_from([1, 7, 40, data.BLOCK_SIZE]))
    def test_a_defective_line_is_named_as_the_line_reader_names_it(self, csv_path, before, after,
                                                                 bad, block_size):
        text = [",".join(CSV_HEADER).encode() + b"\n", *before[1],
                bad.encode("latin-1") + b"\n", *after[1]]
        csv_path.write_bytes(b"".join(text))
        with open(csv_path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            with pytest.raises(DatasetFormatError) as expected:
                _read_lines(fh)
        assert str(expected.value).startswith(f"line {len(before[1]) + 2}: ")
        with mock.patch.object(data, "BLOCK_SIZE", block_size):
            with pytest.raises(DatasetFormatError) as got:
                load_dataset(csv_path)
        assert str(got.value) == str(expected.value)
