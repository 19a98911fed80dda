"""Independent reference computations for the tests.

Everything here deliberately avoids the library's own quadrature and
optimization code paths: scipy adaptive quadrature over the Bessel-collapsed
integrand, dense grid search, and hand-derived closed forms re-stated
locally. Values frozen into the tests were produced by these oracles.
The CSV reference is the whole-file line reader that load_dataset's block
reader replaced, and the simulation reference is the round that allocates
each step's result, which the simulator's in-place chunk buffers replaced.
Like the simulator, it scores each round with its input radius on the
real axis and turns only the returned inputs by their angles.
"""

import math
from typing import Optional

import numpy as np
from scipy import integrate
from scipy.special import i0e

from telebound.core import Gain, seeded_stream
from telebound.data import CSV_HEADER, Dataset, DatasetFormatError
from telebound.simulate import CHUNK_SIZE, NOISE_STD, Constant


def avg_fidelity_scipy(radial_density, b_hi, rho_of_a, a_hi):
    """F = 4 pi II a b p(b) exp(-(a-b)^2 - (rho-b)^2) i0e(2 (a+rho) b) da db."""

    def inner(b):
        f = lambda a: (a * b * radial_density(b)
                       * np.exp(-(a - b) ** 2 - (rho_of_a(a) - b) ** 2)
                       * i0e(2.0 * (a + rho_of_a(a)) * b))
        v, _ = integrate.quad(f, 0.0, a_hi, epsabs=1e-13, epsrel=1e-12, limit=400)
        return v

    v, _ = integrate.quad(inner, 0.0, b_hi, epsabs=1e-13, epsrel=1e-12, limit=400)
    return 4.0 * np.pi * v


def gaussian_gain_scipy(lam, g):
    b_hi = np.sqrt(np.log(1e14) / lam)
    return avg_fidelity_scipy(lambda b: (lam / np.pi) * np.exp(-lam * b * b),
                              b_hi, lambda a: g * a, b_hi + 8.0)


def disk_gain_scipy(radius, g):
    return avg_fidelity_scipy(lambda b: 1.0 / (np.pi * radius**2),
                              radius, lambda a: g * a, radius + 8.0 * max(1.0, g))


def restricted_gain_closed(lam, radius, g, inside):
    """Gaussian-weighted average fidelity with beta restricted to the disk
    (inside) or its complement, gain guess, weight left unnormalized."""
    k = (1.0 - g) ** 2 / (1.0 + g * g)
    whole = lam / ((1.0 + g * g) * (lam + k))
    part = lam * (-np.expm1(-(lam + k) * radius**2)) / ((1.0 + g * g) * (lam + k))
    return part if inside else whole - part


def truncated_gain_closed(lam, radius, g):
    if g == 1.0:
        return 0.5
    k = (1.0 - g) ** 2 / (1.0 + g * g)
    if lam == 0.0:
        return -np.expm1(-k * radius**2) / (radius**2 * (1.0 - g) ** 2)
    part = lam * (-np.expm1(-(lam + k) * radius**2)) / ((1.0 + g * g) * (lam + k))
    return part / (-np.expm1(-lam * radius**2))


def grid_best_gain(value_of_g, lo=0.0, hi=1.2, n=2_000_001):
    gs = np.linspace(lo, hi, n)
    vals = np.array([value_of_g(g) for g in gs]) if n < 10_000 else value_of_g(gs)
    i = int(np.argmax(vals))
    return float(gs[i]), float(vals[i])


def disk_gain_vec(radius):
    """Vectorized closed form for grid searching the disk gain family."""

    def value(gs):
        gs = np.asarray(gs, dtype=float)
        k = (1.0 - gs) ** 2 / (1.0 + gs * gs)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = -np.expm1(-k * radius**2) / (radius**2 * (1.0 - gs) ** 2)
        return np.where(gs == 1.0, 0.5, v)

    return value


# Frozen optima of the disk gain family (grid search, step 6e-7):
#   radius: (g_star, f_star)
DISK_GAIN_OPTIMA = {
    0.5: (0.117697, 0.897447659),
    1.0: (0.361410, 0.742530240),
    2.0: (0.686578, 0.596448725),
    3.0: (0.826165, 0.548788942),
    5.0: (0.927533, 0.519013319),
    10.0: (0.980516, 0.504934684),
}

# Frozen continuum ceilings for coherent radial guesses on uniform disks:
# each measurement outcome's guess optimized independently (scipy quadrature
# + bounded scalar maximization). No tabulated curve can beat these.
DISK_CURVE_IDEAL = {
    1.0: 0.745620899,
    2.0: 0.616251804,
    3.0: 0.574131940,
}


def _parse_field(raw: str, column: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DatasetFormatError(f"line {line_no}: {column} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise DatasetFormatError(f"line {line_no}: {column} must be finite, got {raw!r}")
    return value


def _header(line: str) -> tuple:
    return tuple(part.strip() for part in line.split(","))


def utf8_error(line: str) -> Optional[str]:
    """The codec's reason why a line read with errors="surrogateescape" is
    not UTF-8, or None when it is. The escape is lossless, so the line
    re-encodes to its exact bytes; no UTF-8 sequence holds a CR or LF byte,
    so a line that keeps its line end gives the reason a strict decode of
    the whole file gives."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeError as exc:
        return exc.reason
    return None


def _checked(line: str, line_no: int) -> str:
    """line without its line end, once it is known to be UTF-8."""
    reason = utf8_error(line)
    if reason is not None:
        raise DatasetFormatError(f"line {line_no}: not valid UTF-8 ({reason})")
    return line.rstrip("\r\n")


def _read_lines(fh) -> Dataset:
    """Parse an open CSV dataset line by line, in order, naming the first
    offending line, whatever its defect. Lines end where the file object
    splits them: LF, CRLF or CR."""
    lines = enumerate(fh, start=1)
    header = next(lines, None)
    if header is None:
        raise DatasetFormatError("empty file: expected a header line")
    header = _checked(header[1], 1)
    if _header(header) != CSV_HEADER:
        raise DatasetFormatError(
            f"line 1: expected header {','.join(CSV_HEADER)!r}, got {header!r}")
    re, im, fid = [], [], []
    for line_no, line in lines:
        line = _checked(line, line_no)
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DatasetFormatError(f"line {line_no}: expected 3 fields, got {len(parts)}")
        b_re = _parse_field(parts[0], "beta_re", line_no)
        b_im = _parse_field(parts[1], "beta_im", line_no)
        f = _parse_field(parts[2], "fidelity", line_no)
        if not (0.0 <= f <= 1.0):
            raise DatasetFormatError(f"line {line_no}: fidelity {f} outside [0, 1]")
        re.append(b_re)
        im.append(b_im)
        fid.append(f)
    if not re:
        raise DatasetFormatError("dataset has a header but no records")
    return Dataset(np.array(re), np.array(im), np.array(fid))


def _radius_draw(prior, rng, size):
    u = rng.random(size)
    if prior.lam == 0.0:
        return prior.radius * np.sqrt(u)
    return np.sqrt(-np.log1p(-u * prior.mass)) / math.sqrt(prior.lam)


def _prior_draw(prior, rng, size):
    r = _radius_draw(prior, rng, size)
    theta = 2.0 * np.pi * rng.random(size)
    return r, r * np.exp(1j * theta)


def _factor(strategy, alpha):
    if isinstance(strategy, Gain):
        return strategy.g
    r = np.abs(alpha)
    rs = np.array([p[0] for p in strategy.nodes])
    rhos = np.array([p[1] for p in strategy.nodes])
    last_r, last_rho = strategy.nodes[-1]
    rho = np.where(r > last_r, (last_rho / last_r) * r, np.interp(r, rs, rhos))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(r > 0.0, rho / np.where(r > 0.0, r, 1.0), 0.0)


def round_allocating(prior, strategy, streams, count):
    """One chunk of measure-and-prepare rounds, each step allocating its
    result: prior draw (radius u, angle theta) from the first of streams,
    heterodyne noise re and im from the second and the third, guess factor
    c for the outcome alpha of the input radius r on the real axis, and
    exp(-|d|^2) for the difference d = guess - r, written as
    (c - 1)(r + w_re) + w_re + i c w_im so that w_re survives r + w_re
    rounding to r. Returns the turned inputs r exp(i theta) and the
    fidelities."""
    inputs, real, imag = streams
    r, beta = _prior_draw(prior, inputs, count)
    w_re = real.standard_normal(count) * NOISE_STD
    w_im = imag.standard_normal(count) * NOISE_STD
    alpha = (r + w_re) + 1j * w_im
    c = _factor(strategy, alpha)
    d = np.empty(count, complex)
    with np.errstate(over="ignore"):
        d.real = (c - 1.0) * alpha.real + w_re
        d.imag = c * w_im
        return beta, np.exp(-np.abs(d) ** 2)


def _chunks(n, seed):
    """(streams, count) per chunk: chunk i's inputs, real noise and
    imaginary noise streams, and its number of rounds."""
    for i, start in enumerate(range(0, n, CHUNK_SIZE)):
        streams = (seeded_stream(seed, i), seeded_stream(seed, i, 1), seeded_stream(seed, i, 2))
        yield streams, min(CHUNK_SIZE, n - start)


def simulate_allocating(prior, strategy, n, seed):
    """(mean, std_error) of simulate, from round_allocating chunk by chunk,
    summed in chunk order."""
    total = total_sq = 0.0
    for streams, count in _chunks(n, seed):
        f = round_allocating(prior, strategy, streams, count)[1]
        total += float(np.sum(f))
        total_sq += float(np.sum(f * f))
    mean = total / n
    if n == 1:
        return mean, 0.0
    return mean, math.sqrt(max(0.0, (total_sq - n * mean * mean) / (n - 1)) / n)


def dataset_allocating(prior, n, model, seed):
    """generate_dataset's columns (beta, fidelity), from round_allocating
    chunk by chunk."""
    parts = []
    for streams, count in _chunks(n, seed):
        if isinstance(model, Constant):
            parts.append((_prior_draw(prior, streams[0], count)[1], np.full(count, model.value)))
        else:
            parts.append(round_allocating(prior, model, streams, count))
    return np.concatenate([b for b, _ in parts]), np.concatenate([f for _, f in parts])
