"""Command-line front end.

Subcommands:
  bound     closed-form classical bounds (Gaussian lam or uniform disk)
  quad      average fidelity of a prior x strategy pair by quadrature
  optimize  best gain or guess curve for a prior
  simulate  Monte Carlo average fidelity of a measure-and-prepare round
  generate  synthetic dataset CSV
  analyze   certification verdict for a dataset CSV

Exit codes: 0 success (any verdict), 2 input or parse error, 3 numerical
failure or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bounds import gaussian_bound
from .certify import verdict
from .core import Gain, GaussianIso, Prior, RadialCurve, TruncatedGaussian, UniformDisk, check_curve_node
from .data import DatasetFormatError, load_dataset, utf8_error, write_dataset
from .optimize import ConvergenceError, optimize_gain, optimize_guess_curve
from .quadrature import QuadratureSpec, average_fidelity_quad
from .simulate import Constant, generate_dataset, simulate

__all__ = ["main", "build_parser"]


def _parse_prior(text: str) -> Prior:
    kind, _, arg = text.partition(":")
    try:
        if kind == "gaussian":
            return GaussianIso(float(arg))
        if kind == "disk":
            return UniformDisk(float(arg))
        if kind == "truncgauss":
            lam_s, radius_s = arg.split(",")
            return TruncatedGaussian(float(lam_s), float(radius_s))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad prior {text!r}: {exc}") from None
    raise ValueError(f"unknown prior {text!r}; use gaussian:LAM, disk:R or truncgauss:LAM,R")


def _parse_model(text: str):
    kind, _, arg = text.partition(":")
    try:
        if kind == "const":
            return Constant(float(arg))
        if kind == "gain":
            return Gain(float(arg))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad model {text!r}: {exc}") from None
    if kind == "curve":
        return _load_curve(arg)
    raise ValueError(f"unknown model {text!r}; use const:C, gain:G or curve:FILE")


def _load_curve(path: str) -> RadialCurve:
    nodes, previous = [], None
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii() and (reason := utf8_error(line.encode("utf-8", "surrogateescape"))):
                raise ValueError(f"{path}:{line_no}: not valid UTF-8 ({reason})")
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'radius,guess_radius'")
            try:
                node = (float(parts[0]), float(parts[1]))
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric node") from None
            try:
                check_curve_node(node, previous)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            nodes.append(previous := node)
    try:
        return RadialCurve(tuple(nodes))
    except ValueError as exc:  # fewer than 2 nodes
        raise ValueError(f"{path}: {exc}") from None


def _print_rows(rows) -> None:
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")


def _cmd_bound(args) -> int:
    if args.lam is not None:
        _print_rows([("lambda", f"{args.lam:.6f}"),
                     ("classical_bound", f"{gaussian_bound(args.lam):.6f}")])
    else:
        report = optimize_gain(UniformDisk(args.disk_radius))
        _print_rows([("disk_radius", f"{args.disk_radius:.6f}"),
                     ("classical_bound", f"{report.best_value:.6f}"),
                     ("optimal_gain", f"{report.best_strategy.g:.6f}"),
                     ("note", "gain-family bound; 'optimize --family curve' can tighten it")])
    return 0


def _cmd_quad(args) -> int:
    prior = _parse_prior(args.prior)
    strategy = _parse_model(args.model)
    tol = {} if args.tol is None else {"truncation_tol": args.tol}
    result = average_fidelity_quad(prior, strategy, QuadratureSpec(**tol))
    _print_rows([("value", f"{result.value:.12f}"),
                 ("error_estimate", f"{result.error_estimate:.3e}"),
                 ("outer_cut_radius", f"{result.spec.outer_cut_radius:.6f}"),
                 ("radial_nodes", str(result.spec.radial_nodes))])
    return 0


def _cmd_optimize(args) -> int:
    prior = _parse_prior(args.prior)
    tol = {} if args.tol is None else {"tol": args.tol}
    if args.family == "gain":
        report = optimize_gain(prior, **tol)
        rows = [("family", "gain"),
                ("best_value", f"{report.best_value:.9f}"),
                ("optimal_gain", f"{report.best_strategy.g:.9f}")]
    else:
        report = optimize_guess_curve(prior, n_nodes=args.nodes, **tol)
        rows = [("family", "curve"), ("best_value", f"{report.best_value:.9f}")]
        for r, rho in report.best_strategy.nodes:
            rows.append(("node", f"{r:.6f} {rho:.6f}"))
    rows += [("evaluations", str(report.evaluations)),
             ("convergence_gap", f"{report.convergence_gap:.3e}"),
             ("converged", str(report.converged).lower())]
    _print_rows(rows)
    return 0


def _cmd_simulate(args) -> int:
    prior = _parse_prior(args.prior)
    strategy = _parse_model(args.model)
    est = simulate(prior, strategy, args.n, args.seed, workers=args.workers)
    _print_rows([("mean_fidelity", f"{est.mean:.9f}"),
                 ("std_error", f"{est.std_error:.3e}"),
                 ("n_samples", str(est.n_samples)),
                 ("seed", str(est.seed))])
    return 0


def _cmd_generate(args) -> int:
    ds = generate_dataset(args.radius, args.n, _parse_model(args.model), args.seed,
                          workers=args.workers)
    write_dataset(args.output, ds)
    _print_rows([("records", str(len(ds))),
                 ("max_radius", f"{ds.radius:.6f}"),
                 ("path", args.output)])
    return 0


def _cmd_analyze(args) -> int:
    ds = load_dataset(args.file)
    report = verdict(ds, epsilon=args.epsilon, resamples=args.bootstrap, seed=args.seed,
                     radius=args.radius)
    if args.json:
        print(json.dumps(report.to_dict()))
        return 0
    _print_rows([
        ("records", str(report.n_records)),
        ("sample_radius", f"{report.sample_radius:.6f}"),
        ("observed_max_radius", f"{ds.radius:.6f}"),
        ("epsilon", f"{args.epsilon:g}"),
        ("lambda", f"{report.lam:.6f}"),
        ("tail_mass", f"{report.tail_mass:.6g}"),
        ("weighted_fidelity", f"{report.weighted_fidelity:.6f}"),
        ("ci_low", f"{report.ci_low:.6f}"),
        ("ci_high", f"{report.ci_high:.6f}"),
        ("classical_bound", f"{report.classical_bound:.6f}"),
        ("verdict", report.verdict),
        ("seed", str(report.seed)),
    ])
    print("note: certification requires the bootstrap CI lower bound, not the point")
    print("note: estimate, to clear the bound; the interval rule is a library addition.")
    return 0


def _add_strategy_flags(p: argparse.ArgumentParser) -> None:
    # The flags spell generate's gain:G and curve:FILE, so one parser,
    # _parse_model, builds every command's strategy.
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gain", dest="model", type="gain:{}".format, metavar="GAIN",
                       help="gain strategy")
    group.add_argument("--curve", dest="model", type="curve:{}".format, metavar="CURVE",
                       help="file of 'radius,guess_radius' curve nodes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="telebound",
                                     description="Classical fidelity bounds and certification "
                                                 "for coherent-state teleportation benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="closed-form classical bounds")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float, help="Gaussian inverse width")
    group.add_argument("--disk-radius", type=float, help="uniform disk radius")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("quad", help="average fidelity by quadrature")
    p.add_argument("--prior", required=True, help="gaussian:LAM | disk:R | truncgauss:LAM,R")
    _add_strategy_flags(p)
    p.add_argument("--tol", type=float, default=None, help="truncation tolerance")
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("optimize", help="best strategy within a family")
    p.add_argument("--prior", required=True, help="gaussian:LAM | disk:R | truncgauss:LAM,R")
    p.add_argument("--family", choices=("gain", "curve"), required=True)
    p.add_argument("--nodes", type=int, default=8, help="curve node count")
    p.add_argument("--tol", type=float, default=None, help="convergence tolerance")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="Monte Carlo average fidelity")
    p.add_argument("--prior", required=True, help="gaussian:LAM | disk:R | truncgauss:LAM,R")
    _add_strategy_flags(p)
    p.add_argument("-n", type=int, required=True, help="sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("generate", help="synthetic dataset CSV")
    p.add_argument("--radius", type=float, required=True, help="disk radius of the inputs")
    p.add_argument("-n", type=int, required=True, help="record count")
    p.add_argument("--model", required=True, help="const:C | gain:G | curve:FILE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="certification verdict for a dataset")
    p.add_argument("file", help="dataset CSV")
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="allowed Gaussian mass outside the sampled area")
    p.add_argument("--radius", type=float, default=None,
                   help="assert the experimental area radius (default: max |beta| in the data)")
    p.add_argument("--bootstrap", type=int, default=1000, help="bootstrap resamples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the report as one JSON object")
    p.set_defaults(func=_cmd_analyze)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser as it was, so one per process serves every
    # main call and spares each call the ~2 ms of building it.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DatasetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
