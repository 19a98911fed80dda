"""Span recorder for the traced benchmark run.

Each public function a workload reaches is wrapped at the module attribute
where its caller looks it up (``telebound.cli.verdict`` is what ``cli.main``
calls, ``telebound.certify.bootstrap_ci`` is what ``verdict`` calls, and so
on). A wrapper records one span per call: name, start, end, parent span and a
few facts read from the arguments or the result. Spans stay in memory and the
originals are restored when the traced block ends. Nothing in the package
itself changes.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a top-level span
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and call counters of one traced round."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, annotate=None):
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            index = len(self.spans)
            span = Span(span_name, time.perf_counter(), math.nan,
                        self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result
        return traced

    def count(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted


def _file_facts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]),
            "rows": len(result) if result is not None else len(args[1])}


def _bootstrap_facts(args, kwargs, result):
    resamples = kwargs.get("resamples", args[2] if len(args) > 2 else 1000)
    return {"n": len(args[0]), "resamples": resamples,
            "zero_width": result[0] == result[1]}


def _panels(lo, hi, width, breaks=()):
    cuts = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    return sum(max(1, math.ceil((b - a) / width)) for a, b in zip(cuts, cuts[1:]))


def _quad_facts(args, kwargs, result):
    """Grid points of the coarse and the doubled pass, computed from the
    returned spec the way the product rule lays out its nodes."""
    prior, strategy = args[0], args[1]
    spec = result.spec
    breaks = tuple(r for r, _ in getattr(strategy, "nodes", ()))
    a_panels = _panels(0.0, spec.outer_cut_radius, spec.panel_width, breaks)
    b_panels = _panels(0.0, prior.support_radius(spec.truncation_tol / 2.0), spec.panel_width)
    evals = sum(a_panels * b_panels * (spec.radial_nodes * m) ** 2 * spec.angular_nodes * m
                for m in (1, 2))
    return {"angular_nodes": spec.angular_nodes, "evals": evals,
            "err_over_tol": result.error_estimate / spec.truncation_tol}


def _evaluations(args, kwargs, result):
    return {"evaluations": result.evaluations}


# (module, attribute, span name, annotate). The span name is the layer that
# implements the function, not the module the caller imported it into.
SPANS = [
    ("telebound.cli", "main", lambda args: f"cli.{args[0][0]}", None),
    ("telebound.cli", "write_dataset", "data.write_dataset", _file_facts),
    ("telebound.cli", "load_dataset", "data.load_dataset", _file_facts),
    ("telebound.cli", "generate_dataset", "simulate.generate_dataset",
     lambda a, k, r: {"records": len(r)}),
    ("telebound.cli", "verdict", "certify.verdict", None),
    ("telebound.certify", "weighted_fidelity", "certify.weighted_fidelity", None),
    ("telebound.certify", "bootstrap_ci", "certify.bootstrap_ci", _bootstrap_facts),
    ("telebound.simulate", "simulate", "simulate.simulate",
     lambda a, k, r: {"samples": r.n_samples}),
    ("telebound.quadrature", "average_fidelity_quad", "quadrature.average_fidelity_quad",
     _quad_facts),
    ("telebound.optimize", "optimize_gain", "optimize.optimize_gain", _evaluations),
    ("telebound.optimize", "optimize_guess_curve", "optimize.optimize_guess_curve",
     _evaluations),
    ("telebound.optimize", "classical_bound_estimate", "optimize.classical_bound_estimate",
     None),
]

# Microsecond calls: counted, not timed.
COUNTS = [("telebound.optimize", "gain_fidelity", "bounds.gain_fidelity")]


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, annotate in SPANS:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, recorder.wrap(name, getattr(module, attr), annotate))
        for module_name, attr, name in COUNTS:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, recorder.count(name, getattr(module, attr)))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children run synchronously inside their parent, so they never overlap
    one another.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_busy(spans: list[Span]) -> dict:
    """Busy time per layer, counting a span only when its parent belongs to
    another layer, so nested calls within one layer are not counted twice."""
    busy: Counter = Counter()
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if s.parent < 0 or spans[s.parent].name.split(".", 1)[0] != layer:
            busy[layer] += s.duration
    return dict(busy)


def _sum(spans, key):
    # A call that raised has no facts.
    return sum(s.info.get(key, 0) for s in spans)


def layer_metrics(recorder: Recorder) -> dict:
    """The per-layer metrics of one traced round, by name."""
    own = self_times(recorder.spans)
    by_name: dict = {}
    for s, s_own in zip(recorder.spans, own):
        entry = by_name.setdefault(s.name, {"spans": [], "self": 0.0})
        entry["spans"].append(s)
        entry["self"] += s_own

    def spans(name):
        return by_name.get(name, {"spans": []})["spans"]

    def busy(name):
        return sum(s.duration for s in spans(name))

    def rate(amount, name):
        t = busy(name)
        return amount / t if t > 0 else 0.0

    def self_s(name):
        return by_name.get(name, {"self": 0.0})["self"]

    write, load = spans("data.write_dataset"), spans("data.load_dataset")
    boot = spans("certify.bootstrap_ci")
    drawn = [s for s in boot if s.info.get("zero_width") is False]
    draws = sum(s.info["n"] * s.info["resamples"] for s in drawn)
    quad = spans("quadrature.average_fidelity_quad")
    curve = spans("optimize.optimize_guess_curve")
    m = {
        "cli.generate.busy_s": (busy("cli.generate"), "s"),
        "cli.generate.self_s": (self_s("cli.generate"), "s"),
        "cli.analyze.busy_s": (busy("cli.analyze"), "s"),
        "cli.analyze.self_s": (self_s("cli.analyze"), "s"),
        "data.write_dataset.busy_s": (busy("data.write_dataset"), "s"),
        "data.write_dataset.mb_per_s": (rate(_sum(write, "bytes") / 1e6, "data.write_dataset"),
                                        "MB/s"),
        "data.load_dataset.busy_s": (busy("data.load_dataset"), "s"),
        "data.load_dataset.mb_per_s": (rate(_sum(load, "bytes") / 1e6, "data.load_dataset"),
                                       "MB/s"),
        "data.load_dataset.rows_per_s": (rate(_sum(load, "rows"), "data.load_dataset"),
                                         "rows/s"),
        "simulate.generate_dataset.busy_s": (busy("simulate.generate_dataset"), "s"),
        "simulate.generate_dataset.records_per_s": (
            rate(_sum(spans("simulate.generate_dataset"), "records"),
                 "simulate.generate_dataset"), "records/s"),
        "simulate.simulate.busy_s": (busy("simulate.simulate"), "s"),
        "simulate.simulate.samples_per_s": (
            rate(_sum(spans("simulate.simulate"), "samples"), "simulate.simulate"), "samples/s"),
        "certify.verdict.busy_s": (busy("certify.verdict"), "s"),
        "certify.verdict.self_s": (self_s("certify.verdict"), "s"),
        "certify.weighted_fidelity.busy_s": (busy("certify.weighted_fidelity"), "s"),
        "certify.bootstrap_ci.busy_s": (busy("certify.bootstrap_ci"), "s"),
        "certify.bootstrap_ci.calls": (len(boot), "count"),
        "certify.bootstrap_ci.zero_width": ((len(boot) - len(drawn)) / len(boot) if boot else 0.0,
                                            "share"),
        "certify.bootstrap_ci.draws_per_s": (rate(draws, "certify.bootstrap_ci"), "draws/s"),
        # Index, gathered-weight and gathered-fidelity arrays (8 bytes per
        # element each) that every resample materializes: a computed figure,
        # not a measured one.
        "certify.bootstrap_ci.computed_bytes": (24 * draws, "B"),
        "quadrature.average_fidelity_quad.busy_s": (busy("quadrature.average_fidelity_quad"), "s"),
        "quadrature.average_fidelity_quad.calls": (len(quad), "count"),
        "quadrature.average_fidelity_quad.angular_nodes_max": (
            max((s.info.get("angular_nodes", 0) for s in quad), default=0), "count"),
        "quadrature.average_fidelity_quad.computed_evals": (_sum(quad, "evals"), "count"),
        "quadrature.average_fidelity_quad.evals_per_s": (
            rate(_sum(quad, "evals"), "quadrature.average_fidelity_quad"), "evals/s"),
        "quadrature.average_fidelity_quad.err_over_tol_max": (
            max((s.info.get("err_over_tol", 0.0) for s in quad), default=0.0), "ratio"),
        "optimize.optimize_guess_curve.busy_s": (busy("optimize.optimize_guess_curve"), "s"),
        "optimize.optimize_guess_curve.evaluations": (_sum(curve, "evaluations"), "count"),
        "optimize.optimize_guess_curve.evals_per_s": (
            rate(_sum(curve, "evaluations"), "optimize.optimize_guess_curve"), "evals/s"),
        "optimize.optimize_gain.busy_s": (busy("optimize.optimize_gain"), "s"),
        "optimize.optimize_gain.evaluations": (_sum(spans("optimize.optimize_gain"), "evaluations"),
                                               "count"),
        "optimize.classical_bound_estimate.busy_s": (busy("optimize.classical_bound_estimate"),
                                                     "s"),
        "bounds.gain_fidelity.calls": (recorder.counts["bounds.gain_fidelity"], "count"),
    }
    return m
