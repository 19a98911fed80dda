"""telebound benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload certify_large --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``
directory. The run

  * times set-up: a cold ``import telebound`` in a fresh interpreter plus
    the workload's warm-up, repeated and reported as the median;
  * repeats the workload's fixed problem set (one round) as often as fits
    in ``--seconds``, at least once, and reports the median round;
  * with ``--trace 1`` adds one round with spans recorded around every call
    into a layer, and reports per-layer metrics instead;
  * checks every output outside the timed window and hashes the outputs;
  * prints every metric by name with its unit, writes a record with the
    environment, the inputs, the digests and any failures to
    ``.bench_out/``, and ends with one JSON line:
    {"correct", "attempted", "failed", "metrics"}.

Temporary CSV files live under ``.bench_tmp/`` and are removed at the end.
Workloads and why they were chosen are described in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_ROOT = ROOT / ".bench_tmp"
SETUP_REPEATS = 9
# The keys of workloads.WORKLOADS, which cannot be imported before src/ is found.
NAMES = ("certify_large", "certify_small", "bounds_wide")


def cold_import_s() -> float:
    """Wall time of a fresh interpreter that imports the package, the cost a
    CLI user pays on every invocation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import telebound"], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    caches = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.CalledProcessError):
        caches = {"L2 cache": "unknown", "L3 cache": "unknown"}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(), **caches}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; return the result line plus the full record."""
    import tracing
    import workloads

    env = environment()
    wl = workloads.WORKLOADS[workload](seed, env["nproc"],
                                       **(workloads.TINY[workload] if tiny else {}))
    checks = workloads.Checks()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            imported = cold_import_s()
            start = time.perf_counter()
            wl.warmup(tmp)
            setups.append(imported + time.perf_counter() - start)

        walls, latencies, digests, peak, false_nc = [], [], [], None, None
        # Another round only if it should still end within the time asked for.
        while not walls or sum(walls) + statistics.median(walls) <= seconds:
            start = time.perf_counter()
            ops = wl.run_round(tmp)
            walls.append(time.perf_counter() - start)
            if peak is None:
                peak = peak_rss_mb()  # before any check allocates
            latencies += wl.analyze_latencies(ops)
            before = checks.false_nonclassical
            digests.append(wl.check(ops, tmp, checks))
            if false_nc is None:
                false_nc = checks.false_nonclassical - before

        recorder = None
        if trace:
            recorder = tracing.Recorder()
            with tracing.traced(recorder):
                start = time.perf_counter()
                ops = wl.run_round(tmp)
                traced_wall = time.perf_counter() - start
            digests.append(wl.check(ops, tmp, checks))
        if len(digests) > 1:
            checks.record(f"{workload} rounds", lambda: [] if len(set(digests)) == 1 else
                          ["outputs differ between rounds of one seed"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # Every workload reports the same end-to-end metrics. The analyze latency
    # and the correctness counts, which only some workloads have or which
    # are 0 when all is well, are printed and recorded instead, and the
    # traced run carries the latency and the false-certification count as
    # per-layer metrics.
    end_to_end = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    p50 = p90 = 0.0
    if latencies:
        p50, p90 = (float(q) for q in numpy.percentile(latencies, [50, 90]))
    report = dict(end_to_end)
    report["fail_ratio"] = (len(checks.failures) / checks.attempted, "ratio")
    if workload.startswith("certify"):
        report["analyze_p50_s"] = (p50, "s")
        report["analyze_p90_s"] = (p90, "s")
        report["false_nonclassical"] = (false_nc, "count")

    metrics = end_to_end
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "tiny": tiny, "environment": env, "inputs": wl.inputs(),
              "setup_samples_s": setups, "round_walls_s": walls,
              "analyze_samples": len(latencies),
              "analyze_samples_beyond_p90": sum(x > p90 for x in latencies),
              "digest": digests[0], "failures": checks.failures}
    if trace:
        metrics = tracing.layer_metrics(recorder)
        metrics["cli.analyze.p50_s"] = (p50, "s")  # from the untraced rounds
        metrics["cli.analyze.p90_s"] = (p90, "s")
        metrics["certify.false_nonclassical"] = (false_nc, "count")
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
        top = sum(s.duration for s in recorder.spans if s.parent < 0)
        metrics["trace.unaccounted_s"] = (traced_wall - top, "s")
        report.update(metrics)
        record["traced_wall_s"] = traced_wall
        record["layer_busy_share"] = {k: v / traced_wall
                                      for k, v in tracing.layer_busy(recorder.spans).items()}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for s in recorder.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, **s.info}) + "\n")

    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return {"result": result, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "telebound" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'telebound'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = out["record"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in record["environment"].items()))
    print(f"# rounds={len(record['round_walls_s'])} analyze_samples={record['analyze_samples']} "
          f"beyond_p90={record['analyze_samples_beyond_p90']} digest={record['digest']}")
    for failure in record["failures"]:
        print(f"# FAIL {failure}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
