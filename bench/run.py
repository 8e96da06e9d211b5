"""lillab benchmark: four CLI workloads with oracle checks and traced layers.

Usage (from the repository root):

    python3 bench/run.py --workload extremal --seed 1 --seconds 18 --trace 0

Workloads (see workloads.py): extremal, montecarlo, long_path, hull.

With ``--trace 0`` the run measures end to end: after one warm-up pass it
repeats passes of the workload's op mix for ``--seconds`` seconds, each pass
on fresh inputs drawn from the seed, and reports medians.  Op times are
given at the reference speed of a calibration loop timed around every op
(workloads.calibrate), which removes most of the shared machine's speed
swings; the measured times are printed too.  ``wall_s`` is the sum over ops
of each op's median time.  ``setup_s`` is the median of several fresh
interpreter processes that import ``lillab.cli`` and build the workload's
examples or domains, scaled the same way against a fixed import of
standard-library modules.  ``peak_rss_mb`` is the run's peak resident set.
Failed ops (exception, non-zero exit, missed oracle) show as ``failed`` out
of ``attempted`` and as failed_frac in the table.

With ``--trace 1`` the run reports per-layer numbers: after the warm-up it
runs a fixed number of passes twice each, untraced and then traced with
spans around the public functions in spans.TRACED, and derives busy time,
self time and work counts per layer (times as measured, totals over the
traced passes), plus the tracing overhead: traced over untraced time of the
same passes, minus one.  The spans are written to
.bench_out/trace-<workload>-<seed>.json.

Human-readable lines come first, including every named metric of the
workload; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run imports
lillab from ./src of the checkout and exits non-zero when it is missing.
"""

from __future__ import annotations

import argparse
import json
import math
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Single-threaded BLAS: the matrices are tiny, and one thread keeps the
# timings steady on a shared two-core machine.  Set before numpy loads.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

MIN_PASSES = 3          # measured passes per end-to-end run, at least
TRACE_PASSES = 3        # untraced + traced pass pairs per traced run
SETUP_PROCESSES = 5     # fresh interpreters timed for setup_s

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

# name -> unit; the prefix names a function in spans.TRACED (minus
# "lillab."), the suffix the quantity derived from its spans
PER_LAYER = {
    "extremals.optimize_extremal.self_s": "s",
    "extremals.optimize_extremal.calls": "count",
    "extremals.adjoint_gradient.busy_s": "s",
    "extremals.adjoint_gradient.calls": "count",
    "extremals.adjoint_gradient.row_cells": "count",
    "extremals.adjoint_gradient.us_per_row_cell": "us",
    "extremals.fd_gradient.busy_s": "s",
    "extremals.fd_gradient.calls": "count",
    "controls.solve_control_ode.busy_s": "s",
    "controls.solve_control_ode.calls": "count",
    "regularity.reach_target.self_s": "s",
    "sde.simulate_sde.busy_s": "s",
    "sde.simulate_sde.calls": "count",
    "sde.simulate_sde.steps": "count",
    "sde.simulate_sde.us_per_step": "us",
    "sde.brownian_path.busy_s": "s",
    "sde.brownian_path.calls": "count",
    "scaling.rescale_path.busy_s": "s",
    "scaling.rescale_path.calls": "count",
    "lil.run_lil_experiment.self_s": "s",
    "lil.run_lil_experiment.path_levels": "count",
    "lil.LilReport.to_csv_string.busy_s": "s",
    "sde.path_to_csv_string.busy_s": "s",
    "sde.path_to_json_dict.busy_s": "s",
    "cli.run.self_s": "s",
    "regularity.polygonalize.cold_s": "s",
    "regularity.polygonalize.warm_s": "s",
    "regularity.polygonalize.calls": "count",
    "examples.get_example.busy_s": "s",
    "trace.overhead_frac": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("extremal", "montecarlo", "long_path",
                                 "hull"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_lillab():
    """Import lillab from this checkout's src/, never from elsewhere."""
    if not (SRC / "lillab" / "__init__.py").is_file():
        raise SystemExit(f"error: no lillab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lillab
    if Path(lillab.__file__).resolve().parent != SRC / "lillab":
        raise SystemExit(f"error: lillab imported from {lillab.__file__}")
    import workloads
    return workloads


_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import lillab.cli, workloads
workloads.WORKLOADS[{name!r}].construct()
print(repr(time.perf_counter() - t0))
"""

# Import work in a fresh process slows less than the calibration loop on a
# contended core, so setup is scaled by an import of standard-library
# modules timed in fresh processes just before and after it instead.
_BASELINE_CODE = """\
import time
t0 = time.perf_counter()
import argparse, asyncio, configparser, csv, ctypes, dataclasses, decimal
import email.parser, fractions, http.client, json, logging, pathlib, sqlite3
import ssl, statistics, tarfile, typing, unittest, xml.dom.minidom, zipfile
print(repr(time.perf_counter() - t0))
"""
BASELINE_REF_S = 0.08


def _child_seconds(code: str) -> float:
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup_sample(name: str):
    """(measured, reference) seconds for a fresh process to import
    lillab.cli and build the workload's examples or domains."""
    before = _child_seconds(_BASELINE_CODE)
    seconds = _child_seconds(
        _SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name))
    baseline = 0.5 * (before + _child_seconds(_BASELINE_CODE))
    return seconds, seconds * BASELINE_REF_S / baseline


def _wall(results) -> float:
    return sum(r.ref_seconds for r in results.values())


def typical_pass_s(passes, measured=False) -> float:
    """Sum over ops of each op's median time: a pass without the bursts."""
    if not passes:
        return math.nan
    return sum(statistics.median(
        p[op].seconds if measured else p[op].ref_seconds for p in passes)
        for op in passes[0])


def _median_over(passes, fn):
    values = [fn(p) for p in passes]
    return statistics.median(values) if values else math.nan


def _tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def named_metrics(name: str, passes) -> list:
    """The workload's own end-to-end metrics, at reference speed."""
    out = []
    if name == "extremal":
        for op in ("ik2_j1", "quad_j2", "lorenz_j3", "reach",
                   "fd_running_max"):
            out.append((f"{op}_s", _median_over(
                passes, lambda p: p[op].ref_seconds), "s"))
    elif name == "montecarlo":
        for label, ops in (("euler", ("euler_quad", "euler_lorenz")),
                           ("exact", ("exact_brownian", "exact_ik2"))):
            rate = _median_over(passes, lambda p: sum(
                p[o].work["path_levels"] for o in ops)
                / sum(p[o].ref_seconds for o in ops))
            out.append((f"{label}_path_levels_per_s", rate, "1/s"))
    elif name == "long_path":
        rate = _median_over(passes, lambda p: sum(
            r.work["steps"] for r in p.values()) / _wall(p))
        out.append(("long_path_steps_per_s", rate, "1/s"))
    elif name == "hull":
        samples = sorted(1e3 * t / p["warm"].slowness
                         for p in passes for t in p["warm"].work["hull_s"])
        if samples:
            q = _tail_percentile(len(samples))
            tail = samples[min(len(samples) - 1,
                               math.ceil(q / 100.0 * len(samples)) - 1)]
            out.append(("hull_p50_ms", statistics.median(samples), "ms"))
            label = "p99" if q == 99.0 else f"p{q:g}"
            out.append((f"hull_{label}_ms", tail, "ms"))
            out.append(("hull_warm_samples", len(samples), "count"))
        out.append(("hull_cold_s", _median_over(
            passes, lambda p: p["cold_2d"].ref_seconds
            + p["cold_3d"].ref_seconds), "s"))
    return out


def run_end_to_end(workload, runner, seconds: float):
    workload.setup()
    runner.run_pass(0)                                   # warm-up
    passes, setup = [], []
    measured, p = 0.0, 1
    while p <= MIN_PASSES or measured < seconds:
        t0 = time.perf_counter()
        results = runner.run_pass(p)
        measured += time.perf_counter() - t0
        if results is not None:
            passes.append(results)
        if len(setup) < SETUP_PROCESSES:   # spread over the run, like passes
            setup.append(setup_sample(workload.name))
        p += 1
    while len(setup) < SETUP_PROCESSES:
        setup.append(setup_sample(workload.name))
    runner.finish()
    contract = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "wall_s": typical_pass_s(passes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    table = [(k, contract[k], unit) for k, unit in END_TO_END]
    table.append(("failed_frac", runner.failed / max(runner.attempted, 1),
                  "ratio"))
    table += named_metrics(workload.name, passes)
    table += [
        ("measured_passes", len(passes), "count"),
        ("wall_measured_s", typical_pass_s(passes, measured=True), "s"),
        ("setup_measured_s", statistics.median(s for s, _ in setup), "s"),
        ("slowness", statistics.median(
            r.slowness for p in passes for r in p.values()), "ratio"),
    ]
    return contract, table


def layer_metrics(recorder, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from the spans of the traced passes."""
    own = recorder.self_times()
    out = {}
    for metric in PER_LAYER:
        target, kind = metric.rsplit(".", 1)
        full = "lillab." + target
        idx = [i for i, s in enumerate(recorder.spans) if s.name == full]
        spans = [recorder.spans[i] for i in idx]

        def count(key):
            return sum(s.counts.get(key, 0) for s in spans)

        if metric == "trace.overhead_frac":
            value = traced_s / untraced_s - 1.0 if untraced_s else math.nan
        elif kind == "calls":
            value = len(spans)
        elif kind == "busy_s":
            value = recorder.busy(full)
        elif kind == "self_s":
            value = sum(own[i] for i in idx)
        elif kind == "cold_s":
            value = sum(s.duration for s in spans if s.op.startswith("cold"))
        elif kind == "warm_s":
            value = sum(s.duration for s in spans if s.op == "warm")
        elif kind.startswith("us_per_"):
            work = count(kind[len("us_per_"):] + "s")
            value = 1e6 * recorder.busy(full) / work if work else 0.0
        else:
            value = count(kind)
        out[metric] = value
    return out


def run_traced(workload, runner):
    from spans import Recorder
    workload.setup()
    runner.run_pass(0)                                   # warm-up
    recorder = Recorder()
    untraced = traced = 0.0
    for p in range(1, TRACE_PASSES + 1):
        plain = runner.run_pass(p)
        with recorder:
            spanned = runner.run_pass(p, recorder)
        if plain is not None and spanned is not None:
            untraced += _wall(plain)
            traced += _wall(spanned)
    runner.finish()
    metrics = layer_metrics(recorder, untraced, traced)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-{runner.seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fp:
        json.dump({"workload": workload.name, "seed": runner.seed,
                   "traced_passes": TRACE_PASSES, "absent": recorder.absent,
                   "metrics": metrics, "spans": recorder.to_json()}, fp)
    table = [(k, v, PER_LAYER[k]) for k, v in metrics.items()]
    return metrics, table, recorder.absent, trace_file


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
            "platform": platform.platform()}


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_lillab()
    OUT.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](run_dir)
        runner = workloads.Runner(workload, args.seed)
        print(f"# lillab benchmark workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("# machine " + json.dumps(machine(), sort_keys=True))
        if args.trace:
            metrics, table, absent, trace_file = run_traced(workload, runner)
            units = PER_LAYER
            print(f"# {TRACE_PASSES} traced passes; spans in {trace_file}")
            if absent:
                print("# absent (reported as 0): " + ", ".join(absent))
        else:
            metrics, table = run_end_to_end(workload, runner, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in runner.failures:
        print("# FAILED " + line.strip().replace("\n", "\n#   "))
    print(f"# ops attempted {runner.attempted}, failed {runner.failed}")
    for name, value, unit in table:
        print(f"{name:44s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
