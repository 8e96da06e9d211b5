"""Run a fixed set of CLI commands and keep everything each one produced.

    python tools/identity_runs.py OUT [--src DIR] [--against OLD]

Each run is one fresh `python -m lillab.cli ... --seed 7` process with the
package imported from DIR (default: this checkout's src). Run NAME writes
its artifacts to OUT/NAME/out (when it passes --out) and its stdout,
stderr and exit code to OUT/NAME/stdout, stderr and exit_code.

With --against OLD, a tree an earlier call wrote (from another checkout,
say), each run is then compared file by file with its namesake in OLD,
all files but manifest.json (wall time, timestamp, counters), the only
file allowed to differ between reruns. Each run that differs is listed
with the files that differ; for a .json or .csv file the largest
absolute difference over its numbers is printed, or "structure differs"
when the two files do not hold numbers at the same places (other keys,
lengths or text). The exit code is 1 if any run differs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

OUT = "@out"   # stands for the run's artifact directory

# (name, CLI arguments); every run gets --seed 7 appended.
RUNS = [
    # simulate
    ("simulate_quadratic", ["simulate", "--example", "quadratic", "--dt", "1e-3",
                            "--out", OUT]),
    ("simulate_quadratic_explodes",
     ["simulate", "--example", "quadratic", "--start", "3,0", "--dt", "1e-3",
      "--out", OUT]),
    ("simulate_quadratic_blows_up",  # dies at t = 0.13: empty fields, nulls
     ["simulate", "--example", "quadratic", "--start", "30,0", "--dt", "1e-2",
      "--out", OUT]),
    ("simulate_quadratic_blows_up_stdout",  # the summary: explosion_time
     ["simulate", "--example", "quadratic", "--start", "30,0", "--dt", "1e-2"]),
    ("simulate_lorenz96", ["simulate", "--example", "lorenz96", "--dt", "1e-3",
                           "--horizon", "0.5", "--out", OUT]),
    ("simulate_ik2_exact", ["simulate", "--example", "iterated_kolmogorov",
                            "--scheme", "exact_linear", "--out", OUT]),
    ("simulate_ik3_exact", ["simulate", "--example", "iterated_kolmogorov",
                            "--d", "3", "--scheme", "exact_linear",
                            "--out", OUT]),
    ("simulate_shifted_exact", ["simulate", "--example", "shifted_kolmogorov",
                                "--scheme", "exact_linear", "--out", OUT]),
    ("simulate_brownian_exact_stdout",
     ["simulate", "--example", "brownian", "--d", "2",
      "--scheme", "exact_linear"]),
    # rescale
    ("rescale_ik2_exact", ["rescale", "--example", "iterated_kolmogorov",
                           "--scheme", "exact_linear", "--out", OUT]),
    ("rescale_ik3_exact", ["rescale", "--example", "iterated_kolmogorov",
                           "--d", "3", "--scheme", "exact_linear",
                           "--out", OUT]),
    ("rescale_shifted_exact", ["rescale", "--example", "shifted_kolmogorov",
                               "--scheme", "exact_linear", "--out", OUT]),
    ("rescale_quadratic", ["rescale", "--example", "quadratic", "--eps", "1e-2",
                           "--out", OUT]),
    ("rescale_lorenz96_stdout", ["rescale", "--example", "lorenz96",
                                 "--eps", "1e-2"]),
    # optimize
    ("optimize_ik2_j1", ["optimize", "--example", "iterated_kolmogorov",
                         "--functional", "J1", "--n-steps", "128",
                         "--restarts", "4", "--out", OUT]),
    # chains of depth 3 and 4: the sweep steps one coordinate after another
    ("optimize_ik3_j1", ["optimize", "--example", "iterated_kolmogorov",
                         "--d", "3", "--functional", "J1", "--n-steps", "64",
                         "--restarts", "3", "--out", OUT]),
    ("optimize_ik4_j1", ["optimize", "--example", "iterated_kolmogorov",
                         "--d", "4", "--functional", "J1", "--n-steps", "64",
                         "--restarts", "3", "--out", OUT]),
    ("optimize_quadratic_j2_min",
     ["optimize", "--example", "quadratic", "--functional", "J2",
      "--sense", "min", "--n-steps", "128", "--restarts", "4", "--out", OUT]),
    ("optimize_quadratic_j2_max",  # the degenerate supremum 0, at u = 0
     ["optimize", "--example", "quadratic", "--functional", "J2",
      "--n-steps", "128", "--restarts", "4", "--out", OUT]),
    ("optimize_lorenz96_j3", ["optimize", "--example", "lorenz96",
                              "--functional", "J3", "--sense", "min",
                              "--n-steps", "64", "--restarts", "4",
                              "--out", OUT]),
    ("optimize_lorenz96_j3_1024",  # its ladder batches span many row chunks
     ["optimize", "--example", "lorenz96", "--functional", "J3",
      "--n-steps", "1024", "--restarts", "4", "--max-iters", "20",
      "--out", OUT]),
    ("optimize_lorenz96_j3_stdout", ["optimize", "--example", "lorenz96",
                                     "--functional", "J3", "--n-steps", "64",
                                     "--restarts", "2"]),
    ("optimize_shifted_j1", ["optimize", "--example", "shifted_kolmogorov",
                             "--functional", "J1", "--n-steps", "128",
                             "--restarts", "3", "--out", OUT]),
    ("optimize_brownian_running_max_fd",
     ["optimize", "--example", "brownian", "--functional", "running_max",
      "--gradient", "fd", "--n-steps", "64", "--restarts", "2",
      "--max-iters", "50", "--out", OUT]),
    ("optimize_quadratic_running_max",
     ["optimize", "--example", "quadratic", "--functional", "running_max",
      "--n-steps", "32", "--restarts", "2", "--max-iters", "30", "--out", OUT]),
    ("optimize_brownian_running_max_adjoint",
     ["optimize", "--example", "brownian", "--functional", "running_max",
      "--gradient", "adjoint", "--n-steps", "64", "--restarts", "2"]),
    ("optimize_ik2_j1_fd", ["optimize", "--example", "iterated_kolmogorov",
                            "--functional", "J1", "--gradient", "fd",
                            "--n-steps", "16", "--restarts", "2"]),
    ("optimize_unknown_gradient",
     ["optimize", "--example", "iterated_kolmogorov", "--functional", "J1",
      "--gradient", "adjiont", "--n-steps", "16", "--restarts", "2"]),
    # regularity
    ("regularity_sphere", ["regularity", "sphere", "--example", "quadratic",
                           "--point", "1,0", "--out", OUT]),
    ("regularity_sphere_tolerance",
     ["regularity", "sphere", "--example", "quadratic", "--point", "0,1",
      "--tolerance", "1e-6", "--out", OUT]),
    ("regularity_cone", ["regularity", "cone", "--example", "quadratic",
                         "--point", "1,0", "--cone-basis", "1,0;0,1",
                         "--out", OUT]),
    ("regularity_reach", ["regularity", "reach", "--example",
                          "iterated_kolmogorov", "--target", "0.2,0.5",
                          "--out", OUT]),
    ("regularity_reach_certificate",
     ["regularity", "reach", "--example", "iterated_kolmogorov",
      "--target", "0,3", "--t", "0.5", "--tolerance", "1e-2", "--out", OUT]),
    ("regularity_polygonalize_2d", ["regularity", "polygonalize",
                                    "--samples", "32", "--out", OUT]),
    ("regularity_polygonalize_3d", ["regularity", "polygonalize", "--dim", "3",
                                    "--samples", "48", "--out", OUT]),
    # examples and check
    ("examples_list", ["examples", "list", "--out", OUT]),
    ("examples_describe_lorenz96", ["examples", "describe", "lorenz96",
                                    "--out", OUT]),
    ("examples_describe_lorenz96_stdout", ["examples", "describe", "lorenz96"]),
    ("examples_describe_ik3", ["examples", "describe", "iterated_kolmogorov",
                               "--d", "3"]),
    ("examples_describe_shifted", ["examples", "describe",
                                   "shifted_kolmogorov"]),
    ("examples_describe_bad_parameter", ["examples", "describe",
                                         "iterated_kolmogorov", "--d", "1"]),
    ("examples_describe_brownian_d0", ["examples", "describe", "brownian",
                                       "--d", "0"]),
    ("examples_describe_unknown", ["examples", "describe", "nosuch"]),
    ("check", ["check", "--out", OUT]),
    # lil-verify
    ("lil_ik2_j1_exact", ["lil-verify", "--example", "iterated_kolmogorov",
                          "--functional", "J1", "--paths", "300",
                          "--depth", "12", "--out", OUT]),
    ("lil_brownian_running_max_euler",
     ["lil-verify", "--example", "brownian", "--functional", "running_max",
      "--scheme", "euler", "--paths", "200", "--depth", "10", "--out", OUT]),
    ("lil_quadratic_j2_euler", ["lil-verify", "--example", "quadratic",
                                "--functional", "J2", "--scheme", "euler",
                                "--paths", "200", "--depth", "10",
                                "--out", OUT]),
    ("lil_ik2_running_max_exact",  # the exact scheme on a running functional
     ["lil-verify", "--example", "iterated_kolmogorov", "--functional",
      "running_max", "--paths", "100", "--depth", "8", "--out", OUT]),
    ("lil_ik2_j1_exact_600_paths",  # blocks of 256, 256 and 88 paths
     ["lil-verify", "--example", "iterated_kolmogorov", "--functional", "J1",
      "--paths", "600", "--depth", "9", "--out", OUT]),
    ("lil_lorenz96_j3_euler", ["lil-verify", "--example", "lorenz96",
                               "--functional", "J3", "--scheme", "euler",
                               "--paths", "100", "--depth", "6",
                               "--out", OUT]),
    ("lil_quadratic_j2_euler_8_paths",  # 28 levels in one euler_batch call
     ["lil-verify", "--example", "quadratic", "--functional", "J2",
      "--scheme", "euler", "--paths", "8", "--depth", "27", "--out", OUT]),
    ("lil_quadratic_j2_euler_2_paths",  # 12 rows, stepped on floats
     ["lil-verify", "--example", "quadratic", "--functional", "J2",
      "--scheme", "euler", "--paths", "2", "--depth", "5", "--out", OUT]),
    ("lil_lorenz96_j3_euler_6_paths",  # two calls of 14 levels
     ["lil-verify", "--example", "lorenz96", "--functional", "J3",
      "--scheme", "euler", "--paths", "6", "--depth", "27", "--out", OUT]),
    ("lil_unknown_scheme", ["lil-verify", "--example", "brownian",
                            "--functional", "terminal", "--scheme", "rk4"]),
    ("lil_ik33_j1_euler",  # alpha_0 would be below the smallest normal
     # float; each level is stepped in its own units and reads
     # loglog(1/eps)^(k/2) only
     ["lil-verify", "--example", "iterated_kolmogorov", "--d", "33",
      "--functional", "J1", "--scheme", "euler", "--paths", "4",
      "--depth", "27", "--dt-rel", "0.1", "--out", OUT]),
    ("lil_brownian_depth_1060",  # eps_j prints 0.0 past 5e-324; exact
     # levels run in their own units, so they have no depth ceiling
     ["lil-verify", "--example", "brownian", "--functional", "terminal",
      "--depth", "1060"]),
    ("lil_ik2_depth_400",  # h^3/3 would underflow in absolute units
     ["lil-verify", "--example", "iterated_kolmogorov", "--functional", "J1",
      "--depth", "400"]),
    ("lil_shifted_j1_euler",  # the deviation from the center, stepped from 0
     ["lil-verify", "--example", "shifted_kolmogorov", "--functional", "J1",
      "--scheme", "euler", "--paths", "400", "--out", OUT]),
    ("lil_brownian_running_max_euler_depth_1060_20_paths",  # the finest
     # absolute step would be subnormal; every level steps t_star / n_steps
     ["lil-verify", "--example", "brownian", "--functional", "running_max",
      "--scheme", "euler", "--paths", "20", "--depth", "1060", "--out", OUT]),
    ("lil_lorenz96_j3_euler_depth_400",  # alpha would underflow from 199
     ["lil-verify", "--example", "lorenz96", "--functional", "J3",
      "--scheme", "euler", "--paths", "20", "--depth", "400", "--out", OUT]),
]


def _run(src: Path, out: Path, name: str, args: list) -> None:
    run_dir = out / name
    run_dir.mkdir(parents=True, exist_ok=False)
    argv = [str(run_dir / "out") if a == OUT else a for a in args]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("LILLAB_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "lillab.cli", *argv, "--seed", "7"],
        cwd=run_dir, env=env, capture_output=True)
    (run_dir / "stdout").write_bytes(proc.stdout)
    (run_dir / "stderr").write_bytes(proc.stderr)
    (run_dir / "exit_code").write_text(f"{proc.returncode}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="new directory for the runs")
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the lillab package")
    parser.add_argument("--against", type=Path,
                        help="tree of earlier runs to compare OUT with")
    ns = parser.parse_args(argv)
    if ns.against is not None and not ns.against.is_dir():
        parser.error(f"--against {ns.against}: no such directory")
    ns.out.mkdir(parents=True, exist_ok=False)
    for name, args in RUNS:
        _run(ns.src.resolve(), ns.out.resolve(), name, args)
        code = (ns.out / name / "exit_code").read_text().strip()
        print(f"{name}: exit {code}", flush=True)
    if ns.against is None:
        return 0
    differ = 0
    for name, _ in RUNS:
        notes = _differences(ns.against / name, ns.out / name)
        if notes:
            differ += 1
            print(f"differs: {name}")
            for note in notes:
                print(f"  {note}")
    print(f"{len(RUNS) - differ} of {len(RUNS)} runs identical "
          f"to {ns.against}")
    return 1 if differ else 0


def _differences(old: Path, new: Path) -> list:
    """One line per file that differs between two run directories."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and p.name != "manifest.json"}

    old_files, new_files = files(old), files(new)
    notes = []
    for rel in sorted(old_files | new_files):
        if rel not in new_files:
            notes.append(f"{rel}: only in {old}")
        elif rel not in old_files:
            notes.append(f"{rel}: only in {new}")
        else:
            a, b = (old / rel).read_bytes(), (new / rel).read_bytes()
            if a != b:
                notes.append(f"{rel}: {_numeric_gap(rel.suffix, a, b)}")
    return notes


def _numeric_gap(suffix: str, a: bytes, b: bytes) -> str:
    """The largest absolute difference over the numbers of two .json or
    .csv files of the same structure."""
    if suffix not in (".json", ".csv"):
        return "differs"
    try:
        pairs = _pair_numbers(*(_parse(suffix, x) for x in (a, b)))
    except (ValueError, csv.Error):   # unreadable, or other keys or text
        return "structure differs"
    gap = max((0.0 if x == y or (math.isnan(x) and math.isnan(y))
               else abs(x - y) for x, y in pairs), default=0.0)
    return f"max abs difference {gap:.3g}"


def _parse(suffix: str, data: bytes):
    text = data.decode()
    if suffix == ".json":
        return json.loads(text)
    return [[_number_or_text(cell) for cell in row]
            for row in csv.reader(text.splitlines())]


def _number_or_text(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _pair_numbers(x, y) -> list:
    """(x, y) number pairs at the same places; ValueError where the two
    documents differ in anything but their numbers."""
    if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
        return [p for k in x for p in _pair_numbers(x[k], y[k])]
    if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        return [p for u, v in zip(x, y) for p in _pair_numbers(u, v)]
    numbers = (int, float)
    if isinstance(x, numbers) and isinstance(y, numbers) \
            and not isinstance(x, bool) and not isinstance(y, bool):
        return [(float(x), float(y))]
    if type(x) is type(y) and x == y:
        return []
    raise ValueError("structure differs")


if __name__ == "__main__":
    sys.exit(main())
