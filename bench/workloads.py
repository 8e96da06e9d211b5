"""The four benchmark workloads and the oracle checks on their outputs.

Every op runs the lillab CLI in-process (``lillab.cli.run([...,
"--out", dir])``) or, where no CLI call fits, a public library function, and
times only that call.  Its outputs are then checked against an oracle that
the benchmark computes on its own; an op that raises, exits non-zero or
misses its check raises ``CheckFailed`` and counts as failed.

A pass runs every op of a workload once.  Pass ``p`` of a run with seed
``s`` draws its inputs (CLI seeds, noise stream indices, hull seeds) from
``pass_seed(s, p)``, so equal seeds give equal inputs and successive passes
sweep different inputs at a fixed size.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

# cli and regularity are called through the module so that a traced pass
# sees the wrapped names; brownian_path only rebuilds oracle inputs
import lillab.cli as cli
import lillab.regularity as regularity
from lillab.examples import get_example
from lillab.extremals import OptimizerConfig
from lillab.sde import brownian_path

M_IK2 = math.sqrt(2.0 / 3.0)            # sup of J1 on IK(2), closed form
M_QUAD = -8.0 / math.pi ** 2            # inf of J2 on quadratic
M_RUNNING_MAX = math.sqrt(2.0)          # sup of max|W| over the energy ball
EXTREMAL_RTOL = 1e-3
# criterion 08 brackets on the mean running max (exact sampler, 2000 paths)
BROWNIAN_BRACKET = (1.0, 1.45)
IK2_BRACKET = (0.4 * M_IK2, 1.15 * M_IK2)
# Euler quadratic/J2: the mean deepest running min lies in this bracket; it
# is checked on the paths pooled over a run, since a single op's handful of
# paths leaves the mean a few-percent chance to cross the lower end
QUAD_ENVELOPE = (1.5 * M_QUAD, 0.0)
STEP_RTOL = 1e-12                       # one Euler step recomputed in numpy

# The shared machine runs this process at one speed, then at about half of
# it, in spells of a fraction of a second to several seconds.  A fixed loop
# of small-array numpy steps, the grain the ops run at, is timed just before
# and just after every op (median of a few loops each); the op's time
# divided by the mean of the two over CALIBRATION_REF_S is its time at the
# reference speed of the loop.
CALIBRATION_STEPS = 1000
CALIBRATION_LOOPS = 3
CALIBRATION_REF_S = 0.005

# Sizes keep one pass of each workload near 2 s on a 2-core machine, so a
# run of 18 s takes medians over several passes.  Three restarts are the two
# constant starts plus one seeded random start: the seed still varies the
# optimizer's path, but the run time stays close to seed-independent.
SIZES = {
    "extremal": {"ik2_cells": 48, "quad_cells": 48, "lorenz_cells": 24,
                 "lorenz_iters": 100, "reach_cells": 32, "fd_cells": 16,
                 "restarts": 3},
    "montecarlo": {"euler_depth": 27, "exact_depth": 27,
                   "euler_quad_paths": 8, "euler_lorenz_paths": 6,
                   "exact_paths": 2000},
    "long_path": {"dt": 1e-4, "rescale_eps": 1e-4},
    "hull": {"samples": 64, "warm_hulls": 150},
}

class CheckFailed(Exception):
    """An op exited non-zero or its output missed the oracle."""


def require(ok, message: str):
    if not ok:
        raise CheckFailed(message)


def pass_seed(seed: int, p: int) -> int:
    return int(np.random.SeedSequence([seed, p]).generate_state(1)[0])


def _calibration_loop() -> float:
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
    x = np.ones(3)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        x = x + 1e-3 * (a @ x)
        if float(np.max(np.abs(x))) > 1e300:
            break
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median seconds of a few runs of a fixed small-array numpy loop."""
    return statistics.median(_calibration_loop()
                             for _ in range(CALIBRATION_LOOPS))


@dataclass
class OpResult:
    name: str
    seconds: float              # as measured
    work: dict = field(default_factory=dict)
    slowness: float = 1.0       # calibration time around the op / reference

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.slowness


def _read_json(path):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def run_cli(argv, out_dir) -> float:
    """Time one in-process CLI call; a non-zero exit code fails the op."""
    t0 = time.perf_counter()
    code = cli.run(list(argv) + ["--out", out_dir])
    seconds = time.perf_counter() - t0
    require(code == 0, f"lillab {argv[0]} exited with code {code}")
    return seconds


class Workload:
    """A named mix of ops; ``ops`` returns the callables of one pass."""

    name = ""

    def __init__(self, out_dir: str, sizes: dict | None = None):
        self.out_dir = out_dir
        self.sizes = dict(SIZES[self.name], **(sizes or {}))

    @staticmethod
    def construct() -> dict:
        """The examples or domains of the workload; setup_s times this."""
        return {}

    def setup(self):
        """Build what the ops share; untimed here."""
        self.built = self.construct()

    def ops(self, seed: int):
        raise NotImplementedError

    def finish(self):
        """Checks over the whole run: list of (name, callable)."""
        return []

    def _dir(self, op: str) -> str:
        path = os.path.join(self.out_dir, op)
        os.makedirs(path, exist_ok=True)
        return path


class Runner:
    """Runs passes of one workload, counting attempted and failed ops."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures = []

    def _attempt(self, name, fn):
        self.attempted += 1
        before = calibrate()
        try:
            result = fn()
        except CheckFailed as err:
            self.failures.append(f"{name}: {err}")
            return None
        except Exception:   # any op error is counted, not fatal
            self.failures.append(f"{name}: " + traceback.format_exc(limit=-3))
            return None
        result.slowness = (before + calibrate()) / (2.0 * CALIBRATION_REF_S)
        return result

    def run_pass(self, p: int, recorder=None):
        """One pass of the op mix: {op: OpResult}, or None if an op failed."""
        results = {}
        for name, fn in self.workload.ops(pass_seed(self.seed, p)):
            if recorder is not None:
                recorder.op = name
            results[name] = self._attempt(name, fn)
        return results if all(r is not None for r in results.values()) \
            else None

    def finish(self):
        for name, fn in self.workload.finish():
            self._attempt(name, fn)

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# extremal: optimizer solves, the control-ODE integrator and its adjoint

def _check_extremal(doc, oracle, label):
    value = doc["value"]
    rel = abs(value - oracle) / abs(oracle)
    require(rel <= EXTREMAL_RTOL,
            f"{label}: value {value!r} misses {oracle!r} (rel {rel:.2e})")
    _check_energy(doc["argext"], label)


def _check_energy(control, label):
    u = np.asarray(control, dtype=float)
    energy = 0.5 * float(np.sum(u ** 2)) / u.shape[0]
    require(energy <= 1.0 + 1e-12, f"{label}: argext energy {energy!r} > 1")


def _ik2_terminal(u: np.ndarray, t: float) -> np.ndarray:
    """Exact terminal state of x1' = x2, x2' = u for piecewise-constant u."""
    n = u.shape[0]
    x1 = x2 = 0.0
    for cell in range(n):
        h = min(1.0 / n, t - cell / n)
        if h <= 1e-12:
            break
        x1 += x2 * h + 0.5 * u[cell] * h * h
        x2 += u[cell] * h
    return np.array([x1, x2])


def _examples(*names) -> dict:
    return {name: get_example(name, **(
        {"d": 2} if name == "iterated_kolmogorov" else {})) for name in names}


class Extremal(Workload):
    name = "extremal"

    @staticmethod
    def construct():
        return _examples("iterated_kolmogorov", "quadratic", "lorenz96",
                         "brownian")

    def ops(self, seed):
        s = self.sizes
        common = ["--restarts", str(s["restarts"]), "--seed", str(seed)]

        def optimize(op, argv, check):
            out = self._dir(op)
            seconds = run_cli(["optimize", *argv, *common], out)
            check(_read_json(os.path.join(out, "result.json")))
            return OpResult(op, seconds)

        def ik2_j1():
            return optimize("ik2_j1", [
                "--example", "iterated_kolmogorov", "--d", "2",
                "--functional", "J1", "--n-steps", str(s["ik2_cells"])],
                lambda doc: _check_extremal(doc, M_IK2, "IK(2)/J1"))

        def quad_j2():
            return optimize("quad_j2", [
                "--example", "quadratic", "--functional", "J2",
                "--sense", "min", "--n-steps", str(s["quad_cells"])],
                lambda doc: _check_extremal(doc, M_QUAD, "quadratic/J2"))

        def lorenz_check(doc):
            require(doc["value"] > 0.0,
                    f"lorenz96/J3: max {doc['value']!r} is not positive")
            _check_energy(doc["argext"], "lorenz96/J3")

        def lorenz_j3():
            return optimize("lorenz_j3", [
                "--example", "lorenz96", "--functional", "J3",
                "--n-steps", str(s["lorenz_cells"]),
                "--max-iters", str(s["lorenz_iters"])], lorenz_check)

        def fd_running_max():
            return optimize("fd_running_max", [
                "--example", "brownian", "--functional", "running_max",
                "--gradient", "fd", "--n-steps", str(s["fd_cells"]),
                "--max-iters", "100"],
                lambda doc: _check_extremal(doc, M_RUNNING_MAX,
                                            "brownian/running_max"))

        def reach():
            # the CLI pins reach to 256 cells x 6 restarts x 200 iterations,
            # so the scaled op calls the library entry point it wraps
            target, t, tol = np.array([0.1, 0.4]), 0.7, 1e-3
            config = OptimizerConfig(n_steps=s["reach_cells"],
                                     n_restarts=s["restarts"],
                                     max_iters=200, seed=seed)
            problem = self.built["iterated_kolmogorov"].limit_problem
            t0 = time.perf_counter()
            report = regularity.reach_target(problem, target, t, config=config,
                                  tolerance=tol)
            seconds = time.perf_counter() - t0
            require(report.status == "reachable" and report.miss <= tol,
                    f"reach: status {report.status} miss {report.miss!r}")
            u = report.control.values[:, 0]
            miss = float(np.linalg.norm(_ik2_terminal(u, t) - target))
            require(miss <= tol, f"reach: control misses target by {miss!r}")
            _check_energy(report.control.values, "reach")
            return OpResult("reach", seconds)

        return [("ik2_j1", ik2_j1), ("quad_j2", quad_j2),
                ("lorenz_j3", lorenz_j3), ("reach", reach),
                ("fd_running_max", fd_running_max)]


# ---------------------------------------------------------------------------
# montecarlo: many short Euler paths (sde, scaling, lil) and the exact
# sampler, whose CLI cost is mostly the lil.csv output layer

def _read_lil(out):
    doc = _read_json(os.path.join(out, "lil.json"))
    table = np.loadtxt(os.path.join(out, "lil.csv"), delimiter=",",
                       skiprows=1, ndmin=2)
    shape = (doc["n_paths"], doc["n_levels"])
    require(table.shape == (shape[0] * shape[1], 6),
            f"lil.csv has shape {table.shape}, expected {shape} rows")
    values, rmax, rmin = (table[:, c].reshape(shape) for c in (3, 4, 5))
    return doc, values, rmax, rmin


def _check_lil(doc, values, rmax, rmin, label):
    require(not np.any(np.isinf(values)), f"{label}: infinite values")
    dead = np.isnan(values)
    require(int(dead.sum()) == doc["explosion_count"],
            f"{label}: explosion count disagrees with the table")
    threshold = doc["config"]["explosion_flag_threshold"]
    require(dead.mean() <= threshold,
            f"{label}: explosion fraction {dead.mean():.3f} > {threshold}")
    for name, got, want in (
            ("running_max", rmax, np.fmax.accumulate(values, axis=1)),
            ("running_min", rmin, np.fmin.accumulate(values, axis=1))):
        require(np.array_equal(got, want, equal_nan=True),
                f"{label}: {name} is not the prefix extreme of the values")
    with np.errstate(invalid="ignore"):
        require(not np.any(np.diff(rmax, axis=1) < 0.0)
                and not np.any(np.diff(rmin, axis=1) > 0.0),
                f"{label}: running extremes are not monotone")
    mean_max = float(np.nanmean(rmax[:, -1]))
    require(math.isclose(mean_max, doc["mean_running_max"], rel_tol=1e-12),
            f"{label}: mean_running_max disagrees with lil.csv")


class MonteCarlo(Workload):
    name = "montecarlo"

    @staticmethod
    def construct():
        return _examples("quadratic", "lorenz96", "brownian",
                         "iterated_kolmogorov")

    def setup(self):
        super().setup()
        self.quad_running_min = {}   # pass seed -> deepest running minima

    def ops(self, seed):
        s = self.sizes

        def lil(op, argv, check):
            out = self._dir(op)
            depth = s[op.split("_")[0] + "_depth"]
            seconds = run_cli(["lil-verify", *argv, "--depth", str(depth),
                               "--seed", str(seed)], out)
            doc, values, rmax, rmin = _read_lil(out)
            _check_lil(doc, values, rmax, rmin, op)
            check(doc, values, rmax, rmin)
            return OpResult(op, seconds, {"path_levels": int(values.size)})

        def euler_quad():
            def keep(doc, values, rmax, rmin):
                self.quad_running_min[seed] = rmin[:, -1]
            return lil("euler_quad", [
                "--example", "quadratic", "--functional", "J2",
                "--scheme", "euler", "--paths", str(s["euler_quad_paths"])],
                keep)

        def euler_lorenz():
            return lil("euler_lorenz", [
                "--example", "lorenz96", "--functional", "J3",
                "--scheme", "euler", "--paths", str(s["euler_lorenz_paths"])],
                lambda *a: None)

        def exact(op, argv, bracket):
            def check(doc, values, rmax, rmin):
                mean = doc["mean_running_max"]
                require(bracket[0] <= mean <= bracket[1],
                        f"{op}: mean running max {mean!r} outside {bracket}")
                require(doc["explosion_count"] == 0, f"{op}: explosions")
            return lil(op, [*argv, "--paths", str(s["exact_paths"])], check)

        return [
            ("euler_quad", euler_quad),
            ("euler_lorenz", euler_lorenz),
            ("exact_brownian", lambda: exact(
                "exact_brownian", ["--example", "brownian",
                                   "--functional", "terminal"],
                BROWNIAN_BRACKET)),
            ("exact_ik2", lambda: exact(
                "exact_ik2", ["--example", "iterated_kolmogorov", "--d", "2",
                              "--functional", "J1"], IK2_BRACKET)),
        ]

    def finish(self):
        def envelope():
            pooled = np.concatenate(list(self.quad_running_min.values()))
            mean = float(np.nanmean(pooled))
            require(QUAD_ENVELOPE[0] <= mean <= QUAD_ENVELOPE[1],
                    f"euler quadratic mean running min {mean!r} outside "
                    f"{QUAD_ENVELOPE} over {pooled.size} paths")
            return OpResult("euler_quad_envelope", 0.0)
        return [("euler_quad_envelope", envelope)] \
            if self.quad_running_min else []


# ---------------------------------------------------------------------------
# long_path: one long path per op through sde (B = 1, large n) and the
# path serializers

def _quadratic_drift(x):
    return np.stack([x[:, 0] ** 2 - x[:, 1] ** 2, 2.0 * x[:, 0] * x[:, 1]],
                    axis=1)


def _lorenz_drift(x):
    x1, x2, x3, x4, x5 = x.T
    return np.stack([(x2 - x4) * x5 - x1, (x3 - x5) * x1 - x2,
                     (x4 - x1) * x2 - x3, (x5 - x2) * x3 - x4,
                     (x1 - x3) * x4 - x5], axis=1)


_QUAD_SIGMA = np.array([[0.0], [1.0]])
_LORENZ_SIGMA = np.array([[1.0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0]]).T


def _read_path(out, stem):
    """States from <stem>.json, cross-checked against <stem>.csv."""
    doc = _read_json(os.path.join(out, stem + ".json"))
    times = np.asarray(doc["times"], dtype=float)
    expl = doc["explosion_index"]
    end = len(times) if expl is None else expl
    states = np.asarray(doc["states"][:end], dtype=float)
    table = np.loadtxt(os.path.join(out, stem + ".csv"), delimiter=",",
                       skiprows=1, ndmin=2)
    require(np.array_equal(table[:, 0], times), f"{stem}: csv/json times")
    require(np.array_equal(table[:end, 1:-1], states),
            f"{stem}: csv/json states")
    require(np.all(table[:, -1] == (np.arange(len(times)) >= end)),
            f"{stem}: csv explosion flags")
    return times, states


def _check_euler_steps(states, dt, increments, drift, sigma, label):
    x = states[:-1]
    pred = x + drift(x) * dt + increments[: len(x)] @ sigma.T
    require(np.allclose(states[1:], pred, rtol=STEP_RTOL, atol=STEP_RTOL),
            f"{label}: a state is not one Euler step from its predecessor")


class LongPath(Workload):
    name = "long_path"

    @staticmethod
    def construct():
        return _examples("iterated_kolmogorov", "quadratic", "lorenz96")

    def ops(self, seed):
        dt = self.sizes["dt"]
        n = int(round(1.0 / dt))
        index = seed % (1 << 20)

        def simulate(op, argv, dim_noise, check):
            out = self._dir(op)
            seconds = run_cli(["simulate", *argv, "--dt", repr(dt),
                               "--horizon", "1", "--seed", str(seed),
                               "--path-index", str(index)], out)
            times, states = _read_path(out, "path")
            require(np.array_equal(times, dt * np.arange(n + 1)),
                    f"{op}: time grid")
            noise = brownian_path(seed, dt=dt, horizon=1.0,
                                  dim_noise=dim_noise, path_index=index)
            check(states, noise.increments)
            return OpResult(op, seconds, {"steps": n})

        def ik2_closed_form(states, inc):
            # x2 = B, x1 = int B: the Euler recursion is a pair of cumsums
            x2 = np.concatenate([[0.0], np.cumsum(inc[:, 0])])
            x1 = np.concatenate([[0.0], np.cumsum(x2[:-1] * dt)])
            require(states.shape == (n + 1, 2), "sim_ik2: exploded or short")
            require(np.allclose(states, np.column_stack([x1, x2]),
                                rtol=STEP_RTOL, atol=STEP_RTOL),
                    "sim_ik2: path differs from the closed-form recursion")

        def rescale_quad():
            eps = self.sizes["rescale_eps"]
            out = self._dir("rescale_quad")
            seconds = run_cli(["rescale", "--example", "quadratic",
                               "--eps", repr(eps), "--dt", repr(dt),
                               "--horizon", "1", "--seed", str(seed),
                               "--path-index", str(index)], out)
            times, states = _read_path(out, "rescaled")
            require(np.allclose(times, dt * np.arange(n + 1), rtol=1e-12),
                    "rescale_quad: rescaled time grid")
            loglog = math.log(math.log(1.0 / eps))
            alpha = np.array([math.sqrt(eps ** 4 * loglog ** 2),
                              math.sqrt(eps * loglog)])
            noise = brownian_path(seed, dt=eps * dt, horizon=eps,
                                  dim_noise=1, path_index=index)
            x = states * alpha
            pred = x[:-1] + _quadratic_drift(x[:-1]) * (eps * dt) \
                + noise.increments[: n] @ _QUAD_SIGMA.T
            require(np.allclose(states[1:], pred / alpha, rtol=1e-9,
                                atol=1e-12),
                    "rescale_quad: rescaled path is not an Euler path "
                    "shrunk by the asymptotic index")
            return OpResult("rescale_quad", seconds, {"steps": n})

        return [
            ("sim_ik2", lambda: simulate(
                "sim_ik2", ["--example", "iterated_kolmogorov", "--d", "2"],
                1, ik2_closed_form)),
            ("sim_quad", lambda: simulate(
                "sim_quad", ["--example", "quadratic"], 1,
                lambda st, inc: _check_euler_steps(
                    st, dt, inc, _quadratic_drift, _QUAD_SIGMA, "sim_quad"))),
            ("sim_lorenz", lambda: simulate(
                "sim_lorenz", ["--example", "lorenz96"], 2,
                lambda st, inc: _check_euler_steps(
                    st, dt, inc, _lorenz_drift, _LORENZ_SIGMA,
                    "sim_lorenz"))),
            ("rescale_quad", rescale_quad),
        ]


# ---------------------------------------------------------------------------
# hull: cold CLI polygonalize calls (each rebuilds the boundary table) and a
# warm library loop on one domain whose table is cached

def check_hull(vertices, facets, normals, volume, direction, dim, label):
    """Criterion 10's audits plus an independent volume on the unit ball."""
    v = np.asarray(vertices, dtype=float)
    normals = np.asarray(normals, dtype=float)
    radius = np.linalg.norm(v, axis=1)
    require(np.allclose(radius, 1.0, rtol=0, atol=1e-9),
            f"{label}: vertices are off the unit sphere")
    audit = np.abs(normals @ np.asarray(direction, dtype=float))
    require(np.all(audit > 1e-12), f"{label}: a facet is parallel to v")
    if dim == 2:
        # all samples on a circle are hull vertices: sort by angle, shoelace
        theta = np.sort(np.arctan2(v[:, 1], v[:, 0]))
        gaps = np.diff(np.append(theta, theta[0] + 2.0 * math.pi))
        oracle = 0.5 * float(np.sum(np.sin(gaps)))
        ball = math.pi
    else:
        tri = v[np.asarray(facets, dtype=int)]
        oracle = float(np.sum(np.abs(np.linalg.det(tri)))) / 6.0
        ball = 4.0 / 3.0 * math.pi
    require(volume <= ball + 1e-12, f"{label}: hull volume exceeds the ball")
    require(math.isclose(volume, oracle, rel_tol=1e-9),
            f"{label}: hull volume {volume!r} != oracle {oracle!r}")


class Hull(Workload):
    name = "hull"

    @staticmethod
    def construct():
        return {"ball2": regularity.DomainSpec.ball(np.zeros(2), 1.0),
                "ball3": regularity.DomainSpec.ball(np.zeros(3), 1.0)}

    def setup(self):
        super().setup()
        self.ball = self.built["ball2"]
        self.direction = np.array([0.0, 1.0])
        # fill the ball's boundary table so the loop measures warm calls
        regularity.polygonalize(self.ball, self.direction,
                                self.sizes["samples"], 0)

    def ops(self, seed):
        n = self.sizes["samples"]

        def cold(dim):
            op = f"cold_{dim}d"
            out = self._dir(op)
            seconds = run_cli(["regularity", "polygonalize", "--dim", str(dim),
                               "--samples", str(n), "--seed", str(seed)], out)
            doc = _read_json(os.path.join(out, "polygon.json"))
            check_hull(doc["vertices"], doc["hull_facets"],
                       doc["facet_normals"], doc["volume"], doc["direction"],
                       dim, op)
            return OpResult(op, seconds)

        def warm():
            times = []
            for k in range(self.sizes["warm_hulls"]):
                t0 = time.perf_counter()
                poly = regularity.polygonalize(self.ball, self.direction, n,
                                               seed + 7919 * k)
                times.append(time.perf_counter() - t0)
                check_hull(poly.vertices, poly.hull_facets,
                           poly.facet_normals, poly.volume, self.direction,
                           2, "warm")
            return OpResult("warm", float(sum(times)), {"hull_s": times})

        return [("cold_2d", lambda: cold(2)), ("cold_3d", lambda: cold(3)),
                ("warm", warm)]


WORKLOADS = {w.name: w for w in (Extremal, MonteCarlo, LongPath, Hull)}
