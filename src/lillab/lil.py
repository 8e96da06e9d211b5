"""Monte Carlo check of the iterated-logarithm envelope on a geometric grid.

Each sampled driving path is observed at scales eps_j = eps0 * c^j; a
registered functional is evaluated on the rescaled states of a whole level
at once (scaling.rescale_states, extremals.node_values), and per-path
running extremes track the empirical limsup/liminf.  Convergence to the
extremal constants is loglog slow, so reports carry bracket statistics
calibrated by pilot runs; see the acceptance tests for the brackets.

Noise coupling across scales (noise_coupling = "consistent"): each row is
one driving path seen at every scale, refined coarse to fine.  Linear systems
("exact_linear") refine the state by its Gaussian bridge law; "euler" refines
the Brownian path onto every level grid and steps it with sde.euler_batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .examples import ExampleSystem
from .extremals import node_values
from .scaling import eval_index, rescale_states
from .sde import _philox, equilibrated_cholesky, euler_batch


# Row-nodes per chunk of rows in _euler_values.  A row counts n_steps + 1
# kernel nodes (states, W, increments, and for a running functional its
# rescaled states: up to 2d + 2k doubles) and n_steps / (1 - c) + 3 bridge
# nodes, the most merged times a level can have (W, known W and a temporary:
# 3k doubles), so a level's memory does not grow with n_paths.
_EULER_CHUNK_NODES = 1 << 20


@dataclass(frozen=True)
class LilExperimentConfig:
    """Geometric grid eps_j = eps0 * c^j for j in [j_min, j_max].

    dt_rel only matters for the euler scheme (per-scale step eps_j * dt_rel,
    so every scale resolves the same number of steps per unit rescaled time).
    A report whose explosion fraction exceeds explosion_flag_threshold is
    flagged, not failed.
    """

    c: float = 0.5
    j_min: int = 0
    j_max: int = 27
    eps0: float = 1e-2
    n_paths: int = 2000
    scheme: str = "exact_linear"
    seed: int = 424242
    dt_rel: float = 1e-2
    explosion_flag_threshold: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError("grid ratio c must lie in (0, 1)")
        if not (0 <= self.j_min <= self.j_max < 1 << 20):
            raise ValueError("need 0 <= j_min <= j_max < 2^20")
        if not self.eps0 > 0.0:
            raise ValueError("eps0 must be positive")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.scheme not in ("euler", "exact_linear"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.dt_rel <= 1.0:
            raise ValueError("dt_rel must lie in (0, 1]")
        if not 0.0 <= self.explosion_flag_threshold <= 1.0:
            raise ValueError("explosion_flag_threshold must lie in [0, 1]")

    def j_grid(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    def eps_grid(self) -> np.ndarray:
        return self.eps0 * self.c ** self.j_grid().astype(float)


@dataclass(frozen=True, eq=False)
class LilReport:
    """Per-path value table with running extremes and aggregate statistics.

    values[p, level] is the functional of the rescaled path at eps_j for
    grid level j = j_min + level; nan marks an exploded sample.  running_max
    and running_min are nan-skipping prefix extremes along the grid (so they
    are monotone in depth wherever defined).  aggregate_max/min are global
    extremes over the whole table; mean_running_max/min average the deepest
    running extreme over paths and are the statistics the pre-registered
    acceptance brackets apply to.
    """

    example_name: str
    functional_name: str
    config: LilExperimentConfig
    j_values: np.ndarray
    eps_values: np.ndarray
    values: np.ndarray
    running_max: np.ndarray
    running_min: np.ndarray
    aggregate_max: float
    aggregate_min: float
    mean_running_max: float
    mean_running_min: float
    explosion_count: int
    explosion_fraction: float
    flagged: bool
    noise_coupling: str
    reference: dict
    soft_flags: tuple = ()

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_levels(self) -> int:
        return self.values.shape[1]

    def to_csv_string(self) -> str:
        # a path at a time, by columns: each cell is formatted once, and only
        # one path's cells are Python objects at a time
        keys = [f",{j},{e!r}," for j, e in zip(
            self.j_values.astype(int).tolist(), self.eps_values.tolist())]
        line = "{}{}{!r},{!r},{!r}\n".format
        body = "".join([
            "".join(map(line, itertools.repeat(p), keys, v.tolist(),
                        mx.tolist(), mn.tolist()))
            for p, (v, mx, mn) in enumerate(zip(
                self.values, self.running_max, self.running_min))])
        return "path_id,j,eps,value,running_max,running_min\n" + body

    def to_json_dict(self) -> dict:
        return {
            "example": self.example_name,
            "functional": self.functional_name,
            "config": asdict(self.config),
            "j_values": [int(j) for j in self.j_values],
            "eps_values": [float(e) for e in self.eps_values],
            "n_paths": self.n_paths,
            "n_levels": self.n_levels,
            "aggregate_max": float(self.aggregate_max),
            "aggregate_min": float(self.aggregate_min),
            "mean_running_max": float(self.mean_running_max),
            "mean_running_min": float(self.mean_running_min),
            "explosion_count": self.explosion_count,
            "explosion_fraction": self.explosion_fraction,
            "flagged": self.flagged,
            "noise_coupling": self.noise_coupling,
            "reference": self.reference,
            "soft_flags": list(self.soft_flags),
        }


def running_extremes(values):
    """Prefix maxima and minima of a nonempty sequence of reals."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("running_extremes needs a nonempty 1-d sequence")
    return np.maximum.accumulate(values), np.minimum.accumulate(values)


def _exact_values(example, functional, js, eps, t_star, config):
    """Evaluate a terminal functional at every scale from one Gaussian path.

    The linear transition law gives the state at the coarsest needed time
    directly; deeper scales are drawn from the conditional (bridge) law of
    the earlier time given the later one, so all levels of one row belong to
    the same driving path.  All covariance algebra runs in sqrt(diag)
    equilibrated coordinates: raw transition covariances of chained
    integrators are numerically singular below eps ~ 1e-6 while their
    correlation matrices stay tame.
    """
    spec = example.sde.linear
    d = spec.dim
    phi = example.contraction
    x0 = phi.center
    times = eps * t_star
    values = np.empty((config.n_paths, len(eps)))

    g_hat = None  # fluctuation about the mean, scaled by 1/sqrt(diag cov)
    d_prev = r_prev = None
    t_prev = None
    for level, t in enumerate(times):
        t = float(t)
        cov = spec.covariance(t)
        d_s, corr_chol = equilibrated_cholesky(cov)
        r_s = cov / np.outer(d_s, d_s)
        z = _philox(config.seed, int(js[level])).standard_normal(
            (config.n_paths, d))
        if g_hat is None:
            g_hat = z @ corr_chol.T
        else:
            prop = spec.propagator(t_prev - t)
            # gain K and conditional covariance of x(t) given x(t_prev),
            # both in equilibrated coordinates
            p_hat = prop * (d_s[None, :] / d_prev[:, None])
            gain = r_s @ np.linalg.solve(r_prev, p_hat).T
            cond = r_s - gain @ p_hat @ r_s
            cond = 0.5 * (cond + cond.T)
            d_c, chol_c = equilibrated_cholesky(cond)
            g_hat = g_hat @ gain.T + (z @ chol_c.T) * d_c[None, :]
        mean = spec.propagator(t) @ x0
        x = mean[None, :] + g_hat * d_s[None, :]
        alpha = eval_index(example.index, float(eps[level]))
        y = rescale_states(phi, alpha, float(eps[level]), t_star, x)
        values[:, level] = functional.terminal_value(y)
        d_prev, r_prev, t_prev = d_s, r_s, t
    return values


def _bridged_brownian(seed, rows, js, grids, k):
    """Yield W (n + 1, len(rows), k) on each level's grid, coarse first.

    W starts known at time 0.  Each level merges its grid into the known
    times (a time within 1e-9 steps of a known one is that one; grids need
    not nest), draws free Brownian motion B there and adds the linear
    interpolation of W - B between known times, pinning B at both ends of
    each known interval (Levy-Ciesielski); it keeps the times up to the next
    horizon (0 after the last level) and the first beyond.  Row p draws
    level j from Philox stream (p << 20) | j: chunks agree with a full run.
    """
    known_t, known_w = np.zeros(1), np.zeros((1, len(rows), k))
    for j, times, nxt in zip(js, grids, grids[1:] + [grids[0][:1]]):
        at = np.interp(times, known_t, np.arange(len(known_t)))
        near = known_t[np.rint(at).astype(int)]
        times = np.where(abs(times - near) <= 1e-9 * times[1], near, times)
        merged = np.union1d(known_t, times)
        w = np.zeros((len(merged), len(rows), k))
        for r, p in enumerate(rows):
            w[1:, r] = _philox(seed, (p << 20) | int(j)).standard_normal(
                (len(merged) - 1, k))
        w[1:] *= np.sqrt(np.diff(merged))[:, None, None]
        np.cumsum(w, axis=0, out=w)
        at_known = np.searchsorted(merged, known_t)
        offset = known_w - w[at_known]
        at = np.interp(merged, known_t, np.arange(len(known_t)))
        left = at.astype(int)
        w += offset[left]
        offset = np.diff(offset, axis=0, append=offset[-1:])[left]
        w += offset * (at - left)[:, None, None]
        w[at_known] = known_w
        keep = np.searchsorted(merged, nxt[-1]) + 1
        known_t, known_w = merged[:keep], w[:keep].copy()
        # hold no merged-grid array while the caller steps the kernel
        w, offset = w[np.searchsorted(merged, times)], None
        yield w


def _euler_values(example, functional, js, eps, t_star, config):
    """Euler values at every level, each row driven by one Brownian path.

    Chunks of rows under the _EULER_CHUNK_NODES budget run their levels coarse
    to fine: one euler_batch on increments from _bridged_brownian, then one
    node_values on the rescaled nodes (terminal: the last only); dead rows nan.
    """
    phi, psi = example.contraction, example.index
    d, k = example.sde.dim_state, example.sde.dim_noise
    n_steps = max(1, int(round(t_star / config.dt_rel)))
    grids = [(float(e) * t_star / n_steps) * np.arange(n_steps + 1)
             for e in eps]
    row_nodes = n_steps + 1 + int(n_steps / (1.0 - config.c)) + 3
    chunk = max(1, _EULER_CHUNK_NODES // row_nodes)
    last = -1 if hasattr(functional, "terminal_value") else 0
    values = np.full((config.n_paths, len(eps)), np.nan)
    for first in range(0, config.n_paths, chunk):
        rows = range(first, min(first + chunk, config.n_paths))
        x0 = np.broadcast_to(phi.center, (len(rows), d))
        levels = _bridged_brownian(config.seed, rows, js, grids, k)
        for level, (times, e) in enumerate(zip(grids, eps)):
            w = next(levels)  # not zip: its reused tuple would keep the last w
            states, first_dead = euler_batch(example.sde, x0, np.diff(
                w, axis=0).transpose(1, 0, 2), times[1])
            y = rescale_states(phi, eval_index(psi, e), e, times[last:] / e,
                               states[last:])
            values[rows, level] = np.where(first_dead <= n_steps, np.nan,
                                           node_values(functional, y))
            del w, states, y  # before the next level allocates its own
    return values


def run_lil_experiment(example: ExampleSystem, functional_name: str,
                       config: Optional[LilExperimentConfig] = None
                       ) -> LilReport:
    """Run the grid experiment and collect running extremes per path.

    Deterministic given (config, seed).  Each row is one driving path seen at
    every scale: the exact_linear scheme refines the Gaussian state and the
    euler scheme the Brownian path, both coarse to fine, so the running
    extremes are pathwise limsup/liminf estimates.  A table at a smaller
    j_max is a prefix of the deeper one.  Explosions enter the table as nan
    and only flag the report when their fraction exceeds the configured
    threshold.
    """
    config = config or LilExperimentConfig()
    if functional_name not in example.functionals:
        raise KeyError(
            f"functional {functional_name!r} not registered on example "
            f"{example.name!r}; have {sorted(example.functionals)}"
        )
    functional = example.functionals[functional_name]
    js = config.j_grid()
    eps = config.eps_grid()
    # fail early if either end of the grid leaves the index validity window
    eval_index(example.index, float(eps[0]))
    eval_index(example.index, float(eps[-1]))
    t_star = example.limit_problem.t_star

    kinds = ["terminal_value"] + ["accumulate"] * (config.scheme == "euler")
    if not any(hasattr(functional, kind) for kind in kinds):
        raise ValueError(f"scheme {config.scheme} needs {' or '.join(kinds)}")
    if config.scheme == "exact_linear":
        if example.sde.linear is None:
            raise ValueError(
                "exact_linear scheme needs a linear SDE representation")
        values = _exact_values(example, functional, js, eps, t_star, config)
    else:
        values = _euler_values(example, functional, js, eps, t_star, config)

    running_max = np.fmax.accumulate(values, axis=1)
    running_min = np.fmin.accumulate(values, axis=1)
    dead = ~np.isfinite(values)
    explosion_count = int(dead.sum())
    explosion_fraction = explosion_count / values.size
    if np.all(dead):
        agg_max = agg_min = mean_max = mean_min = math.nan
    else:
        agg_max = float(np.nanmax(values))
        agg_min = float(np.nanmin(values))
        mean_max = float(np.nanmean(running_max[:, -1]))
        mean_min = float(np.nanmean(running_min[:, -1]))

    prefix = functional_name + "_"
    reference = {k: v for k, v in example.reference.items()
                 if k.startswith(prefix)}
    soft = []
    ref_max = reference.get(prefix + "max")
    if ref_max is not None and np.isfinite(mean_max):
        if abs(mean_max) > 1.5 * abs(ref_max["value"]) + 1e-12:
            soft.append(
                f"mean running max {mean_max:.6g} exceeds 1.5x the "
                f"theoretical extreme {ref_max['value']:.6g}"
            )
    return LilReport(
        example_name=example.name,
        functional_name=functional_name,
        config=config,
        j_values=js,
        eps_values=eps,
        values=values,
        running_max=running_max,
        running_min=running_min,
        aggregate_max=agg_max,
        aggregate_min=agg_min,
        mean_running_max=mean_max,
        mean_running_min=mean_min,
        explosion_count=explosion_count,
        explosion_fraction=explosion_fraction,
        flagged=explosion_fraction > config.explosion_flag_threshold,
        noise_coupling="consistent",
        reference=reference,
        soft_flags=tuple(soft),
    )
