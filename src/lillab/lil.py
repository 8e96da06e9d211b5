"""Monte Carlo check of the iterated-logarithm envelope on a geometric grid.

Each sampled driving path is observed at scales eps_j = eps0 * c^j; a
registered functional is evaluated on the rescaled states of a whole level
at once, and per-path running extremes track the empirical limsup/liminf.
Convergence to the extremal constants is loglog slow, so reports carry
bracket statistics calibrated by pilot runs; see the acceptance tests.

Both schemes compute every level in its own units, time t / eps_j and
state Y = Z / eps_j^(l/2) of the deviation Z = X - center - t trend, and
read Y / loglog(1/eps_j)^(k/2) = Z / alpha, the limit problem's frame. Each
row is one Gauss-Markov path, refined coarse to fine onto every level
grid by one bridge (_bridge; noise_coupling = "consistent"): exact_linear
bridges Y, euler bridges W / sqrt(eps) and steps Y with sde.euler_batch.
Neither has a depth ceiling (eps_j prints 0.0 past 5e-324).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .examples import ExampleSystem
from .extremals import _require_functional
from .scaling import require_autonomous, rescaling_powers
from .sde import (_BLOCK, _COLUMN_VALUES, LinearSpec, alive, euler_batch,
                  row_normals, trivial_domain)


# Row-nodes per chunk of rows in _table, so memory does not grow with paths:
# a row counts n_steps + 1 level nodes (states, increments, rescaled states)
# and twice the most merged bridge times of a level (the merged process, its
# normals, a step's output, gather and product, and the known values that
# stay live beside the level's nodes).
_CHUNK_NODES = 1 << 20
# New times per spec.bridge call: bounds its temporaries on fine grids.
_BRIDGE_TIMES = 256
# Paths per block of lil.csv text (LilReport.csv_blocks).
_CSV_PATHS = 256


@dataclass(frozen=True)
class LilExperimentConfig:
    """Geometric grid eps_j = eps0 * c^j for j in [j_min, j_max].

    dt_rel is the step of every level in its own time t / eps_j (one step
    for a terminal functional under exact_linear). A report whose
    explosion fraction exceeds explosion_flag_threshold is flagged, not
    failed.
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
    """Per-path value table; every statistic is derived from it.

    values[p, level] is the functional of the rescaled path at eps_j for
    grid level j = j_min + level; nan marks an exploded sample.  running_max
    and running_min are nan-skipping prefix extremes along the grid (so they
    are monotone in depth wherever defined).  aggregate_max/min are global
    extremes over the whole table; mean_running_max/min average the deepest
    running extreme over paths and are the statistics the pre-registered
    acceptance brackets apply to.  All four are nan when every sample
    exploded.  reference holds the example's constants for this functional.
    """

    example_name: str
    functional_name: str
    config: LilExperimentConfig
    values: np.ndarray
    reference: dict
    # run_lil_experiment's work counters (_table); no artifact holds them
    work: dict = field(default_factory=dict)

    # every row is one driving path observed at every scale (module doc)
    noise_coupling = "consistent"

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_levels(self) -> int:
        return self.values.shape[1]

    @property
    def j_values(self) -> np.ndarray:
        return self.config.j_grid()

    @property
    def eps_values(self) -> np.ndarray:
        return self.config.eps_grid()

    @cached_property
    def running_max(self) -> np.ndarray:
        return np.fmax.accumulate(self.values, axis=1)

    @cached_property
    def running_min(self) -> np.ndarray:
        return np.fmin.accumulate(self.values, axis=1)

    @cached_property
    def explosion_count(self) -> int:
        return int((~np.isfinite(self.values)).sum())

    @property
    def explosion_fraction(self) -> float:
        return self.explosion_count / self.values.size

    @property
    def flagged(self) -> bool:
        return self.explosion_fraction > self.config.explosion_flag_threshold

    def _unless_all_dead(self, stat, values) -> float:
        # the nan-skipping statistics warn on a table with no finite sample
        if self.explosion_count == self.values.size:
            return math.nan
        return float(stat(values))

    @property
    def aggregate_max(self) -> float:
        return self._unless_all_dead(np.nanmax, self.values)

    @property
    def aggregate_min(self) -> float:
        return self._unless_all_dead(np.nanmin, self.values)

    @property
    def mean_running_max(self) -> float:
        return self._unless_all_dead(np.nanmean, self.running_max[:, -1])

    @property
    def mean_running_min(self) -> float:
        return self._unless_all_dead(np.nanmean, self.running_min[:, -1])

    @property
    def soft_flags(self) -> tuple:
        """Warnings that do not fail the run: a mean running max above the
        theoretical extreme by more than half the extreme's magnitude."""
        ref = self.reference.get(self.functional_name + "_max")
        mean = self.mean_running_max
        if (ref is None or not np.isfinite(mean)
                or mean <= ref["value"] + 0.5 * abs(ref["value"]) + 1e-12):
            return ()
        return (f"mean running max {mean:.6g} exceeds the theoretical "
                f"extreme {ref['value']:.6g} by more than half its "
                "magnitude",)

    def csv_blocks(self):
        """lil.csv as an iterator of text: the header, then blocks of
        _CSV_PATHS paths.

        Each value is formatted once: a running extreme takes the text of the
        value it copies (_copied_cells). Those values are found, and checked,
        for the whole table before this returns, so a table that cannot be
        written raises here and not halfway through a file; only the
        formatting waits, one block's cells being Python objects at a time.
        """
        values = np.asarray(self.values, dtype=float)
        copied = [_copied_cells(values, self.running_max),
                  _copied_cells(values, self.running_min)]
        keys = [f",{j},{e!r}," for j, e in zip(
            self.j_values.astype(int).tolist(), self.eps_values.tolist())]
        return itertools.chain(
            ["path_id,j,eps,value,running_max,running_min\n"],
            _csv_lines(values, copied, keys))

    def to_csv_string(self) -> str:
        return "".join(self.csv_blocks())

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


def _copied_cells(values, extremes):
    """Flat indices into values (B, L) of the cells that extremes (B, L)
    copy.

    np.fmax/np.fmin.accumulate return one of their operands, so each
    extreme has the bits of the last value, at or before it in its row,
    that had the same bits as the extreme in that value's own column (the
    first column is copied as it is). Raises RuntimeError where it does
    not: its text would be another number's.
    """
    extremes = np.asarray(extremes, dtype=float)
    pos = np.arange(values.size).reshape(values.shape)
    cells = np.maximum.accumulate(np.where(
        extremes.view(np.int64) == values.view(np.int64), pos, -1),
        axis=1).ravel()
    got, want = values.ravel()[cells], extremes.ravel()
    bad = np.flatnonzero((got.view(np.int64) != want.view(np.int64))
                         & ~(np.isnan(got) & np.isnan(want)))
    if bad.size:
        raise RuntimeError(f"running extreme {want[bad[0]]!r} at cell "
                           f"{bad[0]} is no earlier value of its row")
    return cells


def _csv_lines(values, copied, keys):
    """The lines of lil.csv for values (B, L), one string per block of
    _CSV_PATHS paths; copied holds the _copied_cells of the running max
    and min, keys the ",j,eps," text of each level."""
    for first in range(0, len(values), _CSV_PATHS):
        block = values[first:first + _CSV_PATHS]
        n, offset = block.size, first * len(keys)
        value_text = list(map(repr, block.ravel().tolist()))
        text = np.array(value_text, dtype=object)
        fields = [None] * (8 * n)
        paths = map(str, range(first, first + len(block)))
        fields[0::8] = [p for p in paths for _ in keys]
        fields[1::8] = keys * len(block)
        fields[2::8] = value_text
        fields[3::8] = fields[5::8] = [","] * n
        for at, cells in zip((4, 6), copied):
            fields[at::8] = text[cells[offset:offset + n] - offset].tolist()
        fields[7::8] = ["\n"] * n
        yield "".join(fields)


def _bridge_plan(specs, grid, c):
    """Per level (size, at_known, at_grid, keep, steps): what _bridge does,
    in each level's own time, on grid with specs[j] the process of level j.

    A level knows the previous level's times up to c * grid[-1] and the
    first beyond, divided by c (0 at the first), and merges grid into them
    (within 1e-9 steps of a known time is that time). A new last time steps
    forward; the others come in passes, the middle new time of each known
    interval given its two known neighbours. Each step is [new, left,
    right, from_a, from_b, noise] (right = left, from_b = 0 forward). A
    level whose known times and spec equal the previous level's shares its
    entry: at c = 1/2, every level from 1 on shares level 1's.
    """
    plan, known, horizon = [], np.zeros(1), c * grid[-1]
    for spec in specs:
        if plan and np.array_equal(known, seen) and all(map(
                np.array_equal, (spec.a_matrix, spec.sigma), shared)):
            plan.append(plan[-1])
            continue
        at = np.interp(grid, known, np.arange(len(known)))
        near = known[np.rint(at).astype(int)]
        times = np.where(abs(grid - near) <= 1e-9 * grid[1], near, grid)
        merged = np.union1d(known, times)
        pos, end, steps = np.arange(len(merged)), len(merged), []
        done = np.zeros(end, dtype=bool)
        done[np.searchsorted(merged, known)] = True
        while not done.all():
            left = np.maximum.accumulate(np.where(done, pos, -1))
            right = np.minimum.accumulate(np.where(done, pos, end)[::-1])[::-1]
            if right[-1] == end:
                new = pos[-1:]
                steps.append([new, left[new], left[new], *spec.bridge(
                    merged[new] - merged[left[new]])])
            else:
                new = np.flatnonzero(~done & (pos == (left + right) // 2))
                a = merged[new] - merged[left[new]]
                b = merged[right[new]] - merged[new]
                steps.append([new, left[new], right[new], *map(
                    np.concatenate, zip(*(spec.bridge(
                        a[i:i + _BRIDGE_TIMES], b[i:i + _BRIDGE_TIMES])
                        for i in range(0, len(new), _BRIDGE_TIMES))))])
            done[new] = True
        keep = np.searchsorted(merged, horizon) + 1
        plan.append((end, np.searchsorted(merged, known), slice(None)
                     if len(times) == end else np.searchsorted(merged, times),
                     keep, steps))  # a grid of every merged time is a view
        seen, shared = known, (spec.a_matrix, spec.sigma)
        known = merged[:keep] / c
    return plan


def _apply(mat, x, out):
    """Add mat (..., d, d) times each row of x (..., B, d) to out in a fixed
    order of sums, so that a row's bits do not depend on the rows around it."""
    for j in range(x.shape[-1]):
        out += mat[..., None, :, j] * x[..., j, None]


def _bridge(plan, grow, x0, normals):
    """Yield, for plan = _bridge_plan(specs, grid, c), the process from x0
    (B, d) at time 0 on each level's grid, (n + 1, B, d), coarse first, in
    that level's units: the known values of a level are those of the level
    before times grow (d,). normals(level, count) gives (B, count) standard
    normals, which the new times take in step order, coordinate fastest."""
    known = np.asarray(x0, dtype=float)[None]
    for level, (size, at_known, at_grid, keep, steps) in enumerate(plan):
        n_new, (batch, dim) = sum(len(s[0]) for s in steps), known.shape[1:]
        z = normals(level, n_new * dim).reshape(batch, n_new, dim)
        x = np.empty((size, batch, dim))
        x[at_known] = known
        for new, left, right, from_a, from_b, noise in steps:
            out = np.zeros((len(new), batch, dim))
            _apply(noise, z[:, :len(new)].transpose(1, 0, 2), out)
            _apply(from_a, x[left], out)
            _apply(from_b, x[right], out)
            x[new], z = out, z[:, len(new):]
        grid, known = [x[at_grid]], x[:keep] * grow
        del x, z, out  # hold no merged-grid array while the caller uses grid,
        yield grid.pop()  # nor grid once the caller lets go of it


def _table(example, functional, config, work):
    """Values (n_paths, levels): chunks of rows run their levels coarse to
    fine, each one functional.values of Y / loglog(1/eps)^(k/2) on the
    chunk's nodes (the last only for a terminal functional), nan where a
    row died or X = eps^(l/2) Y left the domain. Y follows the example's
    SDE with each monomial times its gain eps^p (scaling.rescaling_powers)
    and sigma as it is; euler steps it at the width t_star / n_steps on
    the domain pulled back to Y, on the whole space several consecutive
    levels of a chunk per euler_batch call, level-major, each row with its
    level's gains: as many as fit in one block of the kernel's array
    layout (_COLUMN_VALUES values over min(n_steps, _BLOCK) nodes), split
    evenly, so that a few paths run on the kernel's arrays. work counts
    the bridge plan entries, the levels run per chunk, the euler_batch
    calls and their rows times steps.
    """
    sde, domain = example.sde, example.sde.domain_contains
    js, t_star = config.j_grid(), example.limit_problem.t_star
    exact = config.scheme == "exact_linear"
    last = -1 if functional.terminal else 0
    n_steps = 1 if exact and functional.terminal else max(
        1, round(t_star / config.dt_rel))
    grid = (t_star / n_steps) * np.arange(n_steps + 1)
    log_eps = math.log(config.eps0) + js * math.log(config.c)
    ell, k = np.array(example.index.exponents, dtype=float).T
    scale = np.exp(0.5 * k * np.log(np.log(-log_eps))[:, None])
    powers, _ = rescaling_powers(sde, example.index)
    gains = np.exp(powers * log_eps[:, None])   # 1.0 where a power is 0
    if exact:   # one spec for a homogeneous chain, whose powers are all 0
        grow = config.c ** (-0.5 * ell)
        specs = [LinearSpec(sde.drift.scaled(g).matrix, sde.sigma) for g in
                 gains] if powers.any() else [sde.linear] * len(js)
    else:
        grow, dim = config.c ** (-0.5 * np.ones(sde.dim_noise)), sde.dim_noise
        specs = [LinearSpec(np.zeros((dim, dim)), np.eye(dim))] * len(js)
    plan = _bridge_plan(specs, grid, config.c)
    work["bridge_plans"] = len({id(entry) for entry in plan})
    chunk = max(1, _CHUNK_NODES // (n_steps + 1 + 2 * max(p[0] for p in plan)))
    values = np.full((config.n_paths, len(js)), np.nan)
    for first in range(0, config.n_paths, chunk):
        rows = range(first, min(first + chunk, config.n_paths))
        per = len(rows)
        levels = _bridge(plan, grow, np.zeros((per, len(grow))),
                         lambda level, n: row_normals(config.seed, js[level],
                                                      rows, n))
        size = 1 if exact or domain is not trivial_domain else max(
            1, _COLUMN_VALUES // min(n_steps, _BLOCK) // (per * sde.dim_state))
        for group in np.array_split(np.arange(len(js)),
                                    -(-len(js) // size)):
            root = np.exp(0.5 * ell * log_eps[group[0]])   # X = eps^(l/2) Y
            if exact:
                z = next(levels)  # not zip: its reused tuple keeps the last z
                dead = ~alive(z[1:] * root, domain).all(axis=0)
            else:  # keep only the increments while they are stepped, one
                # level's without a copy (large chunks)
                inc = [np.diff(next(levels), axis=0) for _ in group]
                inc = inc[0] if len(inc) == 1 else np.concatenate(inc, axis=1)
                z, first_dead = euler_batch(
                    sde if domain is trivial_domain else replace(
                        sde, domain_contains=lambda y: domain(y * root)),
                    np.zeros((inc.shape[1], sde.dim_state)),
                    inc.transpose(1, 0, 2), t_star / n_steps,
                    np.repeat(gains[group], per, axis=0))
                dead = first_dead <= n_steps
                work["euler_calls"] += 1
                work["euler_row_steps"] += inc.shape[1] * n_steps
                del inc
            for g, level in enumerate(group.tolist()):
                part = slice(g * per, (g + 1) * per)
                y = z[last:, part] / scale[level]
                values[first:rows.stop, level] = np.where(
                    dead[part], np.nan, functional.values(y))
            work["levels"] += len(group)
            del z, y  # before the next group allocates its own
    return values


def run_lil_experiment(example: ExampleSystem, functional_name: str,
                       config: Optional[LilExperimentConfig] = None
                       ) -> LilReport:
    """Run the grid experiment and return its table as a LilReport.

    Deterministic given (config, seed).  Each row is one driving path seen at
    every scale: the exact_linear scheme refines the Gaussian deviation from
    the center and the euler scheme the Brownian path, both coarse to fine,
    so the running extremes are pathwise limsup/liminf estimates.  A table
    at a smaller j_max is a prefix of the deeper one.  Explosions enter the
    table as nan and only flag the report when their fraction exceeds the
    configured threshold. ValueError before any path is drawn: for a first
    level outside the index's window (tested on log eps0 + j_min log c),
    for an index with l != 1 in a driven row, for a domain without the
    start 0 of the deviation, and for a center or trend whose deviation Z
    = X - center - t trend does not follow the example's SDE from 0. Of
    the levels that one euler_batch call steps (see _table), a
    NumericalFailure is that of the earliest failing step, the coarsest
    level's on ties. report.work holds the counters of _table.
    """
    config = config or LilExperimentConfig()
    if functional_name not in example.functionals:
        raise KeyError(f"functional {functional_name!r} not registered on "
                       f"example {example.name!r}; have "
                       f"{sorted(example.functionals)}")
    functional = example.functionals[functional_name]
    if math.log(config.eps0) + config.j_min * math.log(config.c) > math.log(
            example.index.eps_star):   # eps0 c^j_min may be 0.0 in floats
        raise ValueError(f"eps={config.eps_grid()[0]:g} outside validity "
                         f"window (0, {example.index.eps_star:g}]")
    _require_functional(functional)
    if config.scheme == "exact_linear" and example.sde.linear is None:
        raise ValueError("exact_linear scheme needs a linear SDE representation")
    if any(ell != 1 for (ell, _), row in zip(example.index.exponents,
                                             example.sde.sigma) if row.any()):
        raise ValueError("every row that noise drives needs l = 1 in the "
                         "index, as derive_rescaling gives")
    require_autonomous(example.sde, example.contraction)
    if not alive(np.zeros((1, example.sde.dim_state)),
                 example.sde.domain_contains).all():
        raise ValueError("the deviation starts at 0, outside the domain")
    work = dict(bridge_plans=0, levels=0, euler_calls=0, euler_row_steps=0)
    values = _table(example, functional, config, work)
    return LilReport(example.name, functional_name, config, values, {
        k: v for k, v in example.reference.items()
        if k.startswith(functional_name + "_")}, work)
