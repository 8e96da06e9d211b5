"""Control grids, the limit control ODE, and energy recovery.

Controls are piecewise-constant derivatives u = df/dt on a uniform grid over
[0, 1] with energy (1/2) int |u|^2. The limit ODE dg = L(g) dt + sigma u(t)
dt of an SdeSystem (L, sigma) (the limit system of the rescaling: a
polynomial drift given as a monomial table and a constant (d, k) matrix
sigma) maps a control to a path; the energy recovery map inverts it per
grid cell by least squares and prices unreachable paths at infinity. The
adjoint reads the drift's Jacobian entries (drift.partials) from the same
table. A path that leaves the system's domain is killed as an SDE path is:
its explosion_index marks the first node outside, and later states are nan.

One sweep (_rk4_cells) forms the classical RK4 steps of the control ODE,
one per control cell, for every caller. A limit drift is graded: each row
reads only coordinates before it in the drift's chain, so the sweep takes
one coordinate at a time in chain order, the stage slopes of every cell at
once (drift.components). From x0 it takes the nodes as a cumulative sum
and the stage states from them (_coordinate_sweep): _integrate runs it so,
in chunks of rows, and returns every node (n + 1, B, d); every control path
and functional value of the package is read from those nodes. From given
left nodes it forms each cell's stage states, for the adjoint, or its
increment, for the Cramer transform. The adjoint runs the transposed
sweep in reverse chain order: the transposed RK4 step is an RK4 step of
the adjoint equation, with the functional's node gradients as sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sde import (ExplosivePath, SdeSystem, _freeze, _philox, _row_path,
                  alive)

# The paper's unit energy ball {(1/2) int |u|^2 <= MAX_ENERGY}.
MAX_ENERGY = 1.0
_BANDLIMITED_MODES = 6   # modes of ControlGrid.random_bandlimited
_CRAMER_TOLERANCE = 1e-5  # off-range miss allowed, see cramer_transform


@dataclass(frozen=True, eq=False)
class ControlGrid:
    """Piecewise-constant control u on n_steps uniform cells of [0, 1].

    values has shape (n_steps, dim); energy = (1/2) * mean(|u_i|^2) which is
    the exact integral for piecewise-constant u.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("values must have shape (n_steps, dim)")
        object.__setattr__(self, "values", v)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def energy(self) -> float:
        return 0.5 * float(np.sum(self.values**2)) / self.n_steps

    def project(self) -> "ControlGrid":
        """Euclidean projection onto {energy <= MAX_ENERGY} (radial shrink)."""
        e = self.energy()
        if e <= MAX_ENERGY:
            return self
        return ControlGrid(self.values * math.sqrt(MAX_ENERGY / e))

    @staticmethod
    def random_bandlimited(n_steps: int, dim: int, seed: int, stream: int = 0,
                           energy: Optional[float] = None) -> "ControlGrid":
        """Low-frequency random control, deterministic in (seed, stream)."""
        rng = _philox(seed, stream)
        mids = (np.arange(n_steps) + 0.5) / n_steps
        vals = np.zeros((n_steps, dim))
        coeff = rng.standard_normal((_BANDLIMITED_MODES, dim, 2))
        for m in range(_BANDLIMITED_MODES):
            vals += coeff[m, :, 0] * np.cos(math.pi * m * mids)[:, None]
            vals += coeff[m, :, 1] * np.sin(math.pi * (m + 1) * mids)[:, None]
        grid = ControlGrid(vals)
        target = rng.uniform(0.3, 1.0) if energy is None else energy
        e = grid.energy()
        if e > 0.0:
            grid = ControlGrid(vals * math.sqrt(target / e))
        return grid


@dataclass(frozen=True, eq=False)
class LimitOdeProblem:
    """Deterministic control ODE dg = L(g) dt + sigma u dt from x0.

    system is the SdeSystem (L, sigma, domain): its drift's partials are
    what the adjoint uses, its sigma maps the k controls to the d states,
    and a path dies where it leaves its domain (see sde.alive). x0 is a
    state vector of shape (d,), read only once stored, and t_star <= 1
    bounds the usable horizon. A drift in which "b_i reads x_j" has a
    cycle raises ValueError naming it; a limit drift has none.
    """

    system: SdeSystem
    x0: np.ndarray
    t_star: float = 1.0

    def __post_init__(self):
        x0 = np.array(self.x0, dtype=float)
        if x0.shape != (self.system.dim_state,):
            raise ValueError("x0 must be a state vector of shape (d,)")
        if not 0.0 < self.t_star <= 1.0:
            raise ValueError("t_star must lie in (0, 1]")
        if cycle := self.system.drift.cycle:
            walk = " -> ".join(f"x{j}" for j in cycle + cycle[:1])
            raise ValueError(f"the drift reads {walk} in a cycle; the "
                             "control ODE needs a graded one")
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)


def _widths(t_star: float, n_steps: int) -> np.ndarray:
    """Widths of the RK4 steps on [0, t_star]; step i integrates control cell i.

    One step per control cell of width 1 / n_steps; a trailing partial cell
    gets its own step.
    """
    h = 1.0 / n_steps
    n_full = int(math.floor(t_star / h + 1e-12))
    widths = [h] * n_full
    partial = t_star - n_full * h
    if partial > 1e-12:
        widths.append(partial)
    return np.asarray(widths)


# Rows x cells of one chunk of the sweeps; a chunk has at least one row.
_CHUNK_CELLS = 2 ** 12


def _chunks(batch: int, cells: int) -> list:
    """Slices cutting batch rows of `cells` cells into the sweeps' chunks."""
    size = max(1, _CHUNK_CELLS // max(1, cells))
    return [slice(lo, min(lo + size, batch)) for lo in range(0, batch, size)]


def _weighted(k1, k2, k3, k4):
    """k1 + 2 k2 + 2 k3 + k4, summed in that order."""
    return k1 + 2.0 * k2 + 2.0 * k3 + k4


def _forcing(u, sigma):
    """sigma u of controls u (..., k) as (..., d): 0.0 plus the products
    u_c sigma_ic in column order, elementwise, so a row's bits do not
    depend on the rows beside it (a matmul takes BLAS dot, gemv or gemm by
    the shape, and they round differently)."""
    out = u[..., 0, None] * sigma[:, 0]
    out += 0.0   # p + 0.0 is 0.0 + p in IEEE arithmetic, -0.0 too
    for c in range(1, sigma.shape[1]):
        out += u[..., c, None] * sigma[:, c]
    return out


def _stage_states(y, slopes, h):
    """[y1, y2, y3, y4] of RK4 steps of widths h from left nodes y1 = y with
    slopes k1, k2, k3: y2 = y + (h/2) k1, y3 = y + (h/2) k2, y4 = y + h k3."""
    return [y, y + 0.5 * h * slopes[0], y + 0.5 * h * slopes[1],
            y + h * slopes[2]]


def _coordinate_sweep(start, slopes, h, source=None):
    """One coordinate of an RK4 sweep over every cell of a chunk at once,
    from its four stage slopes (cells, rows), which read other coordinates
    only, and the widths h (cells, 1): its nodes (cells + 1, rows), the
    np.cumsum of [start, (h/6)(k1 + 2 k2 + 2 k3 + k4) + source], which adds
    in sequence as a per-cell loop does, and its _stage_states at the
    cells' left nodes."""
    steps = np.empty((len(h) + 1,) + np.shape(slopes[0])[1:])
    steps[0] = start
    np.multiply(h / 6.0, _weighted(*slopes), out=steps[1:])
    if source is not None:
        steps[1:] += source
    nodes = np.cumsum(steps, axis=0, out=steps)
    return nodes, _stage_states(nodes[:-1], slopes, h)


def _rk4_cells(problem: LimitOdeProblem, u, h, out=None, left=None):
    """The stage states [y1, y2, y3, y4] (each a list of d coordinates
    (cells, rows)) of one RK4 step of the control ODE per cell at controls
    u (cells, rows, k) and widths h (cells, 1), one coordinate at a time
    along the drift's chain: the slopes b_i(y) + (sigma u)_i read only
    coordinates before i. Without left the cells chain from x0 and out
    (cells + 1, rows, d) receives the nodes (_coordinate_sweep); with left
    nodes (cells, rows, d), out (cells, rows, d) receives the increments
    (h/6)(k1 + 2 k2 + 2 k3 + k4), and without out k4 is not formed."""
    drift = problem.system.drift
    forcing = _forcing(u, problem.system.sigma)
    stages = [[None] * drift.d for _ in range(4)]
    for i in drift.chain:
        b, f = drift.components[i], forcing[..., i]
        slopes = [b(*y) + f for y in stages[:3 if out is None else 4]]
        if left is None:
            out[..., i], own = _coordinate_sweep(problem.x0[i], slopes, h)
        else:
            own = _stage_states(left[..., i], slopes, h)
            if out is not None:
                np.multiply(h / 6.0, _weighted(*slopes), out=out[..., i])
        for stage, y in zip(stages, own):
            stage[i] = y
    return stages


def _integrate(problem: LimitOdeProblem, u_batch: np.ndarray):
    """Integrate the control ODE for a batch of controls u_batch (B, n_steps, k).

    One classical RK4 step per control cell (see _widths), in chunks of
    rows (_chunks), a chunk one coordinate at a time along the drift's
    chain (_rk4_cells). Returns (widths, states (n + 1, B, d), first_dead).
    A row whose state is not alive (see sde.alive) at node j has
    first_dead = j and keeps its last live state from there on; rows that
    survive have first_dead = len(widths) + 1. Raises ValueError for an x0
    that is not alive and for a domain_contains that returns the wrong
    shape.
    """
    system = problem.system
    if not alive(problem.x0, system.domain_contains):
        raise ValueError("x0 outside the domain")
    widths = _widths(problem.t_star, u_batch.shape[1])
    n = len(widths)
    states = np.empty((n + 1, len(u_batch), system.dim_state))
    first_dead = np.full(len(u_batch), n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _chunks(len(u_batch), n):
            _rk4_cells(problem, u_batch[rows, :n].transpose(1, 0, 2),
                       widths[:, None], states[:, rows])
            ok = alive(states[:, rows], system.domain_contains)
            first_dead[rows] = np.where(ok.all(axis=0), n + 1, ok.argmin(0))
    _freeze(states, first_dead)
    return widths, states, first_dead


def solve_control_ode(problem: LimitOdeProblem, control: ControlGrid
                      ) -> ExplosivePath:
    """Integrate the control ODE with one classical RK4 step per control cell.

    Integration runs on [0, t_star]; a trailing partial cell gets its own
    step. Domain exit or a non-finite state at a grid node kills the path at
    that node, matching the SDE explosion convention. This is the one-row
    case of the batched integrator the extremal optimizer uses.
    """
    if control.dim != problem.system.dim_noise:
        raise ValueError("control dimension does not match the problem")
    widths, states, first_dead = _integrate(problem, control.values[None])
    times = np.concatenate([[0.0], np.cumsum(widths)])
    return _row_path(times, states, first_dead, 0)


def cramer_transform(problem: LimitOdeProblem, path: ExplosivePath) -> float:
    """Minimal control energy needed to generate the path, or inf.

    Per grid cell the control is recovered by least squares
    u = sigma^+ (dg/dt - b(g_mid)) at the midpoint state, all cells at once.
    The path is unreachable, and the value inf, if one RK4 step of a cell's
    recovered control from its left node misses its right node outside the
    range of sigma by more than _CRAMER_TOLERANCE * (1 + max |g|) per unit
    time. Cells at or after the explosion index contribute zero.
    """
    if path.dim != problem.system.dim_state:
        raise ValueError("path dimension does not match the problem")
    end = path.explosion_index if path.explosion_index is not None else len(path.times)
    if end < 2:
        return 0.0
    g = path.states[:end]
    h = np.diff(path.times[:end])[:, None]
    mid = 0.5 * (g[:-1] + g[1:])
    b = problem.system.drift(mid)
    sig = problem.system.sigma
    sig_pinv = np.linalg.pinv(sig, rcond=1e-12)
    u = (np.diff(g, axis=0) / h - b) @ sig_pinv.T
    step = np.empty_like(g[1:, None])
    _rk4_cells(problem, u[:, None], h, step, left=g[:-1, None])
    step = g[:-1] + step[:, 0]
    off_range = np.eye(len(sig)) - sig @ sig_pinv
    miss = float(np.max(np.abs((step - g[1:]) @ off_range.T) / h))
    if not miss <= _CRAMER_TOLERANCE * (1.0 + float(np.max(np.abs(g)))):
        return math.inf
    return 0.5 * float(np.sum(np.sum(u**2, axis=-1) * h[:, 0]))


def linear_kernel_oracle(kernel, n_quad: int = 4096,
                         terminal_weight: float = 0.0) -> float:
    """Supremum of f -> terminal_weight * f(1) + int_0^1 kernel(s) f(s) ds
    over the unit energy ball {(1/2) int |df/dt|^2 <= 1}.

    Writing the functional against df/dt gives int K(r) df(r) with
    K(r) = terminal_weight + int_r^1 kernel(s) ds, so by Cauchy-Schwarz the
    value is sqrt(2) * ||K||_2, attained at df/dt proportional to K.
    Composite quadrature on n_quad+1 nodes.
    """
    from scipy.integrate import simpson
    if n_quad < 16:
        raise ValueError("n_quad too small")
    s = np.linspace(0.0, 1.0, n_quad + 1)
    k = np.asarray([float(kernel(t)) for t in s])
    # reverse cumulative trapezoid: K[j] = int_{s_j}^1 kernel
    seg = 0.5 * (k[1:] + k[:-1]) * (s[1] - s[0])
    tail = np.concatenate([seg[::-1].cumsum()[::-1], [0.0]])
    big_k = terminal_weight + tail
    norm_sq = float(simpson(big_k**2, x=s))
    return math.sqrt(2.0 * norm_sq)
