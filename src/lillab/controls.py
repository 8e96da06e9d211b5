"""Control grids, the limit control ODE, and energy recovery.

Controls are piecewise-constant derivatives u = df/dt on a uniform grid over
[0, 1] with energy (1/2) int |u|^2. The limit ODE dg = L(g) dt + sigma u(t)
dt of an SdeSystem (L, sigma) (the limit system of the rescaling: a
polynomial drift given as a monomial table and a constant (d, k) matrix
sigma) maps a control to a path; the energy recovery map inverts it per
grid cell by least squares and prices unreachable paths at infinity. The
adjoint reads the drift's Jacobian from the same table. A path that leaves
the system's domain is killed as an SDE path is: its explosion_index marks
the first node outside, and later states are nan.

One windowed RK4 sweep (_rk4_window) integrates the control ODE for every
caller, one step per control cell: it evaluates the stages of a whole window
of cells at once, pass after pass, and the drift table's depth passes make
every node exact (a limit drift reads lower coordinates only; a table with
a cycle steps one cell per window). _integrate runs it over a batch of
controls and returns every node (n + 1, B, d); every control path and
functional value of the package is read from those nodes. The extremal
optimizer's adjoint runs the same sweep backward: the transposed RK4 step
is an RK4 step of the adjoint equation, with the functional's node
gradients as sources.
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

    system is the SdeSystem (L, sigma, domain): its drift's jacobian is
    what the adjoint uses, its sigma maps the k controls to the d states,
    and a path dies where it leaves its domain (see sde.alive). x0 is a
    state vector of shape (d,), read only once stored, and t_star <= 1
    bounds the usable horizon.
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


def _control_rhs(problem: LimitOdeProblem, u: np.ndarray):
    """The slopes y -> L(y) + sigma u of the control ODE at controls
    u (..., k), as an rhs(stage, y) of _rk4_window."""
    drift = problem.system.drift
    forcing = u @ problem.system.sigma.T

    def rhs(stage, y):
        return drift(y) + forcing

    return rhs


# Values (cells x rows x d) of one RK4 window; a window has at least one cell.
_WINDOW_VALUES = 2 ** 11


def _window_cells(rows: int, dim: int, depth: Optional[int]) -> int:
    return max(1, _WINDOW_VALUES // max(1, rows * dim)) if depth else 1


def _rk4_increment(rhs, y, h, half, sixth):
    """sixth (k1 + 2 k2 + 2 k3 + k4), the increment of one classical RK4
    step from states y with rhs(stage, y) as in _rk4_window; the widths h,
    half = h / 2 and sixth = h / 6 broadcast against y."""
    k = rhs(0, y)
    acc = k.copy()   # k1 + 2 k2 + 2 k3 + k4, summed in that order
    k = rhs(1, y + half * k)
    acc += 2.0 * k
    k = rhs(2, y + half * k)
    acc += 2.0 * k
    acc += rhs(3, y + h * k)
    return sixth * acc


def _rk4_window(rhs, x: np.ndarray, widths: np.ndarray, passes: int,
                sources: Optional[np.ndarray] = None) -> np.ndarray:
    """Classical RK4 over a window of w cells at once, from exact states x (B, d).

    rhs(stage, y) returns the slopes of RK4 stage 0-3 at states y (w, B, d),
    one entry per cell of the window. Each pass evaluates the four stages of
    every cell from the nodes of the previous pass (at first, x everywhere)
    and rebuilds the nodes as np.cumsum of [x, (h/6)(k1 + 2k2 + 2k3 + k4)];
    cumsum adds in sequence, so a node computed from an exact node is
    bitwise the per-cell loop's x + (h/6)(...). sources (w, B, d), when
    given, are added to the increments: cell j ends at its RK4 step plus
    sources[j]. Node j is exact after j passes, and a coordinate at level l
    of its table's chain (PolynomialDrift.depth) after l passes, since it
    reads lower levels only; a pass that gives back the previous nodes
    proves them all exact. Runs at most min(passes, w) passes, so passes
    must be at least the depth, and returns the nodes (w + 1, B, d).
    """
    w = len(widths)
    h = widths[:, None, None]
    half, sixth = 0.5 * h, h / 6.0
    steps = np.empty((w + 1,) + x.shape)
    steps[0] = x
    nodes = np.broadcast_to(x, steps.shape)
    for left in reversed(range(min(passes, w))):   # passes after this one
        steps[1:] = _rk4_increment(rhs, nodes[:-1], h, half, sixth)
        if sources is not None:
            steps[1:] += sources
        new = np.cumsum(steps, axis=0)
        # the nan-aware comparison only where a nan can make the difference
        if (not left or (new == nodes).all() or (
                np.isnan(new).any()
                and np.array_equal(new, nodes, equal_nan=True))):
            return new
        nodes = new


def _integrate(problem: LimitOdeProblem, u_batch: np.ndarray):
    """Integrate the control ODE for a batch of controls u_batch (B, n_steps, k).

    One classical RK4 step per control cell (see _widths), taken a window of
    cells at a time by _rk4_window. Returns (widths, states (n + 1, B, d),
    first_dead). A row whose state is not alive (see sde.alive) at node j
    has first_dead = j and keeps its last live state from there on; rows
    that survive have first_dead = len(widths) + 1. Dead rows are not
    stepped again. A window takes at most the drift's depth passes; a drift
    with a cycle steps one cell per window. Raises ValueError for an x0 that
    is not alive and for a domain_contains that returns the wrong shape.
    """
    domain = problem.system.domain_contains
    if not alive(problem.x0, domain):
        raise ValueError("x0 outside the domain")
    batch, n_steps, _ = u_batch.shape
    dim = problem.system.dim_state
    widths = _widths(problem.t_star, n_steps)
    n = len(widths)
    states = np.empty((n + 1, batch, dim))
    states[0] = problem.x0
    first_dead = np.full(batch, n + 1)
    live = np.arange(batch)
    depth = problem.system.drift.depth
    start, cap = 0, _window_cells(batch, dim, depth)
    with np.errstate(over="ignore", invalid="ignore"):
        while start < n and live.size:
            # a slice while every row lives: views, where an index array copies
            rows = live if live.size < batch else slice(None)
            end = min(n, start + cap)
            u = u_batch[rows, start:end].transpose(1, 0, 2)
            new = _rk4_window(_control_rhs(problem, u), states[start, rows],
                              widths[start:end], depth or 1)[1:]
            states[start + 1:end + 1, rows] = new
            ok = alive(new, domain)
            dies = ~ok.all(axis=0)
            first_dead[live[dies]] = start + 1 + np.argmin(ok[:, dies], axis=0)
            live = live[~dies]
            start = end
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
    step = g[:-1] + _rk4_increment(_control_rhs(problem, u), g[:-1], h,
                                   0.5 * h, h / 6.0)
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
