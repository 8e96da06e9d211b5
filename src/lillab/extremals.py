"""Extremal values of path functionals over the unit energy ball.

optimize_extremal runs projected gradient ascent/descent on the
piecewise-constant control, with deterministic multi-start. The functional
picks its gradient (is_terminal): a continuous adjoint sweep (one forward +
one backward integration) for a terminal functional, central finite
differences for a running one, which has no terminal gradient.

Every control, single or batched, goes through the one windowed RK4 sweep of
lillab.controls (solve_control_ode is its one-row case). Terminal and running
functional values keep only the states of the current window; the adjoint
runs the same sweep backward over reversed cells, on the node states the
forward sweep stores for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np

from .controls import (MAX_ENERGY, ControlGrid, LimitOdeProblem, _integrate,
                       _node_states, _rk4_window, _window_cells)
from .sde import ExplosivePath, NumericalFailure

_FD_STEP = 1e-6       # relative step of the central differences
_TOL_VALUE = 1e-12    # relative gain below which an iteration stalls
_STEP_INIT = 1.0      # first line-search step of every restart
_BACKTRACKS = 40      # trials per iteration: a step and its halvings


# ---------------------------------------------------------------------------
# Path functionals

def is_terminal(functional) -> bool:
    """True for a terminal functional, False for a running one.

    A terminal functional (terminal_value, terminal_gradient) is read on the
    last node only and takes the adjoint gradient; a running one (accumulate,
    running_value) is folded over every node and takes finite differences.
    A functional with neither raises ValueError.
    """
    if hasattr(functional, "terminal_value"):
        return True
    if hasattr(functional, "accumulate"):
        return False
    raise ValueError("functional needs terminal_value or accumulate")


def node_values(functional, nodes: np.ndarray) -> np.ndarray:
    """Values on node states (n, B, d): terminal_value of the last node, or
    accumulate folded over all nodes, then running_value. No death mask."""
    if is_terminal(functional):
        return functional.terminal_value(nodes[-1])
    return functional.running_value(reduce(functional.accumulate, nodes, None))


class _NodeFunctional:
    def evaluate(self, path: ExplosivePath) -> float:
        """One-row case of node_values; nan once the path has exploded."""
        if path.explosion_index is not None:
            return math.nan
        return float(node_values(self, path.states[:, None])[0])


class TerminalLinearFunctional(_NodeFunctional):
    """F(g) = weights . g(t_end) + offset (linear in the terminal state)."""

    def __init__(self, weights, offset: float = 0.0):
        self.weights = np.asarray(weights, dtype=float)
        self.offset = float(offset)

    def terminal_value(self, terminal: np.ndarray) -> np.ndarray:
        # a row sum, not a matmul: gemv rounds a row by the batch around it
        return np.sum(terminal * self.weights, axis=-1) + self.offset

    def terminal_gradient(self, terminal: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.weights, terminal.shape).copy()


class QuadraticMissFunctional(_NodeFunctional):
    """F(g) = |g(t_end) - target|^2, for reachability searches."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    def terminal_value(self, terminal: np.ndarray) -> np.ndarray:
        return np.sum((terminal - self.target) ** 2, axis=-1)

    def terminal_gradient(self, terminal: np.ndarray) -> np.ndarray:
        return 2.0 * (terminal - self.target)


class RunningMaxAbsFunctional(_NodeFunctional):
    """F(g) = max_t |g_coord(t)| over the grid (no terminal gradient)."""

    def __init__(self, coord: int = 0):
        self.coord = int(coord)

    def accumulate(self, acc, states_node):
        cur = np.abs(states_node[:, self.coord])
        return cur if acc is None else np.maximum(acc, cur)

    def running_value(self, acc) -> np.ndarray:
        return acc


# ---------------------------------------------------------------------------
# Functional values on batches

def _functional_values(problem, functional, u_batch):
    """Functional values for a batch of controls; nan on dead rows.

    Terminal and running functionals keep only the current states (B, d).
    """
    if is_terminal(functional):
        widths, terminal, first_dead = _integrate(problem, u_batch)
        vals = functional.terminal_value(terminal)
    else:
        acc = None

        def fold(block):
            nonlocal acc
            acc = reduce(functional.accumulate, block, acc)

        widths, _, first_dead = _integrate(problem, u_batch, fold)
        vals = functional.running_value(acc)
    vals = np.asarray(vals, dtype=float)
    vals[first_dead <= len(widths)] = np.nan
    return vals


# ---------------------------------------------------------------------------
# Gradients

def adjoint_gradient(problem: LimitOdeProblem, functional,
                     u_batch: np.ndarray) -> np.ndarray:
    """dF/du via one forward and one backward RK4 sweep per batch row.

    Requires a terminal functional (is_terminal). The backward equation
    lambda' = -J_L(g)^T lambda of the system's drift L is integrated by
    _rk4_window over reversed
    cells on the stored forward trajectory, with stage slopes J^T lambda at
    the cell's upper node, its midpoint (the mean of the two nodes, twice)
    and its lower node; the cell gradient is sigma^T times the trapezoidal
    average of lambda.
    """
    if not is_terminal(functional):
        raise ValueError("functional does not expose a terminal gradient")
    widths, traj, first_dead = _node_states(problem, u_batch)
    n, dim = len(widths), problem.system.dim_state
    lam = np.empty_like(traj)
    lam[n] = functional.terminal_gradient(traj[n])
    end, cap = n, _window_cells(traj.shape[1], dim)
    # dead rows are swept along their frozen states, where lambda may
    # overflow, as the forward sweep steps them; their gradient is zeroed
    with np.errstate(over="ignore", invalid="ignore"):
        while end > 0:
            lo = max(0, end - cap)
            g = traj[lo : end + 1][::-1]
            jac = problem.system.drift.jacobian(g)
            j_mid = problem.system.drift.jacobian(0.5 * (g[:-1] + g[1:]))
            stage_jac = (jac[:-1], j_mid, j_mid, jac[1:])
            nodes, done = _rk4_window(
                lambda stage, y: np.einsum("...ij,...i->...j",
                                           stage_jac[stage], y),
                lam[end], widths[lo:end][::-1], dim + 1)
            if done < end - lo:
                cap = 1
            lam[end - done : end + 1] = nodes[done::-1]
            end -= done
        grad = np.zeros_like(u_batch)
        # += on zeros, as the per-cell loop did: -0.0 cell gradients become 0.0
        grad[:, :n] += ((0.5 * widths)[:, None, None] * (lam[1:] + lam[:-1])
                        @ problem.system.sigma).transpose(1, 0, 2)
    grad[first_dead <= n] = 0.0
    return grad


def fd_gradient(problem: LimitOdeProblem, functional,
                u: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of the functional in the control."""
    n_steps, dim_k = u.shape
    m = n_steps * dim_k
    flat = u.reshape(-1)
    h = _FD_STEP * (1.0 + np.abs(flat))
    pert = np.repeat(flat[None, :], 2 * m, axis=0)
    idx = np.arange(m)
    pert[2 * idx, idx] += h
    pert[2 * idx + 1, idx] -= h
    vals = _functional_values(problem, functional,
                              pert.reshape(2 * m, n_steps, dim_k))
    grad = (vals[0::2] - vals[1::2]) / (2.0 * h)
    return grad.reshape(n_steps, dim_k)


# ---------------------------------------------------------------------------
# Optimizer

@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of optimize_extremal.

    The start bank holds the extra_starts, the constant control and its
    negative, then band-limited random controls up to n_restarts, so
    n_restarts_used = max(n_restarts, len(extra_starts) + 2).
    """

    n_steps: int = 1024
    n_restarts: int = 16
    max_iters: int = 500
    seed: int = 424243
    extra_starts: tuple = ()


@dataclass
class ExtremalResult:
    """Outcome of an extremal search over the energy ball."""

    value: float
    argext: ControlGrid
    sense: str
    n_restarts_used: int
    convergence_flag: bool
    gradient_norm_at_exit: float
    restart_values: list = field(default_factory=list)
    # iterations, integrations, integrated_rows, gradient_rows; kept out of
    # to_json_dict, so the result's data artifacts do not depend on it
    work: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "sense": self.sense,
            "n_restarts_used": self.n_restarts_used,
            "convergence_flag": bool(self.convergence_flag),
            "gradient_norm_at_exit": self.gradient_norm_at_exit,
            "restart_values": [float(v) for v in self.restart_values],
            "energy": self.argext.energy(),
            "argext": self.argext.values.tolist(),
        }


def _project_batch(u_batch: np.ndarray) -> np.ndarray:
    n = u_batch.shape[1]
    energy = 0.5 * np.sum(u_batch**2, axis=(1, 2)) / n
    scale = np.where(energy > MAX_ENERGY,
                     np.sqrt(MAX_ENERGY / np.maximum(energy, 1e-300)), 1.0)
    return u_batch * scale[:, None, None]


def _initial_bank(problem, config) -> np.ndarray:
    n, k = config.n_steps, problem.system.dim_noise
    starts = []
    for grid in config.extra_starts:
        if grid.n_steps != n or grid.dim != k:
            raise ValueError("extra start has wrong shape")
        starts.append(grid.project().values)
    const = np.ones((n, k)) / math.sqrt(k)
    const *= math.sqrt(2.0 * 0.9 * MAX_ENERGY)  # energy 0.9 * cap
    starts.append(const)
    starts.append(-const)
    stream = 0
    while len(starts) < config.n_restarts:
        grid = ControlGrid.random_bandlimited(n, k, config.seed, stream=stream)
        starts.append(grid.project().values)
        stream += 1
    return np.stack(starts)


def _ladder(total: int):
    """Rung counts of the backtracking rounds: each round prices as many
    rungs as all earlier rounds together, at least one, up to total rungs
    (1, 1, 2, 4, 8, 16, 8 for 40)."""
    priced = 0
    while priced < total:
        count = min(max(priced, 1), total - priced)
        yield count
        priced += count


def optimize_extremal(problem: LimitOdeProblem, functional, sense: str,
                      config: Optional[OptimizerConfig] = None) -> ExtremalResult:
    """Extremize a path functional over {energy <= MAX_ENERGY} controls.

    Projected gradient ascent (sense "max") or descent ("min") with monotone
    backtracking line search and deterministic multi-start. The gradient is
    the adjoint sweep for a terminal functional and central finite
    differences for a running one (is_terminal, which raises ValueError for
    a functional that is neither).

    Each iteration a restart tries the step trial = step, trial / 2, ... (at
    most _BACKTRACKS trials) along the projection arc and accepts the first
    trial that raises its value; its next step is 1.5 times that one.
    A round of the search prices a ladder of consecutive halvings for every
    restart still searching in one batched integration, as many rungs as all
    earlier rounds together (1, 1, 2, 4, 8, 16, 8), and each restart takes
    its first passing rung. A row of the batched integration depends only
    on its own control, and the rungs are built by repeated halving, so
    every restart accepts the trial, value and step that trying one trial
    per round would give, bit for bit; the ladder only prices, in the same
    call, trials past the one accepted. After an iteration only the
    restarts whose control moved get a new gradient: an unmoved control
    keeps the gradient bits it had. A start whose path dies is inactive from
    the first iteration: it takes no step and prices no rung. When every
    start dies the search raises NumericalFailure.

    The reported value is recomputed at the returned control by the same
    batched integration as every candidate, and equals
    functional.evaluate(solve_control_ode(problem, argext)) exactly.
    result.work counts the search's iterations, the integrations that priced
    its values (the start bank, the ladders and the returned control) and
    their rows, and the gradient rows.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    config = config or OptimizerConfig()
    sgn = 1.0 if sense == "max" else -1.0
    terminal = is_terminal(functional)
    work = dict(iterations=0, integrations=0, integrated_rows=0,
                gradient_rows=0)

    def values(u_rows):
        work["integrations"] += 1
        work["integrated_rows"] += len(u_rows)
        return _functional_values(problem, functional, u_rows)

    def scores(u_rows):
        """sgn times the values, -inf where nan: what the search raises."""
        vals = sgn * values(u_rows)
        return np.where(np.isnan(vals), -np.inf, vals)

    def gradients(u_rows):
        work["gradient_rows"] += len(u_rows)
        if terminal:
            return sgn * adjoint_gradient(problem, functional, u_rows)
        out = np.empty_like(u_rows)
        for b in range(len(u_rows)):
            out[b] = sgn * fd_gradient(problem, functional, u_rows[b])
        return np.nan_to_num(out)

    u = _project_batch(_initial_bank(problem, config))
    batch = u.shape[0]
    val = scores(u)
    active = np.isfinite(val)   # a dead start takes no step
    if not active.any():
        raise NumericalFailure(f"all {batch} optimizer starts die")
    step = np.full(batch, _STEP_INIT)
    stall = np.zeros(batch, dtype=int)

    grad = gradients(u)
    for _ in range(config.max_iters):
        if not np.any(active):
            break
        work["iterations"] += 1
        improved = np.zeros(batch, dtype=bool)
        gain = np.zeros(batch)
        trial = step.copy()   # each restart's first unpriced rung
        for count in _ladder(_BACKTRACKS):
            rows = (active & ~improved).nonzero()[0]
            if not rows.size:
                break
            rungs = np.empty((count, rows.size))
            rungs[0] = trial[rows]
            for j in range(1, count):
                rungs[j] = rungs[j - 1] * 0.5
            cand = _project_batch(
                (u[rows] + rungs[:, :, None, None] * grad[rows]).reshape(
                    (count * rows.size,) + u.shape[1:]))
            cand_val = scores(cand)
            base = val[rows]
            good = cand_val.reshape(count, rows.size) > (
                base + 1e-15 * (1.0 + np.abs(base)))
            hit = good.any(axis=0).nonzero()[0]
            # flat index of each hit's first passing rung in cand
            pick = good[:, hit].argmax(axis=0) * rows.size + hit
            took = rows[hit]
            gain[took] = cand_val[pick] - base[hit]
            u[took] = cand[pick]
            val[took] = cand_val[pick]
            step[took] = rungs.reshape(-1)[pick] * 1.5
            improved[took] = True
            trial[rows] = rungs[-1] * 0.5   # a hit leaves the search
        rel_gain = gain / (1.0 + np.abs(val))
        stall = np.where(improved & (rel_gain >= _TOL_VALUE), 0, stall + 1)
        active &= stall < 4
        if np.any(active) and np.any(improved):
            grad[improved] = gradients(u[improved])

    best = int(np.argmax(val))
    argext = ControlGrid(u[best]).project()
    final_value = values(argext.values[None])[0]

    # projected-gradient norm at the exit point, measured along the feasible set
    probe = 1e-7
    moved = _project_batch((u[best] + probe * grad[best])[None])[0]
    pg_norm = float(np.linalg.norm(moved - u[best]) / probe)

    return ExtremalResult(
        value=float(final_value),
        argext=argext,
        sense=sense,
        n_restarts_used=batch,
        convergence_flag=bool(not active[best]),
        gradient_norm_at_exit=pg_norm,
        restart_values=list(sgn * val),
        work=work,
    )
