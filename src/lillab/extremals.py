"""Extremal values of path functionals over the unit energy ball.

optimize_extremal searches the piecewise-constant control along L-BFGS
directions (the two-loop recursion of Nocedal & Wright, Numerical
Optimization, ch. 7, batched over the restarts of a deterministic
multi-start) with a monotone backtracking line search. The energy
constraint picks the geometry restart by restart: where it is active (the
control on the ball's edge, the gradient pointing out) the recursion runs in
the tangent space of the sphere, each pair projected onto the tangent space
where it is formed, the direction onto the current one, and the trials
pulled back onto the ball by the radial projection (a Riemannian L-BFGS in
the manner of Huang, Gallivan & Absil, SIAM J. Optim. 25 (2015) 1660);
anywhere else it is plain Euclidean L-BFGS, so an extremum inside the ball
is searched for as an unconstrained one. A restart without
usable curvature pairs steps along the gradient, which is projected
gradient ascent. Every functional, terminal or running, takes one gradient:
the exact discrete adjoint (adjoint_gradient), the transpose of the RK4
steps that price its values, so the search differentiates the very
functional its line search compares.

Every control, single or batched, goes through the one windowed RK4 sweep of
lillab.controls (solve_control_ode is its one-row case). The search prices
each batch of controls on its node states (n + 1, B, d) and keeps those of
every restart's accepted control; the adjoint runs the same sweep backward
over reversed cells from them, so no gradient integrates its controls
forward again. _functional_values keeps only the states of the current
window; it prices the returned control and fd_gradient's rows, central
finite differences kept as the adjoint's reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np

from .controls import (MAX_ENERGY, ControlGrid, LimitOdeProblem,
                       _control_rhs, _integrate, _node_states, _rk4_window,
                       _widths, _window_cells)
from .sde import ExplosivePath, NumericalFailure

_FD_STEP = 1e-4       # relative step of the central differences
_TOL_VALUE = 1e-12    # relative gain below which an iteration stalls
_GAIN = 1e-15         # a trial passes when it gains _GAIN * (1 + |value|)
_STEP_INIT = 1.0      # first line-search step of every restart
_BACKTRACKS = 40      # trials per iteration: a step and its halvings
_MEMORY = 10          # curvature pairs of the L-BFGS direction
_BOUNDARY = 1.0 - 1e-9  # energy / MAX_ENERGY from which the ball's edge binds
_CURVATURE = 1e-12    # a pair with s.y <= _CURVATURE |s| |y| is skipped


# ---------------------------------------------------------------------------
# Path functionals

def is_terminal(functional) -> bool:
    """True for a terminal functional, False for a running one.

    A terminal functional (terminal_value, terminal_gradient) is read on the
    last node only; a running one (accumulate, running_value,
    running_gradient) is folded over every node. Both take the adjoint
    gradient, whose node sources are terminal_gradient on the last node or
    running_gradient on every node. A functional with neither raises
    ValueError.
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

    def running_gradient(self, nodes: np.ndarray) -> np.ndarray:
        """Gradient of the value in the node states (n, B, d): sign(g_coord)
        at each row's first node of largest |g_coord|, 0 elsewhere."""
        x = nodes[..., self.coord]
        first = np.argmax(np.abs(x), axis=0)
        rows = np.arange(nodes.shape[1])
        grad = np.zeros_like(nodes)
        grad[first, rows, self.coord] = np.sign(x[first, rows])
        return grad


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
                     u_batch: np.ndarray, priced=None) -> np.ndarray:
    """dF/du of the discrete functional: the transpose of the forward RK4
    sweep, one backward sweep per batch of rows.

    The transpose of a classical RK4 step is an RK4 step of the adjoint
    equation (Hager, Runge-Kutta methods in optimal control and the
    transformed adjoint system, Numer. Math. 87 (2000) 247). Cell n steps
    x_n to x_{n+1} through the stage states y1 = x_n, y2 = x_n + (h/2) k1,
    y3 = x_n + (h/2) k2 and y4 = x_n + h k3; the backward step takes
    lambda_{n+1} to lambda_n by an RK4 step of width h whose stage s has the
    slope J(y_{4-s})^T mu at its stage argument mu, J the Jacobian of the
    system's drift, plus the functional's gradient in node n as a source
    (terminal_gradient on the last node, running_gradient on every node).
    _rk4_window runs it over reversed cells with the Jacobians at the
    forward stage states, recomputed from the stored nodes. The gradient of
    cell n is sigma^T h (mu1 + 2 mu2 + 2 mu3 + mu4) / 6 over the stage
    arguments of its last pass, which the sweep runs from exact nodes by
    taking one pass past the drift's depth. The result is the gradient of
    the values _functional_values prices, up to rounding. Rows that die get
    a zero gradient.

    priced, when given, is (node states (n + 1, B, d), first_dead (B,)) of
    an integration of u_batch, as _node_states returns them; the sweep then
    starts from those nodes and integrates nothing forward. A row's nodes do
    not depend on the batch or the windows it was integrated in, so the
    gradient has the bits it has without priced.
    """
    if priced is None:
        widths, traj, first_dead = _node_states(problem, u_batch)
    else:
        traj, first_dead = priced
        widths = _widths(problem.t_star, u_batch.shape[1])
    system = problem.system
    n, dim = len(widths), system.dim_state
    if is_terminal(functional):
        sources = np.zeros_like(traj)
        sources[n] = functional.terminal_gradient(traj[n])
    else:
        sources = functional.running_gradient(traj)
    lam = sources[n]
    # mu1 + 2 mu2 + 2 mu3 + mu4 of every cell's backward step
    total = np.empty_like(traj[:n])
    depth = system.drift.depth
    cap = _window_cells(traj.shape[1], dim, depth)
    # dead rows are swept along their frozen states, where lambda may
    # overflow, as the forward sweep steps them; their gradient is zeroed
    with np.errstate(over="ignore", invalid="ignore"):
        forward = _control_rhs(problem, u_batch[:, :n].transpose(1, 0, 2))
        h = widths[:, None, None]
        y1 = traj[:-1]
        y2 = y1 + 0.5 * h * forward(0, y1)
        y3 = y1 + 0.5 * h * forward(1, y2)
        y4 = y1 + h * forward(2, y3)
        for end in range(n, 0, -cap):
            lo = max(0, end - cap)
            jac = [system.drift.jacobian(y[lo:end][::-1])
                   for y in (y4, y3, y2, y1)]
            mu = [None] * 4

            def backward(stage, y):
                mu[stage] = y
                return np.einsum("...ij,...i->...j", jac[stage], y)

            lam = _rk4_window(backward, lam, widths[lo:end][::-1],
                              (depth or 1) + 1, sources[lo:end][::-1])[-1]
            part = mu[0] + 2.0 * mu[1]
            part += 2.0 * mu[2]
            part += mu[3]
            total[lo:end] = part[::-1]
        grad = np.zeros_like(u_batch)
        # += on zeros, as the per-cell loop does: -0.0 cell gradients become 0.0
        grad[:, :n] += ((widths / 6.0)[:, None, None] * total
                        @ system.sigma).transpose(1, 0, 2)
    grad[first_dead <= n] = 0.0
    return grad


def fd_gradient(problem: LimitOdeProblem, functional,
                u: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of the functional in the control:
    2 n k integrated rows, the reference adjoint_gradient is checked against."""
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


class _Lbfgs:
    """L-BFGS memory of the restarts of a search, and their directions.

    Each restart keeps up to _MEMORY curvature pairs (s, y), newest first,
    in a (batch, _MEMORY, 2, n * k) array, their 1 / s.y and s.y / y.y in a
    (batch, _MEMORY, 2) one, and the point, (tangent) gradient and geometry
    of its last direction. Every step runs on all rows at once, with
    np.vecdot for the dot products (one per row, so a row's bits do not
    depend on the rows around it); the two-loop recursion loops over the
    memory slots, masked where a restart holds fewer pairs. A restart that
    has stopped searching is carried along; its directions go unused.
    """

    def __init__(self, batch: int, size: int):
        self.pairs = np.zeros((batch, _MEMORY, 2, size))
        self.scales = np.zeros((batch, _MEMORY, 2))
        self.count = np.zeros(batch, dtype=int)
        self.u = np.zeros((batch, size))
        self.rg = np.zeros((batch, size))
        # geometry of the last direction: 0 none yet, 1 Euclidean, 2 tangent
        self.geometry = np.zeros(batch, dtype=int)

    def clear(self, rows) -> None:
        """Forget the pairs of rows: their next direction is the gradient."""
        self.count[rows] = 0

    def directions(self, u_batch, grad, score):
        """(direction, quasi) of every restart at its control u_batch with
        ascent gradient grad; quasi is False where the direction is the
        gradient itself.

        A restart on the ball's edge whose gradient points outward (energy
        >= _BOUNDARY * MAX_ENERGY and <u, grad> > 0) works in the tangent
        space {v : <u, v> = 0}: its gradient, the pair it stores and its
        direction are projected onto it. Any other restart works in the
        Euclidean geometry. The pair s = u - u_old, y = rg_old - rg of the
        (tangent) gradients rg is stored unless s.y <= _CURVATURE |s| |y|,
        and a change of geometry clears the memory.
        Where the memory holds no pair, or the two-loop recursion's d gains
        too little at first order for a full step to pass the line search
        (<d, rg> <= _GAIN * (1 + |score|), score the restart's sgn * value),
        the direction is the gradient.
        """
        dot = np.vecdot
        u = u_batch.reshape(len(u_batch), -1)
        g = grad.reshape(len(u_batch), -1)
        uu = dot(u, u)
        tangent = ((uu >= 2.0 * u_batch.shape[1] * _BOUNDARY * MAX_ENERGY)
                   & (dot(u, g) > 0.0))
        # 1 / <u, u> on tangent rows and 0 on the others, which project keeps
        along = tangent / np.where(tangent, uu, 1.0)
        onto_sphere = tangent.any()

        def project(v):
            """v (B, ..., n * k) less its part along u on tangent rows."""
            if not onto_sphere:
                return v
            lead = (len(u),) + (1,) * (v.ndim - 2)
            uv = u.reshape(lead + (-1,))
            return v - (dot(v, uv) * along.reshape(lead))[..., None] * uv

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # (rg, s, P rg_old) in one projection; then y = P rg_old - rg
            work = np.empty((len(u), 3, u.shape[1]))
            work[:, 0] = g
            np.subtract(u, self.u, out=work[:, 1])
            work[:, 2] = self.rg
            work = project(work)
            rg, pair = work[:, 0], work[:, 1:]
            pair[:, 1] -= rg
            geometry = 1 + tangent
            same = self.geometry == geometry
            self.count *= same
            sy = dot(pair[:, 0], pair[:, 1])
            norms = dot(pair, pair)
            new = same & (sy > _CURVATURE * np.sqrt(norms[:, 0] * norms[:, 1]))
            if new.any():
                self.pairs = np.where(new[:, None, None, None], np.concatenate(
                    (pair[:, None], self.pairs[:, :-1]), axis=1), self.pairs)
                scales = np.stack((1.0 / sy, sy / norms[:, 1]), axis=1)
                self.scales = np.where(new[:, None, None], np.concatenate(
                    (scales[:, None], self.scales[:, :-1]), axis=1),
                    self.scales)
                self.count = np.where(new, np.minimum(self.count + 1, _MEMORY),
                                      self.count)
            self.u, self.rg, self.geometry = u.copy(), rg, geometry
            top = int(self.count.max())
            if top == 0:
                return grad.copy(), np.zeros(len(u), dtype=bool)
            # slots past a restart's count hold finite pairs, with rho = 0
            rho = np.where(np.arange(top) < self.count[:, None],
                           self.scales[:, :top, 0], 0.0)[..., None]
            # the recursion on slot-major views (slot, row, n * k)
            ss = self.pairs[:, :top, 0].transpose(1, 0, 2)
            ys = self.pairs[:, :top, 1].transpose(1, 0, 2)
            rho = rho.transpose(1, 0, 2)
            q, alpha = rg.copy(), []
            for s_r, y_i in zip(ss * rho, ys):
                alpha.append(dot(s_r, q)[:, None])
                q -= alpha[-1] * y_i
            d = self.scales[:, 0, 1, None] * q
            for a, y_r, s_i in zip(alpha[::-1], (ys * rho)[::-1], ss[::-1]):
                d += (a - dot(y_r, d)[:, None]) * s_i
            d = project(d)
            quasi = ((self.count > 0) & np.isfinite(dot(d, d))
                     & (dot(d, rg) > _GAIN * (1.0 + np.abs(score))))
        return np.where(quasi[:, None], d, g).reshape(u_batch.shape), quasi


def optimize_extremal(problem: LimitOdeProblem, functional, sense: str,
                      config: Optional[OptimizerConfig] = None) -> ExtremalResult:
    """Extremize a path functional over {energy <= MAX_ENERGY} controls.

    Ascent (sense "max") or descent ("min") along an L-BFGS direction with
    monotone backtracking line search and deterministic multi-start. The
    gradient is the exact discrete adjoint (adjoint_gradient) for every
    functional, terminal or running; one that is neither raises ValueError
    (is_terminal).

    The direction (_Lbfgs.directions) is the two-loop recursion over the
    last _MEMORY curvature pairs of each restart, in the geometry the
    energy constraint gives it. On the ball's edge with a gradient that
    points outward the constraint is active, and the recursion runs in the
    tangent space of the sphere; anywhere else it is plain Euclidean
    L-BFGS, so a maximiser inside the ball is searched for as an
    unconstrained one. A restart with no pair yet, or whose recursion gives
    a direction that gains too little at first order to pass the line
    search, takes the gradient itself, which is projected gradient ascent.

    Each iteration a restart tries the step trial = first, trial / 2, ...
    (at most _BACKTRACKS trials) along the arc u + trial * direction,
    projected onto the ball (_project_batch, which rescales a trial that
    leaves it), and accepts the first trial that raises its value by
    _GAIN * (1 + |value|). The first trial is 1 along a quasi-Newton
    direction; along the gradient it
    is 1.5 times the last accepted gradient step (_STEP_INIT at first). A
    restart that finds no passing trial forgets its pairs, so that its
    next iteration is a gradient step.

    A round of the search prices a ladder of consecutive halvings for every
    restart still searching in one batched integration, as many rungs as all
    earlier rounds together (1, 1, 2, 4, 8, 16, 8), and each restart takes
    its first passing rung. A row of the batched integration depends only
    on its own control, and the rungs are built by repeated halving, so
    every restart accepts the trial, value and step that trying one trial
    per round would give, bit for bit; the ladder only prices, in the same
    call, trials past the one accepted. A gradient step that found no
    passing trial is not priced again from the same point: it would price
    the same values. After an iteration only the restarts whose control
    moved get a new gradient: an unmoved control keeps the gradient bits it
    had. A restart stops after 4 iterations in a row without a relative
    gain of _TOL_VALUE, or at max_iters. A start whose path dies is
    inactive from the first iteration: it takes no step and prices no rung.
    When every start dies the search raises NumericalFailure.

    Every batch is priced on its node states (n + 1, B, d), which each
    restart keeps for the control it accepted, so its gradient sweeps
    backward from the nodes that priced it and integrates nothing forward.
    A round holds (n + 1) * rows * d node values until it ends: 10.5 MB for
    the largest round of lorenz96 at 1024 cells and 16 restarts.

    The reported value is recomputed at the returned control by the same
    batched integration as every candidate, and equals
    functional.evaluate(solve_control_ode(problem, argext)) exactly.
    result.work counts the search's iterations, the integrations that priced
    its values (the start bank, the ladders and the returned control) and
    their rows, the gradient rows, and the restarts still searching when
    max_iters ran out (restarts_at_cap).
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    config = config or OptimizerConfig()
    sgn = 1.0 if sense == "max" else -1.0
    work = dict(iterations=0, integrations=0, integrated_rows=0,
                gradient_rows=0, restarts_at_cap=0)
    u, val, grad, active = _search(problem, functional, sgn, config, work)

    best = int(np.argmax(val))
    argext = ControlGrid(u[best]).project()
    work["integrations"] += 1
    work["integrated_rows"] += 1
    final_value = _functional_values(problem, functional,
                                     argext.values[None])[0]

    # projected-gradient norm at the exit point, measured along the feasible set
    probe = 1e-7
    moved = _project_batch((u[best] + probe * grad[best])[None])[0]
    pg_norm = float(np.linalg.norm(moved - u[best]) / probe)

    return ExtremalResult(
        value=float(final_value),
        argext=argext,
        sense=sense,
        n_restarts_used=len(u),
        convergence_flag=bool(not active[best]),
        gradient_norm_at_exit=pg_norm,
        restart_values=list(sgn * val),
        work=work,
    )


def _search(problem, functional, sgn, config, work):
    """The multi-start search of optimize_extremal for sgn * functional:
    (controls, scores, ascent gradients, still searching) of every restart
    when it ends, counting its work into work."""
    def price(u_rows):
        """(scores, node states, first_dead) of u_rows: sgn times the values,
        -inf where nan, is what the search raises."""
        work["integrations"] += 1
        work["integrated_rows"] += len(u_rows)
        widths, states, first_dead = _node_states(problem, u_rows)
        vals = sgn * np.asarray(node_values(functional, states), dtype=float)
        vals[(first_dead <= len(widths)) | np.isnan(vals)] = -np.inf
        return vals, states, first_dead

    def gradients(u_rows, states, first_dead):
        work["gradient_rows"] += len(u_rows)
        return sgn * adjoint_gradient(problem, functional, u_rows,
                                      (states, first_dead))

    u = _project_batch(_initial_bank(problem, config))
    batch = u.shape[0]
    val, nodes, dead = price(u)
    active = np.isfinite(val)   # a dead start takes no step
    if not active.any():
        raise NumericalFailure(f"all {batch} optimizer starts die")
    step = np.full(batch, _STEP_INIT)
    stall = np.zeros(batch, dtype=int)
    lbfgs = _Lbfgs(batch, u[0].size)
    # restarts whose gradient step from u found no passing rung
    futile = np.zeros(batch, dtype=bool)

    grad = gradients(u, nodes, dead)
    for _ in range(config.max_iters):
        if not np.any(active):
            break
        work["iterations"] += 1
        direction, quasi = lbfgs.directions(u, grad, val)
        improved = np.zeros(batch, dtype=bool)
        gain = np.zeros(batch)
        # each restart's first unpriced rung
        trial = np.where(quasi, 1.0, step)
        for count in _ladder(_BACKTRACKS):
            rows = (active & ~improved & ~futile).nonzero()[0]
            if not rows.size:
                break
            rungs = np.empty((count, rows.size))
            rungs[0] = trial[rows]
            for j in range(1, count):
                rungs[j] = rungs[j - 1] * 0.5
            cand = _project_batch(
                (u[rows] + rungs[:, :, None, None] * direction[rows]).reshape(
                    (count * rows.size,) + u.shape[1:]))
            cand_val, cand_nodes, cand_dead = price(cand)
            base = val[rows]
            good = cand_val.reshape(count, rows.size) > (
                base + _GAIN * (1.0 + np.abs(base)))
            hit = good.any(axis=0).nonzero()[0]
            # flat index of each hit's first passing rung in cand
            pick = good[:, hit].argmax(axis=0) * rows.size + hit
            took = rows[hit]
            gain[took] = cand_val[pick] - base[hit]
            u[took] = cand[pick]
            val[took] = cand_val[pick]
            nodes[:, took] = cand_nodes[:, pick]
            dead[took] = cand_dead[pick]
            del cand_nodes   # before the next round prices its own
            step[took] = np.where(quasi[took], step[took],
                                  rungs.reshape(-1)[pick] * 1.5)
            improved[took] = True
            trial[rows] = rungs[-1] * 0.5   # a hit leaves the search
        lbfgs.clear(active & ~improved)
        futile = active & ~improved & ~quasi
        rel_gain = gain / (1.0 + np.abs(val))
        stall = np.where(improved & (rel_gain >= _TOL_VALUE), 0, stall + 1)
        active &= stall < 4
        if np.any(active) and np.any(improved):
            grad[improved] = gradients(u[improved], nodes[:, improved],
                                       dead[improved])
    work["restarts_at_cap"] = int(np.sum(active))
    return u, val, grad, active
