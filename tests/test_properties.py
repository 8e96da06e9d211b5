"""Property tests of the batched integrators (needs hypothesis).

The windowed RK4 sweep (controls._rk4_window) is the only integrator of the
limit control ODE and of its adjoint: solve_control_ode is its one-row case,
the optimizer runs it on batches of controls, and adjoint_gradient runs it
backward over reversed cells. A per-cell RK4 loop and a per-cell backward
loop are kept here as its references; every window size, from one cell to
the whole grid, must reproduce them bit for bit, drifts that are not
nilpotent included. The batched Euler kernel euler_batch is the only SDE
Euler loop: simulate_sde is its one-row case and lil-verify runs it on all
paths of a level; a per-step single-row loop is kept here as its reference,
and every block size of its liveness check must reproduce it.
Rows of a batch must not influence each other, and on the iterated
Kolmogorov chain RK4 is exact for piecewise-constant controls. The Cramer
transform of a path the control ODE made is its control's energy. Both
integrators and the exact-linear sampler kill states with one batched exit
rule, sde.alive; the per-state rule and the max-reduction it replaced are
kept here as its references and must agree row by row. Both LIL schemes
refine one Gauss-Markov path per row onto every level grid (W for euler,
the state for exact_linear); each level must see the same path, with the
transition law, and any split of the rows must draw it bit for bit. Functional values
on a batch of node states (node_values, masked at first_dead) equal each row's
evaluate. Boundary rays are solved by one lockstep Brent iteration
(regularity._ray_roots); per-ray brentq, the per-row sampling loop, the
per-face icosphere subdivision and the per-ray cone probe are kept here as
its references and must be matched bit for bit. LilReport.csv_blocks writes
lil.csv in blocks of paths, formatting each value once; a writer that
formats every cell of every column is kept here as its reference and must
be matched byte for byte on both sides of a block boundary. The optimizer's
line search prices ladders of step halvings in one batch and refreshes only
moved restarts' gradients; the loop of one trial per round it replaced is
kept here as its reference and must be matched bit for bit. Coarsening a
noise path twice equals coarsening it once by the product, and the
contractions and their inverses undo each other, to stated tolerances.
The registry's drifts, limit drifts and Jacobians are generated from
monomial tables; they must equal the written-out ones of test_examples bit
for bit, and on random tables the derived limit must be the
weighted-homogeneous principal part and the Jacobian the drift's
derivative; a constant term raises in an undriven row and scales away in
a driven one. The shifted chain's contraction is derived from its start
x0: center x0 and trend b(x0). transformed_coefficients builds the
rescaled family as a table; the closures it replaced are kept here as its
reference, matched within a stated ulp bound.
"""

import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import brentq

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from lillab import controls, extremals, lil, regularity, sde  # noqa: E402
from lillab.controls import (ControlGrid, _integrate,  # noqa: E402
                             _node_states, _widths, cramer_transform,
                             solve_control_ode)
from lillab.examples import get_example, list_examples  # noqa: E402
from lillab.extremals import (QuadraticMissFunctional,  # noqa: E402
                              RunningMaxAbsFunctional,
                              TerminalLinearFunctional, _functional_values,
                              adjoint_gradient, fd_gradient,
                              is_terminal, node_values, optimize_extremal)
from lillab.lil import (LilExperimentConfig, LilReport, _bridge,  # noqa: E402
                        _bridge_plan)
from lillab.regularity import (_CURVE_NODES, _SPHERE_SUBDIV,  # noqa: E402
                               DomainSpec, _boundary_table,
                               _energy_certificate, _icosphere, _ray_roots,
                               _sample_boundary, _unit_rows, cone_criterion,
                               polygonalize)
from lillab.scaling import (AsymptoticIndex,  # noqa: E402
                            ContractionFamily, derive_rescaling, eval_index, rate_scale,
                            transformed_coefficients)
from lillab.sde import (OVERFLOW_GUARD, ExplosivePath,  # noqa: E402
                        LinearSpec, NoisePath, NumericalFailure,
                        PolynomialDrift, SdeSystem, _philox, _row_path, alive,
                        euler_batch, row_normals, simulate_sde,
                        trivial_domain)
from test_controls import _blowup_problem, _decay_problem  # noqa: E402
from test_examples import WRITTEN_DRIFTS  # noqa: E402
from test_extremals import _registered_pairs  # noqa: E402

SETTINGS = settings(max_examples=25, deadline=None, database=None)

# One control scale per row, so the batch size B is len(scales). At 1e60
# quadratic and lorenz96 rows pass the overflow guard, so batches mix dead
# and live rows.
cases = st.fixed_dictionaries({
    "example": st.sampled_from(list_examples()),
    "scales": st.lists(st.sampled_from([0.1, 3.0, 1e60]), min_size=1,
                       max_size=8),
    "n_steps": st.integers(1, 64),
    "t_star": st.floats(0.0, 1.0, exclude_min=True),
    "seed": st.integers(0, 2**32 - 1),
})


def _controls(case, dim_control):
    scales = np.asarray(case["scales"])
    rng = np.random.default_rng(case["seed"])
    return scales[:, None, None] * rng.standard_normal(
        (len(scales), case["n_steps"], dim_control))


def _draw(case):
    problem = replace(get_example(case["example"]).limit_problem,
                      t_star=case["t_star"])
    return problem, _controls(case, problem.dim_control)


@SETTINGS
@given(cases)
def test_batched_rows_equal_single_row_runs(case):
    problem, u = _draw(case)
    widths, states, first_dead = _node_states(problem, u)
    _, terminal, dead = _integrate(problem, u)
    assert np.array_equal(terminal, states[-1])
    assert np.array_equal(dead, first_dead)
    for b in range(u.shape[0]):
        w1, s1, d1 = _node_states(problem, u[b : b + 1])
        assert np.array_equal(w1, widths)
        assert np.array_equal(s1[:, 0], states[:, b])
        assert d1[0] == first_dead[b]


@SETTINGS
@given(cases)
def test_solve_control_ode_is_row_zero(case):
    problem, u = _draw(case)
    widths, states, first_dead = _node_states(problem, u)
    path = solve_control_ode(problem, ControlGrid(u[0]))
    end = first_dead[0]
    times = np.concatenate([[0.0], np.cumsum(widths)])
    assert np.array_equal(path.times, times)
    assert np.array_equal(path.states[:end], states[:end, 0])
    assert np.all(np.isnan(path.states[end:]))
    assert path.explosion_index == (end if end < len(times) else None)
    assert path.horizon == pytest.approx(case["t_star"], abs=1e-12)


@SETTINGS
@given(cases)
def test_kolmogorov_matches_exact_recursion(case):
    # y1' = y2, y2' = u: RK4 is exact for a control constant on each cell
    case = dict(case, example="iterated_kolmogorov",
                scales=[3.0] * len(case["scales"]))
    problem, u = _draw(case)
    widths, states, first_dead = _node_states(problem, u)
    assert np.all(first_dead == len(widths) + 1)
    x = np.zeros((u.shape[0], 2))
    for j, h in enumerate(widths):
        uj = u[:, j, 0]
        x = np.column_stack([x[:, 0] + x[:, 1] * h + uj * h * h / 2.0,
                             x[:, 1] + uj * h])
        assert np.allclose(states[j + 1], x, rtol=0.0, atol=1e-12)


@SETTINGS
@given(st.sampled_from(list_examples()), st.integers(8, 256),
       st.integers(0, 49))
def test_cramer_transform_is_the_energy_of_feasible_paths(name, n, stream):
    # a path the control ODE makes from u is priced at u's energy; the path
    # (t, 0) breaks y1' = y2 on IK(2) and y1' = -y2^2 on quadratic
    problem = get_example(name).limit_problem
    u = ControlGrid.random_bandlimited(n, problem.dim_control, seed=11,
                                       stream=stream).project()
    lam = cramer_transform(problem, solve_control_ode(problem, u))
    assert np.isfinite(lam) and lam >= 0.0
    assert abs(lam - u.energy()) <= 1e-12
    if name in ("iterated_kolmogorov", "quadratic"):
        t = np.linspace(0.0, 1.0, n + 1)
        bogus = ExplosivePath(t, np.column_stack([t, np.zeros_like(t)]))
        assert cramer_transform(problem, bogus) == np.inf


# ---------------------------------------------------------------------------
# Windowed RK4 sweep against per-cell loops. The window holds cells x B x d
# values: one cell, three cells or the whole grid. Besides the registered
# (nilpotent) examples: IK(2) in the ball |y| < 0.3, which rows leave, and
# two drifts that never settle, y' = y^2 (blows up at t = 0.5 from
# y(0) = 2) and y' = -y + u.

NOT_NILPOTENT = {"blowup": _blowup_problem, "decay": _decay_problem}
SWEEP_PROBLEMS = sorted(NOT_NILPOTENT) + ["kolmogorov_in_ball"] + list_examples()


def _sweep_problem(name, t_star):
    if name in NOT_NILPOTENT:
        return NOT_NILPOTENT[name](t_star=t_star)
    if name == "kolmogorov_in_ball":
        return replace(get_example("iterated_kolmogorov").limit_problem,
                       t_star=t_star,
                       domain_contains=lambda y:
                           np.linalg.norm(y, axis=-1) < 0.3)
    return replace(get_example(name).limit_problem, t_star=t_star)


def _window(cells, problem, rows):
    values = 2**62 if cells is None else cells * rows * problem.dim_state
    return mock.patch.object(controls, "_WINDOW_VALUES", values)


def _reference_rk4(problem, u_batch):
    """The per-cell RK4 loop the windowed sweep replaced: (widths, states
    (n + 1, B, d), first_dead), with dead rows frozen at their last live
    state."""
    if not problem.domain_contains(problem.x0):
        raise ValueError("x0 outside the domain")
    batch, n_steps, _ = u_batch.shape
    widths = _widths(problem.t_star, n_steps)
    x = np.broadcast_to(problem.x0, (batch, problem.dim_state)).copy()
    first_dead = np.full(batch, len(widths) + 1)
    alive = np.ones(batch, dtype=bool)
    check_domain = problem.domain_contains is not trivial_domain
    states = [x]

    def rhs(y, u):
        return problem.limit_drift(y) + u @ problem.constant_diffusion.T

    with np.errstate(over="ignore", invalid="ignore"):
        for node, h in enumerate(widths, start=1):
            u = u_batch[:, node - 1, :]
            k1 = rhs(x, u)
            k2 = rhs(x + 0.5 * h * k1, u)
            k3 = rhs(x + 0.5 * h * k2, u)
            k4 = rhs(x + h * k3, u)
            x_new = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ok = np.max(np.abs(x_new), axis=1) <= OVERFLOW_GUARD
            if check_domain:
                for b in np.nonzero(ok & alive)[0]:
                    ok[b] = bool(problem.domain_contains(x_new[b]))
            first_dead[alive & ~ok] = node
            alive &= ok
            x = np.where(alive[:, None], x_new, x)
            states.append(x)
    return widths, np.stack(states), first_dead


def _reference_adjoint(problem, functional, u_batch):
    """The per-cell backward loop adjoint_gradient replaced."""
    widths, traj, first_dead = _reference_rk4(problem, u_batch)
    lam = functional.terminal_gradient(traj[-1])
    sig_t = problem.constant_diffusion.T
    grad = np.zeros_like(u_batch)

    def jt_lam(y, vec):
        return np.einsum("bij,bi->bj", problem.limit_drift.jacobian(y), vec)

    for cell in range(len(widths) - 1, -1, -1):
        h = widths[cell]
        g_hi = traj[cell + 1]
        g_lo = traj[cell]
        g_mid = 0.5 * (g_hi + g_lo)
        lam_hi = lam
        m1 = jt_lam(g_hi, lam)
        m2 = jt_lam(g_mid, lam + 0.5 * h * m1)
        m3 = jt_lam(g_mid, lam + 0.5 * h * m2)
        m4 = jt_lam(g_lo, lam + h * m3)
        lam = lam + (h / 6.0) * (m1 + 2.0 * m2 + 2.0 * m3 + m4)
        grad[:, cell, :] += 0.5 * h * (lam_hi + lam) @ sig_t.T
    grad[first_dead < len(traj)] = 0.0
    return grad


WINDOW_CELLS = st.sampled_from([1, 3, None])


@SETTINGS
@given(cases, st.sampled_from(SWEEP_PROBLEMS), WINDOW_CELLS)
def test_forward_sweep_equals_per_cell_loop(case, name, cells):
    problem = _sweep_problem(name, case["t_star"])
    u = _controls(case, problem.dim_control)
    widths, states, first_dead = _reference_rk4(problem, u)
    with _window(cells, problem, len(u)):
        w1, s1, d1 = _node_states(problem, u)
        _, terminal, d2 = _integrate(problem, u)
    assert np.array_equal(w1, widths)
    assert np.array_equal(s1, states)
    assert np.array_equal(d1, first_dead) and np.array_equal(d2, first_dead)
    assert np.array_equal(terminal, states[-1])


# the blow-up rows die, and the backward sweep still carries their lambda
# along the frozen states until it overflows; their gradient is then set to 0
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@pytest.mark.parametrize("name", sorted(NOT_NILPOTENT))
def test_drifts_that_do_not_settle_step_one_cell_per_window(name):
    # the first window runs out of passes (d + 1 = 2) and advances by its
    # exact cells; every later window is one cell, forward in the control
    # ODE and backward in the adjoint
    problem = NOT_NILPOTENT[name]()
    u = np.random.default_rng(3).standard_normal((4, 64, 1))
    with mock.patch.object(controls, "_rk4_window",
                           wraps=controls._rk4_window) as spy:
        widths, states, first_dead = _node_states(problem, u)
    cells = [len(call.args[2]) for call in spy.call_args_list]
    assert cells[0] > 2 and set(cells[1:]) == {1}
    ref = _reference_rk4(problem, u)
    assert np.array_equal(states, ref[1])
    assert np.array_equal(first_dead, ref[2])
    functional = TerminalLinearFunctional(np.ones(1))
    with mock.patch.object(extremals, "_rk4_window",
                           wraps=extremals._rk4_window) as spy:
        grad = adjoint_gradient(problem, functional, u)
    cells = [len(call.args[2]) for call in spy.call_args_list]
    assert cells[0] > 2 and set(cells[1:]) == {1}
    assert np.array_equal(grad, _reference_adjoint(problem, functional, u))


@SETTINGS
@given(cases, WINDOW_CELLS, st.booleans())
def test_adjoint_equals_per_cell_loop(case, cells, linear):
    problem, u = _draw(case)
    rng = np.random.default_rng(case["seed"])
    functional = (TerminalLinearFunctional(rng.standard_normal(problem.dim_state))
                  if linear else
                  QuadraticMissFunctional(rng.standard_normal(problem.dim_state)))
    ref = _reference_adjoint(problem, functional, u)
    with _window(cells, problem, len(u)):
        grad = adjoint_gradient(problem, functional, u)
    assert np.array_equal(grad, ref)


@pytest.mark.parametrize("cells", [1, 3, None])
@pytest.mark.parametrize("name, functional", [
    ("iterated_kolmogorov", "J1"), ("quadratic", "J2"), ("lorenz96", "J3")])
def test_adjoint_matches_fd_gradient(name, functional, cells):
    # RK4 and the trapezoidal cell average are exact on IK(2), so there the
    # adjoint is the gradient of the discrete functional up to the rounding
    # of the central differences. On the nonlinear examples it is the
    # gradient of the continuous functional: the gap to the discrete one is
    # O(h^2) and shrinks about fourfold when the grid is refined twofold.
    example = get_example(name)
    problem, f = example.limit_problem, example.functionals[functional]
    gaps = []
    for n in (32, 64):
        u = ControlGrid.random_bandlimited(n, problem.dim_control, seed=10,
                                           energy=0.7).values
        with _window(cells, problem, 1):
            adj = adjoint_gradient(problem, f, u[None])[0]
        with _window(cells, problem, 2 * u.size):
            fd = fd_gradient(problem, f, u)
        gaps.append(np.max(np.abs(adj - fd)) / np.max(np.abs(fd)))
    if name == "iterated_kolmogorov":
        assert max(gaps) < 1e-6
    else:
        assert 3.0 < gaps[0] / gaps[1] < 5.0


# ---------------------------------------------------------------------------
# Line search. optimize_extremal prices a ladder of step halvings per round
# and recomputes gradients only for restarts that moved; the loop it
# replaced, one trial per round (trial *= 0.5) and gradients for the whole
# batch after every iteration, is kept here as its reference.

def _reference_optimize(problem, functional, sense, config):
    """The one-trial-per-round search: (result fields, number of times a
    restart used up all 40 halvings)."""
    sgn = 1.0 if sense == "max" else -1.0
    terminal = is_terminal(functional)
    u = extremals._project_batch(extremals._initial_bank(problem, config))
    batch = u.shape[0]
    val = sgn * _functional_values(problem, functional, u)
    val = np.where(np.isnan(val), -np.inf, val)
    step = np.full(batch, extremals._STEP_INIT)
    active = np.ones(batch, dtype=bool)
    stall = np.zeros(batch, dtype=int)
    exhausted = 0

    def gradients(u_now):
        if terminal:
            return sgn * adjoint_gradient(problem, functional, u_now)
        out = np.empty_like(u_now)
        for b in range(batch):
            out[b] = sgn * fd_gradient(problem, functional, u_now[b])
        return np.nan_to_num(out)

    grad = gradients(u)
    for _ in range(config.max_iters):
        if not np.any(active):
            break
        improved = np.zeros(batch, dtype=bool)
        gain = np.zeros(batch)
        trial = step.copy()
        for _back in range(40):
            pending = active & ~improved
            if not np.any(pending):
                break
            cand = extremals._project_batch(u + trial[:, None, None] * grad)
            cand_val = np.full(batch, -np.inf)
            cand_val[pending] = sgn * _functional_values(
                problem, functional, cand[pending])
            cand_val = np.where(np.isnan(cand_val), -np.inf, cand_val)
            good = pending & (cand_val > val + 1e-15 * (1.0 + np.abs(val)))
            gain[good] = cand_val[good] - val[good]
            u[good] = cand[good]
            val[good] = cand_val[good]
            step[good] = trial[good] * 1.5
            improved |= good
            trial[pending & ~good] *= 0.5
        exhausted += int(np.sum(active & ~improved))
        rel_gain = gain / (1.0 + np.abs(val))
        stall = np.where(improved & (rel_gain >= extremals._TOL_VALUE), 0,
                         stall + 1)
        active &= stall < 4
        if np.any(active):
            grad = gradients(u)

    best = int(np.argmax(val))
    argext = ControlGrid(u[best]).project()
    final_value = _functional_values(problem, functional, argext.values[None])[0]
    probe = 1e-7
    moved = extremals._project_batch((u[best] + probe * grad[best])[None])[0]
    return dict(
        value=float(final_value), argext=argext.values,
        restart_values=list(sgn * val),
        gradient_norm_at_exit=float(np.linalg.norm(moved - u[best]) / probe),
        convergence_flag=bool(not active[best]), n_restarts_used=batch,
    ), exhausted


search_cases = st.fixed_dictionaries({
    "pair": st.sampled_from(_registered_pairs()),
    "sense": st.sampled_from(["max", "min"]),
    "n_steps": st.integers(4, 24),
    "restarts": st.integers(1, 5),
    "max_iters": st.integers(1, 60),
    "seed": st.integers(0, 2**32 - 1),
})

# IK(2)/J1 reaches its maximum well within 60 iterations; the restarts
# then stall, each trying all 40 halvings before it stops
# (test_the_exhausting_draw_uses_up_every_halving)
EXHAUSTING = {"pair": ("iterated_kolmogorov", "J1"), "sense": "max",
              "n_steps": 8, "restarts": 3, "max_iters": 60, "seed": 5}
FD_DRAW = {"pair": ("brownian", "running_max"), "sense": "max",
           "n_steps": 12, "restarts": 3, "max_iters": 40, "seed": 11}


def _search(case):
    name, functional = case["pair"]
    example = get_example(name)
    extra = (() if example.probe_starts is None
             else tuple(example.probe_starts(case["n_steps"])))
    config = extremals.OptimizerConfig(
        n_steps=case["n_steps"], n_restarts=case["restarts"],
        max_iters=case["max_iters"], seed=case["seed"], extra_starts=extra)
    return (example.limit_problem, example.functionals[functional],
            case["sense"], config)


def test_the_exhausting_draw_uses_up_every_halving():
    _, exhausted = _reference_optimize(*_search(EXHAUSTING))
    assert exhausted > 0


@SETTINGS
@given(search_cases)
@example(EXHAUSTING)
@example(FD_DRAW)
def test_ladder_line_search_equals_one_trial_per_round(case):
    want, _ = _reference_optimize(*_search(case))
    got = optimize_extremal(*_search(case))
    assert np.array_equal(got.value, want["value"], equal_nan=True)
    assert np.array_equal(got.argext.values, want["argext"])
    assert np.array_equal(got.restart_values, want["restart_values"])
    assert np.array_equal(got.gradient_norm_at_exit,
                          want["gradient_norm_at_exit"], equal_nan=True)
    assert got.convergence_flag == want["convergence_flag"]
    assert got.n_restarts_used == want["n_restarts_used"]


# ---------------------------------------------------------------------------
# Euler kernel. One increment scale per row, so B = len(scales); at the
# larger scales quadratic and lorenz96 rows explode, brownian and the
# Kolmogorov chains pass the overflow guard, and the domain-restricted
# quadratic rows leave x1 < 1.5, so batches mix dead and live rows.

def _sde(name):
    if name == "quadratic_x1_below_1.5":
        quad = get_example("quadratic")
        return (replace(quad.sde, domain_contains=lambda x: x[..., 0] < 1.5),
                quad.contraction.center)
    example = get_example(name)
    return example.sde, example.contraction.center


euler_cases = st.fixed_dictionaries({
    "system": st.sampled_from(list_examples() + ["quadratic_x1_below_1.5"]),
    "scales": st.lists(st.sampled_from([0.1, 3.0, 1e60, 1e200]), min_size=1,
                       max_size=8),
    "n_steps": st.integers(1, 64),
    "dt": st.sampled_from([1e-3, 0.05]),
    "seed": st.integers(0, 2**32 - 1),
})


def _increments(case, dim_noise):
    scales = np.asarray(case["scales"])
    rng = np.random.default_rng(case["seed"])
    return scales[:, None, None] * rng.standard_normal(
        (len(scales), case["n_steps"], dim_noise))


def _draw_euler(case):
    system, center = _sde(case["system"])
    inc = _increments(case, system.dim_noise)
    return system, np.broadcast_to(center, (len(inc), system.dim_state)), inc


def _reference_alive(x, domain_contains):
    """The per-state exit rule sde.alive replaced."""
    return bool(np.all(np.isfinite(x))
                and float(np.max(np.abs(x))) <= OVERFLOW_GUARD
                and bool(domain_contains(x)))


DOMAINS = {"whole_space": trivial_domain,
           "x1_below_1": lambda x: x[..., 0] < 1.0,
           "ball": lambda x: np.linalg.norm(x, axis=-1) < 2.0}

states_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
    elements=st.sampled_from([0.0, -0.0, 0.5, -1.5, 3.0, OVERFLOW_GUARD,
                              -OVERFLOW_GUARD,
                              np.nextafter(OVERFLOW_GUARD, np.inf), 1e101,
                              1e300, np.inf, -np.inf, np.nan]))


@SETTINGS
@given(states_arrays, st.sampled_from(sorted(DOMAINS)))
def test_alive_equals_the_per_state_rule(x, domain):
    # one call on states (..., d), a single state (d,) included; the batched
    # max-reduction rule alive had before is a reference too
    contains = DOMAINS[domain]
    with np.errstate(over="ignore", invalid="ignore"):
        got = alive(x, contains)
        want = [_reference_alive(r, contains)
                for r in x.reshape(-1, x.shape[-1])]
        reduced = np.abs(x).max(axis=-1) <= OVERFLOW_GUARD
        if contains is not trivial_domain:
            reduced = reduced & contains(x)
    assert np.shape(got) == x.shape[:-1]
    assert np.reshape(got, -1).tolist() == want
    assert type(got) is type(reduced) and np.array_equal(got, reduced)


def _reference_lil_csv(report):
    """lil.csv formatted cell by cell: three reprs per cell."""
    lines = ["path_id,j,eps,value,running_max,running_min\n"]
    for p in range(report.n_paths):
        for level, (j, e) in enumerate(zip(report.j_values.tolist(),
                                           report.eps_values.tolist())):
            v, mx, mn = (float(t[p, level]) for t in (
                report.values, report.running_max, report.running_min))
            lines.append(f"{p},{j},{e!r},{v!r},{mx!r},{mn!r}\n")
    return "".join(lines)


# ties, signed zeros, infinities and nan, plus any float
table_cells = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf,
                               np.nan]) | st.floats()


@SETTINGS
@given(st.integers(1, 4), st.sampled_from(["one", "B-1", "B", "B+1"]),
       st.integers(1, 5), st.data())
def test_csv_blocks_equal_the_per_cell_reference(block, paths, levels, data):
    # path counts on both sides of a block boundary (_CSV_PATHS = B)
    n_paths = max(1, {"one": 1, "B-1": block - 1, "B": block,
                      "B+1": block + 1}[paths])
    row = st.lists(table_cells, min_size=levels, max_size=levels)
    rows = data.draw(st.lists(row | st.just([np.nan] * levels),
                              min_size=n_paths, max_size=n_paths))
    config = LilExperimentConfig(j_min=3, j_max=2 + levels, n_paths=n_paths)
    report = LilReport("brownian", "terminal", config,
                       np.array(rows, dtype=float), {})
    with mock.patch.object(lil, "_CSV_PATHS", block):
        blocks = list(report.csv_blocks())
    assert len(blocks) == 1 + -(-n_paths // block)
    assert "".join(blocks) == _reference_lil_csv(report)
    assert report.to_csv_string() == "".join(blocks)


def _reference_euler(system, x0, inc, dt):
    """One row stepped with every check at every step: (states, explosion).

    The loop euler_batch replaced, kept as the reference: rows after the
    explosion index are nan, and a non-finite drift at a live state raises
    NumericalFailure before the step is taken.
    """
    states = np.full((len(inc) + 1, len(x0)), np.nan)
    states[0] = x = x0
    for i in range(len(inc)):
        with np.errstate(over="ignore", invalid="ignore"):
            b = system.drift(x)
            if not np.all(np.isfinite(b)):
                raise NumericalFailure(
                    f"drift evaluated to non-finite values at step {i}",
                    state=x, step=i)
            x = x + b * dt + system.sigma @ inc[i]
        if not _reference_alive(x, system.domain_contains):
            return states, i + 1
        states[i + 1] = x
    return states, None


def _assert_euler_batch_matches_reference(system, x0, inc, dt):
    """euler_batch against _reference_euler, row by row.

    Either no row fails alone, and every row has the reference's states up
    to its first dead node and its last live state from there on, or
    euler_batch raises the NumericalFailure of the earliest failing step,
    the lowest row on ties. Returns first_dead or the failure.
    """
    refs, failures = [], []   # failures: (step, row, exception)
    for b in range(len(x0)):
        try:
            refs.append(_reference_euler(system, x0[b], inc[b], dt))
        except NumericalFailure as exc:
            failures.append((exc.step, b, exc))
    if failures:
        expected = min(failures, key=lambda t: t[:2])[2]
        with pytest.raises(NumericalFailure) as info:
            euler_batch(system, x0, inc, dt)
        assert info.value.step == expected.step
        assert np.array_equal(info.value.state, expected.state)
        assert str(info.value) == str(expected)
        return info.value
    states, first_dead = euler_batch(system, x0, inc, dt)
    n = inc.shape[1]
    assert states.shape == (n + 1,) + x0.shape
    for b, (ref, explosion) in enumerate(refs):
        end = first_dead[b]
        assert explosion == (end if end <= n else None)
        assert np.array_equal(ref[:end], states[:end, b])
        # dead rows stay frozen at their last live state
        assert np.all(states[end:, b] == states[end - 1, b])
    return first_dead


# euler_batch checks liveness once per block of sde._BLOCK nodes; small
# blocks make the 1-64 step cases cross many block edges
BLOCKS = st.sampled_from([1, 2, 3, 7, sde._BLOCK])


@SETTINGS
@given(euler_cases, BLOCKS)
def test_euler_batch_rows_equal_single_runs(case, block):
    system, x0, inc = _draw_euler(case)
    dt = case["dt"]
    with mock.patch.object(sde, "_BLOCK", block):
        _assert_euler_batch_matches_reference(system, x0, inc, dt)
    for b in range(len(x0)):
        ref, explosion = _reference_euler(system, x0[b], inc[b], dt)
        path = simulate_sde(system, x0[b], NoisePath(0, dt, inc[b]))
        assert np.array_equal(path.states, ref, equal_nan=True)
        assert path.explosion_index == explosion


# b_0 = 1e308 (x0^2 - x1^2) and noise (1, 1) from 0: the states stay on the
# diagonal, where the drift is 0 while 1e308 x^2 is finite (|x| < 1.34) and
# inf - inf = nan beyond, at a finite live state
OVERFLOWING = SdeSystem(PolynomialDrift(2, (((1e308, (2, 0)),
                                             (-1e308, (0, 2))), ())),
                        np.ones((2, 1)))


@SETTINGS
@given(euler_cases, BLOCKS)
def test_numerical_failure_matches_single_runs(case, block):
    system = OVERFLOWING
    inc = _increments(case, 1)
    x0 = np.zeros((len(inc), 2))
    dt = case["dt"]
    with mock.patch.object(sde, "_BLOCK", block):
        _assert_euler_batch_matches_reference(system, x0, inc, dt)
    for b in range(len(x0)):
        try:
            _reference_euler(system, x0[b], inc[b], dt)
        except NumericalFailure as exc:
            with pytest.raises(NumericalFailure) as info:
                simulate_sde(system, x0[b], NoisePath(0, dt, inc[b]))
            assert info.value.step == exc.step


def _jumps(n, jumps, seed, scale=0.01):
    """Increments (rows, n, 1) of small noise. Row r with jumps[r] = (s, j)
    also jumps by j into node s and by -2 j out of it, so that a row killed
    at node s would come back if it were stepped on; (None, 0) adds none."""
    inc = scale * np.random.default_rng(seed).standard_normal(
        (len(jumps), n, 1))
    for row, (node, size) in enumerate(jumps):
        if node is not None:
            inc[row, node - 1] += size
            if node < n:
                inc[row, node] -= 2.0 * size
    return inc


def _block_deaths(m, n):
    """Dead nodes in the first block, on the first and last nodes of blocks
    and mid-block, within [1, n], and a row that survives."""
    nodes = [1, m, m + 1, 2 * m, 2 * m + 1, m + 2, n]
    return sorted({v for v in nodes if 1 <= v <= n}) + [None]


@pytest.mark.parametrize("block", [1, 2, 3, 7, None])
def test_euler_batch_kills_each_row_once_across_blocks(block):
    # brownian in x < 1: a jump of 2 kills a row at a chosen node, and the
    # jump of -4 after it would bring a row stepped on after its death back
    # inside. None is the real block size, with n = 2 * block + 1.
    m = sde._BLOCK if block is None else block
    n = 2 * m + 1 if block is None else 4 * m + 1
    deaths = _block_deaths(m, n)
    system = replace(get_example("brownian").sde,
                     domain_contains=lambda x: x[..., 0] < 1.0)
    inc = _jumps(n, [(v, 2.0 if v else 0.0) for v in deaths], seed=m)
    x0 = np.zeros((len(deaths), 1))
    with mock.patch.object(sde, "_BLOCK", m):
        first_dead = _assert_euler_batch_matches_reference(system, x0, inc,
                                                           0.1)
    assert first_dead.tolist() == [n + 1 if v is None else v for v in deaths]


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_euler_batch_all_rows_dead_mid_block(block):
    # every row dies, the last in the middle of block 1 (at its first node
    # when the block has one or two nodes); later blocks run no steps and
    # the frozen tails reach node n
    n = 4 * block + 1
    deaths = [1, block + 1, block + (block + 1) // 2]
    system = replace(get_example("brownian").sde,
                     domain_contains=lambda x: x[..., 0] < 1.0)
    inc = _jumps(n, [(v, 2.0) for v in deaths], seed=block)
    with mock.patch.object(sde, "_BLOCK", block):
        first_dead = _assert_euler_batch_matches_reference(
            system, np.zeros((3, 1)), inc, 0.1)
    assert first_dead.tolist() == deaths


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_numerical_failure_of_the_earliest_step_in_a_block(block):
    # |x| > 1.34 makes the drift nan: a row that jumps there at node s
    # turns non-finite at node s + 1 and fails at step s. Rows 1 and 2 turn
    # non-finite at the first node of block 1, row 0 at its last node; row
    # 1 must win (row 0 when block = 1, where all three tie).
    n = 3 * block + 1
    inc = _jumps(n, [(2 * block - 1, 2.0), (block, 3.0), (block, 4.0)],
                 seed=0, scale=0.0)
    with mock.patch.object(sde, "_BLOCK", block):
        failure = _assert_euler_batch_matches_reference(
            OVERFLOWING, np.zeros((3, 2)), inc, 0.1)
    assert failure.step == block
    assert failure.state.tolist() == ([3.0, 3.0] if block > 1 else [2.0, 2.0])


# ---------------------------------------------------------------------------
# Bridge refinement: a Gauss-Markov process on the grids eps_j * [0, 1] of n
# steps, eps_j = c^j. Grids nest for c = 1/2 only; c = 0.6 and 0.75 share
# some times, a generic c shares only 0.

def _brownian_spec(k):
    return LinearSpec(np.zeros((k, k)), np.eye(k))


def _bridge_levels(spec, c, n, rows, n_levels=6):
    grids = [(c ** j / n) * np.arange(n + 1) for j in range(n_levels)]
    return grids, list(_bridge(_bridge_plan(spec, grids),
                               np.zeros((len(rows), spec.dim)),
                               lambda level, n: row_normals(5, level, rows, n)))


@SETTINGS
@given(st.one_of(st.sampled_from([0.5, 0.6, 0.75]), st.floats(0.1, 0.9)),
       st.integers(1, 64), st.sampled_from([1, 2]))
def test_bridge_levels_see_one_path(c, n, k):
    grids, ws = _bridge_levels(_brownian_spec(k), c, n, range(3))
    for a, (times, w) in enumerate(zip(grids, ws)):
        assert w.shape == (n + 1, 3, k)
        assert np.all(w[0] == 0.0)
        assert np.allclose(np.diff(w, axis=0).sum(axis=0), w[-1],
                           rtol=0.0, atol=1e-12)
        for b in range(a + 1, len(grids)):
            shared = np.abs(times[:, None] - grids[b][None, :]) \
                <= 1e-9 * grids[b][1]
            at_a, at_b = np.nonzero(shared)
            assert np.array_equal(w[at_a], ws[b][at_b])


@SETTINGS
@given(st.one_of(st.sampled_from([0.5, 0.7]), st.floats(0.1, 0.9)),
       st.integers(1, 16), st.sampled_from([1, 2, 3]),
       st.lists(st.integers(1, 9), max_size=4))
def test_bridge_rows_split_anywhere_reproduce_the_full_draw(c, n, d, cuts):
    # each row draws from its own block of the level's Philox counter, so
    # chunks of rows give the full draw bit for bit
    spec = (get_example("iterated_kolmogorov", d=d).sde.linear if d > 1
            else _brownian_spec(1))
    _, full = _bridge_levels(spec, c, n, range(10))
    edges = [0] + sorted(set(cuts)) + [10]
    parts = [_bridge_levels(spec, c, n, range(lo, hi))[1]
             for lo, hi in zip(edges, edges[1:]) if lo < hi]
    for level, x in enumerate(full):
        assert np.array_equal(
            np.concatenate([part[level] for part in parts], axis=1), x)


def test_bridge_increments_are_brownian():
    # c = 0.7: the grids do not nest, so most times are bridged from both
    # sides. Increment variance is dt_j at every step, and the ends of
    # adjacent levels covary as W(h_j) W(h_j+1) does, E = h_j+1.
    grids, ws = _bridge_levels(_brownian_spec(2), 0.7, 8, range(4000))
    for times, w in zip(grids, ws):
        var = np.diff(w, axis=0).var(axis=1)
        assert np.allclose(var / times[1], 1.0, rtol=0.0, atol=0.1)
    for a in range(len(grids) - 1):
        cov = np.mean(ws[a][-1] * ws[a + 1][-1], axis=0)
        assert np.allclose(cov / grids[a + 1][-1], 1.0, rtol=0.0, atol=0.1)


def test_bridged_states_have_the_transition_covariance():
    # IK(2) from 0 at c = 0.7: every node's covariance is C(t), and the
    # ends of adjacent levels covary as Phi(h_j - h_j+1) C(h_j+1), both in
    # sqrt(diag) units, where C(t) spans t^3 to t
    spec = get_example("iterated_kolmogorov", d=2).sde.linear
    grids, xs = _bridge_levels(spec, 0.7, 8, range(4000))
    for times, x in zip(grids, xs):
        for t, node in zip(times[1:], x[1:]):
            scale = np.sqrt(np.diag(spec.covariance(t)))
            got = node.T @ node / len(node) / np.outer(scale, scale)
            assert np.allclose(got, spec.covariance(t)
                               / np.outer(scale, scale), rtol=0.0, atol=0.1)
    for a in range(len(grids) - 1):
        s, t = grids[a + 1][-1], grids[a][-1]
        want = spec.propagator(t - s) @ spec.covariance(s)
        scale = np.outer(np.sqrt(np.diag(spec.covariance(t))),
                         np.sqrt(np.diag(spec.covariance(s))))
        got = xs[a][-1].T @ xs[a + 1][-1] / 4000
        assert np.allclose(got / scale, want / scale, rtol=0.0, atol=0.1)


# ---------------------------------------------------------------------------
# Functional values on node states: node_values over a batch (n, B, d),
# masked where first_dead < n, is each row's evaluate on its ExplosivePath.

@SETTINGS
@given(st.integers(1, 16), st.integers(1, 8), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_node_values_equal_single_row_evaluate(n, batch, d, seed):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n, batch, d)) * 10.0 ** rng.integers(
        -3, 4, size=(1, batch, 1))
    first_dead = rng.integers(1, n, size=batch, endpoint=True)
    times = np.linspace(0.0, rng.uniform(0.1, 2.0), n)
    for functional in (
            TerminalLinearFunctional(rng.standard_normal(d),
                                     offset=rng.standard_normal()),
            QuadraticMissFunctional(rng.standard_normal(d)),
            RunningMaxAbsFunctional(int(rng.integers(d)))):
        vals = np.where(first_dead < n, np.nan,
                        node_values(functional, states))
        rows = [functional.evaluate(_row_path(times, states, first_dead, b))
                for b in range(batch)]
        assert np.array_equal(vals, rows, equal_nan=True)


# ---------------------------------------------------------------------------
# Boundary ray casting: _ray_roots runs brentq's iteration in lockstep over
# all rays, so every root, boundary table, sample and icosphere must equal
# the per-ray, per-row and per-face scalar code bit for bit.

def _reference_ray_root(domain, direction, start=None):
    """brentq on [start, s_hi] where implicit_fn is negative at start, and
    on [0, s_hi] otherwise."""
    c, box = domain.interior_point, domain.bounding_box
    s_hi = float(np.linalg.norm(box[:, 1] - box[:, 0]))

    def f(s):
        return float(domain.implicit_fn(c + s * direction))

    low = start if start is not None and f(start) < 0.0 else 0.0
    return brentq(f, low, s_hi, xtol=1e-14, rtol=1e-15)


def _quartic_body(center, axes):
    """Convex superellipse sum(((x - c) / a)^4) < 1, quartic along rays."""
    return DomainSpec(
        implicit_fn=lambda x: np.sum(
            ((np.asarray(x, dtype=float) - center) / axes) ** 4,
            axis=-1) - 1.0,
        gradient_fn=lambda x: 4.0 * ((np.asarray(x, dtype=float) - center)
                                     / axes) ** 3 / axes,
        bounding_box=np.stack([center - 1.25 * axes, center + 1.25 * axes],
                              axis=1),
        convex_flag=True, interior_point=center)


def _steep_ball(center, radius, k):
    """The ball |x - c| < r through expm1: far from linear along a ray, so
    Brent falls back to bisection often."""
    ball = DomainSpec.ball(center, radius)
    return replace(ball, implicit_fn=lambda x: np.expm1(
        k * (np.sum((np.asarray(x, dtype=float) - center) ** 2, axis=-1)
             / radius**2 - 1.0)))


def _box_body(center, axes):
    """The max-norm box max |x_i - c_i| / a_i < 1.  Its flat faces hold
    whole chords of its boundary table, so many chordal samples land on or
    just over the boundary and their rays keep the bracket from the
    witness."""
    return DomainSpec(
        implicit_fn=lambda x: np.max(
            np.abs((np.asarray(x, dtype=float) - center) / axes),
            axis=-1) - 1.0,
        gradient_fn=None,       # the ray casts do not use it
        bounding_box=np.stack([center - 1.25 * axes, center + 1.25 * axes],
                              axis=1),
        convex_flag=True, interior_point=center)


domains = st.fixed_dictionaries({
    "d": st.sampled_from([2, 3]),
    "shape": st.sampled_from(["ball", "quartic", "steep", "box"]),
    "seed": st.integers(0, 2**32 - 1),
})


def _domain(case):
    rng = np.random.default_rng(case["seed"])
    d = case["d"]
    center = rng.uniform(-3.0, 3.0, size=d)
    if case["shape"] == "ball":
        return DomainSpec.ball(center, float(rng.uniform(0.05, 4.0))), rng
    if case["shape"] == "steep":
        return _steep_ball(center, float(rng.uniform(0.05, 4.0)),
                           float(rng.uniform(1.0, 40.0))), rng
    if case["shape"] == "box":
        return _box_body(center, rng.uniform(0.1, 3.0, size=d)), rng
    return _quartic_body(center, rng.uniform(0.1, 3.0, size=d)), rng


@SETTINGS
@given(domains, st.integers(1, 40))
def test_ray_roots_equal_brentq(case, m):
    domain, rng = _domain(case)
    dirs = _unit_rows(rng.standard_normal((m, case["d"])))
    roots = _ray_roots(domain, dirs)
    assert roots.shape == (m,)
    assert np.array_equal(roots,
                          [_reference_ray_root(domain, u) for u in dirs])
    # lower ends inside, on and over the boundary, and at the witness
    kind = rng.integers(0, 3, size=m)
    start = np.where(kind == 0, roots * rng.uniform(0.0, 1.2, size=m),
                     np.where(kind == 1, roots, 0.0))
    assert np.array_equal(_ray_roots(domain, dirs, start=start),
                          [_reference_ray_root(domain, u, s)
                           for u, s in zip(dirs, start)])


def _reference_sample_boundary(domain, n, seed):
    table = _boundary_table(domain)
    rng = _philox(seed, 97)
    c = domain.interior_point
    if domain.dim == 2:
        u = rng.uniform(0.0, table["cumlen"][-1], size=n)
        pts = np.empty((n, 2))
        for row, s in enumerate(u):
            idx = int(np.searchsorted(table["cumlen"], s) - 1)
            idx = min(max(idx, 0), len(table["points"]) - 2)
            frac = (s - table["cumlen"][idx]) / (
                table["cumlen"][idx + 1] - table["cumlen"][idx])
            pts[row] = (1 - frac) * table["points"][idx] \
                + frac * table["points"][idx + 1]
    else:
        faces = table["faces"]
        pick = np.searchsorted(table["area_cdf"], rng.uniform(size=n))
        pick = np.clip(pick, 0, len(faces) - 1)
        b = rng.uniform(size=(n, 2))
        flip = b.sum(axis=1) > 1.0
        b[flip] = 1.0 - b[flip]
        w = np.stack([1.0 - b.sum(axis=1), b[:, 0], b[:, 1]], axis=1)
        pts = np.einsum("nk,nkd->nd", w, table["points"][faces[pick]])
    out = np.empty_like(pts)
    for row, p in enumerate(pts):
        u = p - c
        r = float(np.linalg.norm(u))
        u = u / r
        out[row] = c + _reference_ray_root(domain, u, r) * u
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_boundary_table_equals_per_ray_brentq(d):
    domain = _quartic_body(np.arange(1.0, d + 1.0), np.linspace(0.5, 2.0, d))
    c = domain.interior_point
    table = _boundary_table(domain)
    if d == 2:
        # the closing node reuses the first root along direction 2 pi
        theta = 2.0 * np.pi * np.arange(_CURVE_NODES + 1) / _CURVE_NODES
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        radii = [_reference_ray_root(domain, u) for u in dirs[:-1]]
        radii.append(radii[0])
    else:
        dirs = _icosphere(_SPHERE_SUBDIV)[0]
        radii = [_reference_ray_root(domain, u) for u in dirs]
    assert np.array_equal(table["points"],
                          c + np.array(radii)[:, None] * dirs)


@SETTINGS
@given(domains, st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_sample_boundary_equals_per_row_loop(case, n, seed):
    domain, _ = _domain(case)
    assert np.array_equal(_sample_boundary(domain, n, seed),
                          _reference_sample_boundary(domain, n, seed))


@pytest.mark.parametrize("d", [2, 3])
def test_flat_faces_send_chordal_samples_back_to_the_witness(d):
    # chords on the box's faces put some chordal points on or over the
    # boundary, so inside polygonalize both brackets run
    domain = _box_body(np.arange(1.0, d + 1.0), np.linspace(0.5, 2.0, d))
    c = domain.interior_point
    at_start = []

    def spy(domain, dirs, start=None, **kw):
        if start is not None:
            at_start.append(domain.implicit_fn(c + start[:, None] * dirs))
        return ray_roots(domain, dirs, start=start, **kw)

    ray_roots = regularity._ray_roots
    with mock.patch.object(regularity, "_ray_roots", spy):
        poly = polygonalize(domain, np.eye(d)[-1], 64, seed=3)
    assert poly.work["hull_attempts"] == 1
    vals = np.concatenate(at_start)
    assert (vals >= 0.0).any() and (vals < 0.0).any()
    assert np.array_equal(poly.vertices,
                          _reference_sample_boundary(domain, 64, 3))


def _reference_icosphere(subdiv):
    verts, faces = _icosphere(0)
    vlist = [tuple(v) for v in verts]
    faces = [tuple(f) for f in faces]
    cache = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = _unit_rows(0.5 * (np.array(vlist[i]) + np.array(vlist[j])))
            cache[key] = len(vlist)
            vlist.append(tuple(m))
        return cache[key]

    for _ in range(subdiv):
        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
        cache.clear()
    return np.array(vlist), np.array(faces, dtype=int)


@pytest.mark.parametrize("subdiv", range(_SPHERE_SUBDIV + 1))
def test_icosphere_equals_per_face_loop(subdiv):
    verts, faces = _icosphere(subdiv)
    ref_verts, ref_faces = _reference_icosphere(subdiv)
    assert np.array_equal(verts, ref_verts)
    assert faces.dtype == ref_faces.dtype
    assert np.array_equal(faces, ref_faces)
    assert len(verts) == 10 * 4**subdiv + 2


# ---------------------------------------------------------------------------
# The cone probe and the energy certificate make one batched call where the
# scalar code looped; the probe points and the verdicts must not change.

def _reference_cone_probe(domain, x, basis_mat, boundary_tolerance=1e-8):
    d = domain.dim
    diam = float(np.max(domain.bounding_box[:, 1] - domain.bounding_box[:, 0]))
    rng = _philox(20240117, 5)
    rays = np.vstack([np.eye(d), np.ones((1, d)),
                      rng.uniform(0.1, 1.0, size=(8, d))])
    points, enters = [], False
    for lam in rays:
        w = basis_mat @ lam
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            continue
        for s in (1e-6, 1e-3, 1e-1):
            p = x + (s * diam / nw) * w
            points.append(p)
            enters |= float(domain.implicit_fn(p)) < -boundary_tolerance
    return np.array(points), enters


@SETTINGS
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_cone_probe_equals_per_ray_loop(d, seed):
    rng = np.random.default_rng(seed)
    ball = DomainSpec.ball(rng.uniform(-1.0, 1.0, size=d),
                           float(rng.uniform(0.5, 2.0)))
    normal = _unit_rows(rng.standard_normal(d))
    x = ball.interior_point + float(_ray_roots(ball, normal[None])[0]) * normal
    # edges scattered around the outward normal: about half the cones
    # have a ray that enters the ball
    basis = normal[:, None] + rng.uniform(-2.0, 2.0, size=(d, d))
    seen = []

    def spy(points):
        seen.append(np.array(points))
        return ball.implicit_fn(points)

    spied = replace(ball, implicit_fn=spy)
    ref_points, ref_enters = _reference_cone_probe(ball, x, basis)
    sde = get_example("quadratic").sde if d == 2 \
        else get_example("iterated_kolmogorov", d=3).sde
    try:
        cone_criterion(sde, spied, x, basis)
        enters = False
    except ValueError as err:
        if "linearly dependent" in str(err):
            return
        assert "cone ray enters" in str(err)
        enters = True
    assert enters == ref_enters
    assert np.array_equal(seen[-1].reshape(-1, d), ref_points)


def _reference_energy_certificate(problem, z, t):
    sigma = problem.constant_diffusion
    rng = _philox(981127, 3)
    cloud = rng.uniform(-2.0, 2.0, size=(128, problem.dim_state))
    cloud = np.vstack([cloud, problem.x0[None, :], z[None, :]])
    sup = np.zeros(problem.dim_state)
    for y in cloud:
        sup = np.maximum(sup, np.abs(np.asarray(problem.limit_drift(y),
                                                dtype=float)))
    for i in range(problem.dim_state):
        if sup[i] > 1e-12:
            continue
        bound = float(np.linalg.norm(sigma[i])) * np.sqrt(2.0 * t)
        gap = abs(float(z[i] - problem.x0[i]))
        if gap > bound * (1.0 + 1e-12):
            return {"kind": "drift_free_coordinate_energy_bound",
                    "coordinate": i, "reach_band": bound,
                    "target_offset": gap}
    return None


@pytest.mark.parametrize("name", list_examples())
def test_energy_certificate_equals_per_row_loop(name):
    problem = get_example(name).limit_problem
    rng = np.random.default_rng(7)
    for scale in (0.1, 1.0, 10.0, 100.0):
        z = problem.x0 + scale * rng.standard_normal(problem.dim_state)
        for t in (0.25, 1.0):
            assert _energy_certificate(problem, z, t) \
                == _reference_energy_certificate(problem, z, t)


# ---------------------------------------------------------------------------
# Noise coarsening and the contraction round trip. coarsen sums blocks of
# increments, so coarsening twice equals coarsening once by the product up
# to the rounding of the two summation orders; the contraction and its
# inverse undo each other up to the conditioning of y -> c + (y - c) / alpha.

EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal   # the spacing of underflowed results


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 8),
       st.integers(1, 3), st.floats(1e-6, 1.0), st.integers(0, 2**32 - 1))
def test_coarsen_twice_equals_coarsen_by_the_product(a, b, blocks, dim, dt,
                                                      seed):
    n = a * b * blocks
    inc = np.random.default_rng(seed).standard_normal((n, dim)) * np.sqrt(dt)
    fine = NoisePath(seed, dt, inc)
    twice, once = fine.coarsen(a).coarsen(b), fine.coarsen(a * b)
    assert twice.n_steps == once.n_steps == blocks
    assert twice.dt == pytest.approx(once.dt, rel=2 * EPS)
    # each sum of m terms is off by at most (m - 1) eps sum |x|
    block_abs = np.abs(inc).reshape(blocks, a * b, dim).sum(axis=1)
    assert np.all(np.abs(twice.increments - once.increments)
                  <= 2 * a * b * EPS * block_abs)
    # the horizon and the total increment are kept
    for coarse in (twice, once):
        assert coarse.horizon == pytest.approx(fine.horizon, rel=2 * EPS)
        assert np.all(np.abs(coarse.increments.sum(axis=0) - inc.sum(axis=0))
                      <= 2 * n * EPS * np.abs(inc).sum(axis=0))


@SETTINGS
@given(st.integers(1, 40), st.integers(-3, 60))
def test_coarsen_rejects_a_factor_that_does_not_divide(n, factor):
    fine = NoisePath(0, 0.1, np.ones((n, 1)))
    if factor >= 1 and n % factor == 0:
        assert fine.coarsen(factor).n_steps == n // factor
    else:
        with pytest.raises(ValueError, match="must divide"):
            fine.coarsen(factor)


@SETTINGS
@given(st.sampled_from(["diagonal", "shifted_diagonal", "affine_detrended"]),
       st.integers(1, 4), st.data())
def test_contraction_round_trip(kind, dim, data):
    coords = hnp.arrays(float, dim, elements=st.floats(-1e3, 1e3))
    center = np.zeros(dim) if kind == "diagonal" else data.draw(coords)
    phi = ContractionFamily(center, data.draw(coords)
                            if kind == "affine_detrended" else None)
    y = data.draw(coords)
    alpha = np.exp(data.draw(hnp.arrays(float, dim,
                                        elements=st.floats(-30.0, 0.0))))
    # apply_inverse rounds c + (y - c) alpha to within eps |c + (y - c) alpha|
    # (or TINY, where it underflows), an error apply divides by alpha; each
    # product and sum adds an eps
    shrunk = phi.apply_inverse(alpha, y)
    tol = (4 * EPS * (np.abs(shrunk) / alpha + np.abs(y - center) + np.abs(y))
           + TINY / alpha)
    assert np.all(np.abs(phi.apply(alpha, shrunk) - y) <= tol)
    # the other way round nothing is divided: a few eps of |y| and |c|
    back = phi.apply_inverse(alpha, phi.apply(alpha, y))
    assert np.all(np.abs(back - y)
                  <= 4 * EPS * (np.abs(y) + np.abs(center)) + TINY)


@SETTINGS
@given(st.sampled_from(WRITTEN_DRIFTS),
       st.lists(st.integers(1, 4), max_size=2), st.data())
def test_derived_drifts_equal_the_written_ones(case, batch, data):
    # states (d,), (B, d) and (w, B, d)
    name, params, written = case
    example = get_example(name, **params)
    x = data.draw(hnp.arrays(float, (*batch, example.sde.dim_state),
                             elements=st.floats(-1e200, 1e200)))
    limit = example.limit_problem
    derived = (example.sde.drift, limit.limit_drift,
               limit.limit_drift.jacobian)
    with np.errstate(over="ignore", invalid="ignore"):
        for got, want in zip(derived, written):
            assert np.array_equal(got(x), want(x), equal_nan=True)


@st.composite
def monomial_tables(draw, reachable=True):
    """(rows, sigma): d <= 5, monomials of degree 1 to 3, at least one
    driven row. When reachable, each undriven row i gets a monomial in
    coordinates that are driven or come before i, so every coordinate is
    reached from the noise."""
    d = draw(st.integers(1, 5))
    driven = draw(st.lists(st.booleans(), min_size=d, max_size=d)
                  .filter(any))

    def monomial(pool):
        js = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        return (draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0])),
                tuple(js.count(j) for j in range(d)))

    rows = [[monomial(range(d)) for _ in range(draw(st.integers(0, 3)))]
            for _ in range(d)]
    for i in range(d):
        if reachable and not driven[i]:
            pool = [j for j in range(d) if driven[j] or j < i]
            rows[i].insert(draw(st.integers(0, len(rows[i]))),
                           monomial(pool))
    sigma = np.zeros((d, 2))
    for i in np.flatnonzero(driven):
        sigma[i, draw(st.integers(0, 1))] = draw(st.sampled_from([-1.0, 2.0]))
    return rows, sigma


def _index_or_reject(index, eps):
    """eval_index, an underflowing alpha counting as an out-of-range draw."""
    try:
        return eval_index(index, eps)
    except ValueError:
        hypothesis.reject()


def _weights(exps, index):
    return tuple(sum(m * lk[n] for m, lk in zip(exps, index.exponents))
                 for n in (0, 1))


@SETTINGS
@given(monomial_tables(), st.integers(0, 2**32 - 1))
# x2' = x1 + x0^3 ties in l (x1 is (3, 1)) and keeps x0^3, of larger k
@example(([[], [(1.0, (1, 0, 0))], [(1.0, (0, 1, 0)), (1.0, (3, 0, 0))]],
          np.array([[1.0], [0.0], [0.0]])), 0)
def test_derived_limit_is_the_principal_part(table, seed):
    rows, sigma = table
    d = len(rows)
    index, limit = derive_rescaling(PolynomialDrift(d, rows), sigma)
    for i, ((ell, k), row) in enumerate(zip(index.exponents, rows)):
        kept = limit.rows[i]
        assert bool(kept) == (not sigma[i].any())
        for c, e in row:
            w = _weights(e, index)
            if (c, e) in kept:
                assert w == (ell - 2, k)
            else:
                assert w[0] > ell - 2 or (w[0] == ell - 2 and w[1] < k)
    # eps * L_i(alpha y) / alpha_i = L_i(y), to 1e-12 of the sum of the
    # terms' magnitudes
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.25, 2.0, (4, d)) * rng.choice([-1.0, 1.0], (4, d))
    magnitude = PolynomialDrift(d, [[(abs(c), e) for c, e in row]
                                    for row in limit.rows])(np.abs(y))
    for eps in (1e-3, 1e-6):
        # far past this scale alpha underflows (eval_index raises below the
        # smallest normal float) and the identity says nothing
        alpha = _index_or_reject(index, eps)
        hypothesis.assume(alpha.min() > 1e-280)
        scaled = eps * limit(alpha * y) / alpha
        assert np.all(np.abs(scaled - limit(y)) <= 1e-12 * magnitude)


def _reference_transformed(system, phi, psi, eps):
    """(b_eps, sigma_eps) as the closures transformed_coefficients returned
    before it built a table, kept as its reference. b_eps(y) is eps *
    b(c + alpha (y - c)) / alpha without a trend, and the increment trend +
    eps * b(alpha (y - c)) / alpha of a linear b with b(c) = trend."""
    alpha = eval_index(psi, eps)
    center, trend = phi.center, phi.drift_vector

    def b_eps(y):
        y = np.asarray(y, dtype=float)
        if np.any(trend):
            return trend + eps * system.drift((y - center) * alpha) / alpha
        return eps * system.drift(center + y * alpha - center * alpha) / alpha

    gain = math.sqrt(eps * rate_scale(eps))
    return b_eps, gain * system.sigma / alpha[:, None]


@st.composite
def rescaling_cases(draw):
    """(system, phi, psi): a random table of monomial_tables around 0 with
    its derived index, or a linear table around a drawn center c with the
    trend b(c), b reading no coordinate b(c) moves, and a drawn index."""
    rows, sigma = draw(monomial_tables())
    d = len(rows)
    if draw(st.booleans()):
        index, _ = derive_rescaling(PolynomialDrift(d, rows), sigma)
        return SdeSystem(PolynomialDrift(d, rows), sigma), \
            ContractionFamily(np.zeros(d)), index
    a = np.reshape(draw(st.lists(st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.0]),
                                 min_size=d * d, max_size=d * d)), (d, d))
    center = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d,
                                    max_size=d)))
    while True:   # zero the columns b reads that the trend moves
        drift = PolynomialDrift(d, [[(a[i, j], tuple(np.eye(d, dtype=int)[j]))
                                     for j in range(d) if a[i, j]]
                                    for i in range(d)])
        moved = drift(center) != 0.0
        if not np.any(a[:, moved]):
            break
        a[:, moved] = 0.0
    index = AsymptoticIndex(tuple(draw(st.tuples(st.integers(1, 7),
                                                 st.integers(0, 3)))
                                  for _ in range(d)))
    return (SdeSystem(drift, sigma),
            ContractionFamily(center, drift(center)), index)


@SETTINGS
@given(rescaling_cases(), st.sampled_from([1e-3, 1e-6, 1e-9]),
       st.integers(0, 2**32 - 1))
def test_table_coefficients_equal_the_closures(case, eps, seed):
    # the table holds each term's coefficient eps alpha^m / alpha_i, and a
    # center's affine constant; within 8 ulps of the sum of the absolute
    # term values |v| + sum |coef| (|y| + |c|)^m, and sigma_eps bit for bit
    system, phi, psi = case
    alpha = _index_or_reject(psi, eps)
    # the closures' products alpha^m y^m stay normal floats
    hypothesis.assume(alpha.min() > 1e-90)
    table = transformed_coefficients(system, phi, psi, eps)
    b_eps, sigma_eps = _reference_transformed(system, phi, psi, eps)
    assert np.array_equal(table.sigma, sigma_eps)
    d = system.dim_state
    y = np.random.default_rng(seed).uniform(-2.0, 2.0, (8, d))
    terms = PolynomialDrift(d, [[(abs(c), e) for c, e in row if any(e)]
                                for row in table.drift.rows])
    magnitude = np.abs(phi.drift_vector) + terms(np.abs(y)
                                                 + np.abs(phi.center))
    assert np.all(np.abs(table.drift(y) - b_eps(y))
                  <= 8 * EPS * magnitude + TINY)


@SETTINGS
@given(monomial_tables(reachable=False), st.data())
def test_unreachable_coordinates_raise(table, data):
    rows, sigma = table
    undriven = [i for i in range(len(rows)) if not sigma[i].any()]
    hypothesis.assume(undriven)
    lost = sorted(data.draw(st.sets(st.sampled_from(undriven), min_size=1)))
    # rows of lost coordinates keep only monomials in a lost coordinate
    rows = [[(c, e) for c, e in row if any(e[j] for j in lost)]
            if i in lost else row for i, row in enumerate(rows)]
    with pytest.raises(ValueError, match="reached from no") as info:
        derive_rescaling(PolynomialDrift(len(rows), rows), sigma)
    named = re.search(r"coordinates \[([\d, ]+)\]", str(info.value))[1]
    assert set(lost) <= {int(i) for i in named.split(",")}


@SETTINGS
@given(monomial_tables(), st.data())
def test_constant_terms_raise_in_undriven_rows_only(table, data):
    rows, sigma = table
    d = len(rows)
    index, _ = derive_rescaling(PolynomialDrift(d, rows), sigma)
    lifted = data.draw(st.sets(st.integers(0, d - 1), min_size=1))
    rows = [row + [(1.0, (0,) * d)] if i in lifted else row
            for i, row in enumerate(rows)]
    undriven = sorted(i for i in lifted if not sigma[i].any())
    if undriven:
        with pytest.raises(ValueError,
                           match=f"coordinate {undriven[0]} has a constant"):
            derive_rescaling(PolynomialDrift(d, rows), sigma)
    else:
        # a driven row's constant scales away: same index, no constant kept
        again, limit = derive_rescaling(PolynomialDrift(d, rows), sigma)
        assert again == index
        assert all(any(e) for row in limit.rows for _, e in row)


@SETTINGS
@given(hnp.arrays(float, 2, elements=st.floats(-1e6, 1e6)))
def test_shifted_contraction_is_derived_from_x0(x0):
    # center x0 and trend b(x0) = (x0[1], 0), whose kind describe reports
    phi = get_example("shifted_kolmogorov", x0=x0).contraction
    assert np.array_equal(phi.center, x0)
    assert np.array_equal(phi.drift_vector, [x0[1], 0.0])
    assert phi.kind == ("affine_detrended" if x0[1] else
                        "shifted_diagonal" if x0[0] else "diagonal")


@SETTINGS
@given(monomial_tables(reachable=False), st.data())
def test_jacobian_is_the_derivative_of_the_drift(table, data):
    rows, _ = table
    d = len(rows)
    drift = PolynomialDrift(d, rows)
    x = data.draw(hnp.arrays(float, (3, d), elements=st.floats(-2.0, 2.0)))
    # the generated drift is the sum of its terms, rounded in another order
    terms = [[c * np.prod(x ** np.array(e), axis=-1) for c, e in row]
             for row in drift.rows]
    for i, row in enumerate(terms):
        total = sum(row, np.zeros(3))
        magnitude = sum(map(np.abs, row), np.zeros(3))
        assert np.all(np.abs(drift(x)[:, i] - total)
                      <= 1e-12 * magnitude + 4 * TINY)
    h = 1e-6
    central = np.stack([(drift(x + s) - drift(x - s)) / (2 * h)
                        for s in h * np.eye(d)], axis=-1)
    jac = drift.jacobian(x)
    assert jac.shape == (3, d, d)
    assert np.allclose(jac, central, rtol=1e-6, atol=1e-6)
