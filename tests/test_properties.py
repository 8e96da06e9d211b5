"""Property tests of the batched integrators (needs hypothesis).

The coordinate sweep (controls._integrate) is the only integrator of the
limit control ODE: it steps one coordinate at a time along the drift's
chain, every cell of a chunk of rows at once; solve_control_ode is its
one-row case and the optimizer runs it on batches of controls.
adjoint_gradient runs its transpose in reverse chain order. A per-cell RK4
loop and a per-cell backward loop are kept here as its references; row
chunks of one row, three rows and the whole batch must reproduce them bit
for bit, on the registered limit problems, on graded problems whose rows
leave a domain or overflow, and on random acyclic tables. The batched Euler
kernel euler_batch is the only SDE Euler loop: simulate_sde is its one-row case and lil-verify runs it on the
stacked levels of a chunk of paths, one step width per row, which must
equal one call per row; a per-step single-row loop with the einsum noise
sum is kept here as its reference, and the step generated from a monomial
table must reproduce it on Python floats and on arrays, at every block
size of its liveness check, on registered and on random tables.
From the sweep's own nodes, the increments the sweep forms from given left
nodes step each live node to the next bit for bit.
Rows of a batch must not influence each other, and on the iterated
Kolmogorov chain RK4 is exact for piecewise-constant controls. The Cramer
transform of a path the control ODE made is its control's energy. The
exact-linear sampler is the Euler step of its transition table; the
per-step loop it replaced is kept here as its reference, matched within a
stated ulp bound a step at a time. Both integrators kill states with one
batched exit rule, sde.alive; the per-state rule and the max-reduction it
replaced are kept here as its references and must agree row by row. Both LIL schemes
refine one Gauss-Markov path per row onto every level grid (W for euler,
the state for exact_linear); each level must see the same path, with the
transition law, and any split of the rows must draw it bit for bit. Functional values
on a batch of node states (values, masked at first_dead) equal each row's
values, and a terminal functional's gradient is 0 off the last node.
Boundary rays are solved by one lockstep Brent iteration
(regularity._ray_roots); per-ray brentq, the per-row sampling loop, the
per-face icosphere subdivision and the per-ray cone probe are kept here as
its references and must be matched bit for bit. LilReport.csv_blocks writes
lil.csv in blocks of paths, formatting each value once; a writer that
formats every cell of every column is kept here as its reference and must
be matched byte for byte on both sides of a block boundary. The optimizer's
line search prices ladders of step halvings in one batch, refreshes only
moved restarts' gradients and skips a failed gradient step's repeat; the
loop of one trial per round it replaced, stepping along the same L-BFGS
directions, is kept here as its reference and must be matched bit for bit.
Coarsening a noise path twice equals coarsening it once by the product,
and the contractions and their inverses undo each other, to stated
tolerances.
The registry's drifts, limit drifts and Jacobian entries (partials) are
generated from monomial tables; they must equal the written-out ones of
test_examples bit for bit, and on random tables the derived limit must be
the weighted-homogeneous principal part and the partials the drift's
derivatives; a constant term raises in an undriven row and scales away in
a driven one. The shifted chain's contraction is derived from its start
x0: center x0 and trend b(x0). transformed_coefficients builds the
rescaled family of the deviation from the center as a table; the closure
it replaced is kept here as its reference, matched within a stated ulp
bound.
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
from lillab.controls import (ControlGrid, LimitOdeProblem,  # noqa: E402
                             _integrate, _widths, cramer_transform,
                             solve_control_ode)
from lillab.examples import get_example, list_examples  # noqa: E402
from lillab.extremals import (QuadraticMissFunctional,  # noqa: E402
                              RunningMaxAbsFunctional,
                              TerminalLinearFunctional, adjoint_gradient,
                              fd_gradient, optimize_extremal)
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
                        equilibrated_cholesky, euler_batch, row_normals,
                        simulate_sde, trivial_domain)
from test_controls import _driven_problem, _exit_problem  # noqa: E402
from test_examples import WRITTEN_DRIFTS  # noqa: E402
from test_extremals import _registered_pairs, path_value  # noqa: E402

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
    return problem, _controls(case, problem.system.dim_noise)


@SETTINGS
@given(cases)
def test_batched_rows_equal_single_row_runs(case):
    problem, u = _draw(case)
    widths, states, first_dead = _integrate(problem, u)
    for b in range(u.shape[0]):
        w1, s1, d1 = _integrate(problem, u[b : b + 1])
        assert np.array_equal(w1, widths)
        assert np.array_equal(s1[:, 0], states[:, b])
        assert d1[0] == first_dead[b]


@SETTINGS
@given(cases)
def test_solve_control_ode_is_row_zero(case):
    problem, u = _draw(case)
    widths, states, first_dead = _integrate(problem, u)
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
    widths, states, first_dead = _integrate(problem, u)
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
    u = ControlGrid.random_bandlimited(n, problem.system.dim_noise, seed=11,
                                       stream=stream).project()
    lam = cramer_transform(problem, solve_control_ode(problem, u))
    assert np.isfinite(lam) and lam >= 0.0
    assert abs(lam - u.energy()) <= 1e-12
    if name in ("iterated_kolmogorov", "quadratic"):
        t = np.linspace(0.0, 1.0, n + 1)
        bogus = ExplosivePath(t, np.column_stack([t, np.zeros_like(t)]))
        assert cramer_transform(problem, bogus) == np.inf


# ---------------------------------------------------------------------------
# Coordinate sweeps against per-cell loops. A chunk holds one row, three
# rows or the whole batch. Besides the registered limit problems: IK(2) in
# the ball |y| < 0.3, which rows leave, y' = 1 in {y < 0.5}, which every row
# leaves at t = 0.5, and y0' = u, y1' = y0^2 + u, whose rows at scale 1e60
# overflow.

DYING = {"exit": _exit_problem, "driven": _driven_problem}
SWEEP_PROBLEMS = sorted(DYING) + ["kolmogorov_in_ball"] + list_examples()


def _sweep_problem(name, t_star):
    if name in DYING:
        return DYING[name](t_star=t_star)
    if name == "kolmogorov_in_ball":
        ik = get_example("iterated_kolmogorov").limit_problem
        return replace(ik, t_star=t_star, system=replace(
            ik.system,
            domain_contains=lambda y: np.linalg.norm(y, axis=-1) < 0.3))
    return replace(get_example(name).limit_problem, t_star=t_star)


def _chunk(rows, problem, n_steps):
    """Row chunks of `rows` rows (None: the whole batch) for the sweeps of
    problem over n_steps control cells."""
    cells = max(1, len(_widths(problem.t_star, n_steps)))
    return mock.patch.object(controls, "_CHUNK_CELLS",
                             2**62 if rows is None else rows * cells)


def _jacobian(drift):
    """The dense Jacobian of drift, states (..., d) to (..., d, d): each
    entry a partial, zero where the row does not read the coordinate."""
    def jacobian(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (drift.d,))
        for i, row in enumerate(drift.partials):
            for j, partial in row.items():
                out[..., i, j] = partial(*np.moveaxis(x, -1, 0))
        return out
    return jacobian


def _reference_rk4(problem, u_batch):
    """The per-cell RK4 loop the coordinate sweep replaced: (widths, states
    (n + 1, B, d), first_dead), with dead rows frozen at their last live
    state."""
    system = problem.system
    if not system.domain_contains(problem.x0):
        raise ValueError("x0 outside the domain")
    batch, n_steps, _ = u_batch.shape
    widths = _widths(problem.t_star, n_steps)
    x = np.broadcast_to(problem.x0, (batch, system.dim_state)).copy()
    first_dead = np.full(batch, len(widths) + 1)
    alive = np.ones(batch, dtype=bool)
    check_domain = system.domain_contains is not trivial_domain
    states = [x]

    def rhs(y, u):
        return system.drift(y) + u @ system.sigma.T

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
                    ok[b] = bool(system.domain_contains(x_new[b]))
            first_dead[alive & ~ok] = node
            alive &= ok
            x = np.where(alive[:, None], x_new, x)
            states.append(x)
    return widths, np.stack(states), first_dead


def _reference_adjoint(problem, functional, u_batch):
    """The per-cell loop of the transposed RK4 step that adjoint_gradient
    sweeps a coordinate at a time: the forward stage states y1..y4 of the cell, an RK4
    step of lambda with the slopes J(y4)^T, J(y3)^T, J(y2)^T, J(y1)^T plus
    the node's source, and the cell gradient from its stage arguments."""
    widths, traj, first_dead = _reference_rk4(problem, u_batch)
    system = problem.system
    n = len(widths)
    sources = functional.gradient(traj)
    lam = sources[n]
    grad = np.zeros_like(u_batch)

    def rhs(y, u):
        return system.drift(y) + u @ system.sigma.T

    def jt_lam(y, vec):
        return np.einsum("bij,bi->bj", _jacobian(system.drift)(y), vec)

    def sigma_t(vec):
        """sigma^T vec: 0.0 plus the products over the state rows in order,
        the sum adjoint_gradient takes (a matmul's order is BLAS's)."""
        out = np.zeros(vec.shape[:-1] + system.sigma.shape[1:])
        for i in range(system.dim_state):
            out += vec[:, i, None] * system.sigma[i]
        return out

    # dead rows' lambda may overflow along their frozen states, as in
    # adjoint_gradient; their gradient is zeroed below
    with np.errstate(over="ignore", invalid="ignore"):
        for cell in range(n - 1, -1, -1):
            h, u, x = widths[cell], u_batch[:, cell, :], traj[cell]
            y2 = x + 0.5 * h * rhs(x, u)
            y3 = x + 0.5 * h * rhs(y2, u)
            y4 = x + h * rhs(y3, u)
            mu1 = lam
            m1 = jt_lam(y4, mu1)
            mu2 = lam + 0.5 * h * m1
            m2 = jt_lam(y3, mu2)
            mu3 = lam + 0.5 * h * m2
            m3 = jt_lam(y2, mu3)
            mu4 = lam + h * m3
            m4 = jt_lam(x, mu4)
            lam = lam + ((h / 6.0) * (m1 + 2.0 * m2 + 2.0 * m3 + m4)
                         + sources[cell])
            grad[:, cell, :] += sigma_t(
                (h / 6.0) * (mu1 + 2.0 * mu2 + 2.0 * mu3 + mu4))
    grad[first_dead < len(traj)] = 0.0
    return grad


CHUNK_ROWS = st.sampled_from([1, 3, None])


@SETTINGS
@given(cases, st.sampled_from(SWEEP_PROBLEMS), CHUNK_ROWS)
def test_forward_sweep_equals_per_cell_loop(case, name, rows):
    problem = _sweep_problem(name, case["t_star"])
    u = _controls(case, problem.system.dim_noise)
    widths, states, first_dead = _reference_rk4(problem, u)
    with _chunk(rows, problem, case["n_steps"]):
        w1, s1, d1 = _integrate(problem, u)
    assert np.array_equal(w1, widths)
    assert np.array_equal(s1, states)
    assert np.array_equal(d1, first_dead)


FUNCTIONAL_KINDS = st.sampled_from(["linear", "miss", "running_max"])


def _functional(kind, d, seed):
    """A functional of the given kind on R^d with random weights or index."""
    rng = np.random.default_rng(seed)
    return {"linear": lambda: TerminalLinearFunctional(
                rng.standard_normal(d)),
            "miss": lambda: QuadraticMissFunctional(rng.standard_normal(d)),
            "running_max": lambda: RunningMaxAbsFunctional(
                int(rng.integers(d)))}[kind]()


# the rows that die are swept backward along their frozen states, where
# lambda may overflow; their gradient is then set to 0
@SETTINGS
@given(cases, st.sampled_from(SWEEP_PROBLEMS), CHUNK_ROWS, FUNCTIONAL_KINDS)
def test_adjoint_equals_per_cell_loop(case, name, rows, kind):
    problem = _sweep_problem(name, case["t_star"])
    u = _controls(case, problem.system.dim_noise)
    functional = _functional(kind, problem.system.dim_state, case["seed"])
    ref = _reference_adjoint(problem, functional, u)
    with _chunk(rows, problem, case["n_steps"]):
        grad = adjoint_gradient(problem, functional, u)
    assert np.array_equal(grad, ref)


@st.composite
def acyclic_problems(draw):
    """(problem, chain): a control ODE whose table (d <= 5, monomials of
    degree 0 to 2) reads along a random order of the coordinates, each row
    only coordinates before its own, so that the chain does not follow the
    index; chain is its longest chain of coordinates, counted along the
    order."""
    d = draw(st.integers(1, 5))
    order = draw(st.permutations(range(d)))
    rows, level = [()] * d, [0] * d
    for place, i in enumerate(order):
        reads = [draw(st.lists(st.sampled_from(order[:place]), max_size=2))
                 if place else [] for _ in range(draw(st.integers(0, 3)))]
        rows[i] = [(draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0])),
                    tuple(js.count(j) for j in range(d))) for js in reads]
        level[i] = 1 + max((level[j] for js in reads for j in js), default=0)
    k = draw(st.integers(1, 2))
    sigma = draw(hnp.arrays(float, (d, k), elements=st.sampled_from(
        [-1.0, 0.0, 2.0])))
    x0 = draw(hnp.arrays(float, d, elements=st.floats(-1.0, 1.0)))
    return LimitOdeProblem(SdeSystem(PolynomialDrift(d, rows), sigma),
                           x0), max(level)


# x2 -> x0 -> x4 -> x1 -> x3: a chain through all five coordinates
CHAIN_OF_FIVE = LimitOdeProblem(SdeSystem(PolynomialDrift(5, (
    ((1.0, (0, 0, 2, 0, 0)),), ((-1.0, (0, 0, 0, 0, 1)),),
    ((0.5, (0, 0, 0, 0, 0)),),
    ((1.0, (0, 1, 0, 0, 0)), (3.0, (0, 0, 0, 0, 0))),
    ((-2.0, (1, 0, 1, 0, 0)),))), np.eye(5)[:, [2]]), np.full(5, 0.5))


@SETTINGS
@given(cases, acyclic_problems(), CHUNK_ROWS, FUNCTIONAL_KINDS)
@example({"example": "brownian", "scales": [3.0, 1e60, 0.1], "n_steps": 16,
          "t_star": 1.0, "seed": 5}, (CHAIN_OF_FIVE, 5), 1, "running_max")
def test_sweeps_of_acyclic_tables_equal_per_cell_loops(case, drawn, rows,
                                                       kind):
    # the chain puts each coordinate after those its row reads, whatever
    # their index; a row at scale 1e60 overflows and dies
    problem, chain = drawn
    problem = replace(problem, t_star=case["t_star"])
    drift = problem.system.drift
    assert drift.depth == chain
    for place, i in enumerate(drift.chain):
        assert set(drift.reads[i]) <= set(drift.chain[:place])
    u = _controls(case, problem.system.dim_noise)
    functional = _functional(kind, problem.system.dim_state, case["seed"])
    with _chunk(rows, problem, case["n_steps"]):
        _, states, first_dead = _integrate(problem, u)
        grad = adjoint_gradient(problem, functional, u)
    _, ref_states, ref_dead = _reference_rk4(problem, u)
    assert np.array_equal(states, ref_states)
    assert np.array_equal(first_dead, ref_dead)
    assert np.array_equal(grad, _reference_adjoint(problem, functional, u))


@SETTINGS
@given(cases, acyclic_problems(), CHUNK_ROWS)
def test_increments_from_the_nodes_reach_the_next_node(case, drawn, rows):
    # the sweep from given left nodes forms each cell's increment as the
    # sweep from x0 does, which sums them in sequence: every node up to a
    # row's death is its left node plus that increment, bit for bit
    problem = replace(drawn[0], t_star=case["t_star"])
    u = _controls(case, problem.system.dim_noise)
    with _chunk(rows, problem, case["n_steps"]):
        widths, states, first_dead = _integrate(problem, u)
    n = len(widths)
    step = np.empty_like(states[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        controls._rk4_cells(problem, u[:, :n].transpose(1, 0, 2),
                            widths[:, None], step, left=states[:-1])
    live = np.arange(1, n + 1)[:, None] < first_dead
    assert np.array_equal((states[:-1] + step)[live], states[1:][live])


# every registered pair, and IK(2)'s functionals on the ball problem, whose
# rows at scale 3 leave the ball
PRICED_PAIRS = _registered_pairs() + [
    ("kolmogorov_in_ball", functional) for functional
    in sorted(get_example("iterated_kolmogorov").functionals)]


@pytest.mark.parametrize("name, key", PRICED_PAIRS)
@SETTINGS
@given(cases, CHUNK_ROWS, CHUNK_ROWS)
@example({"example": "brownian", "scales": [3.0, 0.1, 1e60], "n_steps": 16,
          "t_star": 1.0, "seed": 5}, 1, None)
def test_adjoint_on_priced_nodes_equals_a_fresh_adjoint(name, key, case,
                                                        priced_rows, chunk):
    # the search prices a batch of rungs, keeps the node states of the rows
    # it accepts and sweeps backward from them: the nodes of a row do not
    # depend on the batch or the chunks that integrated it (the case's
    # example is not used)
    problem = _sweep_problem(name, case["t_star"])
    functional = get_example("iterated_kolmogorov" if name
                             == "kolmogorov_in_ball" else name).functionals[key]
    u = _controls(case, problem.system.dim_noise)
    rng = np.random.default_rng(case["seed"])
    rows = np.sort(rng.choice(len(u), rng.integers(1, len(u) + 1),
                              replace=False))
    with _chunk(priced_rows, problem, case["n_steps"]):
        _, states, first_dead = _integrate(problem, u)
    with _chunk(chunk, problem, case["n_steps"]):
        fresh = adjoint_gradient(problem, functional, u[rows])
        grad = adjoint_gradient(problem, functional, u[rows],
                                (states[:, rows], first_dead[rows]))
    assert np.array_equal(grad, fresh)


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("name, functional", _registered_pairs())
def test_adjoint_matches_fd_gradient(name, functional, rows):
    # the adjoint is the transpose of the RK4 steps that price the values,
    # so on every registered pair it is the gradient of the discrete
    # functional up to the rounding of the central differences. Stream 2
    # puts the running maximum of brownian and IK(2) on an interior node;
    # the two largest nodes stay apart, away from the ties where the
    # running maximum has no gradient.
    example = get_example(name)
    problem, f = example.limit_problem, example.functionals[functional]
    for n in (64, 256):
        u = ControlGrid.random_bandlimited(n, problem.system.dim_noise,
                                           seed=10, stream=2,
                                           energy=0.7).values
        if not f.terminal:
            nodes = _integrate(problem, u[None])[1]
            top = np.sort(np.abs(nodes[:, 0, f.coord]))
            assert top[-1] - top[-2] > 1e-6 * top[-1]
        with _chunk(rows, problem, n):
            adj = adjoint_gradient(problem, f, u[None])[0]
            fd = fd_gradient(problem, f, u)
        assert np.max(np.abs(adj - fd)) <= 1e-8 * np.max(np.abs(fd))


# x0' = x1 x2, x1' = x2, x2' = 0: graded, d = 3 (the test drives every row)
GRADED_THREE = PolynomialDrift(3, (((1.0, (0, 1, 1)),), ((1.0, (0, 0, 1)),),
                                   ()))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 32),
       CHUNK_ROWS)
def test_rows_keep_their_bits_under_an_inexact_sigma(seed, batch, n_steps,
                                                     rows):
    # sigma u is summed elementwise, column by column: a matmul takes BLAS
    # dot, gemv or gemm by the batch's shape, which round inexact products
    # differently, so a row's nodes and gradient would depend on its batch
    rng = np.random.default_rng(seed)
    problem = LimitOdeProblem(SdeSystem(GRADED_THREE,
                                        rng.standard_normal((3, 2))),
                              np.zeros(3))
    functional = TerminalLinearFunctional(rng.standard_normal(3))
    u = rng.standard_normal((batch, n_steps, 2))
    with _chunk(rows, problem, n_steps):
        _, states, first_dead = _integrate(problem, u)
        grad = adjoint_gradient(problem, functional, u,
                                (states, first_dead))
    for b in range(batch):
        _, one, _ = _integrate(problem, u[b:b + 1])
        assert np.array_equal(one[:, 0], states[:, b])
        assert np.array_equal(adjoint_gradient(problem, functional,
                                               u[b:b + 1])[0], grad[b])


def _terminal_pairs():
    return [(name, key) for name, key in _registered_pairs()
            if get_example(name).functionals[key].terminal]


@pytest.mark.parametrize("name, key", _terminal_pairs())
@SETTINGS
@given(st.floats(0.25, 4.0), st.integers(1, 48), st.integers(0, 2**16))
@example(s=2.0, n_steps=19, stream=5197)
@example(s=2.0, n_steps=26, stream=3003)
def test_terminal_functionals_are_homogeneous_in_the_control(name, key, s,
                                                             n_steps, stream):
    # RK4 commutes with u -> s u, y_i -> s^q_i y_i, so J(s u) - J(0) =
    # s^q (J(u) - J(0)), q the degree of the weighted coordinates; every
    # limit problem starts at 0, where J(0) is 0.0
    example = get_example(name)
    problem, f = example.limit_problem, example.functionals[key]
    q, = {problem.system.degrees[i] for i in np.flatnonzero(f.weights)}
    u = ControlGrid.random_bandlimited(n_steps, problem.system.dim_noise,
                                       seed=3, stream=stream).values
    j0, j1, js = extremals._values(problem, f,
                                   np.stack([0.0 * u, u, s * u]))[0]
    assert j0 == 0.0
    assert abs((js - j0) - s**q * (j1 - j0)) <= 1e-12 * abs(s**q * (j1 - j0))


# ---------------------------------------------------------------------------
# Line search. optimize_extremal prices a ladder of step halvings per round,
# recomputes gradients only for restarts that moved and does not price a
# failed gradient step again; the loop it replaced, one trial per round
# (trial *= 0.5) and gradients for the whole batch after every iteration,
# is kept here as its reference. Both step along the directions of the one
# L-BFGS helper, extremals._Lbfgs.

def _reference_optimize(problem, functional, sense, config):
    """The one-trial-per-round search: (result fields, number of times a
    restart used up all 40 halvings)."""
    sgn = 1.0 if sense == "max" else -1.0
    u = extremals._project_batch(extremals._initial_bank(problem, config))
    batch = u.shape[0]
    val = sgn * extremals._values(problem, functional, u)[0]
    val = np.where(np.isnan(val), -np.inf, val)
    step = np.full(batch, extremals._STEP_INIT)
    active = np.ones(batch, dtype=bool)
    stall = np.zeros(batch, dtype=int)
    lbfgs = extremals._Lbfgs(batch, u[0].size)
    exhausted = 0

    def gradients(u_now):
        return sgn * adjoint_gradient(problem, functional, u_now)

    grad = gradients(u)
    for _ in range(config.max_iters):
        if not np.any(active):
            break
        direction, quasi = lbfgs.directions(u, grad, val)
        improved = np.zeros(batch, dtype=bool)
        gain = np.zeros(batch)
        trial = np.where(quasi, 1.0, step)
        for _back in range(40):
            pending = active & ~improved
            if not np.any(pending):
                break
            cand = extremals._project_batch(
                u + trial[:, None, None] * direction)
            cand_val = np.full(batch, -np.inf)
            cand_val[pending] = sgn * extremals._values(
                problem, functional, cand[pending])[0]
            cand_val = np.where(np.isnan(cand_val), -np.inf, cand_val)
            good = pending & (cand_val > val + 1e-15 * (1.0 + np.abs(val)))
            gain[good] = cand_val[good] - val[good]
            u[good] = cand[good]
            val[good] = cand_val[good]
            step[good & ~quasi] = trial[good & ~quasi] * 1.5
            improved |= good
            trial[pending & ~good] *= 0.5
        exhausted += int(np.sum(active & ~improved))
        lbfgs.clear(active & ~improved)
        rel_gain = gain / (1.0 + np.abs(val))
        stall = np.where(improved & (rel_gain >= extremals._TOL_VALUE), 0,
                         stall + 1)
        active &= stall < 4
        if np.any(active):
            grad = gradients(u)

    best = int(np.argmax(val))
    argext = ControlGrid(u[best]).project()
    final_value = extremals._values(problem, functional,
                                    argext.values[None])[0][0]
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
RUNNING_DRAW = {"pair": ("brownian", "running_max"), "sense": "max",
           "n_steps": 12, "restarts": 3, "max_iters": 40, "seed": 11}
# a quasi-Newton step that finds no passing trial, then a gradient step
# that does: the search may skip only a failed gradient step's repeat
GRADIENT_AFTER_QUASI = {"pair": ("quadratic", "J2"), "sense": "max",
                        "n_steps": 14, "restarts": 4, "max_iters": 46,
                        "seed": 3982098482}


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
@example(RUNNING_DRAW)
@example(GRADIENT_AFTER_QUASI)
def test_ladder_line_search_equals_one_trial_per_round(case):
    want, _ = _reference_optimize(*_search(case))
    # the search on every pair, those optimize_extremal solves exactly too
    with mock.patch.object(extremals, "_exact_argext", lambda *_: None):
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


def _reference_noise(sigma, dw):
    """sigma dw as the Euler step sums it: for k <= 2 the einsum of the
    loop euler_batch replaced, which the generated step equals bit for bit,
    and for k >= 3 left to right from 0.0, the order it declares."""
    if sigma.shape[1] <= 2:
        return np.einsum("bdk,bk->bd", sigma[None], dw[None])[0]
    total = 0.0
    for column, w in zip(sigma.T, dw):
        total = total + column * w
    return total


def _reference_euler(system, x0, inc, dt):
    """One row stepped with every check at every step: (states, explosion).

    The loop euler_batch replaced, kept as the reference: rows after the
    explosion index are nan, and a non-finite drift at a live state raises
    NumericalFailure before the step is taken. The noise term is
    _reference_noise.
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
            x = x + b * dt + _reference_noise(system.sigma, inc[i])
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
# it steps rows on Python floats up to sde._FLOAT_ROWS live rows and on
# arrays above, in blocks of at most sde._COLUMN_VALUES values; a layout
# (_FLOAT_ROWS, _COLUMN_VALUES) runs every batch on arrays in blocks of
# _BLOCK nodes, on arrays in blocks cut to 1-3 nodes, or on floats
LAYOUTS = ((0, 1 << 20), (0, 7), (1 << 20, 1 << 20))
KERNEL_LAYOUTS = st.sampled_from(LAYOUTS)


def _kernel(block, layout):
    float_rows, column_values = layout
    return mock.patch.multiple(sde, _BLOCK=block, _FLOAT_ROWS=float_rows,
                               _COLUMN_VALUES=column_values)


@SETTINGS
@given(euler_cases, BLOCKS, KERNEL_LAYOUTS)
def test_euler_batch_rows_equal_single_runs(case, block, layout):
    system, x0, inc = _draw_euler(case)
    dt = case["dt"]
    with _kernel(block, layout):
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
@given(euler_cases, BLOCKS, KERNEL_LAYOUTS)
def test_numerical_failure_matches_single_runs(case, block, layout):
    system = OVERFLOWING
    inc = _increments(case, 1)
    x0 = np.zeros((len(inc), 2))
    dt = case["dt"]
    with _kernel(block, layout):
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
    for layout in LAYOUTS:
        with _kernel(m, layout):
            first_dead = _assert_euler_batch_matches_reference(system, x0,
                                                               inc, 0.1)
        assert first_dead.tolist() == [n + 1 if v is None else v
                                       for v in deaths]


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
    for layout in LAYOUTS:
        with _kernel(block, layout):
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
    for layout in LAYOUTS:
        with _kernel(block, layout):
            failure = _assert_euler_batch_matches_reference(
                OVERFLOWING, np.zeros((3, 2)), inc, 0.1)
        assert failure.step == block
        assert failure.state.tolist() == ([3.0, 3.0] if block > 1
                                          else [2.0, 2.0])


# Per-row gains: lil-verify stacks the levels of a chunk into one
# euler_batch call, each row with its level's gain on every monomial.
# Batches of 1 to 40 rows run on floats, on arrays, and on arrays and then
# floats as rows die; quadratic rows from x1 = 30 die within a few steps,
# and OVERFLOWING rows fail, at different steps for different gains. Row r
# scales monomial m by rows[r][1] ** (m % 3), so the first monomial of each
# row of three keeps the gain 1.0, exactly.
gain_cases = st.fixed_dictionaries({
    "system": st.sampled_from(list_examples() + ["quadratic_x1_below_1.5",
                                                 "overflowing"]),
    "rows": st.lists(st.tuples(st.sampled_from([0.1, 3.0, 1e60]),
                               st.sampled_from([1.0, 0.5, 1e-3, 0.0]),
                               st.booleans()), min_size=1, max_size=40),
    "n_steps": st.integers(1, 64),
    "dt": st.sampled_from([1e-3, 0.05, 0.3]),
    "seed": st.integers(0, 2**32 - 1),
})


def _draw_gains(case):
    """(system, x0, increments, gains) of a gain_cases batch: row r scales
    its noise by rows[r][0], monomial m by rows[r][1] ** (m % 3) and, if
    rows[r][2] and the state stays in the domain, starts at x1 = 30."""
    scales, base, far = (np.array(v) for v in zip(*case["rows"]))
    if case["system"] == "overflowing":
        system, center = OVERFLOWING, np.zeros(2)
    else:
        system, center = _sde(case["system"])
    inc = _increments(dict(case, scales=scales), system.dim_noise)
    x0 = np.repeat(center[None], len(scales), axis=0)
    shifted = center + 30.0 * np.eye(len(center))[0]
    if system is not OVERFLOWING and alive(shifted, system.domain_contains):
        x0[far] = shifted
    gains = base[:, None] ** (np.arange(system.drift.n_monomials) % 3)
    return system, x0, inc, gains


@SETTINGS
@given(gain_cases, BLOCKS)
@example({"system": "quadratic", "n_steps": 40, "seed": 3, "dt": 0.05,
          "rows": [(0.1, [1.0, 0.5, 1e-3][r % 3], r % 2 == 0)
                   for r in range(40)]}, sde._BLOCK)
def test_euler_batch_per_row_gains_equal_one_call_per_row(case, block):
    # states and first_dead bit for bit against one call per row on the
    # table scaled by the row's gains, or, when rows fail, the failure of
    # the earliest step, the lowest row on ties
    system, x0, inc, gains = _draw_gains(case)
    dt = case["dt"]
    singles, failures = [], []
    with mock.patch.object(sde, "_BLOCK", block):
        for b in range(len(x0)):
            row = replace(system, drift=system.drift.scaled(gains[b]))
            try:
                singles.append(euler_batch(row, x0[b:b + 1], inc[b:b + 1],
                                           dt))
            except NumericalFailure as exc:
                failures.append((exc.step, b, exc))
        if failures:
            expected = min(failures, key=lambda t: t[:2])[2]
            with pytest.raises(NumericalFailure) as info:
                euler_batch(system, x0, inc, dt, gains)
            assert str(info.value) == str(expected)
            assert np.array_equal(info.value.state, expected.state)
            return
        states, first_dead = euler_batch(system, x0, inc, dt, gains)
    for b, (single, dead) in enumerate(singles):
        assert np.array_equal(states[:, b], single[:, 0])
        assert first_dead[b] == dead[0]


# ---------------------------------------------------------------------------
# Exact linear sampler: simulate_sde's exact_linear scheme is the Euler step
# x + (P - I) x * 1 + N z of the transition table (P - I, N), run by
# euler_batch. The per-step loop x -> P x + D (L z) it replaced is kept as
# its reference.

def _reference_exact(system, x0, z, dt):
    """The exact_linear loop with its own liveness pass: (states,
    explosion_index), states after the first dead node stepped on."""
    lin = system.linear
    prop = lin.propagator(dt)
    d_scale, chol = equilibrated_cholesky(lin.covariance(dt))
    states = np.empty((len(z) + 1, len(x0)))
    states[0] = x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(z)):
            x = prop @ x + d_scale * (chol @ z[i])
            states[i + 1] = x
        ok = alive(states[1:], system.domain_contains)
    return states, None if ok.all() else 1 + int(np.argmin(ok))


@st.composite
def linear_cases(draw):
    """(system, x0, noise, gap): a registered linear chain or a random
    table with A strictly upper triangular (nilpotent) or dense (exp(A h)
    by expm), sigma of 1 to 3 columns, on the whole space (gap None) or on
    the half-space gap(x) = c x - b < 0 around x0."""
    kind = draw(st.sampled_from(["brownian", "iterated_kolmogorov",
                                 "shifted_kolmogorov", "nilpotent", "dense"]))
    if kind in ("nilpotent", "dense"):
        d, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        entries = st.floats(-2.0, 2.0)
        a = np.reshape(draw(st.lists(entries, min_size=d * d,
                                     max_size=d * d)), (d, d))
        a = np.triu(a, 1) if kind == "nilpotent" else a
        sigma = np.reshape(draw(st.lists(entries, min_size=d * k,
                                         max_size=d * k)), (d, k))
        unit = np.eye(d, dtype=int).tolist()
        system = SdeSystem(PolynomialDrift(d, [
            [(c, unit[j]) for j, c in enumerate(row) if c]
            for row in a.tolist()]), sigma)
    else:
        extra = ({"d": draw(st.integers(2, 4))}
                 if kind == "iterated_kolmogorov" else {})
        system = get_example(kind, **extra).sde
    d = system.dim_state
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.uniform(-1.0, 1.0, d)
    gap = None
    if draw(st.booleans()):
        c = rng.standard_normal(d)
        b = c @ x0 + draw(st.floats(0.01, 3.0))
        gap = lambda x: x @ c - b   # noqa: E731
        system = replace(system, domain_contains=lambda x: gap(x) < 0.0)
    dt = draw(st.sampled_from([1e-3, 0.05, 0.5]))
    inc = math.sqrt(dt) * rng.standard_normal((draw(st.integers(1, 64)), d))
    return system, x0, NoisePath(0, dt, inc), gap


@SETTINGS
@given(linear_cases())
def test_exact_linear_is_the_transition_loop(case):
    # Each live node is the loop's step from the node before, within 4 ulp
    # of the largest sum of term sizes |x| + |P| |x| + |N| |z| over the
    # coordinates (the kernel adds x + (P - I) x + N z, the loop P x +
    # D (L z)). Over a whole path these roundings add up, and a path that
    # comes back near 0 is then off by many ulp of its own size. The path
    # dies where the loop's does unless a loop state up to there lies
    # within 1e-9 (relative) of the boundary or of OVERFLOW_GUARD.
    system, x0, noise, gap = case
    z, dt = noise.standard_normals(), noise.dt
    try:
        want, explosion = _reference_exact(system, x0, z, dt)
    except NumericalFailure:
        with pytest.raises(NumericalFailure):
            simulate_sde(system, x0, noise, scheme="exact_linear")
        return
    path = simulate_sde(system, x0, noise, scheme="exact_linear")
    prop, _, root = system.linear.bridge(dt)
    end = path.explosion_index or len(z) + 1
    for i in range(end - 1):
        x = path.states[i]
        step = _reference_exact(system, x, z[i:i + 1], dt)[0][1]
        size = np.max(np.abs(x) + np.abs(prop) @ np.abs(x)
                      + np.abs(root) @ np.abs(z[i]))
        assert np.all(np.abs(path.states[i + 1] - step)
                      <= 4 * np.spacing(size))
    seen = want[1:(explosion or len(z)) + 1]
    size = np.maximum(1.0, np.max(np.abs(seen), axis=-1))
    near = np.abs(size / OVERFLOW_GUARD - 1.0) <= 1e-9
    if gap is not None:
        near |= np.abs(gap(seen)) <= 1e-9 * size
    if not near.any():
        assert path.explosion_index == explosion


# ---------------------------------------------------------------------------
# Bridge refinement: a Gauss-Markov process on the grid [0, 1] of n steps
# at every level, each level in its own units: times of level j are those
# of level j - 1 divided by c, and values those of level j - 1 times
# c^(-l/2), so that a self-similar process keeps one spec. Grids nest for
# c = 1/2 only; c = 0.6 and 0.75 share some times, a generic c shares only 0.

def _brownian_spec(k):
    return LinearSpec(np.zeros((k, k)), np.eye(k))


def _bridge_levels(spec, ell, c, n, rows, n_levels=6):
    grid = (1.0 / n) * np.arange(n + 1)
    return grid, list(_bridge(_bridge_plan([spec] * n_levels, grid, c),
                              c ** (-0.5 * np.asarray(ell, dtype=float)),
                              np.zeros((len(rows), spec.dim)),
                              lambda level, n: row_normals(5, level, rows, n)))


def _ik_levels(d):
    """IK(d)'s spec, the same at every level, and its l exponents."""
    ik = get_example("iterated_kolmogorov", d=d)
    return ik.sde.linear, [l for l, _ in ik.index.exponents]


@SETTINGS
@given(st.one_of(st.sampled_from([0.5, 0.6, 0.75]), st.floats(0.1, 0.9)),
       st.integers(1, 64), st.sampled_from([1, 2]))
def test_bridge_levels_see_one_path(c, n, k):
    # a time a level shares with a later one holds the same value there,
    # carried into each level's units as the bridge carries it
    grow = c ** (-0.5 * np.ones(k))
    grid, ws = _bridge_levels(_brownian_spec(k), np.ones(k), c, n, range(3))
    for a, w in enumerate(ws):
        assert w.shape == (n + 1, 3, k)
        assert np.all(w[0] == 0.0)
        assert np.allclose(np.diff(w, axis=0).sum(axis=0), w[-1],
                           rtol=0.0, atol=1e-12)
        times, seen = grid, w
        for b in range(a + 1, len(ws)):
            times, seen = times / c, seen * grow
            shared = np.abs(times[:, None] - grid[None, :]) <= 1e-9 * grid[1]
            at_a, at_b = np.nonzero(shared)
            assert np.array_equal(seen[at_a], ws[b][at_b])


@SETTINGS
@given(st.one_of(st.sampled_from([0.5, 0.7]), st.floats(0.1, 0.9)),
       st.integers(1, 16), st.sampled_from([1, 2, 3]),
       st.lists(st.integers(1, 9), max_size=4))
def test_bridge_rows_split_anywhere_reproduce_the_full_draw(c, n, d, cuts):
    # each row draws from its own block of the level's Philox counter, so
    # chunks of rows give the full draw bit for bit
    spec, ell = _ik_levels(d) if d > 1 else (_brownian_spec(1), [1])
    _, full = _bridge_levels(spec, ell, c, n, range(10))
    edges = [0] + sorted(set(cuts)) + [10]
    parts = [_bridge_levels(spec, ell, c, n, range(lo, hi))[1]
             for lo, hi in zip(edges, edges[1:]) if lo < hi]
    for level, x in enumerate(full):
        assert np.array_equal(
            np.concatenate([part[level] for part in parts], axis=1), x)


def test_bridge_increments_are_brownian():
    # c = 0.7: the grids do not nest, so most times are bridged from both
    # sides. W / sqrt(c^j) is a Brownian motion at every level: increment
    # variance 1/8 at every step, and the ends of adjacent levels covary as
    # W(1) W(c) / sqrt(c) does, E = sqrt(c).
    grid, ws = _bridge_levels(_brownian_spec(2), np.ones(2), 0.7, 8,
                              range(4000))
    for w in ws:
        var = np.diff(w, axis=0).var(axis=1)
        assert np.allclose(var / grid[1], 1.0, rtol=0.0, atol=0.1)
    for a in range(len(ws) - 1):
        cov = np.mean(ws[a][-1] * ws[a + 1][-1], axis=0)
        assert np.allclose(cov / math.sqrt(0.7), 1.0, rtol=0.0, atol=0.1)


def test_bridged_states_have_the_transition_covariance():
    # IK(2) from 0 at c = 0.7, whose spec is the same in every level's
    # units: every node's covariance is C(s), and the ends of adjacent
    # levels covary as Phi(1 - c) C(c) diag(c^(-l/2)), both in sqrt(diag)
    # units, where C(s) spans s^3 to s
    spec, ell = _ik_levels(2)
    grid, xs = _bridge_levels(spec, ell, 0.7, 8, range(4000))
    for x in xs:
        for t, node in zip(grid[1:], x[1:]):
            scale = np.sqrt(np.diag(spec.covariance(t)))
            got = node.T @ node / len(node) / np.outer(scale, scale)
            assert np.allclose(got, spec.covariance(t)
                               / np.outer(scale, scale), rtol=0.0, atol=0.1)
    want = (spec.propagator(0.3) @ spec.covariance(0.7)
            * 0.7 ** (-0.5 * np.array(ell)))
    scale = np.sqrt(np.diag(spec.covariance(1.0)))
    scale = np.outer(scale, scale)
    for a in range(len(xs) - 1):
        got = xs[a][-1].T @ xs[a + 1][-1] / 4000
        assert np.allclose(got / scale, want / scale, rtol=0.0, atol=0.1)


# ---------------------------------------------------------------------------
# Functional values on node states: values over a batch (n, B, d), masked
# where first_dead < n, is each row's value on its ExplosivePath; a terminal
# functional reads the last node only.

def _node_functionals(rng, d):
    return (TerminalLinearFunctional(rng.standard_normal(d)),
            QuadraticMissFunctional(rng.standard_normal(d)),
            RunningMaxAbsFunctional(int(rng.integers(d))))


@SETTINGS
@given(st.integers(1, 16), st.integers(1, 8), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_batched_values_equal_single_row_values(n, batch, d, seed):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n, batch, d)) * 10.0 ** rng.integers(
        -3, 4, size=(1, batch, 1))
    first_dead = rng.integers(1, n, size=batch, endpoint=True)
    times = np.linspace(0.0, rng.uniform(0.1, 2.0), n)
    for functional in _node_functionals(rng, d):
        vals = np.where(first_dead < n, np.nan, functional.values(states))
        rows = [path_value(functional,
                           _row_path(times, states, first_dead, b))
                for b in range(batch)]
        assert np.array_equal(vals, rows, equal_nan=True)


@SETTINGS
@given(st.integers(1, 16), st.integers(1, 8), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_terminal_gradients_vanish_off_the_last_node(n, batch, d, seed):
    rng = np.random.default_rng(seed)
    nodes = rng.standard_normal((n, batch, d))
    for functional in _node_functionals(rng, d):
        grad = functional.gradient(nodes)
        assert grad.shape == nodes.shape
        if functional.terminal:
            assert not grad[:-1].any()
            assert np.array_equal(grad[-1],
                                  functional.terminal_gradient(nodes[-1]))
            assert np.array_equal(functional.values(nodes),
                                  functional.terminal_value(nodes[-1]))
        else:   # the sign at each row's first node of largest |x_coord|
            assert np.array_equal(np.abs(grad).sum(axis=(0, 2)),
                                  np.ones(batch))


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
    sigma, d = problem.system.sigma, problem.system.dim_state
    rng = _philox(981127, 3)
    cloud = rng.uniform(-2.0, 2.0, size=(128, d))
    cloud = np.vstack([cloud, problem.x0[None, :], z[None, :]])
    sup = np.zeros(d)
    for y in cloud:
        sup = np.maximum(sup, np.abs(np.asarray(problem.system.drift(y),
                                                dtype=float)))
    for i in range(d):
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
        z = problem.x0 + scale * rng.standard_normal(problem.system.dim_state)
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
    limit = example.limit_problem.system
    derived = (example.sde.drift, limit.drift, _jacobian(limit.drift))
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
    index, limit = derive_rescaling(SdeSystem(PolynomialDrift(d, rows), sigma))
    assert limit.drift.depth is not None
    for i, ((ell, k), row) in enumerate(zip(index.exponents, rows)):
        kept = limit.drift.rows[i]
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
                                    for row in limit.drift.rows])(np.abs(y))
    for eps in (1e-3, 1e-6):
        # far past this scale alpha underflows (eval_index raises below the
        # smallest normal float) and the identity says nothing
        alpha = _index_or_reject(index, eps)
        hypothesis.assume(alpha.min() > 1e-280)
        scaled = eps * limit.drift(alpha * y) / alpha
        assert np.all(np.abs(scaled - limit.drift(y)) <= 1e-12 * magnitude)


@st.composite
def euler_tables(draw):
    """(system, x0, inc, dt): a table of monomial_tables, its coefficients
    scaled by 1 or by 1e300 (so that drifts overflow), with sigma of 1 to 3
    columns of several nonzero entries per row, signed zeros among the
    rest, on a domain of DOMAINS; 1 to 6 rows start inside it, and their
    increments hold up to three huge, infinite or nan entries."""
    rows, _ = draw(monomial_tables())
    d, k = len(rows), draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 1e300]))
    sigma = np.reshape(draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -0.5, 3.0, 1e-3]),
        min_size=d * k, max_size=d * k)), (d, k))
    system = SdeSystem(
        PolynomialDrift(d, [[(scale * c, e) for c, e in row] for row in rows]),
        sigma, DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))])
    batch, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.uniform(-0.5, 0.5, (batch, d))   # inside every domain
    inc = draw(st.sampled_from([0.1, 3.0])) * rng.standard_normal(
        (batch, n, k))
    for _ in range(draw(st.integers(0, 3))):
        inc[draw(st.integers(0, batch - 1)), draw(st.integers(0, n - 1)),
            draw(st.integers(0, k - 1))] = draw(st.sampled_from(
                [1e3, -1e200, np.inf, -np.inf, np.nan]))
    return system, x0, inc, draw(st.sampled_from([1e-3, 0.05, 0.5]))


@SETTINGS
@given(euler_tables(), BLOCKS, KERNEL_LAYOUTS)
def test_generated_euler_step_equals_the_einsum_loop(case, block, layout):
    # the step generated from the table, on floats and on arrays, against
    # the per-step einsum loop (left to right for k >= 3) row by row
    system, x0, inc, dt = case
    with _kernel(block, layout):
        _assert_euler_batch_matches_reference(system, x0, inc, dt)


def _reference_transformed(system, psi, eps):
    """(b_eps, sigma_eps) of the deviation from the center, which follows
    system from 0, as the closure transformed_coefficients returned before
    it built a table, kept as its reference: b_eps(y) = eps * b(alpha y) /
    alpha."""
    alpha = eval_index(psi, eps)

    def b_eps(y):
        return eps * system.drift(np.asarray(y, dtype=float) * alpha) / alpha

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
        system = SdeSystem(PolynomialDrift(d, rows), sigma)
        return system, ContractionFamily(np.zeros(d)), \
            derive_rescaling(system)[0]
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
    # the table holds each term's coefficient eps alpha^m / alpha_i, around
    # any center; within 8 ulps of the sum of the absolute term values sum
    # |coef| |y|^m, and sigma_eps bit for bit
    system, phi, psi = case
    alpha = _index_or_reject(psi, eps)
    # the closure's products alpha^m y^m stay normal floats
    hypothesis.assume(alpha.min() > 1e-90)
    table = transformed_coefficients(system, phi, psi, eps)
    b_eps, sigma_eps = _reference_transformed(system, psi, eps)
    assert np.array_equal(table.sigma, sigma_eps)
    d = system.dim_state
    y = np.random.default_rng(seed).uniform(-2.0, 2.0, (8, d))
    terms = PolynomialDrift(d, [[(abs(c), e) for c, e in row]
                                for row in table.drift.rows])
    magnitude = terms(np.abs(y))
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
        derive_rescaling(SdeSystem(PolynomialDrift(len(rows), rows), sigma))
    named = re.search(r"coordinates \[([\d, ]+)\]", str(info.value))[1]
    assert set(lost) <= {int(i) for i in named.split(",")}


@SETTINGS
@given(monomial_tables(), st.data())
def test_constant_terms_raise_in_undriven_rows_only(table, data):
    rows, sigma = table
    d = len(rows)
    index, _ = derive_rescaling(SdeSystem(PolynomialDrift(d, rows), sigma))
    lifted = data.draw(st.sets(st.integers(0, d - 1), min_size=1))
    rows = [row + [(1.0, (0,) * d)] if i in lifted else row
            for i, row in enumerate(rows)]
    undriven = sorted(i for i in lifted if not sigma[i].any())
    if undriven:
        with pytest.raises(ValueError,
                           match=f"coordinate {undriven[0]} has a constant"):
            derive_rescaling(SdeSystem(PolynomialDrift(d, rows), sigma))
    else:
        # a driven row's constant scales away: same index, no constant kept
        again, limit = derive_rescaling(
            SdeSystem(PolynomialDrift(d, rows), sigma))
        assert again == index
        assert all(any(e) for row in limit.drift.rows for _, e in row)


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
def test_partials_are_the_derivatives_of_the_drift(table, data):
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
    for i in range(d):
        assert tuple(drift.partials[i]) == drift.reads[i]
    jac = _jacobian(drift)(x)
    assert jac.shape == (3, d, d)
    assert np.allclose(jac, central, rtol=1e-6, atol=1e-6)
    # the degree-1 terms alone make a linear table, whose matrix is its
    # partials at 0
    linear = PolynomialDrift(d, [[(c, e) for c, e in row if sum(e) == 1]
                                 for row in rows])
    assert drift.matrix is None or drift.rows == linear.rows
    assert np.array_equal(linear.matrix, _jacobian(linear)(np.zeros(d)))
    assert not linear.matrix.flags.writeable
