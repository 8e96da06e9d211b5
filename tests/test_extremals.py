import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from lillab import extremals
from lillab.controls import ControlGrid, _integrate, solve_control_ode
from lillab.examples import get_example, list_examples
from lillab.extremals import (OptimizerConfig, QuadraticMissFunctional,
                              RunningMaxAbsFunctional,
                              TerminalLinearFunctional, adjoint_gradient,
                              fd_gradient, optimize_extremal)
from lillab.sde import NumericalFailure
from test_controls import _exit_problem

QUICK = OptimizerConfig(n_steps=256, n_restarts=6, max_iters=200)


def path_value(functional, path):
    """The functional's value on the nodes of one path, nan once it has
    exploded."""
    if path.explosion_index is not None:
        return math.nan
    return float(functional.values(path.states[:, None])[0])


def test_brownian_terminal_sup():
    br = get_example("brownian")
    result = optimize_extremal(br.limit_problem, br.functionals["terminal"],
                               "max", QUICK)
    assert result.convergence_flag
    assert result.value == pytest.approx(math.sqrt(2.0), rel=1e-3)


def test_kolmogorov_j1_both_senses_odd():
    ik = get_example("iterated_kolmogorov", d=2)
    hi = optimize_extremal(ik.limit_problem, ik.functionals["J1"], "max", QUICK)
    lo = optimize_extremal(ik.limit_problem, ik.functionals["J1"], "min", QUICK)
    assert hi.value == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-3)
    assert abs(hi.value + lo.value) < 1e-5


def test_quadratic_j2_min():
    # sup of int f^2 over the energy ball is 8/pi^2 (half-period sine),
    # so the J2 infimum is its negative
    quad = get_example("quadratic")
    result = optimize_extremal(quad.limit_problem, quad.functionals["J2"],
                               "min", QUICK)
    assert result.value == pytest.approx(-8.0 / math.pi**2, rel=5e-3)


def test_quadratic_j2_max_degenerate():
    # -int f^2 <= 0 with equality at u = 0
    quad = get_example("quadratic")
    result = optimize_extremal(quad.limit_problem, quad.functionals["J2"],
                               "max", QUICK)
    assert abs(result.value) < 1e-5


def test_running_max_brownian():
    # |f| is maximized by running straight: same value as the terminal sup
    br = get_example("brownian")
    config = OptimizerConfig(n_steps=128, n_restarts=8, max_iters=300)
    result = optimize_extremal(br.limit_problem,
                               br.functionals["running_max"], "max", config)
    assert result.value == pytest.approx(math.sqrt(2.0), rel=1e-2)


def test_argext_on_energy_ball_boundary():
    ik = get_example("iterated_kolmogorov", d=2)
    result = optimize_extremal(ik.limit_problem, ik.functionals["J1"], "max",
                               QUICK)
    assert result.argext.energy() <= 1.0 + 1e-9
    # a linear functional is extremized on the boundary
    assert result.argext.energy() == pytest.approx(1.0, abs=1e-6)


def test_adjoint_matches_fd():
    ik = get_example("iterated_kolmogorov", d=2)
    functional = ik.functionals["J1"]
    u = ControlGrid.random_bandlimited(64, 1, seed=10, energy=0.7)
    adj = adjoint_gradient(ik.limit_problem, functional,
                           u.values[None, :, :])[0]
    fd = fd_gradient(ik.limit_problem, functional, u.values)
    denom = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(adj - fd)) / denom < 1e-3


def test_adjoint_matches_fd_nonlinear_drift():
    quad = get_example("quadratic")
    functional = quad.functionals["J2"]
    u = ControlGrid.random_bandlimited(64, 1, seed=11, energy=0.9)
    adj = adjoint_gradient(quad.limit_problem, functional,
                           u.values[None, :, :])[0]
    fd = fd_gradient(quad.limit_problem, functional, u.values)
    denom = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(adj - fd)) / denom < 1e-3


def test_result_serializes():
    br = get_example("brownian")
    result = optimize_extremal(br.limit_problem, br.functionals["terminal"],
                               "max", OptimizerConfig(n_steps=64, n_restarts=2,
                                                      max_iters=100))
    doc = result.to_json_dict()
    assert set(doc) >= {"value", "sense", "convergence_flag",
                        "n_restarts_used", "gradient_norm_at_exit",
                        "restart_values", "argext"}
    assert doc["sense"] == "max"
    assert len(doc["restart_values"]) == result.n_restarts_used


def test_same_seed_same_result():
    ik = get_example("iterated_kolmogorov", d=2)
    a = optimize_extremal(ik.limit_problem, ik.functionals["J1"], "max", QUICK)
    b = optimize_extremal(ik.limit_problem, ik.functionals["J1"], "max", QUICK)
    assert a.value == b.value
    assert np.array_equal(a.argext.values, b.argext.values)


def test_extra_starts_must_match_grid():
    # on a searched pair: an exact one builds no start bank
    br = get_example("brownian")
    bad = ControlGrid(np.ones((32, 1)))   # wrong n_steps
    config = OptimizerConfig(n_steps=64, n_restarts=2, max_iters=50,
                             extra_starts=(bad,))
    with pytest.raises(ValueError):
        optimize_extremal(br.limit_problem, br.functionals["running_max"],
                          "max", config)


def test_bad_sense_rejected():
    ik = get_example("iterated_kolmogorov", d=2)
    with pytest.raises(ValueError):
        optimize_extremal(ik.limit_problem, ik.functionals["J1"], "sup",
                          QUICK)


def test_probe_start_improves_lorenz_min():
    # the bundled probe controls give the optimizer a descent direction the
    # random bank misses at small budgets
    lz = get_example("lorenz96")
    starts = tuple(lz.probe_starts(96))
    config = OptimizerConfig(n_steps=96, n_restarts=2, max_iters=60,
                             extra_starts=starts)
    result = optimize_extremal(lz.limit_problem, lz.functionals["J3"], "min",
                               config)
    assert result.value < 0.0


@pytest.mark.parametrize("name", ["brownian", "lorenz96"])
def test_integrate_holds_little_beside_the_nodes(name):
    # the nodes go straight into the (n + 1, B, d) array _integrate returns;
    # a chunk's stages and liveness checks add little on top of it
    problem = get_example(name).limit_problem
    u = np.full((256, 1024, problem.system.dim_noise), 0.5)
    tracemalloc.start()
    try:
        states = _integrate(problem, u)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(states))
    assert peak < 1.25 * states.nbytes


@pytest.mark.parametrize("name", ["brownian", "lorenz96"])
def test_adjoint_holds_little_beside_the_nodes(name):
    # the backward sweep takes the rows in the forward sweep's chunks, so
    # beside the gradient it returns (1.0x the nodes on brownian, 0.4x on
    # lorenz96) and the stage sums of the batch (1.0x) it holds one chunk's
    # stages and Jacobian entries. Measured: 2.07x and 1.45x the nodes; the
    # bound leaves 26% on brownian. A sweep that forms the stage states of the
    # whole batch at once holds 7.8-9.1x.
    problem = get_example(name).limit_problem
    u = np.full((256, 1024, problem.system.dim_noise), 0.5)
    _, states, first_dead = _integrate(problem, u)
    functional = TerminalLinearFunctional(np.ones(problem.system.dim_state))
    tracemalloc.start()
    try:
        grad = adjoint_gradient(problem, functional, u, (states, first_dead))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(grad))
    assert peak < 2.6 * states.nbytes


def test_the_eigen_path_holds_little_beside_the_gradient_matrix():
    # the n k unit controls are priced in row chunks and H is symmetrized in
    # place, so beside G (8 (n k)^2 bytes) only a copy of G for G += G.T or
    # eigh's eigenvectors and one chunk's nodes are held. Measured: 16.9 MB,
    # 2.0x G; pricing every unit control at once held 50.6 MB, 6.0x.
    quadratic = get_example("quadratic")
    problem = quadratic.limit_problem
    tracemalloc.start()
    try:
        result = optimize_extremal(problem, quadratic.functionals["J2"], "min",
                                   OptimizerConfig(n_steps=1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.method == "eigen"
    assert peak <= 3 * 8 * (1024 * problem.system.dim_noise) ** 2


def _registered_pairs():
    return [(name, functional) for name in list_examples()
            for functional in sorted(get_example(name).functionals)]


@pytest.mark.parametrize("name, functional", [
    ("iterated_kolmogorov", "J1"), ("brownian", "running_max"),
    ("lorenz96", "J3"), ("quadratic", "J2")])
def test_work_counts_the_integrations_and_gradient_rows(name, functional):
    # integrations count the search's own value batches (start bank and
    # ladder rounds, priced on their node states, and the returned
    # control); gradient_rows count the restarts each gradient call was
    # given. Every gradient starts from the nodes that priced its controls,
    # so the adjoint integrates nothing forward. An exact pair (IK(2)/J1,
    # quadratic/J2) counts its unit batch and the returned control, and no
    # iteration.
    example = get_example(name)
    problem, f = example.limit_problem, example.functionals[functional]
    config = OptimizerConfig(n_steps=8, n_restarts=3, max_iters=30)
    searched, gradient_rows = [], []

    def integrate(problem, u_batch):
        searched.append(len(u_batch))
        return _integrate(problem, u_batch)

    def adjoint(problem, functional, u_batch, *priced):
        gradient_rows.append(len(u_batch))
        assert priced
        return adjoint_gradient(problem, functional, u_batch, *priced)

    with mock.patch.object(extremals, "_integrate", integrate), \
            mock.patch.object(extremals, "adjoint_gradient", adjoint):
        result = optimize_extremal(problem, f, "max", config)
    work = result.work
    assert work["integrations"] == len(searched)
    assert work["integrated_rows"] == sum(searched)
    assert work["gradient_rows"] == sum(gradient_rows)
    if result.method == "search":
        assert 0 < work["iterations"] <= config.max_iters
    else:
        assert work["iterations"] == 0 and len(searched) == 2


@pytest.mark.parametrize("name, functional", _registered_pairs())
def test_auto_gradient_is_the_adjoint_exactly_for_terminal_functionals(
        name, functional):
    # every functional, terminal or running, takes the adjoint gradient;
    # finite differences are only the tests' reference
    example = get_example(name)
    problem, f = example.limit_problem, example.functionals[functional]
    config = OptimizerConfig(n_steps=8, n_restarts=2, max_iters=2)
    with mock.patch.object(extremals, "adjoint_gradient",
                           wraps=extremals.adjoint_gradient) as adjoint, \
            mock.patch.object(extremals, "fd_gradient",
                              wraps=extremals.fd_gradient) as fd:
        optimize_extremal(problem, f, "max", config)
    assert adjoint.called and not fd.called


@pytest.mark.parametrize("name, functional", _registered_pairs())
def test_reported_value_is_the_functional_of_the_returned_control(
        name, functional):
    example = get_example(name)
    problem, f = example.limit_problem, example.functionals[functional]
    config = OptimizerConfig(n_steps=16, n_restarts=3, max_iters=10)
    for sense in ("max", "min"):
        result = optimize_extremal(problem, f, sense, config)
        assert result.value == path_value(
            f, solve_control_ode(problem, result.argext))


def test_functional_without_values_is_rejected():
    ik = get_example("iterated_kolmogorov", d=2)
    config = OptimizerConfig(n_steps=16, n_restarts=2, max_iters=5)
    with pytest.raises(ValueError, match="no terminal, values, gradient$"):
        optimize_extremal(ik.limit_problem, object(), "max", config)


def test_the_rejection_names_what_a_functional_lacks():
    class Terminal:
        terminal = True

        def values(self, nodes):
            return nodes[-1, :, 0]

    with pytest.raises(ValueError, match="not a functional: no gradient$"):
        extremals._require_functional(Terminal())
    for name in list_examples():
        for functional in get_example(name).functionals.values():
            extremals._require_functional(functional)


def test_every_start_dying_is_a_numerical_failure():
    # y' = 1 from y(0) = 0 leaves {y < 0.5} at t = 0.5 whatever the control
    config = OptimizerConfig(n_steps=16, n_restarts=3, max_iters=5)
    with pytest.raises(NumericalFailure, match="all 3 optimizer starts die"):
        optimize_extremal(_exit_problem(), TerminalLinearFunctional([1.0]),
                          "max", config)


def test_an_exact_pair_whose_rows_die_is_searched():
    # a linear drift is solved in closed form, but from x0 = x1 = 1e100 the
    # chain x0' = x1 passes the overflow guard at the first node, so its
    # value is nan at every control and the search reports it
    ik = get_example("iterated_kolmogorov")
    problem = replace(ik.limit_problem, x0=np.full(2, 1e100))
    config = OptimizerConfig(n_steps=16, n_restarts=3, max_iters=5)
    with pytest.raises(NumericalFailure, match="all 3 optimizer starts die"):
        optimize_extremal(problem, ik.functionals["J1"], "max", config)


def test_dead_starts_take_no_step_and_warn_nothing():
    # y' = u from y(0) = 0 in {y < 0.5}: the constant start u = +1.34
    # leaves at t = 0.37 and u = -1.34 stays inside; the dead start keeps
    # its -inf value and prices no rung: every ladder batch holds the live
    # start's rungs only (1, 1, 1, 1, 2, 4, 8, 16, 8), between the start
    # bank and the returned control
    br = get_example("brownian").limit_problem
    problem = replace(br, system=replace(
        br.system, domain_contains=lambda y: y[..., 0] < 0.5))
    config = OptimizerConfig(n_steps=16, n_restarts=2, max_iters=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = optimize_extremal(problem, TerminalLinearFunctional([-1.0]),
                                   "max", config)
    assert result.restart_values[0] == -np.inf
    assert result.restart_values[1] == pytest.approx(math.sqrt(2.0))
    assert result.value == result.restart_values[1]
    assert result.convergence_flag
    assert result.work["integrations"] == 11
    assert result.work["integrated_rows"] == 2 + 42 + 1


# ---------------------------------------------------------------------------
# The L-BFGS direction

def _config(example, n_steps, n_restarts, **kwargs):
    extra = (() if example.probe_starts is None
             else tuple(example.probe_starts(n_steps)))
    return OptimizerConfig(n_steps=n_steps, n_restarts=n_restarts,
                           extra_starts=extra, **kwargs)


def _off_stationary(u, grad):
    """1 - |cos(u, grad)| per row: 0 where the energy constraint's
    multiplier rule holds (Pontryagin stationarity on the sphere)."""
    u, grad = (a.reshape(len(a), -1) for a in (u, grad))
    cos = np.sum(u * grad, axis=1) / (np.linalg.norm(u, axis=1)
                                      * np.linalg.norm(grad, axis=1))
    return 1.0 - np.abs(cos)


@pytest.mark.parametrize("name, kwargs, functional, sense", [
    ("iterated_kolmogorov", {"d": 2}, "J1", "max"),
    ("iterated_kolmogorov", {"d": 3}, "J1", "max"),
    ("quadratic", {}, "J2", "min"),
    ("brownian", {}, "terminal", "max"),
])
def test_the_argext_is_stationary_on_the_sphere(name, kwargs, functional,
                                                sense):
    example = get_example(name, **kwargs)
    problem, f = example.limit_problem, example.functionals[functional]
    result = optimize_extremal(problem, f, sense,
                               _config(example, 64, 3))
    u = result.argext.values[None]
    assert _off_stationary(u, adjoint_gradient(problem, f, u))[0] <= 1e-9


@pytest.mark.parametrize("sense", ["max", "min"])
def test_every_lorenz_restart_ends_stationary(sense):
    lz = get_example("lorenz96")
    problem, f = lz.limit_problem, lz.functionals["J3"]
    work = {key: 0 for key in ("iterations", "integrations",
                               "integrated_rows", "gradient_rows")}
    u, _, _, active = extremals._search(
        problem, f, 1.0 if sense == "max" else -1.0, _config(lz, 64, 4), work)
    assert not active.any()
    assert np.all(_off_stationary(u, adjoint_gradient(problem, f, u)) <= 1e-7)


# values of the projected-gradient search this one replaced, at 32 cells x 3
# restarts and the default seed and max_iters
PROJECTED_GRADIENT_VALUES = {
    ("brownian", "running_max", "max"): 1.4142135623730947,
    ("brownian", "running_max", "min"): 1.589686816417508e-10,
    ("brownian", "terminal", "max"): 1.4142135623730945,
    ("brownian", "terminal", "min"): -1.4142135623730945,
    ("iterated_kolmogorov", "J1", "max"): 0.8163969048508207,
    ("iterated_kolmogorov", "J1", "min"): -0.8163969048508207,
    ("iterated_kolmogorov", "running_max", "max"): 0.8163969048508207,
    ("iterated_kolmogorov", "running_max", "min"): 0.029835431234051364,
    ("lorenz96", "J3", "max"): 0.01724135835747704,
    ("lorenz96", "J3", "min"): -0.001142888096760706,
    ("quadratic", "J2", "max"): -1.1881292125506062e-07,
    ("quadratic", "J2", "min"): -0.8104067283330526,
    ("quadratic", "running_max", "max"): 0.8104067283330528,
    ("quadratic", "running_max", "min"): 7.727470806425053e-08,
    # the deviation of shifted_kolmogorov from its center is IK(2)'s state
    ("shifted_kolmogorov", "J1", "max"): 0.8163969048508207,
    ("shifted_kolmogorov", "J1", "min"): -0.8163969048508207,
    ("shifted_kolmogorov", "running_max", "max"): 0.8163969048508207,
    ("shifted_kolmogorov", "running_max", "min"): 0.029835431234051364,
}


def test_the_pinned_values_cover_every_registered_pair():
    assert sorted(PROJECTED_GRADIENT_VALUES) == sorted(
        (name, functional, sense) for name, functional in _registered_pairs()
        for sense in ("max", "min"))


@pytest.mark.parametrize("name, functional, sense",
                         sorted(PROJECTED_GRADIENT_VALUES))
def test_no_registered_pair_ends_worse_than_projected_gradient(
        name, functional, sense):
    example = get_example(name)
    result = optimize_extremal(example.limit_problem,
                               example.functionals[functional], sense,
                               _config(example, 32, 3))
    old = PROJECTED_GRADIENT_VALUES[(name, functional, sense)]
    sgn = 1.0 if sense == "max" else -1.0
    assert sgn * result.value >= sgn * old - 1e-12 * abs(old)


@pytest.mark.parametrize("sense", ["max", "min"])
@pytest.mark.parametrize("functional", ["J1", "running_max"])
def test_the_detrended_example_optimizes_as_iterated_kolmogorov(functional,
                                                               sense):
    # both limit problems start at 0 with the same table, the deviation of
    # shifted_kolmogorov from its center being IK(2)'s state: the same
    # value and argext bit for bit, exact (J1) or searched (running_max)
    shifted, ik = (get_example(name) for name in
                   ("shifted_kolmogorov", "iterated_kolmogorov"))
    got, want = (optimize_extremal(e.limit_problem, e.functionals[functional],
                                   sense, _config(e, 32, 3))
                 for e in (shifted, ik))
    assert got.value == want.value
    assert np.array_equal(got.argext.values, want.argext.values)


def test_the_interior_reach_minimum_takes_few_iterations():
    # the benchmark's reach search: the miss |y(0.7) - z|^2 has its minimum
    # inside the ball, where the direction is Euclidean L-BFGS
    ik = get_example("iterated_kolmogorov", d=2)
    problem = replace(ik.limit_problem, t_star=0.7)
    result = optimize_extremal(
        problem, QuadraticMissFunctional([0.1, 0.4]), "min",
        OptimizerConfig(n_steps=32, n_restarts=3, max_iters=200))
    assert result.work["iterations"] <= 20
    assert result.value <= 1e-20
    assert result.argext.energy() < 1.0


def test_restarts_at_cap_counts_the_restarts_max_iters_stopped():
    lz = get_example("lorenz96")
    capped = optimize_extremal(lz.limit_problem, lz.functionals["J3"], "max",
                               _config(lz, 32, 3, max_iters=2))
    assert capped.work["iterations"] == 2
    assert capped.work["restarts_at_cap"] > 0
    ik = get_example("iterated_kolmogorov", d=2)
    done = optimize_extremal(ik.limit_problem, ik.functionals["J1"], "max")
    assert done.work["restarts_at_cap"] == 0
    assert done.convergence_flag


# ---------------------------------------------------------------------------
# Exact optima of degree-1 and degree-2 pairs

@pytest.mark.parametrize("name, kwargs, functional, degree, method", [
    ("iterated_kolmogorov", {"d": 2}, "J1", 1, "closed_form"),
    ("iterated_kolmogorov", {"d": 3}, "J1", 1, "closed_form"),
    ("iterated_kolmogorov", {"d": 4}, "J1", 1, "closed_form"),
    ("shifted_kolmogorov", {}, "J1", 1, "closed_form"),
    ("brownian", {}, "terminal", 1, "closed_form"),
    ("quadratic", {}, "J2", 2, "eigen"),
    ("lorenz96", {}, "J3", 4, None),
])
def test_the_weighted_coordinates_degree_picks_the_method(
        name, kwargs, functional, degree, method):
    example = get_example(name, **kwargs)
    problem, f = example.limit_problem, example.functionals[functional]
    assert {problem.system.degrees[i]
            for i in np.flatnonzero(f.weights)} == {degree}
    assert extremals._exact_method(problem, f) == method


def test_running_functionals_and_domains_are_searched():
    ik = get_example("iterated_kolmogorov")
    problem = ik.limit_problem
    assert extremals._exact_method(problem, ik.functionals["running_max"]) \
        is None
    assert extremals._exact_method(
        problem, QuadraticMissFunctional([0.1, 0.4])) is None
    ball = replace(problem, system=replace(
        problem.system, domain_contains=lambda y: np.abs(y).max(-1) < 3.0))
    assert extremals._exact_method(ball, ik.functionals["J1"]) is None


EXACT_PAIRS = [(name, kwargs, functional, sense)
               for name, kwargs, functional in [
                   ("iterated_kolmogorov", {"d": 2}, "J1"),
                   ("iterated_kolmogorov", {"d": 3}, "J1"),
                   ("iterated_kolmogorov", {"d": 4}, "J1"),
                   ("shifted_kolmogorov", {}, "J1")]
               for sense in ("max", "min")] + [
    ("quadratic", {}, "J2", "min")]


@pytest.mark.parametrize("name, kwargs, functional, sense", EXACT_PAIRS)
def test_the_exact_optimum_is_the_searched_one(name, kwargs, functional,
                                               sense):
    # the search, run on the same pair at 256 cells, reaches the exact value
    # and never passes it
    example = get_example(name, **kwargs)
    problem, f = example.limit_problem, example.functionals[functional]
    config = _config(example, 256, 16)
    exact = optimize_extremal(problem, f, sense, config)
    assert exact.method != "search" and exact.convergence_flag
    assert exact.n_restarts_used == 1
    assert exact.restart_values == [exact.value]
    assert exact.work["iterations"] == 0
    assert exact.argext.energy() == pytest.approx(1.0, abs=1e-12)
    sgn = 1.0 if sense == "max" else -1.0
    work = dict(iterations=0, integrations=0, integrated_rows=0,
                gradient_rows=0)
    searched = sgn * np.max(extremals._search(problem, f, sgn, config,
                                              work)[1])
    scale = abs(exact.value)
    assert abs(searched - exact.value) <= 1e-9 * scale
    assert sgn * (searched - exact.value) <= 1e-12 * scale


def test_the_quadratic_form_is_symmetric():
    # the adjoint gradients of the unit controls are the columns of 2 H
    quad = get_example("quadratic")
    n = 256
    h = 0.5 * adjoint_gradient(quad.limit_problem, quad.functionals["J2"],
                               np.eye(n)[:, :, None])[..., 0]
    assert np.max(np.abs(h - h.T)) <= 1e-12 * np.max(np.abs(h))
    assert np.all(np.linalg.eigvalsh(h + h.T) < 0.0)   # J2 <= 0


def test_the_quadratic_supremum_is_zero_at_u_zero():
    quad = get_example("quadratic")
    result = optimize_extremal(quad.limit_problem, quad.functionals["J2"],
                               "max", OptimizerConfig(n_steps=64))
    assert result.method == "eigen" and result.convergence_flag
    assert result.value == 0.0
    assert not np.any(result.argext.values)
    assert result.gradient_norm_at_exit == 0.0


def test_exact_pairs_ignore_the_search_settings():
    ik = get_example("iterated_kolmogorov", d=3)
    problem, f = ik.limit_problem, ik.functionals["J1"]
    a = optimize_extremal(problem, f, "max", OptimizerConfig(n_steps=32))
    b = optimize_extremal(problem, f, "max", OptimizerConfig(
        n_steps=32, n_restarts=2, max_iters=1, seed=5))
    assert a.to_json_dict() == b.to_json_dict()
    assert a.work == b.work == dict(
        iterations=0, integrations=2, integrated_rows=2, gradient_rows=2,
        restarts_at_cap=0)
