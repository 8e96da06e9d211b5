import math
from dataclasses import replace

import numpy as np
import pytest

from lillab.controls import (ControlGrid, LimitOdeProblem, cramer_transform,
                             linear_kernel_oracle, solve_control_ode)
from lillab.examples import get_example, list_examples
from lillab.sde import (ExplosivePath, PolynomialDrift, SdeSystem,
                        trivial_domain)


def test_control_grid_energy_piecewise_exact():
    u = ControlGrid(np.ones((64, 1)))
    assert u.energy() == pytest.approx(0.5)
    v = ControlGrid(np.full((10, 2), 2.0))
    # (1/2) * (4 + 4)
    assert v.energy() == pytest.approx(4.0)


def test_control_grid_projection():
    rng = np.random.default_rng(0)
    u = ControlGrid(rng.normal(size=(32, 1)) * 5.0)
    p = u.project()
    assert p.energy() <= 1.0 + 1e-12
    # idempotent
    pp = p.project()
    assert np.allclose(pp.values, p.values, rtol=0, atol=1e-14)
    # feasible controls pass through untouched
    small = ControlGrid(np.full((8, 1), 0.1))
    assert np.array_equal(small.project().values, small.values)


def test_solve_control_ode_kolmogorov_closed_form():
    # constant control u=1: y2 = t, y1 = t^2/2
    ik = get_example("iterated_kolmogorov", d=2)
    u = ControlGrid(np.ones((128, 1)))
    path = solve_control_ode(ik.limit_problem, u)
    t = path.times
    assert np.allclose(path.states[:, 1], t, atol=1e-8)
    assert np.allclose(path.states[:, 0], 0.5 * t**2, atol=1e-5)


def test_solve_control_ode_sinusoid():
    # u = cos(pi t): y2 = sin(pi t)/pi, y1 = (1 - cos(pi t))/pi^2
    ik = get_example("iterated_kolmogorov", d=2)
    mids = (np.arange(512) + 0.5) / 512
    u = ControlGrid(np.cos(math.pi * mids))
    path = solve_control_ode(ik.limit_problem, u)
    t = path.times
    assert np.allclose(path.states[:, 1], np.sin(math.pi * t) / math.pi,
                       atol=1e-4)
    assert np.allclose(path.states[:, 0],
                       (1.0 - np.cos(math.pi * t)) / math.pi**2, atol=1e-4)


def test_cramer_round_trip_random_controls():
    ik = get_example("iterated_kolmogorov", d=2)
    for stream in range(10):
        u = ControlGrid.random_bandlimited(128, 1, seed=42, stream=stream,
                                           energy=0.8)
        path = solve_control_ode(ik.limit_problem, u)
        lam = cramer_transform(ik.limit_problem, path)
        assert abs(lam - u.energy()) <= 1e-4


def test_cramer_infeasible_path_is_inf():
    # y1' = y2 is violated by (t, 0): no control can produce it
    ik = get_example("iterated_kolmogorov", d=2)
    t = np.linspace(0.0, 1.0, 65)
    bogus = ExplosivePath(t, np.column_stack([t, np.zeros_like(t)]))
    assert math.isinf(cramer_transform(ik.limit_problem, bogus))


def test_cramer_zero_for_rest_path():
    ik = get_example("iterated_kolmogorov", d=2)
    t = np.linspace(0.0, 1.0, 65)
    rest = ExplosivePath(t, np.zeros((65, 2)))
    assert cramer_transform(ik.limit_problem, rest) == pytest.approx(0.0,
                                                                     abs=1e-10)


def test_kernel_oracle_closed_forms():
    # terminal weight only: sqrt(2); kernel 1: sqrt(2/3); kernel s:
    # K(r) = (1 - r^2)/2, ||K||^2 = 2/15
    assert linear_kernel_oracle(lambda s: 0.0 * s, terminal_weight=1.0) == \
        pytest.approx(math.sqrt(2.0), rel=1e-10)
    assert linear_kernel_oracle(lambda s: np.ones_like(s)) == \
        pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-10)
    assert linear_kernel_oracle(lambda s: s) == \
        pytest.approx(math.sqrt(4.0 / 15.0), rel=1e-8)


@pytest.mark.parametrize("name, seed, n_steps", [
    ("iterated_kolmogorov", 5, 128),
    # the midpoint-rule residual of quadratic's drift at 16 cells once made
    # the Cramer transform price these feasible samples at infinity
    ("quadratic", 3, 16),
])
def test_limit_set_samples_are_feasible(name, seed, n_steps):
    # paths of random band-limited controls in the unit energy ball
    problem = get_example(name).limit_problem
    for stream in range(8):
        u = ControlGrid.random_bandlimited(n_steps, problem.system.dim_noise,
                                           seed, stream=stream).project()
        lam = cramer_transform(problem, solve_control_ode(problem, u))
        assert lam <= 1.0 + 1e-3


def _blowup_problem(domain_contains=trivial_domain, **changes):
    # scalar dy = y^2 dt + 0 du from y(0) = 2 blows up at t = 0.5
    problem = LimitOdeProblem(
        system=SdeSystem(PolynomialDrift(1, (((1.0, (2,)),),)),
                         np.zeros((1, 1)), domain_contains),
        x0=np.array([2.0]),
    )
    return replace(problem, **changes)


def _decay_problem(domain_contains=trivial_domain, **changes):
    # scalar dy = -y dt + du from y(0) = 1: the drift acts on the driven
    # coordinate and never settles in a windowed sweep
    return replace(LimitOdeProblem(
        SdeSystem(PolynomialDrift(1, (((-1.0, (1,)),),)), np.ones((1, 1)),
                  domain_contains),
        x0=np.array([1.0])), **changes)


# The RK4 sweep's pass count: the longest chain of coordinates in "row i
# reads x_j", worked out by hand for each registered limit drift
LIMIT_DEPTHS = {"brownian": 1, "iterated_kolmogorov": 2, "lorenz96": 4,
                "quadratic": 2, "shifted_kolmogorov": 2}


def test_depth_of_the_registered_limit_drifts():
    assert sorted(LIMIT_DEPTHS) == list_examples()
    for name, depth in LIMIT_DEPTHS.items():
        assert get_example(name).limit_problem.system.drift.depth == depth
    for d in range(2, 6):   # x1' = x2, ..., x_d' = u
        ik = get_example("iterated_kolmogorov", d=d)
        assert ik.limit_problem.system.drift.depth == d


def test_depth_is_none_on_a_cycle():
    for problem in (_decay_problem(), _blowup_problem()):   # x reads x
        assert problem.system.drift.depth is None
    swap = PolynomialDrift(2, (((1.0, (0, 1)),), ((-1.0, (1, 0)),)))
    assert swap.depth is None


def test_a_constant_row_is_chain_level_one():
    assert PolynomialDrift(1, (((2.0, (0,)),),)).depth == 1
    assert PolynomialDrift(1, ((),)).depth == 1
    # x0' = x1^2 x2 and x2' = 3 read no further: a chain of two, from x2
    drift = PolynomialDrift(3, (((1.0, (0, 2, 1)),), (), ((3.0, (0, 0, 0)),)))
    assert drift.depth == 2
    # x1 reads the constant row x2 and x0 reads x1: a chain of three
    drift = PolynomialDrift(3, (((1.0, (0, 1, 0)),),
                                ((1.0, (0, 0, 1)), (0.5, (0, 0, 0))),
                                ((-1.0, (0, 0, 0)),)))
    assert drift.depth == 3


def test_cramer_drift_in_a_driven_coordinate():
    # the midpoint recovery of u is O(h^2) off, but sigma can absorb that
    # miss, so the path stays feasible and its energy converges
    problem = _decay_problem()
    for n, gap in ((16, 1e-3), (256, 1e-5)):
        u = ControlGrid.random_bandlimited(n, 1, seed=11).project()
        lam = cramer_transform(problem, solve_control_ode(problem, u))
        assert abs(lam - u.energy()) <= gap


def test_limit_problem_contract():
    # a system and x0 are required; the system checks its table drift and
    # sigma, d comes from the table and k from sigma
    drift = PolynomialDrift(2, (((1.0, (0, 2)),), ()))
    with pytest.raises(TypeError):
        LimitOdeProblem(system=SdeSystem(drift, np.ones((2, 1))))
    with pytest.raises(TypeError, match="PolynomialDrift"):
        LimitOdeProblem(SdeSystem(lambda y: y, np.ones((2, 1))), np.zeros(2))
    with pytest.raises(ValueError, match="sigma must have shape"):
        LimitOdeProblem(SdeSystem(drift, np.ones((3, 1))), np.zeros(2))
    with pytest.raises(ValueError, match="sigma must have shape"):
        LimitOdeProblem(SdeSystem(drift, np.ones(2)), np.zeros(2))
    with pytest.raises(ValueError, match="x0 must be a state vector"):
        LimitOdeProblem(SdeSystem(drift, np.ones((2, 1))), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="x0 must be a state vector"):
        LimitOdeProblem(SdeSystem(drift, np.ones((2, 1))), np.zeros(3))
    problem = LimitOdeProblem(
        SdeSystem(drift, [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]), [0.5, 0.0])
    assert (problem.system.dim_state, problem.system.dim_noise) == (2, 3)
    assert problem.system.sigma.dtype == float
    assert problem.x0.dtype == float
    clipped = replace(problem, t_star=0.5)
    assert (clipped.system.dim_state, clipped.system.dim_noise) == (2, 3)


def test_limit_problem_sigma_is_finite_and_read_only():
    # the limit problem makes the checks of its SdeSystem: a nan sigma
    # raises, and neither sigma nor x0 can change once the problem is built
    drift = PolynomialDrift(2, (((1.0, (0, 1)),), ()))
    with pytest.raises(ValueError, match="sigma must be finite"):
        LimitOdeProblem(SdeSystem(drift, [[0.0], [math.nan]]), np.zeros(2))
    sigma, x0 = np.array([[0.0], [1.0]]), np.zeros(2)
    problem = LimitOdeProblem(SdeSystem(drift, sigma), x0)
    with pytest.raises(ValueError, match="read-only"):
        problem.system.sigma[1, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        problem.x0[0] = 5.0
    sigma[1, 0], x0[0] = 5.0, 5.0   # the problem holds copies of both
    assert problem.system.sigma[1, 0] == 1.0 and problem.x0[0] == 0.0


def test_control_ode_explosion_marks_path():
    u = ControlGrid(np.zeros((4096, 1)))
    path = solve_control_ode(_blowup_problem(), u)
    assert path.explosion_index is not None
    assert path.explosion_time == pytest.approx(0.5, abs=0.02)


def test_x0_outside_the_domain_is_rejected():
    problem = _blowup_problem(domain_contains=lambda y: y[..., 0] < 1.0)
    with pytest.raises(ValueError, match="x0 outside the domain"):
        solve_control_ode(problem, ControlGrid(np.zeros((8, 1))))


def test_exploded_path_keeps_the_time_grid():
    # t_star = 0.7 ends in a partial cell of the 64-cell grid; a path that
    # dies before it must still end at t_star, like a surviving path
    u = ControlGrid(np.zeros((64, 1)))
    dead = solve_control_ode(_blowup_problem(t_star=0.7), u)
    alive = solve_control_ode(_blowup_problem(t_star=0.7, x0=np.zeros(1)), u)
    assert dead.explosion_index is not None and alive.explosion_index is None
    assert np.array_equal(dead.times, alive.times)
    assert dead.horizon == pytest.approx(0.7, abs=1e-12)


def test_domain_shape_is_checked():
    # a domain_contains that ignores the batch axis is rejected at its
    # first batch call (a table drift always broadcasts)
    problem = _blowup_problem(domain_contains=lambda y: bool(np.all(y < 1e3)))
    with pytest.raises(ValueError,
                       match=r"domain_contains returned shape .* expected"):
        solve_control_ode(problem, ControlGrid(np.zeros((8, 1))))
