"""Property tests of the control-ODE integrator (needs hypothesis).

The batched RK4 loop is the only integrator of the limit control ODE:
solve_control_ode is its one-row case and the optimizer runs it on batches
of controls. Rows of a batch must not influence each other, and on the
iterated Kolmogorov chain RK4 is exact for piecewise-constant controls.
"""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lillab.controls import (ControlGrid, _integrate, _node_states,  # noqa: E402
                             solve_control_ode)
from lillab.examples import get_example, list_examples  # noqa: E402

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


def _draw(case):
    problem = replace(get_example(case["example"]).limit_problem,
                      t_star=case["t_star"])
    scales = np.asarray(case["scales"])
    rng = np.random.default_rng(case["seed"])
    u = scales[:, None, None] * rng.standard_normal(
        (len(scales), case["n_steps"], problem.dim_control))
    return problem, u


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
