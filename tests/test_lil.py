import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lillab import lil
from lillab.examples import get_example
from lillab.lil import LilExperimentConfig, LilReport, run_lil_experiment
from lillab.scaling import ContractionFamily, eval_index, rescale_path
from lillab.sde import (LinearSpec, NoisePath, NumericalFailure,
                        PolynomialDrift, SdeSystem, brownian_path,
                        euler_batch, row_normals, simulate_sde)
from test_extremals import path_value

SMALL = dict(j_min=0, j_max=6, n_paths=200)


def test_config_validation():
    with pytest.raises(ValueError):
        LilExperimentConfig(c=1.2)
    with pytest.raises(ValueError):
        LilExperimentConfig(c=0.0)
    with pytest.raises(ValueError):
        LilExperimentConfig(j_min=5, j_max=2)
    with pytest.raises(ValueError):
        LilExperimentConfig(n_paths=0)
    grid = LilExperimentConfig(c=0.5, j_min=1, j_max=3).eps_grid()
    assert np.allclose(grid, [5e-3, 2.5e-3, 1.25e-3])


def test_exact_run_is_deterministic():
    ik = get_example("iterated_kolmogorov", d=2)
    config = LilExperimentConfig(**SMALL)
    a = run_lil_experiment(ik, "J1", config)
    b = run_lil_experiment(ik, "J1", config)
    assert np.array_equal(a.values, b.values)
    assert a.to_csv_string() == b.to_csv_string()


def test_running_columns_are_monotone():
    ik = get_example("iterated_kolmogorov", d=2)
    report = run_lil_experiment(ik, "J1", LilExperimentConfig(**SMALL))
    assert np.all(np.diff(report.running_max, axis=1) >= 0.0)
    assert np.all(np.diff(report.running_min, axis=1) <= 0.0)
    assert report.aggregate_max == pytest.approx(
        float(np.max(report.values)))


@pytest.mark.parametrize("d, j_max", [(2, 4), (3, 27)])
def test_exact_levels_match_transition_kernel(d, j_max):
    # per-level marginals of the refinement must agree with the
    # unconditional transition covariance at t = eps * t_star; at depth 27
    # IK(3)'s covariance entries go down to about 1e-53
    ik = get_example("iterated_kolmogorov", d=d)
    config = LilExperimentConfig(j_min=0, j_max=j_max, n_paths=4000)
    report = run_lil_experiment(ik, "J1", config)
    spec = ik.sde.linear
    psi_w = ik.functionals["J1"].weights
    for level, eps in enumerate(report.eps_values):
        cov = spec.covariance(eps)
        # J1 is linear in the terminal state, so the rescaled value is
        # Gaussian with variance w' cov w / alpha_scale^2; compare std
        alpha = eval_index(ik.index, eps)
        scaled_cov = cov / np.outer(alpha, alpha)
        want = math.sqrt(float(psi_w @ scaled_cov @ psi_w))
        got = float(np.std(report.values[:, level]))
        assert got == pytest.approx(want, rel=0.08)


@pytest.mark.parametrize("scheme", ["exact_linear", "euler"])
@pytest.mark.parametrize("c", [0.5, 0.7])
@pytest.mark.parametrize("name, functional, closed_form", [
    ("brownian", "terminal", lambda c: math.sqrt(c)),
    ("iterated_kolmogorov", "J1", lambda c: math.sqrt(c) * (3.0 - c) / 2.0),
])
def test_adjacent_levels_coupled_as_one_path(name, functional, closed_form,
                                             c, scheme):
    # one driving path observed at every scale: adjacent levels correlate
    # as W(t) and W(ct) do (sqrt c), or as int_0^t W and int_0^ct W do
    # (sqrt(c) (3 - c) / 2), within 4 Fisher-z standard errors
    report = run_lil_experiment(get_example(name), functional,
                                LilExperimentConfig(c=c, j_min=0, j_max=4,
                                                    n_paths=2000,
                                                    scheme=scheme))
    assert report.noise_coupling == "consistent"
    want = math.atanh(closed_form(c))
    for level in range(4):
        r = np.corrcoef(report.values[:, level],
                        report.values[:, level + 1])[0, 1]
        assert abs(math.atanh(r) - want) < 4.0 / math.sqrt(2000 - 3)


@pytest.mark.parametrize("scheme", ["exact_linear", "euler"])
def test_shallow_levels_do_not_depend_on_depth(scheme):
    ik = get_example("iterated_kolmogorov", d=2)
    shallow, deep = (run_lil_experiment(
        ik, "J1", LilExperimentConfig(j_max=j_max, n_paths=50, scheme=scheme))
        for j_max in (4, 6))
    assert np.array_equal(shallow.values, deep.values[:, :5])


def test_trivial_single_level_single_path():
    br = get_example("brownian")
    config = LilExperimentConfig(j_min=0, j_max=0, n_paths=1)
    report = run_lil_experiment(br, "terminal", config)
    assert report.values.shape == (1, 1)
    lines = report.to_csv_string().strip().split("\n")
    assert lines[0] == "path_id,j,eps,value,running_max,running_min"
    assert len(lines) == 2


@pytest.mark.parametrize("scheme", ["exact_linear", "euler"])
def test_a_functional_needs_terminal_values_and_gradient(scheme):
    br = get_example("brownian")
    custom = replace(br, functionals=dict(br.functionals, custom=object()))
    with pytest.raises(ValueError, match="no terminal, values, gradient$"):
        run_lil_experiment(custom, "custom", LilExperimentConfig(
            j_min=0, j_max=1, n_paths=2, scheme=scheme))


@pytest.mark.parametrize("d", [1, 2])
def test_both_schemes_bridge_one_path(d):
    # exact_linear bridges brownian's state / sqrt(eps) and euler bridges
    # W / sqrt(eps): every power of brownian's level specs is 0, so both
    # bridge the same levels bit for bit, and euler's x_1 = 0 + 0 dt + 1.0
    # sqrt(eps) W_1: the one-step terminal tables differ only in how each
    # reads its level's units (exact_linear divides by loglog(1/eps)^(1/2),
    # euler by alpha), and exact_linear takes running_max, equal to euler's
    # up to the rounding of the Euler sum
    br = get_example("brownian", d=d)
    config = LilExperimentConfig(j_min=0, j_max=8, n_paths=50)
    grid = np.array([0.0, br.limit_problem.t_star])
    log_eps = math.log(config.eps0) + config.j_grid() * math.log(config.c)
    ell = np.array(br.index.exponents, dtype=float)[:, 0]
    plan = lil._bridge_plan(lil._level_specs(br.sde.linear, ell, log_eps),
                            grid, config.c)
    state = lil._bridge(plan, config.c ** (-0.5 * ell), np.zeros((50, d)),
                        lambda level, n: row_normals(
                            config.seed, config.j_grid()[level], range(50), n))
    w = _bridged_w(config, grid, d, range(50))
    assert all(np.array_equal(*levels) for levels in zip(state, w, strict=True))

    def tables(functional, dt_rel):
        return [run_lil_experiment(br, functional, LilExperimentConfig(
            j_min=0, j_max=8, n_paths=50, scheme=scheme, dt_rel=dt_rel)).values
            for scheme in ("exact_linear", "euler")]

    assert np.allclose(*tables("terminal", 1.0), rtol=1e-14, atol=0.0)
    assert np.allclose(*tables("running_max", 1e-2), rtol=1e-12, atol=0.0)


def test_unknown_functional():
    br = get_example("brownian")
    with pytest.raises(KeyError):
        run_lil_experiment(br, "J7", LilExperimentConfig(**SMALL))


def _force_chunk_rows(monkeypatch, rows):
    """Budget _CHUNK_NODES for chunks of `rows` rows, each counting its
    level's n_steps + 1 nodes and twice the largest merged bridge grid."""
    make_plan = lil._bridge_plan

    def plan(specs, grid, c):
        levels = make_plan(specs, grid, c)
        monkeypatch.setattr(lil, "_CHUNK_NODES", rows * (
            len(grid) + 2 * max(level[0] for level in levels)))
        return levels

    monkeypatch.setattr(lil, "_bridge_plan", plan)


def _bridged_w(config, grid, k, rows):
    """W / sqrt(eps_j), (n + 1, len(rows), k), of the paths `rows` on every
    level's rescaled grid, as the euler scheme bridges it."""
    plan = lil._bridge_plan([LinearSpec(np.zeros((k, k)), np.eye(k))]
                            * len(config.j_grid()), grid, config.c)
    return lil._bridge(plan, config.c ** (-0.5 * np.ones(k)),
                       np.zeros((len(rows), k)),
                       lambda level, n: row_normals(
                           config.seed, config.j_grid()[level], rows, n))


def _level_grid(example, config):
    """(n_steps, every level's rescaled grid) of the euler scheme."""
    t_star = example.limit_problem.t_star
    n_steps = max(1, round(t_star / config.dt_rel))
    return n_steps, (t_star / n_steps) * np.arange(n_steps + 1)


def _per_path_table(example, functional_name, config):
    """Euler LIL table from one simulate_sde per (path, level).

    Each level steps the deviation from the center, from 0, on sqrt(eps)
    times that level's increments of the path's bridged W / sqrt(eps); the
    functional is written out on y = Z / alpha: weights . y(end) for a
    terminal linear one, max |y_1| for running_max, nan once the path
    exploded.
    """
    psi = example.index
    functional = example.functionals[functional_name]
    t_star = example.limit_problem.t_star
    n_steps, grid = _level_grid(example, config)
    expected = np.empty((config.n_paths, len(config.j_grid())))
    for p in range(config.n_paths):
        levels = _bridged_w(config, grid, example.sde.dim_noise,
                            range(p, p + 1))
        for level, (eps, w) in enumerate(zip(config.eps_grid(), levels)):
            noise = NoisePath(config.seed, eps * t_star / n_steps,
                              np.diff(w[:, 0], axis=0) * np.sqrt(eps))
            path = simulate_sde(example.sde, np.zeros(example.sde.dim_state),
                                noise)
            y = path.states / eval_index(psi, eps)
            if path.explosion_index is not None:
                expected[p, level] = math.nan
            elif functional_name == "running_max":
                expected[p, level] = np.max(np.abs(y[:, 0]))
            else:
                expected[p, level] = functional.weights @ y[-1]
    return expected


def _check_euler_table(example, functional, config, rows_per_chunk,
                       monkeypatch):
    """Run the euler table with euler_batch recorded; assert that each call
    holds whole levels of one chunk, coarse to fine, each row stepped with
    its level's step, and that the table equals, bit for bit, the
    per-path simulation (_per_path_table). Returns the rows of each call."""
    t_star = example.limit_problem.t_star
    n_steps, grid = _level_grid(example, config)
    calls = []
    monkeypatch.setattr(lil, "euler_batch", lambda sde, x0, inc, dt: (
        calls.append(np.asarray(dt)) or euler_batch(sde, x0, inc, dt)))
    if rows_per_chunk is not None:
        _force_chunk_rows(monkeypatch, rows_per_chunk)
    report = run_lil_experiment(example, functional, config)
    steps = config.eps_grid() * t_star / n_steps
    chunk = rows_per_chunk or config.n_paths
    chunks = [min(chunk, config.n_paths - first)
              for first in range(0, config.n_paths, chunk)]
    # the levels' steps differ, so each run of equal steps is one level
    assert np.array_equal(np.concatenate(calls), np.concatenate(
        [np.full(rows, step) for rows in chunks for step in steps]))
    ends = set(np.cumsum([len(dt) for dt in calls]).tolist())
    assert set(np.cumsum([rows * len(steps) for rows in chunks]).tolist()) \
        <= ends <= set(np.cumsum([rows for rows in chunks
                                  for _ in steps]).tolist())
    assert report.work == {"bridge_plans": 2,
                           "levels": len(chunks) * len(steps),
                           "euler_calls": len(calls),
                           "euler_row_steps": n_steps * config.n_paths
                           * len(steps)}
    assert np.array_equal(report.values,
                          _per_path_table(example, functional, config))
    return [len(dt) for dt in calls]


@pytest.mark.parametrize("rows_per_chunk", [None, 1, 2])
def test_euler_table_matches_per_path_simulation(rows_per_chunk, monkeypatch):
    # chunks of all 3 rows, or of 1 or 2 rows, each stepping its 5 levels
    # in one euler_batch call
    config = LilExperimentConfig(j_min=0, j_max=4, n_paths=3, scheme="euler")
    sizes = _check_euler_table(get_example("quadratic"), "J2", config,
                               rows_per_chunk, monkeypatch)
    chunk = rows_per_chunk or 3
    assert sizes == [5 * min(chunk, 3 - first)
                     for first in range(0, 3, chunk)]


def test_euler_table_steps_level_groups(monkeypatch):
    # lorenz96 at 6 paths and depth 27: 28 levels of 100 steps exceed one
    # block of the kernel's array layout and run as two calls of 14 levels
    config = LilExperimentConfig(j_min=0, j_max=27, n_paths=6, scheme="euler")
    sizes = _check_euler_table(get_example("lorenz96"), "J3", config, None,
                               monkeypatch)
    assert sizes == [14 * 6, 14 * 6]


@pytest.mark.parametrize("rows_per_chunk", [None, 1, 2])
@pytest.mark.parametrize("name, functional", [
    ("quadratic", "running_max"), ("brownian", "running_max"),
    ("shifted_kolmogorov", "J1")])
def test_euler_running_and_detrended_tables_match_per_path_simulation(
        name, functional, rows_per_chunk, monkeypatch):
    # a running functional folds over every rescaled node (quadratic's x1
    # falls monotonically, so brownian is the case where the maximum is not
    # at the last node); shifted_kolmogorov is the affine_detrended kind,
    # whose functional reads its deviation Z / alpha
    example = get_example(name)
    config = LilExperimentConfig(j_min=0, j_max=4, n_paths=3, scheme="euler")
    if rows_per_chunk is not None:
        _force_chunk_rows(monkeypatch, rows_per_chunk)
    report = run_lil_experiment(example, functional, config)
    assert np.array_equal(report.values,
                          _per_path_table(example, functional, config))


@pytest.mark.parametrize("scheme", ["exact_linear", "euler"])
@pytest.mark.parametrize("functional", ["J1", "running_max"])
def test_chunks_of_rows_agree_with_a_full_run(functional, scheme,
                                              monkeypatch):
    # c = 0.7: grids that do not nest, so levels bridge in several passes
    ik = get_example("iterated_kolmogorov", d=2)
    config = LilExperimentConfig(c=0.7, j_min=0, j_max=5, n_paths=5,
                                 scheme=scheme)
    full = run_lil_experiment(ik, functional, config).values
    chunks, draw = [], lil.row_normals
    monkeypatch.setattr(lil, "row_normals", lambda seed, j, rows, n: (
        chunks.append(len(rows)) or draw(seed, j, rows, n)))
    for rows_per_chunk in (1, 2):
        _force_chunk_rows(monkeypatch, rows_per_chunk)
        assert np.array_equal(
            run_lil_experiment(ik, functional, config).values, full)
        assert max(chunks) == rows_per_chunk
        chunks.clear()


@pytest.mark.parametrize("functional", ["J2", "running_max"])
def test_euler_explosions_are_masked_like_single_paths(functional):
    # a cubic blow-up drift kills some paths inside a level: their cells are
    # nan exactly where the per-path simulation explodes, and the batched
    # evaluation of the frozen dead rows raises no floating-point warning
    quad = get_example("quadratic")
    blowup = replace(quad, sde=replace(quad.sde, drift=PolynomialDrift(
        2, (((1e4, (3, 0)),), ((1e4, (0, 3)),)))))
    config = LilExperimentConfig(j_min=0, j_max=6, n_paths=300,
                                 scheme="euler", dt_rel=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_lil_experiment(blowup, functional, config)
    expected = _per_path_table(blowup, functional, config)
    assert 0 < report.explosion_count < report.values.size
    assert np.array_equal(report.values, expected, equal_nan=True)


def test_stacked_levels_raise_the_failure_of_the_earliest_step():
    # b_0 = 1e308 (x0^2 - x1^2) and noise 100 (1, 1) from 0: the states stay
    # on the diagonal, and the drift turns nan at a live state once |x| >
    # 1.34. Every level of this seed fails; the six levels run in one
    # euler_batch call, which raises the failure of the earliest step (level
    # 1, step 1), not that of the coarsest failing level (level 0, step 2),
    # which a call per level would raise first.
    quad = get_example("quadratic")
    system = SdeSystem(PolynomialDrift(2, (((1e308, (2, 0)), (-1e308, (0, 2))),
                                           ())), 100.0 * np.ones((2, 1)))
    config = LilExperimentConfig(j_min=0, j_max=5, n_paths=3, scheme="euler",
                                 seed=4)
    t_star = quad.limit_problem.t_star
    n_steps, grid = _level_grid(quad, config)
    levels = _bridged_w(config, grid, 1, range(config.n_paths))
    failures = []   # (step, level, failure) of one euler_batch per level
    for level, (eps, w) in enumerate(zip(config.eps_grid(), levels)):
        with pytest.raises(NumericalFailure) as info:
            euler_batch(system, np.zeros((3, 2)), (np.diff(w, axis=0)
                        * np.sqrt(eps)).transpose(1, 0, 2),
                        eps * t_star / n_steps)
        failures.append((info.value.step, level, info.value))
    assert [f[:2] for f in failures[:2]] == [(2, 0), (1, 1)]
    expected = min(failures, key=lambda f: f[:2])[2]
    with pytest.raises(NumericalFailure) as info:
        run_lil_experiment(replace(quad, sde=system), "J2", config)
    assert str(info.value) == str(expected)
    assert info.value.step == expected.step
    assert np.array_equal(info.value.state, expected.state)


@pytest.mark.parametrize("scheme, name, functional", [
    ("euler", "quadratic", "J2"),
    ("exact_linear", "iterated_kolmogorov", "running_max")])
def test_memory_does_not_grow_with_paths(scheme, name, functional,
                                         monkeypatch):
    # chunks of a few rows: the states of all 64 paths of the level
    # (64 x 1001 nodes x 2 doubles, 1 MB) are never held at once
    example = get_example(name)
    config = LilExperimentConfig(j_min=0, j_max=0, n_paths=64,
                                 scheme=scheme, dt_rel=1e-3)
    n_steps = max(1, round(example.limit_problem.t_star / config.dt_rel))
    monkeypatch.setattr(lil, "_CHUNK_NODES", 4 * (n_steps + 1))
    tracemalloc.start()
    try:
        run_lil_experiment(example, functional, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_euler_and_exact_statistics_agree():
    # same law up to discretization: compare level std on the linear system
    ik = get_example("iterated_kolmogorov", d=2)
    exact = run_lil_experiment(
        ik, "J1", LilExperimentConfig(j_min=0, j_max=2, n_paths=400))
    euler = run_lil_experiment(
        ik, "J1", LilExperimentConfig(j_min=0, j_max=2, n_paths=400,
                                      scheme="euler", dt_rel=3e-3))
    for level in range(3):
        se = float(np.std(exact.values[:, level]))
        su = float(np.std(euler.values[:, level]))
        assert su == pytest.approx(se, rel=0.15)


def test_sign_symmetry_under_negated_noise():
    # linear system + odd functional: flipping the driving noise flips the
    # rescaled value exactly
    ik = get_example("iterated_kolmogorov", d=2)
    eps = 1e-3
    noise = brownian_path(77, dt=eps * 1e-3, horizon=eps, dim_noise=1)
    negated = NoisePath(noise.seed, noise.dt, -noise.increments)
    for nz in (noise, negated):
        path = simulate_sde(ik.sde, np.zeros(2), nz)
        resc = rescale_path(path, ik.contraction, ik.index, eps)
        val = path_value(ik.functionals["J1"], resc)
        if nz is noise:
            base = val
        else:
            assert val == pytest.approx(-base, rel=1e-12)


def test_report_serialization():
    br = get_example("brownian")
    config = LilExperimentConfig(j_min=0, j_max=3, n_paths=20)
    report = run_lil_experiment(br, "terminal", config)
    doc = report.to_json_dict()
    assert doc["example"] == "brownian"
    assert doc["functional"] == "terminal"
    assert doc["config"]["n_paths"] == 20
    assert len(doc["eps_values"]) == 4
    assert doc["explosion_fraction"] == 0.0
    assert isinstance(doc["mean_running_max"], float)


@pytest.mark.parametrize("scheme", ["exact_linear", "euler"])
def test_a_table_where_every_sample_died_has_nan_statistics(scheme):
    # a domain that holds only the start point kills every row at its first
    # step: the statistics are nan, computed without a nan-skipping warning
    br = get_example("brownian")
    origin_only = replace(br, sde=replace(
        br.sde, domain_contains=lambda x: np.all(np.asarray(x) == 0.0,
                                                 axis=-1)))
    config = LilExperimentConfig(j_min=0, j_max=3, n_paths=20, scheme=scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_lil_experiment(origin_only, "terminal", config)
        doc = report.to_json_dict()
    assert np.all(np.isnan(report.values))
    assert report.explosion_count == report.values.size
    assert report.explosion_fraction == 1.0 and report.flagged
    for key in ("aggregate_max", "aggregate_min", "mean_running_max",
                "mean_running_min"):
        assert math.isnan(doc[key])
    assert report.soft_flags == ()


def test_a_report_past_the_explosion_threshold_is_flagged():
    values = np.array([[1.0, np.nan], [0.5, 2.0], [np.nan, np.nan],
                       [0.0, -1.0]])
    config = LilExperimentConfig(j_min=0, j_max=1, n_paths=4,
                                 explosion_flag_threshold=0.25)
    report = LilReport("brownian", "terminal", config, values, {})
    assert report.explosion_count == 3
    assert report.explosion_fraction == 3 / 8 and report.flagged
    assert not LilReport("brownian", "terminal", replace(
        config, explosion_flag_threshold=3 / 8), values, {}).flagged
    assert (report.aggregate_max, report.aggregate_min) == (2.0, -1.0)
    assert report.mean_running_max == 1.0
    assert report.mean_running_min == pytest.approx(1.0 / 6.0)


@pytest.mark.parametrize("name, functional", [
    ("quadratic", "J2"), ("brownian", "terminal")])
def test_soft_flags_stay_quiet_below_the_theoretical_extreme(name, functional):
    # quadratic/J2 has J2_max = 0 and a negative mean running max;
    # brownian/terminal stays well inside sqrt(2)
    report = run_lil_experiment(get_example(name), functional,
                                LilExperimentConfig(j_min=0, j_max=4,
                                                    n_paths=50,
                                                    scheme="euler"))
    assert report.soft_flags == ()


@pytest.mark.parametrize("extreme, mean, flagged", [
    (1.0, 1.5, False), (1.0, 1.6, True), (0.0, 1e-3, True), (0.0, -1.0, False),
    (-1.0, -0.6, False), (-1.0, -0.4, True)])
def test_soft_flags_name_a_mean_beyond_the_theoretical_extreme(
        extreme, mean, flagged):
    # signed: past the extreme by more than half its magnitude
    config = LilExperimentConfig(j_min=0, j_max=0, n_paths=1)
    report = LilReport("brownian", "terminal", config, np.array([[mean]]),
                       {"terminal_max": {"value": extreme}})
    want = (f"mean running max {mean:.6g} exceeds the theoretical extreme "
            f"{extreme:.6g} by more than half its magnitude",)
    assert report.soft_flags == (want if flagged else ())


@pytest.mark.parametrize("value, extreme", [
    (2.0, 3.0), (-0.0, 0.0), (0.0, -0.0)])
def test_csv_refuses_an_extreme_that_copies_no_value(value, extreme):
    # every running extreme takes the text of a value it copies; one that
    # copies none raises instead of printing another number, and does so
    # when the blocks are asked for, before any of them is written
    config = LilExperimentConfig(j_min=0, j_max=1, n_paths=1)
    report = LilReport("brownian", "terminal", config,
                       np.array([[1.0, value]]), {})
    report.__dict__["running_max"] = np.array([[1.0, extreme]])
    with pytest.raises(RuntimeError, match="no earlier value"):
        report.csv_blocks()


def test_euler_refuses_a_subnormal_finest_step_before_any_work(
        monkeypatch):
    # brownian at depth 1060: the finest step 1e-2 * 2^-1060 / 100 is
    # subnormal; exact_linear has no such step (below)
    config = LilExperimentConfig(j_max=1060, n_paths=2, scheme="euler")
    monkeypatch.setattr(lil, "_table", lambda *args: pytest.fail("ran"))
    with pytest.raises(ValueError, match="grid step"):
        run_lil_experiment(get_example("brownian"), "running_max", config)


@pytest.mark.parametrize("name, functional", [
    ("brownian", "terminal"), ("iterated_kolmogorov", "J1")])
def test_a_shallow_exact_table_is_a_prefix_of_one_at_depth_2000(
        name, functional):
    # every level is computed in its own units, so depth 2000 (eps down to
    # 0.0 in floats) runs, and its first 28 levels have the bits of depth 27
    example = get_example(name)
    shallow, deep = (run_lil_experiment(example, functional,
                                        LilExperimentConfig(j_max=depth,
                                                            n_paths=20))
                     for depth in (27, 2000))
    assert deep.values.shape == (20, 2001)
    assert np.array_equal(shallow.values, deep.values[:, :28])


def test_exact_ik2_levels_keep_their_law_at_depth_2000():
    # J1 = Z_1(1) / eps^(3/2) / L_j^(1/2), Z_1(1) ~ N(0, eps^3 / 3): its
    # std is 1 / sqrt(3 L_j), L_j = loglog(1/eps_j), within 4 standard
    # errors of a sample std at every level
    config = LilExperimentConfig(j_max=2000, n_paths=2000)
    report = run_lil_experiment(get_example("iterated_kolmogorov"), "J1",
                                config)
    assert np.all(np.isfinite(report.values))
    log_eps = math.log(config.eps0) + config.j_grid() * math.log(config.c)
    want = 1.0 / np.sqrt(3.0 * np.log(-log_eps))
    got = report.values.std(axis=0)
    assert np.all(np.abs(got / want - 1.0)
                  < 4.0 / math.sqrt(2 * (config.n_paths - 1)))


@pytest.mark.parametrize("scheme", ["exact_linear", "euler"])
@pytest.mark.parametrize("depth", [27, 60])
def test_the_detrended_example_is_iterated_kolmogorov(scheme, depth):
    # shifted_kolmogorov is IK(2) from (1, 1) with the trend (1, 0): its
    # deviation from the center is IK(2)'s state, and J1 reads it, so the
    # tables agree bit for bit
    config = LilExperimentConfig(j_max=depth, n_paths=40, scheme=scheme)
    shifted, ik = (run_lil_experiment(get_example(name), "J1", config).values
                   for name in ("shifted_kolmogorov", "iterated_kolmogorov"))
    assert np.array_equal(shifted, ik)


def test_level_specs_are_built_once_where_every_power_is_0():
    # IK(3)'s powers are all 0: every level shares one spec, with the bits
    # of (A, sigma); in the damped chain x0' = x1, x1' = -x1 (l = (3, 1))
    # the damping's power is 1, so each level has its own spec
    log_eps = math.log(1e-2) + np.arange(6) * math.log(0.5)
    linear = get_example("iterated_kolmogorov", d=3).sde.linear
    specs = lil._level_specs(linear, np.array([5.0, 3.0, 1.0]), log_eps)
    assert len(specs) == 6 and all(spec is specs[0] for spec in specs)
    assert np.array_equal(specs[0].a_matrix, linear.a_matrix)
    assert np.array_equal(specs[0].sigma, linear.sigma)
    damped = LinearSpec(np.array([[0.0, 1.0], [0.0, -1.0]]),
                        np.array([[0.0], [1.0]]))
    specs = lil._level_specs(damped, np.array([3.0, 1.0]), log_eps)
    assert len({id(spec) for spec in specs}) == 6
    assert [spec.a_matrix[1, 1] for spec in specs] == \
        (-np.exp(log_eps)).tolist()
    for spec in specs:
        assert spec.a_matrix[0, 1] == 1.0 and spec.sigma[1, 0] == 1.0


@pytest.mark.parametrize("depth", [27, 2000])
def test_levels_past_the_first_share_one_bridge_plan_at_c_one_half(depth):
    report = run_lil_experiment(get_example("brownian"), "terminal",
                                LilExperimentConfig(j_max=depth, n_paths=2))
    assert report.work["bridge_plans"] == 2


@pytest.mark.parametrize("scheme", ["exact_linear", "euler"])
def test_a_center_the_deviation_does_not_follow_is_refused(scheme,
                                                           monkeypatch):
    # Z = X - center - t trend follows the example's SDE only where b is
    # linear with b(center) = trend and the domain trivial: b = (x1, x1)
    # gives b(center) = (1, 1) against the trend (1, 0) in the driven row,
    # and a center (1, 0) with no trend lies on a bounded domain
    shifted = get_example("shifted_kolmogorov")
    driven = replace(shifted, sde=SdeSystem(PolynomialDrift(
        2, (((1.0, (0, 1)),), ((1.0, (0, 1)),))), shifted.sde.sigma))
    bounded = replace(shifted, sde=replace(
        shifted.sde, domain_contains=lambda x: x[..., 0] < 5.0),
        contraction=ContractionFamily(np.array([1.0, 0.0])))
    config = LilExperimentConfig(j_max=2, n_paths=2, scheme=scheme)
    monkeypatch.setattr(lil, "_table", lambda *args: pytest.fail("ran"))
    for example in (driven, bounded):
        with pytest.raises(ValueError, match="a trivial domain and a linear"):
            run_lil_experiment(example, "J1", config)
