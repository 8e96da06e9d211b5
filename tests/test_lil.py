import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lillab import lil
from lillab.examples import get_example
from lillab.lil import LilExperimentConfig, LilReport, run_lil_experiment
from lillab.scaling import eval_index, rescale_path
from lillab.sde import (LinearSpec, NoisePath, PolynomialDrift,
                        brownian_path, euler_batch, row_normals,
                        simulate_sde)

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
def test_functional_needs_terminal_value_or_accumulate(scheme):
    br = get_example("brownian")
    custom = replace(br, functionals=dict(br.functionals, custom=object()))
    with pytest.raises(ValueError):
        run_lil_experiment(custom, "custom", LilExperimentConfig(
            j_min=0, j_max=1, n_paths=2, scheme=scheme))


@pytest.mark.parametrize("d", [1, 2])
def test_both_schemes_bridge_one_path(d):
    # exact_linear bridges brownian's state and euler bridges W, with the
    # same law and normals, and euler's x_1 = 0 + 0 dt + 1.0 W_1: the
    # one-step terminal tables agree bit for bit, and exact_linear takes
    # running_max, equal to euler's up to the rounding of the Euler sum
    br = get_example("brownian", d=d)

    def tables(functional, dt_rel):
        return [run_lil_experiment(br, functional, LilExperimentConfig(
            j_min=0, j_max=8, n_paths=50, scheme=scheme, dt_rel=dt_rel)).values
            for scheme in ("exact_linear", "euler")]

    assert np.array_equal(*tables("terminal", 1.0))
    assert np.allclose(*tables("running_max", 1e-2), rtol=1e-12, atol=0.0)


def test_unknown_functional():
    br = get_example("brownian")
    with pytest.raises(KeyError):
        run_lil_experiment(br, "J7", LilExperimentConfig(**SMALL))


def _force_chunk_rows(monkeypatch, rows):
    """Budget _CHUNK_NODES for chunks of `rows` rows, each counting its
    level's n_steps + 1 nodes and twice the largest merged bridge grid."""
    make_plan = lil._bridge_plan

    def plan(spec, grids):
        levels = make_plan(spec, grids)
        monkeypatch.setattr(lil, "_CHUNK_NODES", rows * (
            len(grids[0]) + 2 * max(level[0] for level in levels)))
        return levels

    monkeypatch.setattr(lil, "_bridge_plan", plan)


def _bridged_w(config, grids, k, p):
    """W (n + 1, 1, k) of path p on every level grid, as the euler scheme
    bridges it."""
    plan = lil._bridge_plan(LinearSpec(np.zeros((k, k)), np.eye(k)), grids)
    return lil._bridge(plan, np.zeros((1, k)), lambda level, n: row_normals(
        config.seed, config.j_grid()[level], range(p, p + 1), n))


@pytest.mark.parametrize("rows_per_chunk", [None, 1, 2])
def test_euler_table_matches_per_path_simulation(rows_per_chunk, monkeypatch):
    # each level runs its paths in batches (all 3 at once, or chunks of 1 or
    # 2 rows); the table must equal, bit for bit, one simulate_sde per
    # (path, level) on that level's increments of the path's bridged W
    quad = get_example("quadratic")
    phi, psi = quad.contraction, quad.index
    config = LilExperimentConfig(j_min=0, j_max=4, n_paths=3, scheme="euler")
    t_star = quad.limit_problem.t_star
    n_steps = max(1, round(t_star / config.dt_rel))
    batches = []
    monkeypatch.setattr(lil, "euler_batch", lambda sde, x0, inc, dt: (
        batches.append(len(x0)) or euler_batch(sde, x0, inc, dt)))
    if rows_per_chunk is not None:
        _force_chunk_rows(monkeypatch, rows_per_chunk)
    report = run_lil_experiment(quad, "J2", config)
    assert max(batches) == (rows_per_chunk or config.n_paths)
    grids = [(float(e) * t_star / n_steps) * np.arange(n_steps + 1)
             for e in config.eps_grid()]
    expected = np.empty((config.n_paths, 5))
    for p in range(config.n_paths):
        levels = _bridged_w(config, grids, 1, p)
        for level, (times, w) in enumerate(zip(grids, levels)):
            noise = NoisePath(config.seed, times[1], np.diff(w[:, 0], axis=0))
            path = simulate_sde(quad.sde, phi.center, noise)
            expected[p, level] = quad.functionals["J2"].evaluate(rescale_path(
                path, phi, psi, float(config.eps_grid()[level])))
    assert np.array_equal(report.values, expected)


def _per_path_table(example, functional_name, config):
    """Euler LIL table from one simulate_sde + rescale_path per (path, level).

    Each level steps that level's increments of the path's bridged W; the
    functional is written out on the rescaled states: weights . y(end) +
    offset for a terminal linear one, max |y_1| for running_max, nan once
    the path exploded.
    """
    phi, psi = example.contraction, example.index
    functional = example.functionals[functional_name]
    t_star = example.limit_problem.t_star
    n_steps = max(1, round(t_star / config.dt_rel))
    grids = [(float(e) * t_star / n_steps) * np.arange(n_steps + 1)
             for e in config.eps_grid()]
    expected = np.empty((config.n_paths, len(grids)))
    for p in range(config.n_paths):
        levels = _bridged_w(config, grids, example.sde.dim_noise, p)
        for level, (times, w) in enumerate(zip(grids, levels)):
            noise = NoisePath(config.seed, times[1], np.diff(w[:, 0], axis=0))
            path = simulate_sde(example.sde, phi.center, noise)
            y = rescale_path(path, phi, psi, float(config.eps_grid()[level]))
            if y.explosion_index is not None:
                expected[p, level] = math.nan
            elif functional_name == "running_max":
                expected[p, level] = np.max(np.abs(y.states[:, 0]))
            else:
                expected[p, level] = (functional.weights @ y.states[-1]
                                      + functional.offset)
    return expected


@pytest.mark.parametrize("rows_per_chunk", [None, 1, 2])
@pytest.mark.parametrize("name, functional", [
    ("quadratic", "running_max"), ("brownian", "running_max"),
    ("shifted_kolmogorov", "J1")])
def test_euler_running_and_detrended_tables_match_per_path_simulation(
        name, functional, rows_per_chunk, monkeypatch):
    # a running functional folds over every rescaled node (quadratic's x1
    # falls monotonically, so brownian is the case where the maximum is not
    # at the last node); shifted_kolmogorov is the affine_detrended kind,
    # whose rescaling depends on the node time
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
        val = ik.functionals["J1"].evaluate(resc)
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
