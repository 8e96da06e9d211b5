import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lillab
from lillab import cli, lil
from lillab.cli import _build_parser, run
from lillab.examples import get_example, list_examples
from lillab.scaling import eval_index, rescale_path
from lillab.sde import (NumericalFailure, PolynomialDrift, SdeSystem,
                        brownian_path, path_from_csv, path_to_csv_string,
                        simulate_sde)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
DATA = Path(__file__).resolve().parent / "data"


def read_json(path):
    with open(path) as fp:
        return json.load(fp)


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    out = capsys.readouterr().out
    assert "usage: lillab" in out
    for name in ("simulate", "rescale", "optimize", "lil-verify", "regularity",
                 "examples", "check"):
        assert name in out


def test_parser_is_built_once_per_process():
    assert _build_parser() is _build_parser()


def test_unknown_example_exit_3(capsys):
    code = run(["simulate", "--example", "nope"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 3
    assert "unknown example" in err["error"]["message"]


def test_unknown_functional_exit_3(capsys):
    code = run(["optimize", "--example", "brownian", "--functional", "zzz"])
    assert code == 3


def test_missing_required_flag_exit_2(capsys):
    assert run(["simulate"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "--example" in err["error"]["message"]


def test_simulate_writes_loadable_artifacts(tmp_path):
    out = tmp_path / "sim"
    code = run(["simulate", "--example", "iterated_kolmogorov", "--d", "2",
                "--dt", "1e-3", "--horizon", "0.25", "--out", str(out)])
    assert code == 0
    path = path_from_csv(str(out / "path.csv"))
    assert path.states.shape == (251, 2)
    doc = read_json(out / "path.json")
    assert len(doc["times"]) == 251
    manifest = read_json(out / "manifest.json")
    assert manifest["subcommand"] == "simulate"
    assert manifest["config"]["dt"] == 1e-3
    assert manifest["seed"] == 424242


@pytest.mark.parametrize("golden, argv", [
    ("simulate_quadratic", ["--example", "quadratic"]),
    ("simulate_quadratic_exploding",                         # dies at node 13
     ["--example", "quadratic", "--start", "30,0"]),
    ("simulate_lorenz96", ["--example", "lorenz96"]),
    ("simulate_ik2", ["--example", "iterated_kolmogorov"]),  # Euler, one row
])
def test_simulate_artifacts_equal_the_golden_files(tmp_path, golden, argv):
    # path.csv and path.json are a file format: a change to the simulation,
    # to a drift's evaluation or to the writers must leave these bytes as
    # they are
    out = tmp_path / golden
    assert run(["simulate", *argv, "--dt", "1e-2", "--seed", "7",
                "--out", str(out)]) == 0
    for name in ("path.csv", "path.json"):
        assert (out / name).read_bytes() == (DATA / golden / name).read_bytes()


@pytest.mark.parametrize("golden, argv", [
    ("optimize_lorenz96_j3",
     ["--example", "lorenz96", "--functional", "J3", "--n-steps", "24"]),
    ("optimize_brownian_running_max",     # a running functional's adjoint
     ["--example", "brownian", "--functional", "running_max",
      "--n-steps", "16"]),
    ("optimize_ik3_j1",                   # a linear adjoint at d = 3
     ["--example", "iterated_kolmogorov", "--d", "3", "--functional", "J1",
      "--n-steps", "24"]),
])
def test_optimize_artifacts_equal_the_golden_files(tmp_path, golden, argv):
    # a faster line search or gradient schedule must accept the same trials:
    # result.json and control.csv keep these bytes
    out = tmp_path / golden
    assert run(["optimize", *argv, "--restarts", "3", "--max-iters", "100",
                "--seed", "7", "--out", str(out)]) == 0
    for name in ("result.json", "control.csv"):
        assert (out / name).read_bytes() == (DATA / golden / name).read_bytes()


def test_the_ik3_golden_reaches_the_projected_gradient_optimum():
    # the search stops where the discrete gradient is stationary, so it
    # ends no lower than the projected-gradient search it replaced read on
    # this configuration
    doc = read_json(DATA / "optimize_ik3_j1" / "result.json")
    assert doc["value"] >= 0.3160752775


@pytest.mark.parametrize("golden, argv", [
    ("polygonalize_2d", ["--samples", "32"]),
    ("polygonalize_3d", ["--dim", "3", "--samples", "48"]),
])
def test_polygonalize_artifacts_equal_the_golden_files(tmp_path, golden, argv):
    # polygon.json and polygon.csv are a file format: a change to the ray
    # solve or to the hull must show here as a diff of these bytes
    out = tmp_path / golden
    assert run(["regularity", "polygonalize", *argv, "--seed", "7",
                "--out", str(out)]) == 0
    for name in ("polygon.json", "polygon.csv"):
        assert (out / name).read_bytes() == (DATA / golden / name).read_bytes()


def test_rescale_artifacts_equal_the_golden_files(tmp_path):
    # the detrended rescaling of shifted_kolmogorov around (1, 1), exact
    # sampler: a change to the contraction or its trend must show here
    out = tmp_path / "rescale_shifted_exact"
    assert run(["rescale", "--example", "shifted_kolmogorov", "--scheme",
                "exact_linear", "--dt", "1e-2", "--seed", "7",
                "--out", str(out)]) == 0
    for name in ("rescaled.csv", "rescaled.json"):
        assert (out / name).read_bytes() == \
            (DATA / "rescale_shifted_exact" / name).read_bytes()


@pytest.mark.parametrize("scheme", ["exact_linear", "euler"])
def test_the_detrended_rescale_is_iterated_kolmogorov(tmp_path, scheme):
    # rescale steps the deviation from the center from 0, which for
    # shifted_kolmogorov is IK(2)'s path on the same noise, and adds center
    # + s trend back: less that, the two outputs agree at eps 1e-8, where
    # subtracting the center from a path near it would keep few digits
    states = {}
    for name in ("shifted_kolmogorov", "iterated_kolmogorov"):
        out = tmp_path / name
        assert run(["rescale", "--example", name, "--scheme", scheme,
                    "--eps", "1e-8", "--seed", "7", "--out", str(out)]) == 0
        doc = json.loads((out / "rescaled.json").read_text())
        states[name] = np.array(doc["times"]), np.array(doc["states"])
    phi = get_example("shifted_kolmogorov").contraction
    times, shifted = states["shifted_kolmogorov"]
    deviation = shifted - phi.center - np.outer(times, phi.drift_vector)
    assert np.max(np.abs(deviation - states["iterated_kolmogorov"][1])) \
        <= 1e-12


@pytest.mark.parametrize("block", [lil._CSV_PATHS, 4])
def test_lil_artifacts_equal_the_golden_files(tmp_path, monkeypatch, block):
    # lil.csv and lil.json are a file format: the files of 25 paths, written
    # in one block or in blocks of 4 paths, keep these bytes
    monkeypatch.setattr(lil, "_CSV_PATHS", block)
    out = tmp_path / "lil"
    assert run(["lil-verify", "--example", "brownian", "--functional",
                "terminal", "--depth", "4", "--paths", "25", "--seed", "7",
                "--out", str(out)]) == 0
    golden = DATA / "lil_brownian_terminal"
    for name in ("lil.csv", "lil.json"):
        assert (out / name).read_bytes() == (golden / name).read_bytes()


def test_a_lil_table_that_cannot_be_written_leaves_no_files(tmp_path,
                                                            monkeypatch):
    # the running extremes are matched to their values before lil.csv is
    # opened, so a failed match leaves no partial file behind
    def refuse(values, extremes):
        raise RuntimeError("running extreme is no earlier value of its row")
    monkeypatch.setattr(lil, "_copied_cells", refuse)
    out = tmp_path / "lil"
    with pytest.raises(RuntimeError, match="no earlier value"):
        run(["lil-verify", "--example", "brownian", "--functional",
             "terminal", "--depth", "4", "--paths", "25", "--out", str(out)])
    assert not out.exists()


def test_manifest_times_the_computation_and_the_writing(tmp_path):
    out = tmp_path / "lil"
    assert run(["lil-verify", "--example", "brownian", "--functional",
                "terminal", "--depth", "4", "--paths", "25",
                "--out", str(out)]) == 0
    timings = read_json(out / "manifest.json")["timings"]
    assert sorted(timings) == ["compute_s", "write_s"]
    assert all(t >= 0.0 for t in timings.values())


def test_rerun_byte_identical(tmp_path):
    argv = ["lil-verify", "--example", "brownian", "--functional", "terminal",
            "--depth", "4", "--paths", "25"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert (a / "lil.csv").read_bytes() == (b / "lil.csv").read_bytes()
    assert (a / "lil.json").read_bytes() == (b / "lil.json").read_bytes()
    # manifests agree once the isolated timing fields are dropped
    ma, mb = read_json(a / "manifest.json"), read_json(b / "manifest.json")
    for m in (ma, mb):
        del m["wall_time_s"], m["timings"], m["timestamp"]
    assert ma == mb


def test_rerun_into_the_same_out_creates_fresh_artifacts(tmp_path):
    # a rerun replaces each artifact with a new file (new inode) of the same
    # bytes; the old file is never truncated in place, and unrelated files
    # in the directory are left alone
    out = tmp_path / "sim"
    argv = ["simulate", "--example", "quadratic", "--dt", "1e-2",
            "--horizon", "0.5", "--seed", "3", "--out", str(out)]
    assert run(argv) == 0
    first = (out / "path.csv").read_bytes()
    # a second link keeps the old inode allocated, so it cannot be reused
    os.link(out / "path.csv", tmp_path / "old.csv")
    (out / "notes.txt").write_text("keep me")
    assert run(argv) == 0
    assert (out / "path.csv").read_bytes() == first
    assert (tmp_path / "old.csv").read_bytes() == first
    assert os.stat(out / "path.csv").st_ino != \
        os.stat(tmp_path / "old.csv").st_ino
    assert (out / "notes.txt").read_text() == "keep me"


def test_config_file_and_flag_override(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[lil-verify]\nexample = brownian\n"
                   "functional = terminal\ndepth = 3\npaths = 10\nseed = 5\n")
    out = tmp_path / "from_file"
    assert run(["lil-verify", "--config", str(ini), "--out", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["paths"] == 10
    assert manifest["seed"] == 5
    out2 = tmp_path / "override"
    assert run(["lil-verify", "--config", str(ini), "--paths", "7",
                "--seed", "9", "--out", str(out2)]) == 0
    manifest2 = read_json(out2 / "manifest.json")
    assert manifest2["config"]["paths"] == 7
    assert manifest2["seed"] == 9


def test_unknown_config_key_exit_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[lil-verify]\nexample = brownian\nbogus = 1\n")
    assert run(["lil-verify", "--config", str(ini)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "bogus" in err["error"]["message"]


def test_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("LILLAB_SEED", "31337")
    out = tmp_path / "env"
    assert run(["lil-verify", "--example", "brownian", "--functional",
                "terminal", "--depth", "2", "--paths", "5",
                "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["seed"] == 31337
    # explicit flag still wins
    out2 = tmp_path / "flag"
    assert run(["lil-verify", "--example", "brownian", "--functional",
                "terminal", "--depth", "2", "--paths", "5", "--seed", "1",
                "--out", str(out2)]) == 0
    assert read_json(out2 / "manifest.json")["seed"] == 1


def test_lil_verify_trivial_single_row(tmp_path):
    out = tmp_path / "triv"
    assert run(["lil-verify", "--example", "brownian", "--functional",
                "terminal", "--j-min", "0", "--depth", "0", "--paths", "1",
                "--out", str(out)]) == 0
    lines = (out / "lil.csv").read_text().strip().split("\n")
    assert lines[0] == "path_id,j,eps,value,running_max,running_min"
    assert len(lines) == 2


@pytest.mark.parametrize("scheme", ["exact_linear", "euler"])
def test_lil_verify_starts_where_eps_is_0_in_floats(tmp_path, scheme):
    # eps0 c^1100 prints 0.0; the window is tested on log eps0 + j_min log
    # c, so the run starts there, and a first level above eps_star exits 2
    argv = ["lil-verify", "--example", "brownian", "--functional", "terminal",
            "--scheme", scheme, "--paths", "10"]
    out = tmp_path / scheme
    assert run(argv + ["--j-min", "1100", "--depth", "1102",
                       "--out", str(out)]) == 0
    assert read_json(out / "lil.json")["eps_values"] == [0.0] * 3
    table = np.loadtxt(out / "lil.csv", delimiter=",", skiprows=1)
    assert table.shape == (30, 6) and np.all(np.isfinite(table))
    assert run(argv + ["--eps0", "0.02", "--depth", "2"]) == 2


def test_lil_verify_exact_scheme_takes_running_max(tmp_path):
    out = tmp_path / "rmax"
    assert run(["lil-verify", "--scheme", "exact_linear", "--functional",
                "running_max", "--example", "iterated_kolmogorov", "--d", "2",
                "--out", str(out)]) == 0
    doc = read_json(out / "lil.json")
    assert doc["explosion_count"] == 0
    assert doc["n_paths"] * doc["n_levels"] == 2000 * 28


def test_optimize_reference_value(tmp_path):
    out = tmp_path / "opt"
    code = run(["optimize", "--example", "iterated_kolmogorov", "--d", "2",
                "--functional", "J1", "--n-steps", "256", "--restarts", "4",
                "--max-iters", "150", "--out", str(out)])
    assert code == 0
    doc = read_json(out / "result.json")
    assert doc["value"] == pytest.approx(0.8165, abs=5e-4)
    assert doc["convergence_flag"]
    control = (out / "control.csv").read_text().strip().split("\n")
    assert control[0] == "cell,t_mid,u1"
    assert len(control) == 257


def test_optimize_nonconvergence_exit_5(tmp_path):
    # on a searched pair: an exact one ignores --max-iters
    code = run(["optimize", "--example", "lorenz96", "--functional", "J3",
                "--sense", "min", "--n-steps", "64", "--restarts", "2",
                "--max-iters", "1", "--out", str(tmp_path / "nc")])
    assert code == 5


@pytest.mark.parametrize("sense", ["max", "min"])
def test_quadratic_j2_is_solved_exactly_at_the_defaults(tmp_path, sense):
    # the degenerate supremum is 0.0 at u = 0, where the search ran into
    # --max-iters; the infimum is the top eigenpair's -8/pi^2 + O(n^-2)
    out = tmp_path / sense
    assert run(["optimize", "--example", "quadratic", "--functional", "J2",
                "--sense", sense, "--out", str(out)]) == 0
    doc = read_json(out / "result.json")
    assert doc["method"] == "eigen" and doc["convergence_flag"]
    assert doc["n_restarts_used"] == 1
    assert doc["restart_values"] == [doc["value"]]
    if sense == "max":
        assert doc["value"] == 0.0 and doc["energy"] == 0.0
        assert not any(np.any(u) for u in doc["argext"])
    else:
        assert doc["value"] == pytest.approx(-8.0 / np.pi ** 2, rel=1e-6)
        assert doc["energy"] == pytest.approx(1.0, abs=1e-12)


def test_optimize_refuses_a_gradient_the_functional_does_not_take(capsys):
    # --gradient selects nothing, but a misspelt value is still an error
    code = run(["optimize", "--example", "iterated_kolmogorov", "--functional",
                "J1", "--gradient", "adjiont", "--n-steps", "16",
                "--restarts", "2"])
    assert code == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "'adjiont'" in message and "auto, adjoint or fd" in message


@pytest.mark.parametrize("example, functional", [
    ("brownian", "running_max"), ("iterated_kolmogorov", "J1")])
def test_optimize_fd_on_a_running_functional_is_auto(tmp_path, capsys,
                                                     example, functional):
    # every functional takes the adjoint, whatever --gradient names, and
    # nothing is written to stderr
    outs = {}
    for gradient in ("auto", "adjoint", "fd"):
        outs[gradient] = tmp_path / gradient
        assert run(["optimize", "--example", example, "--functional",
                    functional, "--gradient", gradient, "--n-steps", "16",
                    "--restarts", "2", "--max-iters", "50",
                    "--out", str(outs[gradient])]) == 0
    assert capsys.readouterr().err == ""
    for name in ("result.json", "control.csv"):
        assert ((outs["auto"] / name).read_bytes()
                == (outs["adjoint"] / name).read_bytes()
                == (outs["fd"] / name).read_bytes())


def test_lil_manifest_counts_the_bridge_plans(tmp_path):
    # at c = 1/2 every level from 1 on shares level 1's bridge plan entry
    out = tmp_path / "lil"
    assert run(["lil-verify", "--example", "brownian", "--functional",
                "running_max", "--scheme", "euler", "--depth", "27",
                "--paths", "4", "--out", str(out)]) == 0
    counters = read_json(out / "manifest.json")["counters"]
    assert counters["bridge_plans"] == 2
    assert counters["levels"] == 28
    assert "bridge_plans" not in (out / "lil.json").read_text()


def test_optimize_manifest_counts_the_search_work(tmp_path):
    # the work counters go to manifest.json only, and reruns count the same;
    # on a searched pair, since an exact one counts no iterations
    argv = ["optimize", "--example", "lorenz96", "--functional", "J3",
            "--n-steps", "16", "--restarts", "3", "--seed", "7"]
    counters = []
    for name in ("a", "b"):
        assert run(argv + ["--out", str(tmp_path / name)]) == 0
        counters.append(read_json(tmp_path / name / "manifest.json")
                        ["counters"])
        assert "counters" not in (tmp_path / name / "result.json").read_text()
    assert counters[0] == counters[1]
    assert sorted(counters[0]) == ["gradient_rows", "integrated_rows",
                                   "integrations", "iterations",
                                   "restarts_at_cap"]
    assert counters[0]["restarts_at_cap"] == 0
    assert counters[0]["iterations"] > 0
    assert counters[0]["gradient_rows"] >= 3


def test_polygonalize_manifest_counts_the_ray_work(tmp_path):
    # each CLI call builds its boundary table, and reruns count the same
    argv = ["regularity", "polygonalize", "--dim", "3", "--samples", "24",
            "--seed", "7"]
    counters = []
    for name in ("a", "b"):
        assert run(argv + ["--out", str(tmp_path / name)]) == 0
        counters.append(read_json(tmp_path / name / "manifest.json")
                        ["counters"])
        doc = (tmp_path / name / "polygon.json").read_text()
        assert "ray_points" not in doc
    assert counters[0] == counters[1]
    assert sorted(counters[0]) == ["hull_attempts", "ray_points",
                                   "sample_ray_calls", "table_ray_calls"]
    assert counters[0]["table_ray_calls"] > 0
    assert counters[0]["sample_ray_calls"] > 0
    assert counters[0]["hull_attempts"] == 1


def test_rescale_artifacts(tmp_path):
    out = tmp_path / "resc"
    assert run(["rescale", "--example", "quadratic", "--eps", "1e-4",
                "--dt", "1e-2", "--out", str(out)]) == 0
    path = path_from_csv(str(out / "rescaled.csv"))
    assert path.horizon == pytest.approx(1.0)


def test_rescale_exact_linear_draws_one_normal_per_state_coordinate(tmp_path):
    # IK(2) has one noise coordinate and two state coordinates
    out = tmp_path / "resc"
    assert run(["rescale", "--example", "iterated_kolmogorov", "--d", "2",
                "--scheme", "exact_linear", "--eps", "1e-4", "--dt", "1e-2",
                "--seed", "5", "--out", str(out)]) == 0
    ik = get_example("iterated_kolmogorov", d=2)
    noise = brownian_path(5, dt=1e-4 * 1e-2, horizon=1e-4 * 1.0, dim_noise=2)
    path = simulate_sde(ik.sde, np.zeros(2), noise, scheme="exact_linear")
    expected = rescale_path(path, ik.contraction, ik.index, 1e-4)
    assert (out / "rescaled.csv").read_bytes() == \
        path_to_csv_string(expected).encode()


def test_simulate_and_rescale_keep_their_summary_in_the_manifest(
        tmp_path, capsys):
    # the summary a run without --out prints, and no data file holds
    for argv in (["simulate", "--example", "quadratic", "--start", "30,0",
                  "--dt", "1e-2"],
                 ["simulate", "--example", "lorenz96", "--dt", "1e-2"],
                 ["rescale", "--example", "quadratic", "--eps", "1e-2",
                  "--dt", "1e-2"]):
        assert run(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        out = tmp_path / "_".join(argv[:3])
        assert run(argv + ["--out", str(out)]) == 0
        assert read_json(out / "manifest.json")["summary"] == printed
    exploded = read_json(tmp_path / "simulate_--example_quadratic"
                         / "manifest.json")["summary"]
    assert exploded["exploded"] and exploded["terminal"] is None
    assert exploded["explosion_time"] == pytest.approx(0.13)
    rescaled = read_json(tmp_path / "rescale_--example_quadratic"
                         / "manifest.json")["summary"]
    quadratic = get_example("quadratic")
    assert rescaled["alpha"] == eval_index(quadratic.index, 1e-2).tolist()


def test_numerical_failure_exit_4(tmp_path, monkeypatch, capsys):
    # b_0 = 1e308 (x0^2 - x1^2), noise (1, 1): the path stays on the
    # diagonal, where the drift is 0 until 1e308 x^2 overflows and
    # inf - inf = nan at a finite live state
    sde = SdeSystem(PolynomialDrift(2, (((1e308, (2, 0)),
                                         (-1e308, (0, 2))), ())),
                    np.ones((2, 1)))
    example = replace(get_example("quadratic"), sde=sde)
    monkeypatch.setattr(cli, "_example_from", lambda opts: example)
    out = tmp_path / "sim"
    code = run(["simulate", "--example", "quadratic", "--dt", "1e-2",
                "--seed", "11", "--out", str(out)])
    assert code == 4
    with pytest.raises(NumericalFailure) as info:
        simulate_sde(sde, np.zeros(2), brownian_path(11, 1e-2, 1.0))
    assert info.value.step > 0
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": {"message": f"numerical failure: {info.value}",
                             "exit_code": 4, "subcommand": "simulate"}}
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["lil-verify", "--example", "brownian", "--functional", "terminal",
      "--c", "2"], "grid ratio c must lie in (0, 1)"),
    (["regularity", "reach", "--example", "iterated_kolmogorov", "--d", "2",
      "--target", "0,1", "--t", "5"], "time must lie in (0, t_star]"),
])
def test_library_value_error_exit_2(argv, message, capsys):
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": {"message": message, "exit_code": 2,
                             "subcommand": argv[0]}}


@pytest.mark.parametrize("argv", [
    ["examples", "describe", "brownian"],
    ["simulate", "--example", "brownian"],
    ["optimize", "--example", "brownian", "--functional", "terminal"],
    ["lil-verify", "--example", "brownian", "--functional", "terminal"],
])
def test_brownian_without_coordinates_exits_2(argv, capsys):
    # d = 0 is a bad parameter, as d < 2 is for iterated_kolmogorov
    assert run(argv + ["--d", "0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": {
        "message": "bad example parameters: brownian needs d >= 1",
        "exit_code": 2, "subcommand": argv[0]}}


def test_regularity_reach_certifies_a_far_target(tmp_path):
    # the README call: |x2(1)| <= sqrt(2) on the energy ball, so x2 = 10
    # is out of reach whatever the optimizer returns
    out = tmp_path / "reach"
    assert run(["regularity", "reach", "--example", "iterated_kolmogorov",
                "--d", "2", "--target", "0,10", "--t", "1",
                "--out", str(out)]) == 0
    doc = read_json(out / "reach.json")
    assert doc["status"] == "unreachable"
    assert doc["certificate"]["kind"] == "drift_free_coordinate_energy_bound"
    assert doc["certificate"]["coordinate"] == 1
    assert doc["control"] is None


def test_regularity_reach_hits_a_near_target(capsys):
    assert run(["regularity", "reach", "--example", "iterated_kolmogorov",
                "--d", "2", "--target", "0.1,0.4", "--t", "0.7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "reachable"
    assert doc["miss"] <= 1e-3
    assert doc["certificate"] is None
    assert len(doc["control"]) == 256


def test_examples_subcommand(capsys):
    assert run(["examples", "list"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "brownian" in doc["examples"]
    assert run(["examples", "describe", "lorenz96"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_state"] == 5
    assert run(["examples", "describe", "nope"]) == 3


def test_check_subcommand(capsys):
    assert run(["check", "--example", "quadratic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"]
    assert doc["checks"]["quadratic"]["contraction_family"]


def test_regularity_subcommand(tmp_path, capsys):
    assert run(["regularity", "sphere", "--example", "iterated_kolmogorov",
                "--d", "2", "--point", "0.6,0.8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "regular"
    assert doc["score"] == pytest.approx(0.8)

    assert run(["regularity", "cone", "--example", "quadratic",
                "--point", "0,1", "--cone-basis", "1,1;-1,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["score"] == pytest.approx(0.5, rel=1e-6)

    out = tmp_path / "poly"
    assert run(["regularity", "polygonalize", "--dim", "2",
                "--samples", "32", "--out", str(out)]) == 0
    doc = read_json(out / "polygon.json")
    assert doc["deficit"] >= 0.0


def test_format_filter(tmp_path):
    out = tmp_path / "fmt"
    assert run(["simulate", "--example", "brownian", "--horizon", "0.1",
                "--format", "csv", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "path.csv"]


def run_entry_point(args, cwd):
    """Run the declared ``lillab`` console entry point in a child process.

    The target comes from ``[project.scripts]`` in pyproject.toml, and the
    child imports the same ``lillab`` package as this test session, so the
    code under test runs whether or not the package is installed.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fp:
        target = tomllib.load(fp)["project"]["scripts"]["lillab"]
    module, func = target.split(":")
    code = (f"import sys; sys.argv[0] = 'lillab'; "
            f"from {module} import {func}; {func}()")
    return run_python(code, args, cwd)


def run_python(code, args, cwd):
    """Run code in a fresh interpreter that imports this session's lillab."""
    src = str(Path(lillab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


def assert_examples_list(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["examples"] == list_examples()
    assert len(doc["examples"]) == 5


def test_console_script_end_to_end(tmp_path):
    # the declared entry point, exercised out of process
    assert_examples_list(run_entry_point(["examples", "list"], tmp_path))
    # main() hands run()'s exit code to sys.exit
    proc = run_entry_point(["examples", "describe", "nope"], tmp_path)
    assert proc.returncode == 3
    assert json.loads(proc.stderr)["error"]["exit_code"] == 3
    assert list(tmp_path.iterdir()) == []


# Runs the given CLI argument lists in one fresh interpreter, after building
# every registered example, and prints the exit codes and the scipy
# subpackages then loaded.
_LOADED_AFTER_RUNS = """
import json, sys
from lillab.cli import _build_parser, run
from lillab.examples import get_example, list_examples
for name in list_examples():
    get_example(name)
codes = [run(argv) for argv in json.loads(sys.argv[1])]
subpackages = ("scipy.linalg", "scipy.integrate", "scipy.optimize",
               "scipy.spatial")
print(json.dumps({"codes": codes,
                  "loaded": [m for m in subpackages if m in sys.modules]}))
"""


def loaded_after_runs(runs, cwd):
    proc = run_python(_LOADED_AFTER_RUNS, [json.dumps(runs)], cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_common_runs_load_no_scipy_subpackage(tmp_path):
    # the paper's examples simulate and optimize on numpy alone, the
    # eigen-decomposition of an exact degree-2 pair included
    doc = loaded_after_runs(
        [["simulate", "--example", "quadratic", "--dt", "1e-2",
          "--out", "sim"],
         ["optimize", "--example", "lorenz96", "--functional", "J3",
          "--n-steps", "32", "--restarts", "2", "--out", "opt"],
         ["optimize", "--example", "quadratic", "--functional", "J2",
          "--sense", "min", "--n-steps", "32", "--out", "eig"]], tmp_path)
    assert doc == {"codes": [0, 0, 0], "loaded": []}
    assert read_json(tmp_path / "opt" / "result.json")["value"] > 0.0
    assert read_json(tmp_path / "eig" / "result.json")["method"] == "eigen"


def test_polygonalize_loads_scipy_spatial_when_it_runs(tmp_path):
    doc = loaded_after_runs(
        [["regularity", "polygonalize", "--dim", "3", "--out", "poly"]],
        tmp_path)
    assert doc["codes"] == [0]
    assert "scipy.spatial" in doc["loaded"]   # which itself loads scipy.linalg
    assert read_json(tmp_path / "poly" / "polygon.json")["volume"] > 3.0


@pytest.mark.skipif(shutil.which("lillab") is None,
                    reason="no lillab console script on PATH")
def test_installed_console_script(tmp_path):
    proc = subprocess.run(["lillab", "examples", "list"], cwd=tmp_path,
                          capture_output=True, text=True)
    assert_examples_list(proc)
