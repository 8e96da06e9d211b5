"""Tests of the benchmark itself: tiny-size smoke runs of every workload,
the span recorder, and the checks failing on corrupted outputs.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

workloads = run._import_lillab()
import spans  # noqa: E402  (needs lillab on the path first)


# sizes for the smoke tests: every op still runs, at a fraction of the cost
TINY = {
    "extremal": {"ik2_cells": 16, "quad_cells": 32, "lorenz_cells": 8,
                 "lorenz_iters": 100, "reach_cells": 16, "fd_cells": 8,
                 "restarts": 3},
    "montecarlo": {"euler_depth": 3, "exact_depth": 27,
                   "euler_quad_paths": 2, "euler_lorenz_paths": 2,
                   "exact_paths": 200},
    "long_path": {"dt": 1e-2, "rescale_eps": 1e-4},
    "hull": {"samples": 16, "warm_hulls": 5},
}


def tiny(name, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path), TINY[name])
    workload.setup()
    return workload, workloads.Runner(workload, seed=11)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_has_no_failures(name, tmp_path):
    workload, runner = tiny(name, tmp_path)
    results = runner.run_pass(0)
    runner.finish()
    assert runner.failures == []
    assert results is not None and set(results) == \
        {op for op, _ in workload.ops(0)}
    assert all(r.seconds > 0.0 for r in results.values())
    assert runner.attempted == len(results) + len(workload.finish())
    assert run.named_metrics(name, [results])


def test_perturbed_oracle_fails_only_its_op(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "M_IK2", workloads.M_IK2 * 1.01)
    _, runner = tiny("extremal", tmp_path)
    assert runner.run_pass(0) is None
    assert runner.failed == 1 and runner.failed / runner.attempted > 0
    assert runner.failures[0].startswith("ik2_j1: IK(2)/J1: value")


def test_corrupted_path_fails_the_path_oracles(tmp_path, monkeypatch):
    original = workloads.cli.simulate_sde

    def corrupted(*args, **kwargs):
        path = original(*args, **kwargs)
        path.states[-1, 0] += 1e-6
        return path

    monkeypatch.setattr(workloads.cli, "simulate_sde", corrupted)
    _, runner = tiny("long_path", tmp_path)
    assert runner.run_pass(0) is None
    assert runner.failures == [
        "sim_ik2: sim_ik2: path differs from the closed-form recursion",
        "sim_quad: sim_quad: a state is not one Euler step from its "
        "predecessor",
        "sim_lorenz: sim_lorenz: a state is not one Euler step from its "
        "predecessor",
        "rescale_quad: rescale_quad: rescaled path is not an Euler path "
        "shrunk by the asymptotic index"]


def test_euler_envelope_is_checked_on_pooled_paths(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "QUAD_ENVELOPE", (-1e-9, 0.0))
    _, runner = tiny("montecarlo", tmp_path)
    runner.run_pass(0)
    runner.finish()
    assert runner.failed == 1
    assert runner.failures[0].startswith("euler_quad_envelope:")


def traced_metrics(name, tmp_path):
    workload, runner = tiny(name, tmp_path)
    recorder = spans.Recorder()
    with recorder:
        runner.run_pass(1, recorder)
    assert runner.failures == []
    return recorder, run.layer_metrics(recorder, 1.0, 1.0)


def test_traced_pass_counts_layers_and_restores_names(tmp_path):
    import lillab.lil
    import lillab.sde
    before = lillab.lil.simulate_sde
    recorder, metrics = traced_metrics("montecarlo", tmp_path / "a")
    assert lillab.lil.simulate_sde is before is lillab.sde.simulate_sde
    assert recorder.absent == []
    assert set(metrics) == set(run.PER_LAYER)
    # 2 + 2 Euler paths at 4 levels each; the lil layer calls sde by name
    assert metrics["sde.simulate_sde.calls"] == 16
    assert metrics["sde.brownian_path.calls"] == 16
    assert metrics["extremals.adjoint_gradient.calls"] == 0
    assert metrics["lil.run_lil_experiment.path_levels"] == \
        4 * 4 + 2 * 200 * 28
    roots = [s for s in recorder.spans if s.parent < 0]
    assert {s.name for s in roots} == {"lillab.cli.run"}
    own = recorder.self_times()
    assert all(t >= -1e-9 for t in own)
    # counts repeat exactly for the same seed
    _, again = traced_metrics("montecarlo", tmp_path / "b")
    for key, unit in run.PER_LAYER.items():
        if unit == "count":
            assert again[key] == metrics[key], key


def test_traced_extremal_separates_adjoint_and_fd(tmp_path):
    _, metrics = traced_metrics("extremal", tmp_path)
    assert metrics["extremals.optimize_extremal.calls"] == 5
    assert metrics["extremals.adjoint_gradient.calls"] > 0
    assert metrics["extremals.adjoint_gradient.row_cells"] > 0
    assert metrics["extremals.fd_gradient.calls"] > 0
    assert metrics["regularity.reach_target.self_s"] > 0.0
    assert metrics["sde.simulate_sde.calls"] == 0


def test_removed_name_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.setitem(spans.TRACED, "lillab.sde.no_such_kernel", None)
    recorder, _ = traced_metrics("hull", tmp_path)
    assert recorder.absent == ["lillab.sde.no_such_kernel"]


def test_exits_non_zero_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hull", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_main_prints_the_contract_line(monkeypatch, capsys):
    for name, sizes in TINY.items():
        monkeypatch.setitem(workloads.SIZES, name, sizes)
    monkeypatch.setattr(run, "SETUP_PROCESSES", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    assert run.main(["--workload", "long_path", "--seed", "5",
                     "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("long_path_steps_per_s") for line in lines)


def test_metric_lists_match_the_benchmark_spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        spec = json.load(fp)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)
