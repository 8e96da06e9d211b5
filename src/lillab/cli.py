"""Command line front end.

Subcommands map one-to-one onto the library: simulate (SDE paths), rescale
(small-time zoom of a path), optimize (extremal constants over the energy
ball), lil-verify (Monte Carlo iterated-logarithm experiment), regularity
(boundary verdicts, reachability, polygonalization), examples (registry
access) and check (registry-wide property self-test).

Configuration comes from an INI file (one section per subcommand, flat
key = value entries using the long option names with underscores); command
line flags override file values.  The seed resolution order is
flag > config file > LILLAB_SEED environment variable > built-in default.

With --out DIR every run writes its data files plus a manifest.json echoing
the resolved configuration, library versions, seed, wall time and its split
into timings.compute_s (the subcommand's computation) and timings.write_s
(writing the data files), for optimize, lil-verify and regularity
polygonalize the work counters (ExtremalResult.work, LilReport.work,
PolygonApprox.work) under counters, and
for simulate and rescale, whose data files are the path alone, the summary
a run without --out prints (explosion, terminal state or alpha) under summary;
data files are byte-identical across reruns of the same configuration and
seed (the manifest's timing fields are the only exception, isolated there).

Exit codes: 0 success; 2 usage or configuration error; 3 unknown example
or functional; 4 numerical failure; 5 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from functools import cache

import numpy as np
import scipy

from . import __version__
from .controls import ControlGrid
from .examples import describe_example, deviation_table, get_example, list_examples
from .extremals import OptimizerConfig, optimize_extremal
from .lil import LilExperimentConfig, run_lil_experiment
from .regularity import (REACH_CONFIG, DomainSpec, cone_criterion,
                         polygonalize, reach_target, sphere_criterion)
from .scaling import (check_asymptotic_index, check_contraction_family,
                      default_family_probes, eval_index, rescale_path)
from .sde import NumericalFailure, brownian_path, path_texts, simulate_sde

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNKNOWN = 3
EXIT_NUMERICAL = 4
EXIT_NOCONV = 5

_DEFAULT_SEED = 424242

_EPILOG = """exit codes:
  0  success
  2  usage or configuration error (bad flag, bad config key or value)
  3  unknown example or functional name
  4  numerical failure during the run
  5  optimizer finished without converging
"""


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _vector(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}")


def _matrix(text: str) -> tuple:
    # columns separated by ';', entries by ','
    return tuple(_vector(col) for col in text.split(";"))


# Option tables: dest -> (converter, default, help). Converters run on
# config-file strings too, so every option stays file-settable.
_COMMON = {
    "example": (str, None, "registered example name"),
    "d": (int, None, "dimension parameter for examples that take one"),
    "x0": (_vector, None, "start-point parameter for examples that take one"),
}

_SPECS = {
    "simulate": {
        **_COMMON,
        "dt": (float, 1e-3, "time step"),
        "horizon": (float, 1.0, "final time"),
        "scheme": (str, "euler", "euler | exact_linear"),
        "path_index": (int, 0, "noise stream index"),
        "start": (_vector, None, "override the start state"),
    },
    "rescale": {
        **_COMMON,
        "eps": (float, 1e-3, "zoom scale"),
        "dt": (float, 1e-3, "time step of the rescaled clock"),
        "horizon": (float, 1.0, "rescaled final time"),
        "scheme": (str, "euler", "euler | exact_linear"),
        "path_index": (int, 0, "noise stream index"),
    },
    "optimize": {
        **_COMMON,
        "functional": (str, None, "registered functional name"),
        "sense": (str, "max", "max | min"),
        "n_steps": (int, 1024, "control grid cells"),
        "restarts": (int, 16, "multistart count"),
        "max_iters": (int, 500, "ascent iteration cap"),
        "gradient": (str, "auto",
                     "auto | adjoint | fd, all alike: every functional "
                     "takes the exact discrete adjoint"),
    },
    "lil-verify": {
        **_COMMON,
        "functional": (str, None, "registered functional name"),
        "c": (float, 0.5, "geometric grid ratio"),
        "depth": (int, 27, "deepest grid index j_max"),
        "j_min": (int, 0, "shallowest grid index"),
        "eps0": (float, 1e-2, "starting scale"),
        "paths": (int, 2000, "Monte Carlo sample paths"),
        "scheme": (str, "exact_linear", "exact_linear | euler"),
        "dt_rel": (float, 1e-2, "per-scale step relative to eps_j"),
    },
    "regularity": {
        **_COMMON,
        "ball_center": (_vector, None, "domain ball center (default origin)"),
        "ball_radius": (float, 1.0, "domain ball radius"),
        "point": (_vector, None, "boundary point (sphere/cone)"),
        "cone_basis": (_matrix, None, "cone basis columns 'a,b;c,d'"),
        "target": (_vector, None, "target state (reach)"),
        "t": (float, 1.0, "reach time"),
        "tolerance": (float, None, "verdict tolerance (criterion default)"),
        "direction": (_vector, None, "audit direction (default last axis)"),
        "samples": (int, 64, "boundary sample count (polygonalize)"),
        "dim": (int, 2, "ball dimension when no example is given"),
    },
    "examples": {
        "d": (int, None, "dimension parameter"),
        "x0": (_vector, None, "start-point parameter"),
    },
    "check": {
        "example": (str, None, "restrict the self-test to one example"),
    },
}

_ACTIONS = {"regularity": ("sphere", "cone", "reach", "polygonalize"),
            "examples": ("list", "describe")}


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lillab",
        description="Small-time iterated-logarithm laboratory for "
                    "degenerate diffusions.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"lillab {__version__}")
    subs = parser.add_subparsers(dest="subcommand")
    helps = {
        "simulate": "integrate one SDE path",
        "rescale": "simulate on [0, eps] and zoom to unit scale",
        "optimize": "extremal value of a functional over the energy ball",
        "lil-verify": "Monte Carlo iterated-logarithm experiment",
        "regularity": "boundary criteria, reachability, polygonalization",
        "examples": "list or describe registered examples",
        "check": "registry-wide scaling self-test",
    }
    for name, spec in _SPECS.items():
        sub = subs.add_parser(name, help=helps[name], epilog=_EPILOG,
                              formatter_class=argparse.RawDescriptionHelpFormatter)
        if name in _ACTIONS:
            sub.add_argument("action", choices=_ACTIONS[name])
        if name == "examples":
            sub.add_argument("name", nargs="?", default=None,
                             help="example name (describe)")
        for dest, (conv, _default, help_text) in spec.items():
            flag = "--" + dest.replace("_", "-")
            sub.add_argument(flag, dest=dest, type=conv, default=None,
                             help=help_text)
        sub.add_argument("--config", default=None,
                         help="INI file; section [%s]" % name)
        sub.add_argument("--seed", type=int, default=None,
                         help="RNG seed (default: LILLAB_SEED or "
                              f"{_DEFAULT_SEED})")
        sub.add_argument("--out", default=None,
                         help="output directory (created if missing)")
        sub.add_argument("--format", dest="fmt", default="both",
                         choices=("csv", "json", "both"),
                         help="which data files to write")
    return parser


def _load_config(path: str, subcommand: str, spec: dict) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise CliError(f"config file not found: {path}", EXIT_CONFIG)
    if not parser.has_section(subcommand):
        return {}
    out = {}
    for key, raw in parser.items(subcommand):
        if key == "seed":
            out["seed"] = int(raw)
            continue
        if key not in spec:
            raise CliError(
                f"unknown config key {key!r} in section [{subcommand}]",
                EXIT_CONFIG)
        conv = spec[key][0]
        try:
            out[key] = conv(raw)
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise CliError(
                f"bad value for {key!r} in section [{subcommand}]: {err}",
                EXIT_CONFIG)
    return out


def _resolve(ns: argparse.Namespace, spec: dict) -> dict:
    file_values = {}
    if ns.config is not None:
        file_values = _load_config(ns.config, ns.subcommand, spec)
    opts = {}
    for dest, (_conv, default, _help) in spec.items():
        flag_val = getattr(ns, dest)
        opts[dest] = flag_val if flag_val is not None else \
            file_values.get(dest, default)
    if ns.seed is not None:
        seed = int(ns.seed)
    elif "seed" in file_values:
        seed = int(file_values["seed"])
    elif os.environ.get("LILLAB_SEED"):
        try:
            seed = int(os.environ["LILLAB_SEED"])
        except ValueError:
            raise CliError("LILLAB_SEED must be an integer", EXIT_CONFIG)
    else:
        seed = _DEFAULT_SEED
    opts["seed"] = seed
    return opts


def _require(opts: dict, *keys: str):
    for key in keys:
        if opts.get(key) is None:
            raise CliError(f"--{key.replace('_', '-')} is required",
                           EXIT_CONFIG)


def _example_from(opts: dict, build=get_example):
    """build(opts["example"], d=..., x0=...) with the parameters opts sets,
    mapping an unknown name to exit 3 and bad parameters to exit 2."""
    _require(opts, "example")
    params = {key: opts[key] for key in ("d", "x0")
              if opts.get(key) is not None}
    try:
        return build(opts["example"], **params)
    except KeyError as err:
        raise CliError(str(err.args[0]), EXIT_UNKNOWN)
    except (TypeError, ValueError) as err:
        raise CliError(f"bad example parameters: {err}", EXIT_CONFIG)


def _functional_from(example, opts: dict):
    _require(opts, "functional")
    name = opts["functional"]
    if name not in example.functionals:
        raise CliError(
            f"unknown functional {name!r} on {example.name!r}; "
            f"have {sorted(example.functionals)}", EXIT_UNKNOWN)
    return example.functionals[name]


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _control_csv(control: ControlGrid) -> str:
    n, k = control.values.shape
    header = "cell,t_mid," + ",".join(f"u{i+1}" for i in range(k))
    lines = [header]
    for cell in range(n):
        t_mid = (cell + 0.5) / n
        row = ",".join(repr(float(v)) for v in control.values[cell])
        lines.append(f"{cell},{repr(t_mid)},{row}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers (opts, ns): return (artifacts, stdout_summary, exit_code)

def _simulated(example, opts: dict, start, dt: float, horizon: float):
    """One path of the example's SDE from start under opts' scheme and seed.

    The exact_linear scheme draws one standard normal per state coordinate
    and step, the euler scheme one Brownian increment per noise coordinate.
    """
    dim_noise = (example.sde.dim_state if opts["scheme"] == "exact_linear"
                 else example.sde.dim_noise)
    noise = brownian_path(opts["seed"], dt=dt, horizon=horizon,
                          dim_noise=dim_noise, path_index=opts["path_index"])
    return simulate_sde(example.sde, start, noise, scheme=opts["scheme"])


def _run_simulate(opts: dict, ns):
    example = _example_from(opts)
    start = np.asarray(opts["start"], dtype=float) if opts["start"] is not None \
        else example.contraction.center
    path = _simulated(example, opts, start, opts["dt"], opts["horizon"])
    summary = {
        "example": example.name,
        "scheme": opts["scheme"],
        "n_steps": int(path.times.shape[0] - 1),
        "exploded": path.explosion_index is not None,
        "explosion_time": None if path.explosion_index is None
        else path.explosion_time,
        "terminal": None if path.explosion_index is not None
        else [float(v) for v in path.states[-1]],
    }
    csv_text, json_text = path_texts(path)
    artifacts = [("path.csv", csv_text), ("path.json", json_text)]
    return artifacts, summary, EXIT_OK


def _run_rescale(opts: dict, ns):
    example = _example_from(opts)
    eps = opts["eps"]
    # the deviation from the center follows the SDE from 0 (rescale_path)
    path = _simulated(example, opts, np.zeros(example.sde.dim_state),
                      eps * opts["dt"], eps * opts["horizon"])
    rescaled = rescale_path(path, example.contraction, example.index, eps)
    summary = {
        "example": example.name,
        "eps": eps,
        "alpha": [float(a) for a in eval_index(example.index, eps)],
        "exploded": rescaled.explosion_index is not None,
    }
    csv_text, json_text = path_texts(rescaled)
    artifacts = [("rescaled.csv", csv_text), ("rescaled.json", json_text)]
    return artifacts, summary, EXIT_OK


def _run_optimize(opts: dict, ns):
    example = _example_from(opts)
    functional = _functional_from(example, opts)
    if opts["sense"] not in ("max", "min"):
        raise CliError("--sense must be max or min", EXIT_CONFIG)
    # every functional takes the adjoint; --gradient selects nothing
    if opts["gradient"] not in ("auto", "adjoint", "fd"):
        raise CliError("--gradient must be auto, adjoint or fd, not "
                       f"{opts['gradient']!r}", EXIT_CONFIG)
    extra = ()
    if example.probe_starts is not None:
        extra = tuple(example.probe_starts(opts["n_steps"]))
    config = OptimizerConfig(
        n_steps=opts["n_steps"], n_restarts=opts["restarts"],
        max_iters=opts["max_iters"], seed=opts["seed"], extra_starts=extra,
    )
    result = optimize_extremal(example.limit_problem, functional,
                               opts["sense"], config)
    summary = result.to_json_dict()
    del summary["argext"]
    summary.update({
        "example": example.name,
        "functional": opts["functional"],
        "reference": {k: v for k, v in example.reference.items()
                      if k.startswith(opts["functional"] + "_")},
    })
    artifacts = [
        ("result.json", _json_text(dict(summary,
                                        argext=result.argext.values.tolist()))),
        ("control.csv", _control_csv(result.argext)),
    ]
    code = EXIT_OK if result.convergence_flag else EXIT_NOCONV
    return artifacts, summary, code, result.work


def _run_lil(opts: dict, ns):
    example = _example_from(opts)
    _functional_from(example, opts)
    config = LilExperimentConfig(
        c=opts["c"], j_min=opts["j_min"], j_max=opts["depth"],
        eps0=opts["eps0"], n_paths=opts["paths"], scheme=opts["scheme"],
        seed=opts["seed"], dt_rel=opts["dt_rel"],
    )
    report = run_lil_experiment(example, opts["functional"], config)
    summary = report.to_json_dict()
    artifacts = [("lil.csv", report.csv_blocks()),
                 ("lil.json", _json_text(summary))]
    return artifacts, summary, EXIT_OK, report.work


def _run_regularity(opts: dict, ns):
    # the criterion's own default unless the user set one
    tol = {} if opts["tolerance"] is None else {"tolerance": opts["tolerance"]}
    if ns.action == "reach":
        example = _example_from(opts)
        _require(opts, "target")
        report = reach_target(example.limit_problem,
                              np.asarray(opts["target"], dtype=float),
                              opts["t"],
                              config=replace(REACH_CONFIG, seed=opts["seed"]),
                              **tol)
        summary = report.to_json_dict()
        return [("reach.json", _json_text(summary))], summary, EXIT_OK
    # sphere, cone and polygonalize take the ball, centred at the origin of
    # the example's state space (or of R^dim) unless --ball-center is given
    example = None if ns.action == "polygonalize" else _example_from(opts)
    center = np.asarray(opts["ball_center"], dtype=float) \
        if opts["ball_center"] is not None else \
        np.zeros(opts["dim"] if example is None else example.sde.dim_state)
    domain = DomainSpec.ball(center, opts["ball_radius"])
    if example is None:
        direction = np.asarray(opts["direction"], dtype=float) \
            if opts["direction"] is not None else np.eye(len(center))[-1]
        poly = polygonalize(domain, direction, opts["samples"], opts["seed"])
        summary = poly.to_json_dict()
        artifacts = [("polygon.json", _json_text(summary)),
                     ("polygon.csv", poly.to_csv_string())]
        return artifacts, summary, EXIT_OK, poly.work
    _require(opts, "point")
    point = np.asarray(opts["point"], dtype=float)
    if ns.action == "sphere":
        verdict = sphere_criterion(example.sde, domain, point, **tol)
    else:
        _require(opts, "cone_basis")
        basis = np.column_stack(
            [np.asarray(col, dtype=float) for col in opts["cone_basis"]])
        verdict = cone_criterion(example.sde, domain, point, basis, **tol)
    summary = verdict.to_json_dict()
    return [("verdict.json", _json_text(summary))], summary, EXIT_OK


def _run_examples(opts: dict, ns):
    if ns.action == "list":
        summary = {"examples": list_examples()}
        return [("examples.json", _json_text(summary))], summary, EXIT_OK
    if ns.name is None:
        raise CliError("examples describe needs a name", EXIT_CONFIG)
    summary = _example_from(dict(opts, example=ns.name), describe_example)
    return [("example.json", _json_text(summary))], summary, EXIT_OK


def _run_check(opts: dict, ns):
    names = [opts["example"]] if opts["example"] else list_examples()
    results = {}
    all_ok = True
    for name in names:
        try:
            example = get_example(name)
        except KeyError as err:
            raise CliError(str(err.args[0]), EXIT_UNKNOWN)
        samples, alphas = default_family_probes(example.sde.dim_state,
                                                seed=opts["seed"])
        family = check_contraction_family(example.contraction, samples, alphas)
        # bracket ratios tend to c^{-l/2} per coordinate, so the deviation
        # floor grows with the largest exponent; pass = settled within twice
        # the floor (c^459 is the first bracket below eps_star = 1e-2)
        l_max = max(l for l, _k in example.index.exponents)
        floor = 0.99 ** (-l_max / 2.0) - 1.0
        index = check_asymptotic_index(example.index, 0.99, (459, 4000),
                                       2.0 * floor)
        rows = deviation_table(example, [1e-2, 1e-4, 1e-6, 1e-8])
        devs = [max(r["drift_deviation"], r["diffusion_deviation"])
                for r in rows]
        dev_ok = all(devs[i + 1] <= devs[i] + 1e-13
                     for i in range(len(devs) - 1))
        ok = family.passed and index.passed and dev_ok
        all_ok &= ok
        results[name] = {
            "contraction_family": family.passed,
            "index_ratio_stability": index.passed,
            "coefficient_convergence": dev_ok,
            "passed": ok,
        }
    summary = {"checks": results, "passed": all_ok}
    code = EXIT_OK if all_ok else EXIT_NUMERICAL
    return [("check.json", _json_text(summary))], summary, code


# A handler returns (artifacts, summary, exit code) and, optionally, work
# counters for the manifest.
_HANDLERS = {
    "simulate": _run_simulate,
    "rescale": _run_rescale,
    "optimize": _run_optimize,
    "lil-verify": _run_lil,
    "regularity": _run_regularity,
    "examples": _run_examples,
    "check": _run_check,
}

# The subcommands whose stdout summary no data file holds: with --out, the
# manifest keeps it.
_SUMMARY_IN_MANIFEST = ("simulate", "rescale")


# ---------------------------------------------------------------------------

def _write_text(path: str, text) -> None:
    """Write text, a str or an iterable of str such as LilReport.csv_blocks(),
    to a new file at path."""
    # Unlink, then create: truncating a file written moments before makes
    # filesystems with delayed allocation (ext4 auto_da_alloc) flush it
    # first, which costs tens of milliseconds per artifact on a rerun.
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.writelines([text] if isinstance(text, str) else text)


def _write_artifacts(out_dir, fmt: str, artifacts):
    os.makedirs(out_dir, exist_ok=True)
    for name, text in artifacts:
        if fmt == "csv" and name.endswith(".json"):
            continue
        if fmt == "json" and name.endswith(".csv"):
            continue
        _write_text(os.path.join(out_dir, name), text)


def run(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        parser.print_help()
        return EXIT_CONFIG
    spec = _SPECS[ns.subcommand]
    started = time.perf_counter()
    try:
        opts = _resolve(ns, spec)
        handler_started = time.perf_counter()
        artifacts, summary, code, *counters = _HANDLERS[ns.subcommand](
            opts, ns)
    except CliError as err:
        _emit_error(str(err), err.code, ns)
        return err.code
    except NumericalFailure as err:
        _emit_error(f"numerical failure: {err}", EXIT_NUMERICAL, ns)
        return EXIT_NUMERICAL
    except ValueError as err:
        _emit_error(str(err), EXIT_CONFIG, ns)
        return EXIT_CONFIG
    computed = time.perf_counter()
    if ns.out is None:
        sys.stdout.write(_json_text(summary))
        return code
    _write_artifacts(ns.out, ns.fmt, artifacts)
    written = time.perf_counter()

    manifest = {
        "subcommand": ns.subcommand,
        "action": getattr(ns, "action", None),
        "config": {k: _jsonable(v) for k, v in opts.items()},
        "seed": opts["seed"],
        "versions": {
            "lillab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": written - started,
        "timings": {"compute_s": computed - handler_started,
                    "write_s": written - computed},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if counters:
        manifest["counters"] = counters[0]
    if ns.subcommand in _SUMMARY_IN_MANIFEST:
        manifest["summary"] = summary
    _write_text(os.path.join(ns.out, "manifest.json"), _json_text(manifest))
    return code


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _emit_error(message: str, code: int, ns):
    record = {"error": {"message": message, "exit_code": code,
                        "subcommand": getattr(ns, "subcommand", None)}}
    sys.stderr.write(_json_text(record))


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
