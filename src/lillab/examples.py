"""Registry of benchmark systems with their scaling data and functionals.

Each example is one monomial table of its drift plus sigma and x0, from
which one builder (_example) makes the SDE, the asymptotic index, the
limit system (scaling.derive_rescaling finds the two) with its control
problem from 0, and the contraction family around x0 with the trend b(x0).
The limit problem is that of the deviation X - x0 - t b(x0), which follows
the SDE from 0. Each entry bundles these with named path functionals and
reference constants with the method that produced them. Control-space
functionals (J1/J2/J3/running_max) are also evaluable directly by
quadrature via functional_value. lorenz96's sine-probe constant is such a
quadrature value, stored as a literal so that building the example runs
none; a test recomputes it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .controls import LimitOdeProblem, ControlGrid
from .extremals import RunningMaxAbsFunctional, TerminalLinearFunctional
from .scaling import (AsymptoticIndex, ContractionFamily, derive_rescaling,
                      require_autonomous, transformed_coefficients)
from .sde import PolynomialDrift, SdeSystem, _philox


def _unit_column(d: int, j: int) -> np.ndarray:
    out = np.zeros((d, 1))
    out[j, 0] = 1.0
    return out


def _x(d: int, *js: int) -> tuple:
    """Exponents of the monomial x_j1 * x_j2 * ... on R^d."""
    return tuple(js.count(j) for j in range(d))


def _chain_rows(d: int) -> tuple:
    """The iterated Kolmogorov chain dx_i = x_{i+1} dt (i < d - 1)."""
    return tuple(((1.0, _x(d, i + 1)),) for i in range(d - 1)) + ((),)


@dataclass(frozen=True, eq=False)
class ExampleSystem:
    """A registered benchmark: SDE + scaling data + limit problem + functionals."""

    name: str
    params: dict
    sde: SdeSystem
    contraction: ContractionFamily
    index: AsymptoticIndex
    limit_problem: LimitOdeProblem
    functionals: dict
    reference: dict
    probe_starts: Optional[Callable[[int], list]] = None


def _example(name: str, params: dict, rows, sigma: np.ndarray, x0,
             functionals: dict, reference: dict, **extra) -> ExampleSystem:
    """The example dx = b(x) dt + sigma dW from x0, b the monomial table
    rows: the contraction around x0 with the trend v, b(x0) in the rows
    without noise and 0 in the others (a driven row's constant scales
    away), the index and the limit system (L, sigma) of dy = L(y) dt +
    sigma u dt from derive_rescaling, and the limit problem from 0, that of
    the deviation X - x0 - t v. ValueError unless that deviation follows
    the SDE from 0 (scaling.require_autonomous). extra goes to
    ExampleSystem."""
    sde = SdeSystem(PolynomialDrift(len(rows), rows), sigma)
    trend = np.where(np.any(sigma != 0.0, axis=1), 0.0, sde.drift(x0))
    contraction = ContractionFamily(x0, trend)
    require_autonomous(sde, contraction)
    index, limit = derive_rescaling(sde)
    return ExampleSystem(
        name=name, params=params, sde=sde, contraction=contraction,
        index=index, limit_problem=LimitOdeProblem(limit, np.zeros(len(rows))),
        functionals=functionals, reference=reference, **extra)


def ik_reference_constant(d: int) -> float:
    """sup of the (d-1)-fold iterated time integral over the energy ball."""
    return math.sqrt(2.0 / (2 * d - 1)) / math.factorial(d - 1)


def _make_brownian(d: int = 1) -> ExampleSystem:
    if d < 1:
        raise ValueError("brownian needs d >= 1")
    w = np.zeros(d)
    w[0] = 1.0
    functionals = {
        "terminal": TerminalLinearFunctional(w),
        "running_max": RunningMaxAbsFunctional(0),
    }
    reference = {
        "terminal_max": {"value": math.sqrt(2.0),
                         "method": "kernel oracle, terminal weight only"},
        "terminal_min": {"value": -math.sqrt(2.0),
                         "method": "odd functional symmetry"},
    }
    return _example("brownian", {"d": d}, ((),) * d, np.eye(d), np.zeros(d),
                    functionals, reference)


def _make_iterated_kolmogorov(d: int = 2) -> ExampleSystem:
    if d < 2:
        raise ValueError("iterated_kolmogorov needs d >= 2")
    w = np.zeros(d)
    w[0] = 1.0
    m = ik_reference_constant(d)
    functionals = {
        "J1": TerminalLinearFunctional(w),
        "running_max": RunningMaxAbsFunctional(0),
    }
    reference = {
        "J1_max": {"value": m, "method": "kernel oracle closed form"},
        "J1_min": {"value": -m, "method": "odd functional symmetry"},
        "running_max_limsup": {"value": m, "method": "kernel oracle closed form"},
        "running_max_liminf": {"value": 0.0, "method": "degenerate infimum"},
    }
    return _example("iterated_kolmogorov", {"d": d}, _chain_rows(d),
                    _unit_column(d, d - 1), np.zeros(d), functionals,
                    reference)


def _make_shifted_kolmogorov(x0=(1.0, 1.0)) -> ExampleSystem:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,):
        raise ValueError("x0 must be a 2-vector")
    functionals = {
        "J1": TerminalLinearFunctional(np.array([1.0, 0.0])),
        "running_max": RunningMaxAbsFunctional(0),
    }
    m = ik_reference_constant(2)
    reference = {
        "J1_max": {"value": m, "method": "kernel oracle closed form"},
        "J1_min": {"value": -m, "method": "odd functional symmetry"},
    }
    return _example("shifted_kolmogorov",
                    {"x0": tuple(float(v) for v in x0)}, _chain_rows(2),
                    _unit_column(2, 1), x0, functionals, reference)


def _make_quadratic() -> ExampleSystem:
    functionals = {
        "J2": TerminalLinearFunctional(np.array([1.0, 0.0])),
        "running_max": RunningMaxAbsFunctional(0),
    }
    reference = {
        "J2_min": {"value": -8.0 / math.pi**2,
                   "method": "smallest Dirichlet-Neumann eigenvalue"},
        "J2_max": {"value": 0.0, "method": "degenerate supremum"},
    }
    # b(x) = (x0^2 - x1^2, 2 x0 x1), the complex square
    rows = (((1.0, _x(2, 0, 0)), (-1.0, _x(2, 1, 1))), ((2.0, _x(2, 0, 1)),))
    return _example("quadratic", {}, rows, _unit_column(2, 1), np.zeros(2),
                    functionals, reference)


# Half energy (1/2) int |df/dt|^2 of the sine pair f = (sin 5t, sin t) on
# [0, 1], and its J3 value: functional_value("J3", ...) of the pair on 20001
# uniform samples, stored so that building lorenz96 runs no quadrature.
_SINE_PAIR_HALF_ENERGY = 0.5 * (25.0 * (0.5 + math.sin(10.0) / 20.0)
                                + (0.5 + math.sin(2.0) / 4.0))
_SINE_PAIR_J3 = -0.006049458337850757


def lorenz_probe_controls(n_steps: int) -> list:
    """Deterministic probe starts: the scaled sine pair f = s(sin 5t, sin t)."""
    mids = (np.arange(n_steps) + 0.5) / n_steps
    u = np.column_stack([5.0 * np.cos(5.0 * mids), np.cos(mids)])
    s = math.sqrt(1.0 / _SINE_PAIR_HALF_ENERGY)
    probe = ControlGrid(s * u).project()
    return [probe, ControlGrid(-probe.values)]


def _make_lorenz96() -> ExampleSystem:
    sig = np.zeros((5, 2))
    sig[0, 0] = 1.0
    sig[1, 1] = 1.0
    functionals = {
        "J3": TerminalLinearFunctional(np.array([0.0, 0.0, 0.0, 0.0, 1.0])),
    }
    reference = {
        "J3_sine_probe": {"value": _SINE_PAIR_J3,
                          "method": "composite quadrature, sine pair"},
        "J3_min_bound": {"value": _SINE_PAIR_J3 / _SINE_PAIR_HALF_ENERGY**2,
                         "method": "rescaled feasible point"},
    }
    # b_i(x) = (x_{i+1} - x_{i-2}) x_{i-1} - x_i, indices mod 5
    rows = tuple(((1.0, _x(5, (i + 1) % 5, (i - 1) % 5)),
                  (-1.0, _x(5, (i - 2) % 5, (i - 1) % 5)),
                  (-1.0, _x(5, i))) for i in range(5))
    return _example("lorenz96", {}, rows, sig, np.zeros(5), functionals,
                    reference, probe_starts=lorenz_probe_controls)


_REGISTRY = {
    "brownian": (_make_brownian, "d (state dimension, default 1)"),
    "iterated_kolmogorov": (_make_iterated_kolmogorov, "d (chain length >= 2)"),
    "shifted_kolmogorov": (_make_shifted_kolmogorov, "x0 (2-vector start)"),
    "quadratic": (_make_quadratic, "no parameters"),
    "lorenz96": (_make_lorenz96, "no parameters"),
}


def list_examples() -> list:
    return sorted(_REGISTRY)


def get_example(name: str, **params) -> ExampleSystem:
    if name not in _REGISTRY:
        raise KeyError(f"unknown example {name!r}; known: {list_examples()}")
    maker, _ = _REGISTRY[name]
    return maker(**params)


def describe_example(name: str, **params) -> dict:
    example = get_example(name, **params)
    return {
        "name": example.name,
        "params": example.params,
        "dim_state": example.sde.dim_state,
        "dim_noise": example.sde.dim_noise,
        "contraction_kind": example.contraction.kind,
        "index_exponents": list(example.index.exponents),
        "functionals": sorted(example.functionals),
        "reference": example.reference,
        "parameter_help": _REGISTRY[name][1],
    }


# ---------------------------------------------------------------------------
# Control-space functionals by quadrature

def functional_value(name: str, f_samples, d: Optional[int] = None) -> float:
    """Evaluate a named functional of f on uniform samples over [0, 1].

    f_samples has shape (m,) or (m, 1) except for J3 which takes (m, 2); the
    samples must include both endpoints. J1 needs the chain length d >= 2.
    Composite Simpson quadrature with cumulative inner integrals, so the cost
    stays linear in m.
    """
    from scipy.integrate import cumulative_simpson, simpson
    f = np.asarray(f_samples, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if f.shape[0] < 3:
        raise ValueError("need at least 3 samples")
    s = np.linspace(0.0, 1.0, f.shape[0])

    def cum(y):
        return cumulative_simpson(y, x=s, initial=0.0)

    if name == "J1":
        if d is None or d < 2:
            raise ValueError("J1 requires the chain length d >= 2")
        y = f[:, 0]
        for _ in range(d - 1):
            y = cum(y)
        return float(y[-1])
    if name == "J2":
        return -float(simpson(f[:, 0] ** 2, x=s))
    if name == "J3":
        if f.shape[1] != 2:
            raise ValueError("J3 takes two control columns")
        f1, f2 = f[:, 0], f[:, 1]
        inner1 = cum(f1 * f2)
        inner2 = cum(f2 * inner1)
        return float(simpson(f1 * inner2, x=s))
    if name == "running_max":
        return float(np.max(np.abs(cum(f[:, 0]))))
    raise KeyError(f"unknown functional {name!r}")


# ---------------------------------------------------------------------------
# Coefficient convergence tables

def coefficient_deviation(example: ExampleSystem, eps: float,
                          points: np.ndarray) -> dict:
    """Sup deviation of the rescaled system (b_eps, sigma_eps) from the
    limit system (L, sigma), field by field: the drifts on sample points
    (n, d), each evaluated once on the whole cloud, and the sigmas."""
    res = transformed_coefficients(example.sde, example.contraction,
                                   example.index, eps)
    limit = example.limit_problem.system
    y = np.asarray(points, dtype=float)
    drift_dev = np.max(np.abs(res.drift(y) - limit.drift(y)))
    diff_dev = np.max(np.abs(res.sigma - limit.sigma))
    return {"eps": eps, "drift_deviation": float(drift_dev),
            "diffusion_deviation": float(diff_dev)}


_DEVIATION_POINTS = 64   # deviation_table's cloud: this many points,
_DEVIATION_BOX = 1.5     # uniform on [-box, box]^d,
_DEVIATION_SEED = 7      # drawn by Philox (seed, 11)


def deviation_table(example: ExampleSystem, eps_list) -> list:
    """Coefficient deviation rows for each eps, on a shared random point cloud."""
    rng = _philox(_DEVIATION_SEED, 11)
    points = rng.uniform(-_DEVIATION_BOX, _DEVIATION_BOX,
                         size=(_DEVIATION_POINTS, example.sde.dim_state))
    return [coefficient_deviation(example, float(e), points) for e in eps_list]
