import math
from dataclasses import replace

import numpy as np
import pytest

from lillab.controls import ControlGrid
from lillab.examples import (_example, describe_example, deviation_table,
                             functional_value, get_example,
                             ik_reference_constant, list_examples,
                             lorenz_probe_controls)
from lillab.extremals import OptimizerConfig
from lillab.scaling import eval_index, transformed_coefficients
from lillab.sde import ExplosivePath, brownian_path


def test_registry_contents():
    names = list_examples()
    assert names == ["brownian", "iterated_kolmogorov", "lorenz96",
                     "quadratic", "shifted_kolmogorov"]
    with pytest.raises(KeyError):
        get_example("ornstein")


def test_describe_keys():
    doc = describe_example("quadratic")
    assert doc["name"] == "quadratic"
    assert doc["dim_state"] == 2
    assert list(map(tuple, doc["index_exponents"])) == [(4, 2), (1, 1)]
    assert "J2" in doc["functionals"]


def test_index_encodings():
    assert get_example("brownian").index.exponents == ((1, 1),)
    assert get_example("brownian", d=2).index.exponents == ((1, 1), (1, 1))
    # chain exponents l_i = 2(d - i) + 1
    assert get_example("iterated_kolmogorov", d=3).index.exponents == \
        ((5, 1), (3, 1), (1, 1))
    assert get_example("shifted_kolmogorov").index.exponents == \
        ((3, 1), (1, 1))
    assert get_example("lorenz96").index.exponents == \
        ((1, 1), (1, 1), (4, 2), (7, 3), (10, 4))


def test_parameter_validation():
    with pytest.raises(ValueError):
        get_example("iterated_kolmogorov", d=1)
    with pytest.raises(TypeError):
        get_example("quadratic", d=3)


def test_ik_reference_constant():
    # sqrt(2/(2d-1)) / (d-1)!
    assert ik_reference_constant(2) == pytest.approx(math.sqrt(2.0 / 3.0))
    assert ik_reference_constant(3) == pytest.approx(math.sqrt(2.0 / 5.0) / 2.0)
    assert ik_reference_constant(5) == pytest.approx(math.sqrt(2.0 / 9.0) / 24.0)
    ik = get_example("iterated_kolmogorov", d=4)
    assert ik.reference["J1_max"]["value"] == pytest.approx(
        ik_reference_constant(4))


def test_functional_value_polynomials():
    t = np.linspace(0.0, 1.0, 1001)
    # one cumulative integral for d=2: J1(t) = 1/2
    assert functional_value("J1", t, d=2) == pytest.approx(0.5, abs=1e-8)
    # two for d=3: 1/6
    assert functional_value("J1", t, d=3) == pytest.approx(1.0 / 6.0, abs=1e-8)
    assert functional_value("J2", t) == pytest.approx(-1.0 / 3.0, abs=1e-8)
    assert functional_value("J2", np.ones_like(t)) == pytest.approx(-1.0)
    # f1 = f2 = t: inner chain gives t^5/15, outer integral 1/105
    assert functional_value("J3", np.column_stack([t, t])) == pytest.approx(
        1.0 / 105.0, abs=1e-9)
    assert functional_value("running_max", t) == pytest.approx(0.5, abs=1e-8)


def test_functional_value_guards():
    t = np.linspace(0.0, 1.0, 101)
    with pytest.raises(ValueError):
        functional_value("J1", t)          # d missing
    with pytest.raises(ValueError):
        functional_value("J3", t)          # needs two columns
    with pytest.raises(KeyError):
        functional_value("J9", t)
    with pytest.raises(ValueError):
        functional_value("J2", t[:2])      # too few samples


def sine_pair(m):
    t = np.linspace(0.0, 1.0, m)
    return np.column_stack([np.sin(5.0 * t), np.sin(t)])


def test_lorenz_sine_probe_value():
    ref = get_example("lorenz96").reference
    probe = ref["J3_sine_probe"]["value"]
    # the stored constant is the quadrature its method names, bit for bit
    assert ref["J3_sine_probe"]["method"] == "composite quadrature, sine pair"
    assert probe == functional_value("J3", sine_pair(20001))
    assert probe == pytest.approx(functional_value("J3", sine_pair(2001)),
                                  abs=1e-7)
    # (1/2) int |df/dt|^2 of f = (sin 5t, sin t), in closed form
    half_energy = 0.5 * (25.0 * (0.5 + math.sin(10.0) / 20.0)
                         + (0.5 + math.sin(2.0) / 4.0))
    mids = (np.arange(20000) + 0.5) / 20000
    du = np.column_stack([5.0 * np.cos(5.0 * mids), np.cos(mids)])
    assert half_energy == pytest.approx(0.5 * np.mean(np.sum(du**2, axis=1)),
                                        rel=1e-7)
    assert ref["J3_min_bound"]["value"] == probe / half_energy**2


def test_lorenz_probe_controls_feasible_and_opposed():
    probes = lorenz_probe_controls(128)
    assert len(probes) == 2
    for p in probes:
        assert p.values.shape == (128, 2)
        assert p.energy() <= 1.0 + 1e-12
    assert np.allclose(probes[0].values, -probes[1].values)


def test_deviation_table_decreasing():
    for name in ("quadratic", "shifted_kolmogorov"):
        example = get_example(name)
        rows = deviation_table(example, [1e-2, 1e-4, 1e-6])
        devs = [max(r["drift_deviation"], r["diffusion_deviation"])
                for r in rows]
        assert devs[0] + 1e-13 >= devs[1] >= devs[2] - 1e-13


def test_shifted_drift_matches_limit_at_center():
    sk = get_example("shifted_kolmogorov")
    resc = transformed_coefficients(sk.sde, sk.contraction, sk.index, 1e-4)
    center = sk.contraction.center
    assert np.allclose(resc.drift(center),
                       sk.limit_problem.limit_drift(center), atol=1e-10)


def test_contraction_kind_of_each_example():
    kinds = {name: describe_example(name)["contraction_kind"]
             for name in list_examples()}
    assert kinds == {"brownian": "diagonal", "iterated_kolmogorov": "diagonal",
                     "lorenz96": "diagonal", "quadratic": "diagonal",
                     "shifted_kolmogorov": "affine_detrended"}
    assert get_example("shifted_kolmogorov", x0=(2.0, 0.0)).contraction.kind \
        == "shifted_diagonal"


def test_brownian_motion_with_drift_builds():
    # x' = 0.5 with sigma = 1: the trend comes from the rows without noise
    # only, so it is 0, and the driven row's constant eps * 0.5 / alpha of
    # the rescaled table scales away
    bm = _example("bm_drift", {}, (((0.5, (0,)),),), np.eye(1), np.zeros(1),
                  {}, {})
    assert not np.any(bm.contraction.drift_vector)
    assert bm.index.exponents == ((1, 1),)
    for eps in (1e-2, 1e-6):
        resc = transformed_coefficients(bm.sde, bm.contraction, bm.index, eps)
        alpha = eval_index(bm.index, eps)[0]
        assert alpha == pytest.approx(math.sqrt(eps * math.log(-math.log(eps))))
        assert resc.drift.rows == (((0.5 * (eps / alpha), (0,)),),)
    rows = deviation_table(bm, [1e-2, 1e-4, 1e-6, 1e-8])
    devs = [r["drift_deviation"] for r in rows]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert max(r["diffusion_deviation"] for r in rows) <= 8 * np.spacing(1.0)


def test_the_builder_rejects_a_start_without_an_autonomous_rescaling():
    sigma = np.array([[0.0], [1.0]])
    # x0' = x0 + x1 from (0, 1): the trend (1, 0) moves x0, which b reads
    with pytest.raises(ValueError, match="no autonomous rescaling"):
        _example("t", {}, (((1.0, (1, 0)), (1.0, (0, 1))), ()), sigma,
                 np.array([0.0, 1.0]), {}, {})
    # x0' = x1 - x0 from (1, 1): no trend, but the limit drift there is (1, 0)
    with pytest.raises(ValueError, match="no autonomous rescaling"):
        _example("t", {}, (((1.0, (0, 1)), (-1.0, (1, 0))), ()), sigma,
                 np.ones(2), {}, {})


def test_example_sde_simulates():
    # every registered system integrates a short path from its center
    from lillab.sde import brownian_path, simulate_sde
    for name in list_examples():
        example = get_example(name)
        noise = brownian_path(3, dt=1e-3, horizon=0.05,
                              dim_noise=example.sde.dim_noise)
        path = simulate_sde(example.sde, example.contraction.center, noise)
        assert path.explosion_index is None
        assert np.all(np.isfinite(path.states))


# Written-out drifts of the registry, the references for the drifts,
# limit drifts and Jacobians the registry derives from its monomial tables
# (tests/test_properties.py compares them on drawn states).

def quadratic_drift(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out[..., 0] = x[..., 0] ** 2 - x[..., 1] ** 2
    out[..., 1] = 2.0 * x[..., 0] * x[..., 1]
    return out


def quadratic_limit_drift(y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    out[..., 0] = -(y[..., 1] ** 2)
    return out


def quadratic_limit_jacobian(y):
    y = np.asarray(y, dtype=float)
    jac = np.zeros(y.shape + (2,))
    jac[..., 0, 1] = -2.0 * y[..., 1]
    return jac


def lorenz_drift(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    x1, x2, x3, x4, x5 = (x[..., i] for i in range(5))
    out[..., 0] = (x2 - x4) * x5 - x1
    out[..., 1] = (x3 - x5) * x1 - x2
    out[..., 2] = (x4 - x1) * x2 - x3
    out[..., 3] = (x5 - x2) * x3 - x4
    out[..., 4] = (x1 - x3) * x4 - x5
    return out


def lorenz_limit_drift(y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    y1, y2, y3, y4 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    out[..., 2] = -y1 * y2
    out[..., 3] = -y2 * y3
    out[..., 4] = y1 * y4
    return out


def lorenz_limit_jacobian(y):
    y = np.asarray(y, dtype=float)
    jac = np.zeros(y.shape + (5,))
    y1, y2, y3, y4 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    jac[..., 2, 0] = -y2
    jac[..., 2, 1] = -y1
    jac[..., 3, 1] = -y3
    jac[..., 3, 2] = -y2
    jac[..., 4, 0] = y4
    jac[..., 4, 3] = y1
    return jac


def chain_matrix(d):
    """A of the iterated Kolmogorov chain dx_i = x_{i+1} dt."""
    return np.eye(d, k=1)


def linear_references(a):
    """The drift x @ a.T, and as limit drift and Jacobian of a linear
    system (its own limit) the same drift and a broadcast a."""
    def drift(x):
        return np.asarray(x, dtype=float) @ a.T

    def jacobian(y):
        return np.broadcast_to(a, np.shape(y) + a.shape[:1])

    return drift, drift, jacobian


# (example, parameters, (drift, limit drift, limit Jacobian))
WRITTEN_DRIFTS = [
    ("quadratic", {}, (quadratic_drift, quadratic_limit_drift,
                       quadratic_limit_jacobian)),
    ("lorenz96", {}, (lorenz_drift, lorenz_limit_drift,
                      lorenz_limit_jacobian)),
    ("brownian", {"d": 1}, linear_references(np.zeros((1, 1)))),
    ("brownian", {"d": 2}, linear_references(np.zeros((2, 2)))),
    ("shifted_kolmogorov", {}, linear_references(chain_matrix(2))),
] + [("iterated_kolmogorov", {"d": d}, linear_references(chain_matrix(d)))
     for d in (2, 3, 5)]


def _unit_column(d, j):
    return np.eye(d)[:, j:j + 1]


# the sigma of each linear example, written out
WRITTEN_SIGMAS = {("brownian", 1): np.eye(1), ("brownian", 2): np.eye(2),
                  ("shifted_kolmogorov", 2): _unit_column(2, 1)} | {
    ("iterated_kolmogorov", d): _unit_column(d, d - 1) for d in (2, 3, 5)}


def test_linear_tables_give_the_linear_spec():
    # the derived LinearSpec is (A, sigma), as the builder stored it when
    # linear was a field
    for name, params, (drift, _, _) in WRITTEN_DRIFTS:
        sde = get_example(name, **params).sde
        linear = sde.linear
        if name in ("quadratic", "lorenz96"):
            assert linear is None
        else:
            assert np.array_equal(linear.a_matrix,
                                  drift(np.eye(linear.dim)).T)
            assert np.array_equal(linear.sigma,
                                  WRITTEN_SIGMAS[name, sde.dim_state])


def _array_holders():
    """name -> (object, field, a value equal to the field's, held in new
    arrays) for each dataclass that holds arrays, directly or in a tuple."""
    ik = get_example("iterated_kolmogorov")
    grid = ControlGrid(np.ones((4, 1)))
    path = ExplosivePath(np.arange(3.0), np.zeros((3, 2)))
    return {
        "LinearSpec": (ik.sde.linear, "sigma", ik.sde.sigma.copy()),
        "LimitOdeProblem": (ik.limit_problem, "x0",
                            ik.limit_problem.x0.copy()),
        "ContractionFamily": (ik.contraction, "center",
                              ik.contraction.center.copy()),
        "ControlGrid": (grid, "values", grid.values.copy()),
        "NoisePath": (brownian_path(3, 0.25, 1.0), "increments",
                      brownian_path(3, 0.25, 1.0).increments),
        "ExplosivePath": (path, "states", path.states.copy()),
        "ExampleSystem": (ik, "contraction", replace(
            ik.contraction, center=ik.contraction.center.copy())),
        "OptimizerConfig": (OptimizerConfig(extra_starts=(grid,)),
                            "extra_starts", (ControlGrid(grid.values),)),
    }


@pytest.mark.parametrize("name", sorted(_array_holders()))
def test_array_holders_compare_by_identity_and_hash(name):
    # a generated __eq__ compares the arrays inside a tuple and raises on
    # more than one element; these classes compare by identity instead
    obj, field, copy = _array_holders()[name]
    assert (obj == replace(obj, **{field: copy})) is False
    assert obj == obj
    hash(obj)
