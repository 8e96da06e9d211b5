import csv
import io
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lillab.sde import (ExplosivePath, LinearSpec, NoisePath, PolynomialDrift,
                        SdeSystem, alive, brownian_path,
                        equilibrated_cholesky, euler_batch, path_from_csv,
                        path_from_json_dict, path_texts, path_to_csv_string,
                        path_to_json_dict, simulate_sde, trivial_domain)
from lillab.examples import get_example


def test_brownian_path_deterministic():
    a = brownian_path(123, dt=1e-3, horizon=0.5, dim_noise=2, path_index=4)
    b = brownian_path(123, dt=1e-3, horizon=0.5, dim_noise=2, path_index=4)
    assert np.array_equal(a.increments, b.increments)
    c = brownian_path(123, dt=1e-3, horizon=0.5, dim_noise=2, path_index=5)
    assert not np.array_equal(a.increments, c.increments)
    d = brownian_path(124, dt=1e-3, horizon=0.5, dim_noise=2, path_index=4)
    assert not np.array_equal(a.increments, d.increments)


def test_brownian_increment_variance():
    noise = brownian_path(7, dt=1e-3, horizon=4.0, dim_noise=3)
    z = noise.increments / math.sqrt(noise.dt)
    assert abs(float(np.var(z)) - 1.0) < 0.05
    assert abs(float(np.mean(z))) < 0.05


def test_noise_coarsen_sums_increments():
    noise = brownian_path(11, dt=0.01, horizon=1.0, dim_noise=2)
    coarse = noise.coarsen(10)
    assert coarse.increments.shape == (10, 2)
    assert coarse.dt == pytest.approx(0.1)
    # block sums, exactly
    blocks = noise.increments.reshape(10, 10, 2).sum(axis=1)
    assert np.allclose(coarse.increments, blocks, rtol=0, atol=0)


def test_ik2_exact_transition_covariance():
    # Kolmogorov chain dx1 = x2 dt, dx2 = dB has Cov(t) =
    # [[t^3/3, t^2/2], [t^2/2, t]]; check the quadrature against t = 1
    ik = get_example("iterated_kolmogorov", d=2)
    cov = ik.sde.linear.covariance(1.0)
    oracle = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    assert np.allclose(cov, oracle, atol=1e-10)


def test_exact_linear_matches_kernel_statistics():
    # single exact step of horizon 1, empirical covariance over many paths
    ik = get_example("iterated_kolmogorov", d=2)
    n = 20000
    xs = np.empty((n, 2))
    for p in range(n):
        noise = brownian_path(99, dt=1.0, horizon=1.0, dim_noise=2,
                              path_index=p)
        path = simulate_sde(ik.sde, np.zeros(2), noise, scheme="exact_linear")
        xs[p] = path.states[-1]
    emp = np.cov(xs.T)
    oracle = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    assert np.max(np.abs(emp - oracle)) < 0.03


def test_euler_approaches_exact_kernel_mean_square():
    # same noise stream, finer Euler grids approach the exact terminal
    # second moment of x1 (t^3/3); crude but catches scaling mistakes
    ik = get_example("iterated_kolmogorov", d=2)
    n = 4000
    vals = []
    for n_steps in (4, 16, 64):
        acc = 0.0
        for p in range(n):
            noise = brownian_path(5, dt=1.0 / n_steps, horizon=1.0,
                                  dim_noise=1, path_index=p)
            path = simulate_sde(ik.sde, np.zeros(2), noise, scheme="euler")
            acc += float(path.states[-1, 0]) ** 2
        vals.append(acc / n)
    errs = [abs(v - 1.0 / 3.0) for v in vals]
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.02


def test_quadratic_zero_noise_blowup_time():
    # drift is the complex square z -> z^2; from (2, 0) the deterministic
    # flow blows up at t = 1/(2) = 0.5
    quad = get_example("quadratic")
    n_steps = 4000
    noise = NoisePath(0, dt=1.0 / n_steps,
                      increments=np.zeros((n_steps, 1)))
    path = simulate_sde(quad.sde, np.array([2.0, 0.0]), noise)
    assert path.explosion_index is not None
    assert path.explosion_time == pytest.approx(0.5, abs=0.01)
    # dead rows are nan, not garbage
    assert np.all(np.isnan(path.states[path.explosion_index:]))


def test_euler_strong_convergence_additive_noise():
    # Cauchy differences against a fine shared-noise reference; additive
    # noise so the strong order is 1, demand slope >= 0.9
    quad = get_example("quadratic")
    fine = brownian_path(31, dt=1e-5, horizon=0.25, dim_noise=1)
    x0 = np.array([0.3, -0.2])
    ref = simulate_sde(quad.sde, x0, fine)
    errs, dts = [], []
    for m in (1000, 100, 10):
        coarse = fine.coarsen(m)
        path = simulate_sde(quad.sde, x0, coarse)
        sub = ref.states[::m]
        errs.append(float(np.max(np.abs(sub - path.states))))
        dts.append(coarse.dt)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 0.9


def test_alive_on_a_batch_and_on_one_state():
    below_one = lambda x: x[..., 0] < 1.0
    batch = np.array([[0.0, 0.0], [np.nan, 0.0], [1e120, 0.0], [2.0, 0.0],
                      [0.0, -1e100]])
    assert alive(batch, below_one).tolist() == [True, False, False, False,
                                                True]
    assert alive(batch, trivial_domain).tolist() == [True, False, False,
                                                     True, True]
    assert alive(batch[None], below_one).shape == (1, 5)
    assert alive(np.zeros(2), below_one)
    assert not alive(np.array([np.nan, 0.0]), below_one)
    assert not alive(np.array([1e120, 0.0]), below_one)
    assert not alive(np.array([2.0, 0.0]), below_one)


def test_csv_round_trip():
    t = np.linspace(0.0, 0.5, 6)
    states = np.column_stack([np.sin(t), np.cos(t)])
    states[4:] = np.nan
    path = ExplosivePath(t, states, explosion_index=4)
    text = path_to_csv_string(path)
    back = path_from_csv(io.StringIO(text))
    assert np.array_equal(back.times, path.times)
    alive = slice(0, 4)
    assert np.array_equal(back.states[alive], path.states[alive])
    assert back.explosion_index == 4


def test_json_round_trip():
    t = np.linspace(0.0, 1.0, 8)
    path = ExplosivePath(t, np.column_stack([t, -t]))
    doc = json.loads(json.dumps(path_to_json_dict(path)))
    back = path_from_json_dict(doc)
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.states, path.states)
    assert back.explosion_index is None


def _reference_csv(path):
    """The csv.writer loop path_texts replaced, kept as its reference."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t"] + [f"x{j + 1}" for j in range(path.dim)]
                    + ["exploded"])
    expl = path.explosion_index
    for i, t in enumerate(path.times):
        dead = expl is not None and i >= expl
        row = [repr(float(t))]
        row += ["" if dead else repr(float(v)) for v in path.states[i]]
        row.append("1" if dead else "0")
        writer.writerow(row)
    return buf.getvalue()


def _reference_json(path):
    return json.dumps(path_to_json_dict(path), sort_keys=True, indent=2) + "\n"


@st.composite
def explosive_paths(draw):
    d = draw(st.integers(1, 5))
    n = draw(st.integers(2, 12))
    steps = draw(hnp.arrays(np.float64, n - 1,
                            elements=st.floats(1e-3, 1e3)))
    times = np.concatenate([[0.0], np.cumsum(steps)])
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e100, 1e300, -1e300,
                         np.inf, -np.inf, np.nan]),
        st.floats(allow_nan=True, allow_infinity=True))
    states = draw(hnp.arrays(np.float64, (n, d), elements=values))
    explosion = draw(st.sampled_from([None, 1, n - 1]))
    return ExplosivePath(times, states, explosion)


@settings(max_examples=200, deadline=None, database=None)
@given(explosive_paths())
def test_path_texts_equal_the_reference_writers(path):
    # byte for byte: nan, inf, -0.0 and subnormal coordinates, and empty
    # fields (csv) or null rows (json) from the explosion index on
    csv_text, json_text = path_texts(path)
    assert csv_text == _reference_csv(path)
    assert json_text == _reference_json(path)
    assert path_to_csv_string(path) == csv_text


def test_equilibrated_cholesky_tiny_scales():
    # correlation-space factorization survives scale ratios ~ 1e15
    spec = LinearSpec(np.array([[0.0, 1.0], [0.0, 0.0]]),
                      np.array([[0.0], [1.0]]))
    cov = spec.covariance(1e-10)
    d, chol = equilibrated_cholesky(cov)
    rebuilt = np.outer(d, d) * (chol @ chol.T)
    assert np.allclose(rebuilt, cov, rtol=1e-10)


def test_bridge_factors_are_the_brownian_bridge():
    # given W(a) and W(a + l + r), W(a + l) has mean (r W(a) + l W(b)) / L
    # and variance l r / L, L = l + r; without a right end, the increment
    spec = LinearSpec(np.zeros((1, 1)), np.eye(1))
    left, right = np.array([0.3, 1e-9, 2.0]), np.array([0.7, 1.0, 1e-6])
    from_a, from_b, noise = spec.bridge(left, right)
    total = left + right
    # weights to within rounding of 1: 1 - l / L cancels when r << l
    assert np.allclose(from_a[:, 0, 0], right / total, rtol=0.0, atol=1e-15)
    assert np.allclose(from_b[:, 0, 0], left / total, rtol=0.0, atol=1e-15)
    assert np.allclose(noise[:, 0, 0] ** 2, left * right / total,
                       rtol=1e-9, atol=0.0)
    from_a, from_b, noise = spec.bridge(left)
    assert np.all(from_a == 1.0) and np.all(from_b == 0.0)
    assert np.allclose(noise[:, 0, 0] ** 2, left, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("total", [1e-2, 1e-12])
@pytest.mark.parametrize("frac", [0.5, 3e-4, 1.0 - 3e-4, 1e-7, 1.0 - 1e-7])
def test_bridge_factors_give_the_joint_law(d, total, frac):
    # from x(a) = 0: x(a + l) = from_b x(b) + noise z must covary with x(b)
    # as C(l) Phi(r)^T and have covariance C(l), in sqrt(diag) units, down
    # to covariances near 1e-110 and with a + l close to either end
    spec = get_example("iterated_kolmogorov", d=d).sde.linear
    left, right = np.array([frac * total]), np.array([(1.0 - frac) * total])
    _, from_b, noise = (f[0] for f in spec.bridge(left, right))
    cov_l, cov_lr = spec.covariance(left[0]), spec.covariance(total)
    s_l, s_lr = np.sqrt(np.diag(cov_l)), np.sqrt(np.diag(cov_lr))
    cross = from_b @ cov_lr - cov_l @ spec.propagator(right[0]).T
    assert np.abs(cross / np.outer(s_l, s_lr)).max() < 1e-10
    var = noise @ noise.T + from_b @ cov_lr @ from_b.T - cov_l
    assert np.abs(var / np.outer(s_l, s_l)).max() < 1e-10


def test_scalar_ou_transition_uses_matrix_exponentials():
    # A = [[-1]] is not nilpotent: expm gives the mean factor e^{-h} and
    # Van Loan's augmented exponential the variance (1 - e^{-2h}) / 2
    ou = LinearSpec(np.array([[-1.0]]), np.array([[1.0]]))
    assert ou._nilpotent_powers() is None
    for h in (1e-3, 0.1, 1.0, 5.0):
        assert ou.propagator(h)[0, 0] == pytest.approx(math.exp(-h),
                                                       rel=1e-14)
        assert ou.covariance(h)[0, 0] == pytest.approx(
            -math.expm1(-2.0 * h) / 2.0, rel=1e-14)


def test_general_branch_matches_closed_form_on_ik3():
    # forced onto expm / Van Loan, IK(3) keeps the closed-form law
    # Cov_ij = t^(p_i + p_j + 1) / ((p_i + p_j + 1) p_i! p_j!), coordinate i
    # being the p_i-fold integral of B, down to t = 1e-10
    spec = get_example("iterated_kolmogorov", d=3).sde.linear
    p = (2, 1, 0)
    with mock.patch.object(LinearSpec, "_nilpotent_powers",
                           return_value=None):
        for t in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            cov = np.array([[t ** (a + b + 1) / ((a + b + 1) * math.factorial(a)
                                                 * math.factorial(b))
                             for b in p] for a in p])
            prop = np.array([[t ** (j - i) / math.factorial(j - i) if j >= i
                              else 0.0 for j in range(3)] for i in range(3)])
            assert np.max(np.abs(spec.covariance(t) / cov - 1.0)) < 2e-15
            assert np.allclose(spec.propagator(t), prop, rtol=1e-15, atol=0.0)


def test_simulate_rejects_bad_start():
    ik = get_example("iterated_kolmogorov", d=2)
    noise = brownian_path(1, dt=0.1, horizon=0.2, dim_noise=1)
    with pytest.raises(ValueError):
        simulate_sde(ik.sde, np.array([np.inf, 0.0]), noise)
    with pytest.raises(ValueError):
        simulate_sde(ik.sde, np.zeros(3), noise)


@pytest.mark.parametrize("scheme", ["euler", "exact_linear"])
def test_simulate_rejects_a_start_that_is_not_alive(scheme):
    # both schemes end in euler_batch, which checks x0 for them
    ik = get_example("iterated_kolmogorov", d=2)
    system = replace(ik.sde, domain_contains=lambda x: x[..., 0] < 1.0)
    k = system.dim_state if scheme == "exact_linear" else system.dim_noise
    noise = brownian_path(1, dt=0.1, horizon=0.2, dim_noise=k)
    for x0 in ([np.inf, 0.0], [0.0, -np.inf], [np.nan, 0.0], [0.0, 1e101],
               [1.0, 0.0], [3.0, 0.0]):
        with pytest.raises(ValueError, match="x0 must be a finite state "
                                             "inside the domain"):
            simulate_sde(system, np.array(x0), noise, scheme=scheme)


def test_euler_batch_checks_callback_shapes():
    # a table drift always broadcasts; a domain_contains that ignores the
    # batch axis is named with the shape it should have returned
    system = SdeSystem(PolynomialDrift(2, ((), ())), np.array([[0.0], [1.0]]),
                       domain_contains=lambda x: bool(np.all(x < 1.0)))
    with pytest.raises(ValueError,
                       match=r"domain_contains .*expected \(3,\)"):
        euler_batch(system, np.zeros((3, 2)), np.zeros((3, 4, 1)), 0.1)


def test_euler_batch_takes_one_float_step_and_per_row_gains():
    # one step for every row; gains hold a finite, non-negative gain per row
    # and monomial of the table (quadratic has three)
    system = get_example("quadratic").sde
    x0, inc = np.zeros((3, 2)), np.zeros((3, 4, 1))
    for dt in (np.full(3, 0.1), np.full((3, 1), 0.1)):
        with pytest.raises(TypeError):
            euler_batch(system, x0, inc, dt)
    assert system.drift.n_monomials == 3
    message = r"gains must be finite, non-negative and of shape \(B, mono"
    for shape in ((3,), (2, 3), (3, 4), (3, 3, 1)):
        with pytest.raises(ValueError, match=message):
            euler_batch(system, x0, inc, 0.1, np.ones(shape))
    for bad in (-1.0, np.inf, np.nan):
        gains = np.ones((3, 3))
        gains[1, 2] = bad
        with pytest.raises(ValueError, match=message):
            euler_batch(system, x0, inc, 0.1, gains)


def test_sde_system_is_a_table_and_sigma():
    drift = PolynomialDrift(2, (((1.0, (0, 1)),), ()))
    with pytest.raises(TypeError, match="PolynomialDrift"):
        SdeSystem(lambda x: np.zeros_like(x), np.ones((2, 1)))
    for sigma in (np.ones(2), np.ones((3, 1)), np.ones((2, 1, 1))):
        with pytest.raises(ValueError, match="sigma must have shape"):
            SdeSystem(drift, sigma)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="sigma must be finite"):
            SdeSystem(drift, [[0.0], [bad]])
        # the generated source would spell it as an undefined name
        with pytest.raises(ValueError, match="coefficients must be finite"):
            PolynomialDrift(2, (((bad, (0, 1)),), ()))
    sigma = np.array([[0.0, 1.0], [2.0, 0.0]])
    system = SdeSystem(drift, sigma)
    assert (system.dim_state, system.dim_noise) == (2, 2)
    sigma[0, 0] = 5.0       # the system keeps its own read-only copy
    assert system.sigma[0, 0] == 0.0
    assert not system.sigma.flags.writeable


@pytest.mark.parametrize("rows", [
    ((),),                                  # a row missing
    (((1.0, (0, -1)),), ()),                # a negative exponent
    (((1.0, (0, 1, 0)),), ()),              # three exponents on R^2
    (((1.0, (1,)),), ()),                   # one exponent on R^2
    (((1.0, (0.5, 0)),), ()),               # an exponent that is no int
], ids=["missing_row", "negative", "too_long", "too_short", "fractional"])
def test_polynomial_drift_refuses_malformed_tables(rows):
    with pytest.raises(ValueError, match="2 rows of monomials"):
        PolynomialDrift(2, rows)


def test_linear_follows_a_replaced_drift():
    # linear is derived, so a new table never meets a stale LinearSpec
    ik = get_example("iterated_kolmogorov", d=2).sde
    assert np.array_equal(ik.linear.a_matrix, [[0.0, 1.0], [0.0, 0.0]])
    turned = replace(ik, drift=PolynomialDrift(2, (((-1.0, (0, 1)),),
                                                   ((2.0, (1, 0)),))))
    assert np.array_equal(turned.linear.a_matrix, [[0.0, -1.0], [2.0, 0.0]])
    assert turned.linear.sigma is turned.sigma
    scaled = replace(ik, sigma=3.0 * ik.sigma)
    assert np.array_equal(scaled.linear.sigma, [[0.0], [3.0]])
    assert replace(ik) != ik    # systems compare by identity, not arrays
    squared = replace(ik, drift=PolynomialDrift(2, (((1.0, (0, 2)),), ())))
    assert squared.linear is None
    with pytest.raises(ValueError, match="exact_linear requires"):
        simulate_sde(squared, np.zeros(2), NoisePath(0, 0.1, np.zeros((2, 2))),
                     scheme="exact_linear")


def test_euler_batch_freezes_dead_rows():
    # row 0 leaves x < 1 at node 1; its next increment would bring it back
    # inside, but a dead row stays dead and frozen at its last live state
    br = get_example("brownian")
    system = replace(br.sde, domain_contains=lambda x: x[..., 0] < 1.0)
    inc = np.array([[[2.0], [-2.0], [0.0]], [[0.1], [0.1], [0.1]]])
    states, first_dead = euler_batch(system, np.zeros((2, 1)), inc, 0.1)
    assert first_dead.tolist() == [1, 4]
    assert np.all(states[:, 0, 0] == 0.0)
    assert np.allclose(states[:, 1, 0], [0.0, 0.1, 0.2, 0.3])


def test_exact_linear_path_dies_at_its_first_node_outside_the_domain():
    # Brownian motion, sampled exactly, crosses x < 1 at node 3 and comes
    # back inside at node 4: the path is dead from node 3 on
    br = get_example("brownian")
    system = replace(br.sde, domain_contains=lambda x: x[..., 0] < 1.0)
    inc = np.array([[0.3], [0.3], [0.6], [-0.9], [0.1]])
    path = simulate_sde(system, np.zeros(1), NoisePath(0, 0.25, inc),
                        scheme="exact_linear")
    assert path.explosion_index == 3
    assert path.explosion_time == 0.75
    assert np.allclose(path.states[:3, 0], [0.0, 0.3, 0.6], atol=1e-15)
    assert np.all(np.isnan(path.states[3:]))
    free = simulate_sde(br.sde, np.zeros(1), NoisePath(0, 0.25, inc),
                        scheme="exact_linear")
    assert free.explosion_index is None
    assert np.array_equal(free.states[:3], path.states[:3])


@pytest.mark.parametrize("rows, sigma, degrees", [
    # x0' = x1 x2 reads two driven coordinates: degree 2
    ((((1.0, (0, 1, 1)),), (), ()), [[0.0], [1.0], [1.0]], (2, 1, 1)),
    # an undriven row without monomials stays at its start: degree 0
    ((((1.0, (0, 1)),), ()), [[0.0], [0.0]], (0, 0)),
    # the chain runs against the index: x1' = x0^3, x0 driven
    (((), ((2.0, (3, 0)),)), [[1.0], [0.0]], (1, 3)),
    # x0' = x1^2 + x1 mixes degrees 2 and 1
    ((((1.0, (0, 2)), (1.0, (0, 1))), ()), [[0.0], [1.0]], None),
    # a driven row with a quadratic term mixes its noise's degree 1 with 2
    (((), ((1.0, (2, 0)),)), [[1.0], [1.0]], None),
    # a cycle has no chain to derive along
    ((((1.0, (0, 1)),), ((1.0, (1, 0)),)), [[0.0], [1.0]], None),
])
def test_control_degrees_follow_the_chain(rows, sigma, degrees):
    system = SdeSystem(PolynomialDrift(len(rows), rows), np.array(sigma))
    assert system.degrees == degrees


def test_a_replaced_sigma_derives_its_degrees_again():
    system = SdeSystem(PolynomialDrift(3, (((1.0, (0, 1, 1)),), (), ())),
                       np.array([[0.0], [1.0], [1.0]]))
    assert replace(system, sigma=np.array([[0.0], [0.0], [1.0]])).degrees \
        == (1, 0, 1)
