import math
from dataclasses import replace

import numpy as np
import pytest

from lillab.examples import get_example
from lillab.scaling import (EPS_CEILING, AsymptoticIndex, ContractionFamily,
                            check_asymptotic_index, check_contraction_family,
                            default_family_probes, derive_rescaling,
                            driving_scale, eval_index, power_log_from_log,
                            rate_scale, rescale_path,
                            rescaled_sde_system, transformed_coefficients)
from lillab.sde import (ExplosivePath, PolynomialDrift, SdeSystem, _factory,
                        _step_factory, euler_batch, trivial_domain)


def test_rate_scale_boundary():
    # at eps = e^{-e}: log(1/eps) = e, so loglog = 1 exactly
    eps = math.exp(-math.e)
    assert rate_scale(eps * (1.0 - 1e-12)) == pytest.approx(1.0, rel=1e-12)
    assert driving_scale(eps * 0.5) == pytest.approx(
        1.0 / math.sqrt(rate_scale(eps * 0.5)))


def test_power_log_boundary_probe():
    # (l, k) = (1, 1) at eps just below e^{-e}: psi = sqrt(eps)
    eps = math.exp(-math.e) * (1.0 - 1e-12)
    assert power_log_from_log(1, 1, math.log(eps)) == pytest.approx(
        math.sqrt(eps), rel=1e-12)


def test_power_log_k0_is_pure_diffusive():
    for eps in (1e-2, 1e-5, 1e-9):
        assert power_log_from_log(1, 0, math.log(eps)) == pytest.approx(
            math.sqrt(eps), rel=1e-14)


def test_power_log_from_log_matches_direct():
    for ell, k in ((1, 1), (3, 1), (4, 2), (10, 4)):
        for eps in (1e-2, 1e-6, 1e-12):
            direct = math.sqrt(eps**ell * math.log(math.log(1.0 / eps))**k)
            from_log = power_log_from_log(ell, k, math.log(eps))
            assert from_log == pytest.approx(direct, rel=1e-12)
    # usable far below float underflow of eps itself
    v = power_log_from_log(2, 1, -1e6)
    assert v == 0.0 or v < 1e-300


def test_eval_index_monotone_and_positive():
    psi = AsymptoticIndex(((3, 1), (1, 1)))
    grid = np.geomspace(1e-12, 1e-2, 40)
    vals = np.array([eval_index(psi, e) for e in grid])
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals, axis=0) > 0.0)


def test_eval_index_gates():
    psi = AsymptoticIndex(((1, 1),), eps_star=1e-2)
    with pytest.raises(ValueError):
        eval_index(psi, 0.02)
    with pytest.raises(ValueError):
        eval_index(psi, 0.0)
    with pytest.raises(ValueError):
        eval_index(psi, -1e-3)


def test_index_ceiling_enforced():
    with pytest.raises(ValueError):
        AsymptoticIndex(((1, 1),), eps_star=EPS_CEILING * 1.01)
    with pytest.raises(ValueError):
        AsymptoticIndex(((0, 1),))
    with pytest.raises(ValueError):
        AsymptoticIndex(((1, -1),))


def test_contraction_center_fixed_point():
    phi = ContractionFamily(np.array([0.5, -1.0]))
    for alpha in ([1.0, 1.0], [0.2, 3.0], [1e-4, 1e-2]):
        out = phi.apply(np.array(alpha), phi.center)
        assert np.allclose(out, phi.center, atol=0)


def test_contraction_identity_at_unit_index():
    phi = ContractionFamily(np.zeros(3))
    y = np.array([0.3, -1.2, 2.0])
    assert np.array_equal(phi.apply(np.ones(3), y), y)


def test_contraction_inverse_round_trip():
    phi = ContractionFamily(np.array([1.0, 2.0]))
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.uniform(-3, 3, size=2)
        alpha = np.exp(rng.uniform(-6, 0, size=2))
        back = phi.apply(alpha, phi.apply_inverse(alpha, y))
        assert np.allclose(back, y, rtol=1e-12, atol=1e-12)


def test_shifted_family_fixes_its_center_not_origin():
    center = np.array([1.0, 2.0])
    phi = ContractionFamily(center)
    alpha = np.array([0.1, 0.4])
    assert np.allclose(phi.apply(alpha, center), center)
    assert not np.allclose(phi.apply(alpha, np.zeros(2)), np.zeros(2))


def test_rescale_path_constant_center():
    ik = get_example("iterated_kolmogorov", d=2)
    t = np.linspace(0.0, 1e-3, 9)
    const = ExplosivePath(t, np.zeros((9, 2)))
    out = rescale_path(const, ik.contraction, ik.index, 1e-3)
    assert np.allclose(out.states, 0.0, atol=0)
    assert out.horizon == pytest.approx(1.0)


def test_rescale_path_ik_display():
    # y1 = x1 / sqrt(eps^3 L), y2 = x2 / sqrt(eps L)
    ik = get_example("iterated_kolmogorov", d=2)
    eps = 1e-4
    big_l = rate_scale(eps)
    t = np.linspace(0.0, eps, 33)
    states = np.column_stack([t**2, np.sin(t / eps)])
    path = ExplosivePath(t, states)
    out = rescale_path(path, ik.contraction, ik.index, eps)
    expect1 = states[:, 0] / math.sqrt(eps**3 * big_l)
    expect2 = states[:, 1] / math.sqrt(eps * big_l)
    assert np.allclose(out.states[:, 0], expect1, rtol=1e-12)
    assert np.allclose(out.states[:, 1], expect2, rtol=1e-12)
    assert np.allclose(out.times, t / eps, rtol=1e-14)


def test_rescale_path_carries_explosion():
    ik = get_example("iterated_kolmogorov", d=2)
    t = np.linspace(0.0, 1e-3, 9)
    states = np.ones((9, 2))
    states[6:] = np.nan
    path = ExplosivePath(t, states, explosion_index=6)
    out = rescale_path(path, ik.contraction, ik.index, 1e-3)
    assert out.explosion_index == 6
    assert np.all(np.isnan(out.states[6:]))


def test_shifted_kolmogorov_detrended_rescale():
    # rescale_path takes the deviation Z = X - center - t trend and adds
    # center + s trend back at the rescaled time s: a path that keeps to
    # the trend (Z = 0) rescales to the trend itself, bit for bit, and
    # Z / alpha rides on it
    sk = get_example("shifted_kolmogorov")
    eps = 1e-4
    t = np.linspace(0.0, eps, 17)
    phi = sk.contraction
    trend = phi.center + np.outer(t / eps, phi.drift_vector)
    out = rescale_path(ExplosivePath(t, np.zeros((17, 2))), phi, sk.index,
                       eps)
    assert np.array_equal(out.states, trend)
    z = np.column_stack([t**2, np.sin(t / eps)])
    out = rescale_path(ExplosivePath(t, z), phi, sk.index, eps)
    assert np.array_equal(out.states,
                          trend + z / eval_index(sk.index, eps))


def test_transformed_coefficients_linear_invariance():
    # Kolmogorov drift is linear and the index is tuned to it, so b_eps = b
    ik = get_example("iterated_kolmogorov", d=2)
    for eps in (1e-3, 1e-6):
        resc = transformed_coefficients(ik.sde, ik.contraction, ik.index, eps)
        for y in ([0.2, -1.0], [1.5, 0.7], [0.0, 0.0]):
            y = np.array(y)
            assert np.allclose(resc.drift(y), ik.sde.drift(y),
                               rtol=1e-12, atol=1e-12)


def test_transformed_coefficients_quadratic_display():
    quad = get_example("quadratic")
    eps = 1e-3
    big_l = rate_scale(eps)
    resc = transformed_coefficients(quad.sde, quad.contraction, quad.index, eps)
    for y in ([0.5, -0.3], [1.0, 1.0], [-2.0, 0.25]):
        y1, y2 = y
        expect = np.array([eps**3 * big_l * y1**2 - y2**2,
                           2.0 * eps**3 * big_l * y1 * y2])
        assert np.allclose(resc.drift(np.array(y)), expect, rtol=1e-11)


def test_transformed_coefficients_brownian_identity_diffusion():
    br = get_example("brownian")
    eps = 1e-4
    resc = transformed_coefficients(br.sde, br.contraction, br.index, eps)
    y = np.array([0.7])
    assert np.allclose(resc.drift(y), 0.0, atol=0)
    assert np.allclose(resc.sigma, np.eye(1), rtol=1e-12)


def test_rescaled_system_damps_driver():
    br = get_example("brownian")
    eps = 1e-4
    sim = rescaled_sde_system(br.sde, br.contraction, br.index, eps)
    expect = 1.0 / math.sqrt(rate_scale(eps))
    assert np.allclose(sim.sigma, expect, rtol=1e-12)


@pytest.mark.parametrize("name", ["brownian", "iterated_kolmogorov",
                                  "quadratic", "lorenz96"])
def test_rescaled_systems_keep_the_trivial_domain(name):
    # sde.alive skips the domain call only for trivial_domain
    example = get_example(name)
    assert example.sde.domain_contains is trivial_domain
    eps = 1e-4
    for system in (
            transformed_coefficients(example.sde, example.contraction,
                                     example.index, eps),
            rescaled_sde_system(example.sde, example.contraction,
                                example.index, eps)):
        assert system.domain_contains is trivial_domain


def test_a_domain_is_pulled_back_to_the_rescaled_coordinates():
    # y is in the rescaled domain iff alpha y is in the original one (a
    # domain is rescaled around 0 only: require_autonomous)
    ik = get_example("iterated_kolmogorov")
    system = replace(ik.sde, domain_contains=lambda x:
                     x[..., 0] + 2.0 * x[..., 1] ** 2 < 0.31)
    eps = 1e-3
    alpha = eval_index(ik.index, eps)
    y = np.random.default_rng(5).uniform(-1.0, 1.0, (400, 2)) / alpha
    for resc in (
            transformed_coefficients(system, ik.contraction, ik.index, eps),
            rescaled_sde_system(system, ik.contraction, ik.index, eps)):
        inside = resc.domain_contains(y)
        assert np.array_equal(inside, system.domain_contains(alpha * y))
        assert 0 < inside.sum() < len(y)


@pytest.mark.parametrize("name", ["brownian", "iterated_kolmogorov",
                                  "quadratic", "lorenz96",
                                  "shifted_kolmogorov"])
def test_rescaled_families_are_tables(name):
    # the rescaled drift of the deviation keeps the monomials of b, around
    # any center, sigma_eps is a row scale of sigma, and a linear table
    # stays linear
    example = get_example(name)
    eps = 1e-6
    resc = transformed_coefficients(example.sde, example.contraction,
                                    example.index, eps)
    alpha = eval_index(example.index, eps)
    assert isinstance(resc.drift, PolynomialDrift)
    assert np.array_equal(resc.sigma, math.sqrt(eps * rate_scale(eps))
                          * example.sde.sigma / alpha[:, None])
    for row, written in zip(resc.drift.rows, example.sde.drift.rows):
        assert [e for _, e in row] == [e for _, e in written]
    assert (resc.linear is None) == (example.sde.linear is None)


def test_a_family_rescaled_at_a_new_eps_compiles_nothing():
    # the tables at each eps share one shape, so the generated sources (the
    # drift's and its Euler step's) are executed once and every later eps
    # only binds its coefficients
    example = get_example("lorenz96")
    x0 = example.contraction.center[None]
    inc = np.zeros((1, 3, example.sde.dim_noise))

    def step_at(eps):
        euler_batch(transformed_coefficients(
            example.sde, example.contraction, example.index, eps), x0, inc,
            0.1)

    step_at(1e-3)
    misses = _factory.cache_info().misses, _step_factory.cache_info().misses
    for eps in (2e-3, 1e-5, 1e-9):
        step_at(eps)
    assert (_factory.cache_info().misses,
            _step_factory.cache_info().misses) == misses


@pytest.mark.parametrize("k", range(2, 13))
def test_shifted_kolmogorov_coefficients_are_the_limit_pair(k):
    # the deviation of a linear drift has b_eps(y) = eps * b(alpha y) /
    # alpha = L(y) up to the rounding of eps alpha_1 / alpha_0, whose
    # relative error grows with |log eps| (alpha is an exp)
    eps = 10.0 ** -k
    sk = get_example("shifted_kolmogorov")
    y = np.random.default_rng(k).uniform(-2.0, 2.0, size=(4096, 2))
    resc = transformed_coefficients(sk.sde, sk.contraction, sk.index, eps)
    ulps = 4 + abs(math.log(eps))
    limit = sk.limit_problem.system
    assert np.all(np.abs(resc.drift(y) - limit.drift(y))
                  <= ulps * np.spacing(3.0))
    assert np.all(np.abs(resc.sigma - limit.sigma)
                  <= ulps * np.spacing(1.0))


def test_transformed_coefficients_rejects_a_trend_it_cannot_transform():
    sk = get_example("shifted_kolmogorov")
    quad = get_example("quadratic")
    ik3 = get_example("iterated_kolmogorov", d=3)
    cases = [
        # a nonlinear drift, with b(c) = v = (-1, 0) at c = (0, 1)
        (quad, ContractionFamily(np.array([0.0, 1.0]), np.array([-1.0, 0.0]))),
        # a nonlinear drift around a center, with no trend
        (quad, ContractionFamily(np.array([0.0, 1.0]))),
        # a domain
        (replace(sk, sde=replace(sk.sde, domain_contains=lambda x:
                                 x[..., 0] < 5.0)), sk.contraction),
        # v != b(c) in the row without noise: eps (b_0(c) - v_0) / alpha_0
        # would grow without bound
        (sk, ContractionFamily(np.ones(2), np.array([2.0, 0.0]))),
        # b(c) = v = (0, 1, 0), but x0' = x1 reads the coordinate v moves
        (ik3, ContractionFamily(np.array([0.0, 0.0, 1.0]),
                                np.array([0.0, 1.0, 0.0]))),
    ]
    for example, phi in cases:
        with pytest.raises(ValueError, match="a center or a trend needs|"
                           "trend must be b\\(center\\)"):
            transformed_coefficients(example.sde, phi, example.index, 1e-3)


def test_a_trend_off_b_of_the_center_is_refused():
    # x0' = x1, x1' = 0.5 with x1 driven, around c = (0, 1) with the trend
    # v = (1, 0) = b(c) in row 0 only: X - c - t v would drift by b_1(c) -
    # v_1 = 0.5 in the driven row, and b is not linear, so the deviation
    # does not follow the SDE from 0 (around 0 the driven row's constant
    # scales away: test_brownian_motion_with_drift_builds)
    drift = PolynomialDrift(2, (((1.0, (0, 1)),), ((0.5, (0, 0)),)))
    sigma = np.array([[0.0], [1.0]])
    index, _ = derive_rescaling(SdeSystem(drift, sigma))
    c, v = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="a center or a trend needs"):
        transformed_coefficients(SdeSystem(drift, sigma),
                                 ContractionFamily(c, v), index, 1e-3)
    # the same constant in the row without noise would grow like
    # eps^(-1/2), around c with the trend v as around 0 with none
    lifted = SdeSystem(PolynomialDrift(2, (((1.0, (0, 1)), (0.5, (0, 0))),
                                           ())), sigma)
    for phi in (ContractionFamily(c, v), ContractionFamily(np.zeros(2))):
        with pytest.raises(ValueError, match=r"coordinates \[0\] differ"):
            transformed_coefficients(lifted, phi, index, 1e-3)


def test_eval_index_raises_when_alpha_underflows():
    # sqrt(1e-2^l) = 1e-l: normal at l = 307, subnormal at 310, 0 at 400
    assert eval_index(AsymptoticIndex(((1, 1), (307, 0))), 1e-2)[1] \
        == pytest.approx(1e-307)
    for ell in (310, 400):
        psi = AsymptoticIndex(((1, 1), (ell, 0)))
        with pytest.raises(ValueError,
                           match="alpha underflows at eps=0.01: coordinate 1"):
            eval_index(psi, 1e-2)


def test_a_constant_term_in_an_undriven_row_raises():
    # x0' = 1 + x1 with x1 driven: eps * 1 / alpha_0 grows like eps^(-1/2)
    drift = PolynomialDrift(2, (((1.0, (0, 0)), (1.0, (0, 1))), ()))
    with pytest.raises(ValueError, match="coordinate 0 has a constant"):
        derive_rescaling(SdeSystem(drift, np.array([[0.0], [1.0]])))
    # in a driven row it scales away: eps / sqrt(eps loglog) -> 0
    drift = PolynomialDrift(2, (((1.0, (0, 1)),), ((1.0, (0, 0)),)))
    index, limit = derive_rescaling(SdeSystem(drift, np.array([[0.0], [1.0]])))
    assert index.exponents == ((3, 1), (1, 1))
    assert limit.drift.rows == (((1.0, (0, 1)),), ())


def test_family_checker_accepts_diagonal():
    phi = ContractionFamily(np.zeros(2))
    samples, alphas = default_family_probes(2, seed=1)
    report = check_contraction_family(phi, samples, alphas)
    assert report.passed
    assert report.name == "contraction_family"


def test_family_checker_rejects_amplifying_family():
    # y -> alpha * y grows with the index, violating monotone contraction
    class Amplifier:
        center = np.zeros(2)

        def apply(self, alpha, y):
            return np.asarray(y) * np.asarray(alpha)

        def apply_inverse(self, alpha, y):
            return np.asarray(y) / np.asarray(alpha)

    samples, alphas = default_family_probes(2, seed=1)
    report = check_contraction_family(Amplifier(), samples, alphas)
    assert not report.passed
    assert report.worst["property"] == "monotone_contraction"


def test_index_checker_unit_exponent_bracket():
    psi = AsymptoticIndex(((1, 1),))
    report = check_asymptotic_index(psi, 0.99, (1000, 10000), 0.02)
    assert report.passed
    assert report.worst["max_deviation"] < 0.02


def test_index_checker_k0_limit():
    # with k = 0 the bracket ratio is exactly c^{-l/2}
    psi = AsymptoticIndex(((1, 0),))
    c = 0.9
    report = check_asymptotic_index(psi, c, (100, 140), 1.0)
    expect = c**-0.5 - 1.0
    for row in report.table:
        assert row["deviation"] == pytest.approx(expect, rel=1e-12)


def test_index_checker_deviation_shrinks_as_c_grows():
    psi = AsymptoticIndex(((1, 1),))
    devs = []
    for c in (0.9, 0.99, 0.999):
        j0 = int(math.ceil(math.log(psi.eps_star) / math.log(c))) + 1
        report = check_asymptotic_index(psi, c, (j0, j0 + 50), 1.0)
        devs.append(report.worst["max_deviation"])
    assert devs[0] > devs[1] > devs[2]


def test_index_checker_rejects_invalid_bracket():
    psi = AsymptoticIndex(((1, 1),))
    with pytest.raises(ValueError):
        # c^0 = 1 >= 1/e: outside the validity range of loglog
        check_asymptotic_index(psi, 0.5, (0, 3), 0.1)
