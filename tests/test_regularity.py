import math
from dataclasses import replace

import numpy as np
import pytest

from lillab import regularity
from lillab.examples import get_example
from lillab.extremals import OptimizerConfig
from lillab.regularity import (DomainSpec, PolygonApprox, cone_criterion,
                               face_parallel_check, polygonalize,
                               reach_target, sphere_criterion)
from lillab.sde import NumericalFailure


def unit_ball(d=2):
    return DomainSpec.ball(np.zeros(d), 1.0)


def test_ball_domain_fields():
    ball = unit_ball()
    assert ball.volume == pytest.approx(math.pi)
    assert ball.convex_flag
    assert ball.implicit_fn(np.zeros(2)) < 0.0
    assert ball.implicit_fn(np.array([2.0, 0.0])) > 0.0
    assert DomainSpec.ball(np.zeros(3), 2.0).volume == pytest.approx(
        32.0 * math.pi / 3.0)


def test_sphere_criterion_score_is_normal_projection():
    # Kolmogorov noise spans e2 only, so the score at a boundary point of
    # the disc is |n2| = |sin(theta)|
    ik = get_example("iterated_kolmogorov", d=2)
    ball = unit_ball()
    for theta in np.linspace(0.1, 2.0 * math.pi - 0.1, 9):
        x = np.array([math.cos(theta), math.sin(theta)])
        verdict = sphere_criterion(ik.sde, ball, x)
        assert verdict.score == pytest.approx(abs(math.sin(theta)), abs=1e-12)
        assert verdict.regular == (abs(math.sin(theta)) > 1e-6)


def test_sphere_criterion_poles_inconclusive():
    ik = get_example("iterated_kolmogorov", d=2)
    ball = unit_ball()
    for x in (np.array([1.0, 0.0]), np.array([-1.0, 0.0])):
        verdict = sphere_criterion(ik.sde, ball, x)
        assert verdict.verdict == "inconclusive"
        assert verdict.score == pytest.approx(0.0, abs=1e-14)


def test_sphere_criterion_needs_boundary_point():
    ik = get_example("iterated_kolmogorov", d=2)
    with pytest.raises(ValueError):
        sphere_criterion(ik.sde, unit_ball(), np.array([0.5, 0.0]))


def test_cone_criterion_feasible():
    # upward noise direction decomposes into the two upward cone edges with
    # coordinates (1/2, 1/2)
    quad = get_example("quadratic")
    basis = np.column_stack([[1.0, 1.0], [-1.0, 1.0]])
    verdict = cone_criterion(quad.sde, unit_ball(), np.array([0.0, 1.0]),
                             basis)
    assert verdict.regular
    assert verdict.score == pytest.approx(0.5, rel=1e-6)
    lam = np.array(verdict.detail["lambda"])
    assert np.allclose(lam, 0.5, atol=1e-8)


def test_cone_criterion_sign_blocked():
    # both edges lean right: no vector of span(e2) has positive cone
    # coordinates, the LP is infeasible
    quad = get_example("quadratic")
    basis = np.column_stack([[1.0, 0.2], [0.5, 0.3]])
    verdict = cone_criterion(quad.sde, unit_ball(), np.array([0.0, 1.0]),
                             basis)
    assert verdict.verdict == "inconclusive"
    assert verdict.detail["lp_status"] == 2


def test_cone_criterion_rotated_near_poles():
    # a cone of half-width atan(0.3) around the outward normal contains the
    # vertical noise direction only while the point stays within that angle
    # of the top or bottom of the circle
    ik = get_example("iterated_kolmogorov", d=2)
    ball = unit_ball()
    for theta in (1.45, 1.68, 4.6, 4.8):
        x = np.array([math.cos(theta), math.sin(theta)])
        n = x
        tangent = np.array([-n[1], n[0]])
        basis = np.column_stack([n + 0.3 * tangent, n - 0.3 * tangent])
        verdict = cone_criterion(ik.sde, ball, x, basis)
        assert verdict.regular, theta
    # same cone away from the poles misses span(e2)
    x = np.array([math.cos(0.5), math.sin(0.5)])
    tangent = np.array([-x[1], x[0]])
    basis = np.column_stack([x + 0.3 * tangent, x - 0.3 * tangent])
    assert not cone_criterion(ik.sde, ball, x, basis).regular


def test_cone_criterion_rejects_dependent_basis():
    quad = get_example("quadratic")
    basis = np.column_stack([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        cone_criterion(quad.sde, unit_ball(), np.array([0.0, 1.0]), basis)


def test_cone_criterion_rejects_interior_ray():
    quad = get_example("quadratic")
    basis = np.column_stack([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        cone_criterion(quad.sde, unit_ball(), np.array([0.0, 1.0]), basis)


def test_reach_closed_form_target():
    # constant unit control reaches (t^2/2, t)
    ik = get_example("iterated_kolmogorov", d=2)
    report = reach_target(ik.limit_problem, np.array([0.5, 1.0]), 1.0)
    assert report.status == "reachable"
    assert report.miss <= 1e-3
    assert report.energy <= 1.0 + 1e-9


def test_reach_unreachable_with_certificate():
    # coordinate 2 is drift free, so |z2| <= ||sigma_2|| sqrt(2 t) = sqrt(2)
    ik = get_example("iterated_kolmogorov", d=2)
    report = reach_target(ik.limit_problem, np.array([0.0, 10.0]), 1.0)
    assert report.status == "unreachable"
    assert report.certificate is not None
    assert report.certificate["kind"] == "drift_free_coordinate_energy_bound"
    assert report.miss > 8.0


def test_reach_certificate_band_is_sound():
    # brute force: no sampled feasible control beats the certified band
    from lillab.controls import ControlGrid, solve_control_ode
    ik = get_example("iterated_kolmogorov", d=2)
    report = reach_target(ik.limit_problem, np.array([0.0, 10.0]), 1.0)
    band = report.certificate["reach_band"]
    best = 0.0
    for stream in range(50):
        u = ControlGrid.random_bandlimited(64, 1, seed=1234, stream=stream,
                                           energy=1.0)
        path = solve_control_ode(ik.limit_problem, u)
        best = max(best, abs(float(path.states[-1, 1])))
    assert best <= band + 1e-9


def test_reach_serialization():
    ik = get_example("iterated_kolmogorov", d=2)
    report = reach_target(ik.limit_problem, np.array([0.5, 1.0]), 1.0)
    doc = report.to_json_dict()
    assert doc["status"] == "reachable"
    assert doc["t"] == 1.0
    assert isinstance(doc["miss"], float)


def test_polygonalize_disc():
    poly = polygonalize(unit_ball(), np.array([0.0, 1.0]), 64, seed=5)
    # vertices live on the circle
    assert np.allclose(np.linalg.norm(poly.vertices, axis=1), 1.0,
                       atol=1e-10)
    assert 0.0 <= poly.deficit
    assert poly.volume <= math.pi + 1e-12
    assert poly.max_halfspace_violation <= 1e-10
    assert face_parallel_check(poly)
    assert np.all(poly.parallel_audit > 1e-12)


def test_polygonalize_deficit_shrinks():
    ball = unit_ball()
    deficits = [polygonalize(ball, np.array([0.0, 1.0]), n, seed=11).deficit
                for n in (8, 64, 512)]
    assert deficits[0] > deficits[1] > deficits[2] > 0.0


def test_polygonalize_seeded():
    ball = unit_ball()
    a = polygonalize(ball, np.array([0.0, 1.0]), 32, seed=9)
    b = polygonalize(ball, np.array([0.0, 1.0]), 32, seed=9)
    assert np.array_equal(a.vertices, b.vertices)
    assert a.to_csv_string() == b.to_csv_string()


def test_polygonalize_sphere_3d():
    ball = unit_ball(3)
    poly = polygonalize(ball, np.array([0.0, 0.0, 1.0]), 256, seed=3)
    assert np.allclose(np.linalg.norm(poly.vertices, axis=1), 1.0,
                       atol=1e-10)
    assert poly.volume <= ball.volume
    assert poly.deficit < 0.25
    assert poly.volume > 3.8


def degenerate_boundary(monkeypatch, bad_seeds):
    """Make _sample_boundary return collinear points for the given seeds;
    returns the list of seeds it was called with."""
    sample = regularity._sample_boundary
    calls = []

    def patched(domain, n, seed, work=None):
        calls.append(seed)
        if seed in bad_seeds:
            return np.column_stack([np.linspace(-1.0, 1.0, n), np.zeros(n)])
        return sample(domain, n, seed, work)

    monkeypatch.setattr(regularity, "_sample_boundary", patched)
    return calls


def test_polygonalize_retries_a_degenerate_sample(monkeypatch):
    ball = unit_ball()
    v = np.array([0.0, 1.0])
    expected = polygonalize(ball, v, 32, seed=22)
    calls = degenerate_boundary(monkeypatch, {21})
    poly = polygonalize(ball, v, 32, seed=21)
    assert calls == [21, 22]
    assert poly.to_json_dict() == expected.to_json_dict()


def test_polygonalize_work_counts_the_ray_calls(monkeypatch):
    # every implicit_fn call of the ray solves is counted once, as a table
    # call while the table is built and as a sample call after that
    evaluated = []
    ball = unit_ball(3)

    def spy(x):
        evaluated.append(len(x))
        return ball.implicit_fn(x)

    body = replace(ball, implicit_fn=spy, volume=None)   # table volume
    evaluated.clear()       # the constructor's own checks
    v = np.array([0.0, 0.0, 1.0])
    cold = polygonalize(body, v, 48, seed=2)
    assert sorted(cold.work) == ["hull_attempts", "ray_points",
                                 "sample_ray_calls", "table_ray_calls"]
    assert cold.work["table_ray_calls"] + cold.work["sample_ray_calls"] \
        == len(evaluated)
    assert cold.work["ray_points"] == sum(evaluated)
    assert cold.work["hull_attempts"] == 1
    evaluated.clear()
    warm = polygonalize(body, v, 48, seed=2)
    assert warm.work == dict(cold.work, table_ray_calls=0,
                             ray_points=sum(evaluated))
    assert warm.work["sample_ray_calls"] == len(evaluated)
    assert warm.to_json_dict() == cold.to_json_dict()
    assert not set(warm.work) & set(warm.to_json_dict())
    assert "ray" not in warm.to_csv_string()
    degenerate_boundary(monkeypatch, {2})
    assert polygonalize(body, v, 48, seed=2).work["hull_attempts"] == 2


def test_polygonalize_gives_up_after_its_retries(monkeypatch):
    seeds = list(range(40, 40 + regularity._HULL_RETRIES))
    calls = degenerate_boundary(monkeypatch, set(seeds))
    with pytest.raises(NumericalFailure,
                       match=f"after {regularity._HULL_RETRIES} seeds"):
        polygonalize(unit_ball(), np.array([0.0, 1.0]), 32, seed=40)
    assert calls == seeds


def test_polygonalize_guards():
    ball = unit_ball()
    with pytest.raises(ValueError):
        polygonalize(ball, np.array([0.0, 1.0]), 2, seed=0)   # n < d + 1
    open_box = DomainSpec(
        implicit_fn=lambda x: float(np.max(np.abs(x))) - 1.0,
        gradient_fn=None,
        bounding_box=np.array([[-1.2, 1.2], [-1.2, 1.2]]),
        convex_flag=False,
        interior_point=np.zeros(2),
    )
    with pytest.raises(ValueError):
        polygonalize(open_box, np.array([0.0, 1.0]), 16, seed=0)


def test_scalar_only_implicit_fn_fails_loudly():
    # a callback that collapses a batch to one value must not be broadcast
    # over every ray or probe point
    scalar_disc = DomainSpec(
        implicit_fn=lambda x: float(np.sum(np.asarray(x) ** 2)) - 1.0,
        gradient_fn=lambda x: 2.0 * np.asarray(x),
        bounding_box=np.array([[-1.25, 1.25], [-1.25, 1.25]]),
        convex_flag=True,
        interior_point=np.zeros(2),
    )
    with pytest.raises(ValueError, match="implicit_fn"):
        polygonalize(scalar_disc, np.array([0.0, 1.0]), 16, seed=0)
    quad = get_example("quadratic")
    basis = np.column_stack([[1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError, match="implicit_fn"):
        cone_criterion(quad.sde, scalar_disc, np.array([0.0, 1.0]), basis)


def test_face_parallel_square_counterexample():
    # axis-aligned square: the two horizontal edges contain e1
    verts = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    normals = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
    v = np.array([1.0, 0.0])
    poly = PolygonApprox(
        vertices=verts, hull_facets=[[0, 1], [1, 2], [2, 3], [3, 0]],
        facet_normals=normals, volume=4.0, domain_volume=4.0, deficit=0.0,
        direction=v, parallel_audit=np.abs(normals @ v),
        max_halfspace_violation=0.0,
    )
    assert not face_parallel_check(poly)
    flagged = np.sum(poly.parallel_audit <= 1e-12)
    assert flagged == 2
    # the same square audited against a generic direction passes
    assert face_parallel_check(poly, np.array([0.3, 1.0]))
