"""Boundary regularity certificates and attainability probes.

A boundary point of an open set V is declared "regular" when a noise
direction of the diffusion demonstrably pushes the path out of V
immediately: either a range vector of the diffusion matrix crosses the
outward normal (exterior sphere test) or one lies inside a given exterior
cone (exterior cone test, decided by a small linear program).  Both tests
are sufficient conditions, so the complementary verdict is always
"inconclusive", never "irregular".

The module also probes the attainability set of the limit control ODE
(reach_target) and builds random convex-hull approximations of a convex
body from boundary samples (polygonalize), with a facet audit against a
distinguished direction.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .controls import ControlGrid, LimitOdeProblem
from .extremals import OptimizerConfig, QuadraticMissFunctional, optimize_extremal
from .sde import NumericalFailure, SdeSystem, _philox


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """Open set V given implicitly: implicit_fn < 0 inside, = 0 on the boundary.

    implicit_fn maps points (..., d) to values (...), broadcasting over
    leading axes like LimitOdeProblem.limit_drift: the boundary ray casts
    and the cone probe call it once on a whole batch of points, and raise
    ValueError when the result does not have the batch's shape.
    gradient_fn returns an outward direction (unnormalized) on the boundary.
    bounding_box is a (d, 2) array of [low, high] per coordinate and must
    contain V with its corners outside; interior_point witnesses the sign
    convention.  volume, when known analytically, short-circuits quadrature
    in polygonalize.
    """

    implicit_fn: Callable[[np.ndarray], np.ndarray]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    bounding_box: np.ndarray
    interior_point: np.ndarray
    convex_flag: bool = False
    volume: Optional[float] = None

    def __post_init__(self):
        box = np.asarray(self.bounding_box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2 or np.any(box[:, 0] >= box[:, 1]):
            raise ValueError("bounding_box must be (d, 2) with low < high")
        object.__setattr__(self, "bounding_box", box)
        w = np.asarray(self.interior_point, dtype=float)
        if w.shape != (box.shape[0],):
            raise ValueError("interior_point must be a d-vector")
        object.__setattr__(self, "interior_point", w)
        if not self.implicit_fn(w) < 0.0:
            raise ValueError("implicit_fn must be negative at the witness")
        for corner in _box_corners(box):
            if not self.implicit_fn(corner) > 0.0:
                raise ValueError(
                    "implicit_fn must be positive at bounding box corners")

    @property
    def dim(self) -> int:
        return self.bounding_box.shape[0]

    @classmethod
    def ball(cls, center, radius: float) -> "DomainSpec":
        center = np.asarray(center, dtype=float)
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        d = center.shape[0]
        box = np.stack([center - 1.25 * radius, center + 1.25 * radius], axis=1)
        if d == 2:
            vol = math.pi * radius**2
        elif d == 3:
            vol = 4.0 / 3.0 * math.pi * radius**3
        else:
            vol = None
        return cls(
            implicit_fn=lambda x: np.sum(
                (np.asarray(x, dtype=float) - center) ** 2,
                axis=-1) - radius**2,
            gradient_fn=lambda x: 2.0 * (np.asarray(x, dtype=float) - center),
            bounding_box=box,
            convex_flag=True,
            interior_point=center,
            volume=vol,
        )


def _box_corners(box: np.ndarray) -> np.ndarray:
    d = box.shape[0]
    grids = np.meshgrid(*[box[i] for i in range(d)], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@dataclass(frozen=True, eq=False)
class RegularityVerdict:
    """Outcome of a boundary test: 'regular' is a positive certificate only."""

    verdict: str              # "regular" | "inconclusive"
    criterion: str            # "exterior_sphere" | "exterior_cone"
    point: np.ndarray
    score: float              # ||P n|| resp. attained coordinate margin
    tolerance: float
    detail: dict

    @property
    def regular(self) -> bool:
        return self.verdict == "regular"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "criterion": self.criterion,
            "point": [float(v) for v in self.point],
            "score": float(self.score),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


_BOUNDARY_TOLERANCE = 1e-8   # |implicit_fn| / (1 + max |x_i|) on the boundary


def _boundary_normal(domain: DomainSpec, x: np.ndarray) -> np.ndarray:
    val = float(domain.implicit_fn(x))
    scale = 1.0 + float(np.max(np.abs(x)))
    if abs(val) > _BOUNDARY_TOLERANCE * scale:
        raise ValueError(
            f"point is not on the boundary (implicit_fn = {val:.3g})")
    grad = np.asarray(domain.gradient_fn(x), dtype=float)
    norm = float(np.linalg.norm(grad))
    if norm <= 0.0 or not np.isfinite(norm):
        raise NumericalFailure("gradient_fn vanishes on the boundary", state=x)
    return grad / norm


def _range_basis(sigma: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space (rank by relative SVD cutoff)."""
    u, s, _ = np.linalg.svd(sigma, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return u[:, :0]
    rank = int(np.sum(s > 1e-12 * s[0]))
    return u[:, :rank]


def sphere_criterion(system: SdeSystem, domain: DomainSpec, x,
                     tolerance: float = 1e-6) -> RegularityVerdict:
    """Exterior sphere test: regular iff range(sigma) crosses the normal.

    The caller asserts the exterior sphere condition at x (automatic for
    convex domains).  The test projects the outward unit normal onto the
    column space of the diffusion matrix; a projection norm above tolerance
    certifies a noise direction with positive outward component.
    """
    x = np.asarray(x, dtype=float)
    n = _boundary_normal(domain, x)
    basis = _range_basis(system.sigma)
    score = float(np.linalg.norm(basis.T @ n))
    verdict = "regular" if score > tolerance else "inconclusive"
    return RegularityVerdict(
        verdict=verdict, criterion="exterior_sphere", point=x, score=score,
        tolerance=tolerance,
        detail={"normal": [float(v) for v in n],
                "diffusion_rank": int(basis.shape[1])},
    )


def cone_criterion(system: SdeSystem, domain: DomainSpec, x,
                   cone_basis, tolerance: float = 1e-6) -> RegularityVerdict:
    """Exterior cone test via a max-margin linear program.

    cone_basis columns span Cone(x; x_1..x_d) = {x + sum lambda_i x_i,
    lambda >= 0}.  Regular iff some w in range(sigma) equals B lambda
    with strictly positive coordinates; the LP maximizes min_i lambda_i
    under the scale normalization sum lambda = 1 and the verdict needs the
    attained margin >= tolerance (margins are O(1) after normalization, so
    solver feasibility noise cannot fake a certificate).  The caller
    asserts the cone lies outside the closure of V; a probe along a few
    rays rejects blatant violations with ValueError.
    """
    x = np.asarray(x, dtype=float)
    _boundary_normal(domain, x)  # validates the point
    basis_mat = np.asarray(cone_basis, dtype=float)
    d = domain.dim
    if basis_mat.shape != (d, d):
        raise ValueError("cone_basis must be a (d, d) matrix of columns")
    if abs(np.linalg.det(basis_mat)) < 1e-12 * np.linalg.norm(basis_mat) ** d:
        raise ValueError("cone_basis vectors are linearly dependent")

    diam = float(np.max(domain.bounding_box[:, 1] - domain.bounding_box[:, 0]))
    rng = _philox(20240117, 5)
    rays = np.vstack([np.eye(d), np.ones((1, d)),
                      rng.uniform(0.1, 1.0, size=(8, d))])
    w = np.matmul(basis_mat, rays[:, :, None])[:, :, 0]
    nw = _row_norms(w)
    w, nw = w[nw != 0.0], nw[nw != 0.0]
    steps = np.array([1e-6, 1e-3, 1e-1]) * diam / nw[:, None]
    probes = x + steps[:, :, None] * w[:, None, :]
    if np.any(_implicit_values(domain, probes) < -_BOUNDARY_TOLERANCE):
        raise ValueError("cone ray enters the domain; not an exterior cone")

    range_basis = _range_basis(system.sigma)
    rank = range_basis.shape[1]
    if rank == 0:
        return RegularityVerdict(
            verdict="inconclusive", criterion="exterior_cone", point=x,
            score=0.0, tolerance=tolerance,
            detail={"reason": "zero diffusion at the point"},
        )
    # variables (c, lambda, t): maximize t subject to
    #   U c - B lambda = 0,  sum lambda = 1,  lambda_i >= t >= 0
    n_var = rank + d + 1
    a_eq = np.zeros((d + 1, n_var))
    a_eq[:d, :rank] = range_basis
    a_eq[:d, rank:rank + d] = -basis_mat
    a_eq[d, rank:rank + d] = 1.0
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1.0
    a_ub = np.zeros((d, n_var))
    a_ub[:, rank:rank + d] = -np.eye(d)
    a_ub[:, -1] = 1.0
    cost = np.zeros(n_var)
    cost[-1] = -1.0
    bounds = [(None, None)] * rank + [(0.0, 1.0)] * d + [(0.0, 1.0)]
    from scipy.optimize import linprog
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(d), A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    margin = float(res.x[-1]) if res.status == 0 else 0.0
    if res.status == 0 and margin >= tolerance:
        lam = res.x[rank:rank + d]
        verdict, score = "regular", margin
        detail = {"lambda": [float(v) for v in lam],
                  "w": [float(v) for v in basis_mat @ lam]}
    else:
        verdict, score = "inconclusive", margin
        detail = {"reason": "no diffusion range vector with positive cone "
                            "coordinates", "lp_status": int(res.status)}
    return RegularityVerdict(
        verdict=verdict, criterion="exterior_cone", point=x, score=score,
        tolerance=tolerance, detail=detail,
    )


# ---------------------------------------------------------------------------
# Attainability probing

@dataclass(frozen=True, eq=False)
class ReachabilityReport:
    """Verdict of a target-reaching search over the energy ball.

    status "reachable" carries the found control; "unreachable" carries the
    best miss and, when one fires, an analytic energy-bound certificate;
    "indeterminate" marks optimizer non-convergence without certificate.
    """

    status: str
    target: np.ndarray
    t: float
    miss: float                     # Euclidean terminal distance attained
    tolerance: float
    control: Optional[ControlGrid]
    energy: float
    certificate: Optional[dict]

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "target": [float(v) for v in self.target],
            "t": float(self.t),
            "miss": float(self.miss),
            "tolerance": float(self.tolerance),
            "energy": float(self.energy),
            "certificate": self.certificate,
            "control": None if self.control is None
            else self.control.values.tolist(),
        }


def _energy_certificate(problem: LimitOdeProblem, z: np.ndarray,
                        t: float) -> Optional[dict]:
    """Unreachability bound for drift-free coordinates.

    If coordinate i has no monomial in the limit drift's table then
    x_i(t) - x0_i = int_0^t (sigma u)_i ds, and Cauchy-Schwarz with the
    energy bound (1/2) int |u|^2 <= 1 gives |x_i(t) - x0_i| <= |sigma_i|
    sqrt(2 t).  A target beyond that band is unreachable regardless of
    optimizer outcome.
    """
    sigma = problem.constant_diffusion
    for i, row in enumerate(problem.limit_drift.rows):
        if row:
            continue
        bound = float(np.linalg.norm(sigma[i])) * math.sqrt(2.0 * t)
        gap = abs(float(z[i] - problem.x0[i]))
        if gap > bound * (1.0 + 1e-12):
            return {
                "kind": "drift_free_coordinate_energy_bound",
                "coordinate": i,
                "reach_band": bound,
                "target_offset": gap,
            }
    return None


# Optimizer settings of reach_target when the caller passes none.
REACH_CONFIG = OptimizerConfig(n_steps=256, n_restarts=6, max_iters=200)


def reach_target(problem: LimitOdeProblem, z, t: float,
                 config: Optional[OptimizerConfig] = None,
                 tolerance: float = 1e-3) -> ReachabilityReport:
    """Probe whether the limit ODE can hit z at time t within the energy ball.

    Minimizes the squared terminal miss with the extremal optimizer; the
    verdict is "reachable" when the attained Euclidean miss is below
    tolerance.  A fired energy certificate makes the verdict "unreachable"
    no matter what the optimizer returned.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (problem.dim_state,):
        raise ValueError("target must be a state-space vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("target must be finite")
    if not 0.0 < t <= problem.t_star:
        raise ValueError("time must lie in (0, t_star]")
    config = config or REACH_CONFIG
    clipped = replace(problem, t_star=float(t))
    result = optimize_extremal(clipped, QuadraticMissFunctional(z),
                               sense="min", config=config)
    miss = math.sqrt(max(result.value, 0.0))
    certificate = _energy_certificate(problem, z, t)

    if certificate is not None:
        status = "unreachable"
    elif not result.convergence_flag:
        status = "indeterminate"
    elif miss <= tolerance:
        status = "reachable"
    else:
        status = "unreachable"
    return ReachabilityReport(
        status=status, target=z, t=float(t), miss=miss, tolerance=tolerance,
        control=result.argext if status == "reachable" else None,
        energy=float(result.argext.energy()), certificate=certificate,
    )


# ---------------------------------------------------------------------------
# Boundary sampling and convex-hull polygonalization

_CURVE_NODES = 8192     # d=2 boundary polyline resolution
_SPHERE_SUBDIV = 4      # d=3 icosphere subdivision level

_BRENT_XTOL = 1e-14     # boundary ray tolerances, as brentq's xtol, rtol
_BRENT_RTOL = 1e-15
_BRENT_MAXITER = 100    # brentq's default iteration cap

_HULL_RETRIES = 5       # seeds polygonalize tries before giving up

_boundary_tables: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _implicit_values(domain: DomainSpec, points: np.ndarray) -> np.ndarray:
    """implicit_fn on a batch of points (..., d), checked to return (...)."""
    vals = np.asarray(domain.implicit_fn(points), dtype=float)
    if vals.shape != points.shape[:-1]:
        raise ValueError(
            f"implicit_fn must map points (..., d) to values (...): got "
            f"shape {vals.shape} for a batch of shape {points.shape}")
    return vals


def _ray_roots(domain: DomainSpec, dirs: np.ndarray, start=None,
               work: Optional[dict] = None,
               calls: Optional[str] = None) -> np.ndarray:
    """Distance from the interior witness to the boundary along each dirs row.

    scipy's brentq (Brent 1973, ch. 4, as in scipy's brentq.c) run in
    lockstep over all rays: the same flip, swap, interpolate, extrapolate and
    bisect branches, the same +-delta minimum step and tolerances, so every
    root has brentq's bits.  A ray leaves the active set when it converges,
    and each iteration calls implicit_fn once on the active rays' points.

    Every ray brackets its root by [0, s_hi], s_hi the box diagonal.  With
    start (one distance per ray), a ray whose implicit_fn is negative at
    c + start * u is solved from [start, s_hi] instead, a bracket that is
    already tight when start is a chordal radius; every other ray, where
    implicit_fn(c + start * u) >= 0 (a flat face or rounding put the point
    on or over the boundary), keeps [0, s_hi].  Either way the root equals
    brentq(f, a, s_hi, xtol=1e-14, rtol=1e-15) for the ray's lower end a.
    With a work dict, each implicit_fn call adds one to work[calls] and the
    number of its points to work["ray_points"].
    """
    c = domain.interior_point
    box = domain.bounding_box
    # the boundary lies before the box surface in every direction
    s_hi = float(np.linalg.norm(box[:, 1] - box[:, 0]))
    m = dirs.shape[0]

    def f(s, u):
        vals = _implicit_values(domain, c + s[:, None] * u)
        if np.isnan(vals).any():
            raise ValueError("implicit_fn is nan on a ray; solver cannot "
                             "continue")
        if work is not None:
            work[calls] += 1
            work["ray_points"] += len(s)
        return vals

    xcur = np.full(m, s_hi)
    fcur = f(xcur, dirs)
    if np.any(fcur <= 0.0):
        raise NumericalFailure("bounding box does not contain the domain")
    xpre = np.zeros(m)
    fpre = f(xpre, dirs)
    if not np.all(fpre < 0.0):
        raise ValueError("implicit_fn must be negative at the witness")
    if start is not None:
        fstart = f(start, dirs)
        warm = fstart < 0.0
        xpre = np.where(warm, start, xpre)
        fpre = np.where(warm, fstart, fpre)
    xblk, fblk, spre, scur = np.zeros(m), np.zeros(m), np.zeros(m), np.zeros(m)
    roots = np.empty(m)
    act = np.arange(m)
    for _ in range(_BRENT_MAXITER):
        flip = (fpre != 0.0) & (fcur != 0.0) \
            & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre),
                            np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre),
                            np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (_BRENT_XTOL + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            roots[act[done]] = xcur[done]
            keep = ~done
            act = act[keep]
            (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
             sbis) = (v[keep] for v in (xpre, xcur, xblk, fpre, fcur, fblk,
                                        spre, scur, delta, sbis))
        if act.size == 0:
            return roots

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) \
                / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        short = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) \
            & (2 * np.abs(stry) < np.minimum(np.abs(spre),
                                             3 * np.abs(sbis) - delta))
        spre = np.where(short, scur, sbis)
        scur = np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = f(xcur, dirs[act])
    raise RuntimeError(
        f"boundary ray failed to converge after {_BRENT_MAXITER} iterations")


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of v (m, d), bitwise np.linalg.norm(row).

    A stacked (1, d) @ (d, 1) matmul takes the dot-product path that
    norm(row) takes; einsum and norm(axis=1) sum in another order and
    differ from it in the last bit on some rows.
    """
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _icosphere(subdiv: int):
    """Subdivided icosahedron directions and faces on the unit sphere.

    Each level splits every face (a, b, c) into (a, ab, ca), (b, bc, ab),
    (c, ca, bc), (ab, bc, ca) and numbers each new edge midpoint in the
    order its edge first appears in the face list, scanning ab, bc, ca.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ], dtype=float)
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=int)
    verts = _unit_rows(verts)
    for _ in range(subdiv):
        edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = edges.min(axis=1) * len(verts) + edges.max(axis=1)
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        ends = edges[first[order]]
        mids = len(verts) + rank[inverse].reshape(-1, 3)
        verts = np.vstack([verts, _unit_rows(
            0.5 * (verts[ends[:, 0]] + verts[ends[:, 1]]))])
        (a, b, c), (ab, bc, ca) = faces.T, mids.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    return verts, faces


def _boundary_table(domain: DomainSpec, work: Optional[dict] = None) -> dict:
    """Cached boundary discretization: polyline (d=2) or surface mesh (d=3).

    Its rays start at the witness (bracket [0, s_hi]); a build counts its
    implicit_fn calls in work["table_ray_calls"], a cache hit counts none.
    """
    table = _boundary_tables.get(domain)
    if table is not None:
        return table
    d = domain.dim
    c = domain.interior_point
    if d == 2:
        theta = 2.0 * math.pi * np.arange(_CURVE_NODES + 1) / _CURVE_NODES
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        radii = _ray_roots(domain, dirs[:-1], work=work,
                           calls="table_ray_calls")
        radii = np.append(radii, radii[0])
        pts = c + radii[:, None] * dirs
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        cumlen = np.concatenate([[0.0], np.cumsum(seg)])
        # shoelace area of the inscribed polyline
        x, y = pts[:, 0], pts[:, 1]
        area = 0.5 * abs(float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])))
        table = {"points": pts, "cumlen": cumlen, "quad_volume": area}
    elif d == 3:
        dirs, faces = _icosphere(_SPHERE_SUBDIV)
        radii = _ray_roots(domain, dirs, work=work, calls="table_ray_calls")
        pts = c + radii[:, None] * dirs
        p0, p1, p2 = pts[faces[:, 0]], pts[faces[:, 1]], pts[faces[:, 2]]
        cross = np.cross(p1 - p0, p2 - p0)
        areas = 0.5 * np.linalg.norm(cross, axis=1)
        vol = float(np.sum(np.abs(np.einsum(
            "ij,ij->i", p0 - c, np.cross(p1 - c, p2 - c)))) / 6.0)
        table = {"points": pts, "faces": faces, "areas": areas,
                 "area_cdf": np.cumsum(areas) / np.sum(areas),
                 "quad_volume": vol}
    else:
        raise ValueError("boundary sampling implemented for d in {2, 3}")
    _boundary_tables[domain] = table
    return table


def _sample_boundary(domain: DomainSpec, n: int, seed: int,
                     work: Optional[dict] = None) -> np.ndarray:
    """n points from the boundary measure, re-projected onto the boundary.

    A sample first lands on a chord of the boundary table (a segment of the
    polyline or a point of a mesh triangle), then moves along its ray from
    the witness c to the boundary.  The table nodes are boundary points, so
    for a convex body the chord lies in its closure: the chordal radius
    |p - c| is at most the root, and the ray solve starts there.  Where the
    chord point is on or over the boundary (a flat face, rounding), the
    ray falls back to the full bracket from the witness (see _ray_roots).
    """
    table = _boundary_table(domain, work)
    rng = _philox(seed, 97)
    c = domain.interior_point
    if domain.dim == 2:
        cumlen, nodes = table["cumlen"], table["points"]
        s = rng.uniform(0.0, cumlen[-1], size=n)
        idx = np.clip(np.searchsorted(cumlen, s) - 1, 0, len(nodes) - 2)
        frac = ((s - cumlen[idx]) / (cumlen[idx + 1] - cumlen[idx]))[:, None]
        pts = (1 - frac) * nodes[idx] + frac * nodes[idx + 1]
    else:
        faces = table["faces"]
        pick = np.searchsorted(table["area_cdf"], rng.uniform(size=n))
        pick = np.clip(pick, 0, len(faces) - 1)
        b = rng.uniform(size=(n, 2))
        flip = b.sum(axis=1) > 1.0
        b[flip] = 1.0 - b[flip]
        w = np.stack([1.0 - b.sum(axis=1), b[:, 0], b[:, 1]], axis=1)
        tri = table["points"][faces[pick]]
        pts = np.einsum("nk,nkd->nd", w, tri)
    # chordal interpolation lands slightly inside; push back to the boundary
    u = pts - c
    norm = _row_norms(u)
    if np.any(norm == 0.0):
        raise NumericalFailure("sample collapsed onto the witness point")
    u = u / norm[:, None]
    radii = _ray_roots(domain, u, start=norm, work=work,
                       calls="sample_ray_calls")
    return c + radii[:, None] * u


@dataclass(frozen=True, eq=False)
class PolygonApprox:
    """Convex hull of boundary samples with a facet-direction audit.

    parallel_audit[f] = |unit facet normal . v|; a facet hyperplane contains
    the direction v exactly when this vanishes, so sub-tolerance entries are
    the flagged ones.  deficit = domain volume - hull volume (nonnegative
    for convex domains since the hull is inscribed).
    """

    vertices: np.ndarray
    hull_facets: list          # vertex indices (ints) of each facet
    facet_normals: np.ndarray
    volume: float
    domain_volume: float
    deficit: float
    direction: np.ndarray
    parallel_audit: np.ndarray
    max_halfspace_violation: float
    # table_ray_calls, sample_ray_calls, ray_points, hull_attempts; kept out
    # of to_json_dict and to_csv_string, so the data artifacts do not
    # depend on it
    work: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.vertices.tolist(),
            "hull_facets": self.hull_facets,
            "facet_normals": self.facet_normals.tolist(),
            "volume": float(self.volume),
            "domain_volume": float(self.domain_volume),
            "deficit": float(self.deficit),
            "direction": self.direction.tolist(),
            "parallel_audit": self.parallel_audit.tolist(),
            "max_halfspace_violation": float(self.max_halfspace_violation),
        }

    def to_csv_string(self) -> str:
        d = self.vertices.shape[1]
        hull_set = {i for f in self.hull_facets for i in f}
        header = ",".join(f"x{i+1}" for i in range(d)) + ",on_hull"
        lines = [header]
        for idx, p in enumerate(self.vertices):
            coords = ",".join(repr(float(v)) for v in p)
            lines.append(f"{coords},{1 if idx in hull_set else 0}")
        return "\n".join(lines) + "\n"


def _hull_from_points(points: np.ndarray, direction: np.ndarray,
                      domain_volume: float) -> PolygonApprox:
    from scipy.spatial import ConvexHull
    hull = ConvexHull(points)
    normals = hull.equations[:, :-1]
    offsets = hull.equations[:, -1]
    # every input point must satisfy normal . p + offset <= 0 up to slack
    violation = float(np.max(points @ normals.T + offsets[None, :]))
    if violation > 1e-10:
        raise NumericalFailure(
            f"hull is not convex within tolerance (violation {violation:.3g})")
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    audit = np.abs(normals @ v)
    return PolygonApprox(
        vertices=points,
        hull_facets=hull.simplices.tolist(),
        facet_normals=normals,
        volume=float(hull.volume),
        domain_volume=float(domain_volume),
        deficit=float(domain_volume - hull.volume),
        direction=v,
        parallel_audit=audit,
        max_halfspace_violation=violation,
    )


def polygonalize(domain: DomainSpec, v, n: int, seed: int) -> PolygonApprox:
    """Convex hull of n boundary-measure samples of a convex body, d in {2,3}.

    Sampling inverts cumulative arc length (d=2) or draws area-weighted
    triangles of a ray-cast icosphere mesh (d=3); every sample is then
    re-projected onto the exact boundary along its ray.  The table's rays
    start at the witness; a sample's ray starts at its chordal radius,
    which convexity puts at or inside the boundary (see _sample_boundary).
    A degenerate hull (affinely dependent samples) retries with an
    incremented seed, up to _HULL_RETRIES seeds.

    The result's work counts the implicit_fn calls of the table build
    (0 when the table is cached) and of the sample ray solves, the points
    they evaluated, and the seeds tried.
    """
    if not domain.convex_flag:
        raise ValueError("polygonalize requires a convex domain")
    if domain.dim not in (2, 3):
        raise ValueError("polygonalize supports d in {2, 3}")
    if n < domain.dim + 1:
        raise ValueError("need at least d + 1 samples")
    work = dict(table_ray_calls=0, sample_ray_calls=0, ray_points=0,
                hull_attempts=0)
    vol = domain.volume
    if vol is None:
        vol = _boundary_table(domain, work)["quad_volume"]
    from scipy.spatial import QhullError
    last_err = None
    for attempt in range(_HULL_RETRIES):
        work["hull_attempts"] += 1
        points = _sample_boundary(domain, n, seed + attempt, work)
        try:
            return replace(_hull_from_points(points, v, vol), work=work)
        except QhullError as err:   # affinely dependent sample set
            last_err = err
    raise NumericalFailure(
        f"hull construction failed after {_HULL_RETRIES} seeds: {last_err}")
