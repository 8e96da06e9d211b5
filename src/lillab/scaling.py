"""Small-time rescaling machinery: contraction families and asymptotic indices.

A contraction family (center, trend) names the deviation Z = X - center -
t trend of a solution X from its start; an asymptotic index turns the time
scale eps into the spatial multi-index alpha = psi(eps). Every rescaling
works on Z, which follows the SDE itself from 0 (require_autonomous):
rescale_path maps a deviation path on [0, eps] to y_s = center + s trend +
Z_{eps s} / alpha on [0, 1], and transformed_coefficients maps the SDE to
its rescaled coefficient family, itself a table system: each monomial is
rescaled by its coefficient, and sigma by a row scale. derive_rescaling
finds the index and the limit system (L, sigma) from the drift's monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .sde import (ExplosivePath, PolynomialDrift, SdeSystem, _philox,
                  trivial_domain)

# Validity ceiling for index evaluation: keeps the iterated logarithm
# strictly above 1 so every power-log coordinate stays monotone near the edge.
EPS_CEILING = 0.99 * math.exp(-math.e)


def rate_scale(eps: float) -> float:
    """Iterated logarithm loglog(1/eps); positive for eps < 1/e."""
    if not 0.0 < eps < math.exp(-1.0):
        raise ValueError("rate_scale requires 0 < eps < 1/e")
    return math.log(math.log(1.0 / eps))


def driving_scale(eps: float) -> float:
    """Noise damping 1/sqrt(loglog(1/eps)) applied to the rescaled driver."""
    return 1.0 / math.sqrt(rate_scale(eps))


def power_log_from_log(ell: int, k: int, log_eps: float) -> float:
    """Closed form sqrt(eps^ell * loglog(1/eps)^k) from log(eps), no
    validity window applied; stable for extremely small eps."""
    if log_eps >= -1.0:
        raise ValueError("requires eps < 1/e")
    log_big_l = math.log(math.log(-log_eps))
    return math.exp(0.5 * (ell * log_eps + k * log_big_l))


@dataclass(frozen=True)
class AsymptoticIndex:
    """Multi-index eps -> (sqrt(eps^l_i loglog(1/eps)^k_i))_i on (0, eps_star].

    exponents is a sequence of (l_i, k_i) integer pairs with l_i >= 1 and
    k_i >= 0. eps_star bounds the validity window; it is capped below
    0.99 * e^-e and must keep every coordinate strictly increasing.
    """

    exponents: tuple
    eps_star: float = 1e-2

    def __post_init__(self):
        exps = tuple((int(l), int(k)) for l, k in self.exponents)
        for l, k in exps:
            if l < 1 or k < 0:
                raise ValueError("exponents must satisfy l >= 1, k >= 0")
        if not 0.0 < self.eps_star <= EPS_CEILING:
            raise ValueError(f"eps_star must lie in (0, {EPS_CEILING:.6g}]")
        # Strict increase of eps^l L^k needs l * log(1/eps) * L > k at eps_star
        # (the left side grows as eps decreases, so the window is safe below).
        log_inv = math.log(1.0 / self.eps_star)
        big_l = math.log(log_inv)
        for l, k in exps:
            if l * log_inv * big_l <= k:
                raise ValueError(
                    f"coordinate (l={l}, k={k}) is not increasing at eps_star="
                    f"{self.eps_star:g}; shrink eps_star"
                )
        object.__setattr__(self, "exponents", exps)


def eval_index(psi: AsymptoticIndex, eps: float) -> np.ndarray:
    """Evaluate the multi-index at eps inside the validity window.

    Raises ValueError when a coordinate underflows below the smallest
    normal float (np.finfo(float).tiny): a subnormal or zero alpha loses
    its digits, and the rescaling divides by it.
    """
    if not 0.0 < eps <= psi.eps_star:
        raise ValueError(
            f"eps={eps:g} outside validity window (0, {psi.eps_star:g}]"
        )
    log_eps = math.log(eps)
    alpha = np.array([power_log_from_log(l, k, log_eps)
                      for l, k in psi.exponents])
    small = np.flatnonzero(alpha < np.finfo(float).tiny)
    if small.size:
        raise ValueError(
            f"alpha underflows at eps={eps:g}: coordinate {small[0]} is "
            f"{alpha[small[0]]:g}, below the smallest normal float")
    return alpha


def derive_rescaling(system: SdeSystem):
    """The asymptotic index and the limit system SdeSystem(L, sigma), on the
    whole space, of dx = b(x) dt + sigma dW at x = 0: L is the
    weighted-homogeneous principal part of b (Hermes 1991, SIAM Rev. 33:238).

    A coordinate whose row of sigma is nonzero gets (l, k) = (1, 1). Any
    other coordinate i gets l_i = 2 + min sum_j m_j l_j over the
    non-constant monomials x^m of b_i (the least fixed point, relaxed from
    l = inf) and k_i = max sum_j m_j k_j over the minimizers. At alpha =
    psi(eps) the rescaled drift eps * b_i(alpha * y) / alpha_i scales x^m
    by eps^((2 + m.l - l_i)/2) loglog(1/eps)^((m.k - k_i)/2), so the limit
    keeps exactly the monomials with (m.l, m.k) = (l_i - 2, k_i). A
    coordinate left at l = inf is reached from no noise, and a constant
    term c in an undriven row grows like eps * c / alpha_i = eps^(1 - l_i/2)
    c: either raises ValueError naming the coordinate.
    """
    driven = np.any(system.sigma != 0.0, axis=1)
    rows, d = system.drift.rows, system.dim_state
    for i in np.flatnonzero(~driven):
        if any(not any(e) for _, e in rows[i]):
            raise ValueError(f"coordinate {i} has a constant drift term and "
                             "no noise: its rescaled drift diverges")

    def weight(exps, w):
        return sum(m * w[j] for j, m in enumerate(exps) if m)

    ell = [1 if driven[i] else math.inf for i in range(d)]
    for _ in range(d):   # a minimizer's coordinates have smaller l
        for i in np.flatnonzero(~driven):
            ell[i] = min(ell[i], 2 + min(
                (weight(e, ell) for _, e in rows[i] if any(e)),
                default=math.inf))
    lost = [i for i in range(d) if ell[i] == math.inf]
    if lost:
        raise ValueError(f"coordinates {lost} are reached from no "
                         "noise-driven coordinate: no rescaling exists")
    k = [1] * d
    for i in sorted(np.flatnonzero(~driven), key=ell.__getitem__):
        k[i] = max(weight(e, k) for _, e in rows[i]
                   if any(e) and weight(e, ell) == ell[i] - 2)
    limit = [tuple((c, e) for c, e in row if any(e) and weight(e, ell)
                   == ell[i] - 2 and weight(e, k) == k[i])
             for i, row in enumerate(rows)]
    return (AsymptoticIndex(tuple(zip(ell, k))),
            SdeSystem(PolynomialDrift(d, limit), system.sigma))


@dataclass(frozen=True, eq=False)
class ContractionFamily:
    """Family of space contractions indexed by positive alpha, around a
    center with a linear trend drift_vector (default 0).

    At a fixed time the map is y -> center + (y - center) / alpha, an affine
    bijection fixing the center. A nonzero trend v * t is removed before
    shrinking and restored afterwards (see rescale_path). kind names the
    case: "diagonal" (center and trend 0), "shifted_diagonal" (trend 0) or
    "affine_detrended".
    """

    center: np.ndarray
    drift_vector: Optional[np.ndarray] = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        v = self.drift_vector
        v = np.zeros_like(c) if v is None else np.asarray(v, dtype=float)
        if v.shape != c.shape:
            raise ValueError("drift_vector must match center shape")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "drift_vector", v)

    @property
    def kind(self) -> str:
        if np.any(self.drift_vector):
            return "affine_detrended"
        return "shifted_diagonal" if np.any(self.center) else "diagonal"

    def apply(self, alpha, y):
        alpha = np.asarray(alpha, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.center + (y - self.center) / alpha

    def apply_inverse(self, alpha, y):
        alpha = np.asarray(alpha, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.center + (y - self.center) * alpha


def require_autonomous(system: SdeSystem, phi: ContractionFamily) -> None:
    """ValueError unless Z = X - center - t trend follows system from 0 and
    rescales to an autonomous SDE: b(center) = trend in the rows without
    noise, and with a center or a trend a linear b with b(center) = trend in
    every row, a trend that moves no coordinate b reads, and a trivial
    domain."""
    center, trend, drift = phi.center, phi.drift_vector, system.drift
    gap = drift(center) - trend
    off = np.flatnonzero((gap != 0.0) & ~np.any(system.sigma != 0.0, axis=1))
    if off.size:
        raise ValueError(f"the trend must be b(center) in the rows without "
                         f"noise; coordinates {off.tolist()} differ")
    if (np.any(center) or np.any(trend)) and (
            drift.matrix is None or np.any(gap)
            or np.any(drift.matrix[:, trend != 0.0])
            or system.domain_contains is not trivial_domain):
        raise ValueError("a center or a trend needs a trivial domain and a "
                         "linear drift b with b(center) = trend that reads "
                         "no coordinate the trend moves")


def rescale_path(path: ExplosivePath, phi: ContractionFamily,
                 psi: AsymptoticIndex, eps: float) -> ExplosivePath:
    """Map the deviation Z = X - center - t trend on [0, horizon], a path of
    the SDE from 0, to y_s = center + s trend + Z_{eps s} / alpha on [0,
    horizon / eps], alpha = psi(eps): the one place that adds the center
    back. Explosion carries over at the same grid index.
    """
    t_out = path.times / eps
    with np.errstate(invalid="ignore"):
        states = (phi.center + t_out[:, None] * phi.drift_vector
                  + path.states / eval_index(psi, eps))
    if path.explosion_index is not None:
        states[path.explosion_index:] = np.nan
    return ExplosivePath(times=t_out, states=states,
                         explosion_index=path.explosion_index)


def transformed_coefficients(system: SdeSystem, phi: ContractionFamily,
                             psi: AsymptoticIndex, eps: float) -> SdeSystem:
    """Rescaled coefficient family (b_eps, sigma_eps) of the deviation Z =
    X - center - t trend, which follows system from 0 (require_autonomous),
    as a table system. Row by row with alpha = psi(eps),

        b_eps(y)  = eps * b(alpha y) / alpha
        sigma_eps = sqrt(eps * loglog(1/eps)) * sigma / alpha,

    so each monomial coef * x^m of b_i becomes (coef * eps * alpha^m /
    alpha_i) * y^m. The rescaled SDE is driven by sigma_eps /
    sqrt(loglog(1/eps)); see rescaled_sde_system. A constant of b tends to
    0 in a row with noise (Brownian motion with drift); elsewhere it grows
    like eps^(1 - l_i/2) and raises ValueError. A trivial domain stays
    trivial (sde.alive skips its call); any other is evaluated at alpha y.
    """
    require_autonomous(system, phi)
    alpha = eval_index(psi, eps)
    drift = system.drift

    def scaled(i, coef, exps):
        # eps / alpha_i is finite (alpha >= tiny), and factors alpha_j < 1
        # only shrink it toward the term's scale: no spurious overflow
        out = coef * (eps / alpha[i])
        for j, m in enumerate(exps):
            for _ in range(m):
                out *= alpha[j]
        return out

    rows = [[(scaled(i, c, e), e) for c, e in row]
            for i, row in enumerate(drift.rows)]
    domain = system.domain_contains
    if domain is not trivial_domain:
        def domain(y):
            return system.domain_contains(np.asarray(y, dtype=float) * alpha)

    noise_gain = math.sqrt(eps * rate_scale(eps))
    return SdeSystem(PolynomialDrift(drift.d, rows),
                     noise_gain * system.sigma / alpha[:, None], domain)


def rescaled_sde_system(system: SdeSystem, phi: ContractionFamily,
                        psi: AsymptoticIndex, eps: float) -> SdeSystem:
    """Simulatable rescaled system: sigma_eps damped by 1/sqrt(loglog)."""
    base = transformed_coefficients(system, phi, psi, eps)
    return replace(base, sigma=driving_scale(eps) * base.sigma)


# ---------------------------------------------------------------------------
# Property checkers. These are statistical evidence on sampled probes, not
# proofs.

@dataclass
class PropertyReport:
    name: str
    passed: bool
    worst: dict = field(default_factory=dict)
    table: list = field(default_factory=list)


_PROBE_SAMPLES = 64        # state pairs of default_family_probes,
_PROBE_BOX = 2.0           # uniform on [-box, box]^d, and
_PROBE_INDICES = 12        # its index pairs
_FAMILY_TOLERANCE = 1e-9   # slack of each check_contraction_family property


def default_family_probes(dim: int, seed: int = 0):
    """Random (y, z) sample pairs and comparable (alpha, beta) index pairs."""
    rng = _philox(seed, 77)
    samples = rng.uniform(-_PROBE_BOX, _PROBE_BOX,
                          size=(_PROBE_SAMPLES, 2, dim))
    beta = np.exp(rng.uniform(math.log(1e-3), 0.0, size=(_PROBE_INDICES, dim)))
    ratio = np.exp(rng.uniform(0.0, math.log(20.0),
                               size=(_PROBE_INDICES, dim)))
    alphas = np.stack([beta * ratio, beta], axis=1)
    return samples, alphas


def check_contraction_family(phi, sample_pairs, alpha_pairs) -> PropertyReport:
    """Check the three contraction-family properties on sampled probes.

    (i) the center is fixed by every map; (ii) larger indices contract at
    least as much on every sampled pair; (iii) the composition modulus
    |Phi_a(Phi_b^{-1}(y)) - y| shrinks with the index deviation
    |a / b - 1|. phi may be any object with apply/apply_inverse/center.

    sample_pairs: (m, 2, d) state pairs. alpha_pairs: (p, 2, d) index pairs,
    ordered alpha >= beta componentwise for the comparison property
    (incomparable rows are used for (iii) only).
    """
    sample_pairs = np.asarray(sample_pairs, dtype=float)
    alpha_pairs = np.asarray(alpha_pairs, dtype=float)
    center = np.asarray(phi.center, dtype=float)
    ys = sample_pairs.reshape(-1, sample_pairs.shape[-1])
    radius = float(np.max(np.linalg.norm(ys - center, axis=1)))

    worst = {"property": None, "violation": 0.0}
    passed = True
    table = []

    def note(prop, violation, detail):
        nonlocal passed
        if violation > worst["violation"]:
            worst.update({"property": prop, "violation": float(violation), **detail})
        if violation > 0.0:
            passed = False

    # (i) fixed center
    for pair in alpha_pairs:
        for alpha in pair:
            drift = float(np.max(np.abs(phi.apply(alpha, center) - center)))
            note("fixed_center", max(0.0, drift - _FAMILY_TOLERANCE),
                 {"alpha": alpha.tolist(), "value": drift})

    # (ii) monotone contraction for comparable pairs
    for alpha, beta in alpha_pairs:
        if not np.all(alpha >= beta):
            continue
        for y, z in sample_pairs:
            da = float(np.linalg.norm(phi.apply(alpha, y) - phi.apply(alpha, z)))
            db = float(np.linalg.norm(phi.apply(beta, y) - phi.apply(beta, z)))
            viol = da - db - _FAMILY_TOLERANCE * (1.0 + db)
            note("monotone_contraction", max(0.0, viol),
                 {"alpha": alpha.tolist(), "beta": beta.tolist(), "gap": da - db})

    # (iii) composition modulus controlled by the index deviation
    for alpha, beta in alpha_pairs:
        delta = float(np.max(np.abs(alpha / beta - 1.0)))
        modulus = 0.0
        for y in ys:
            back = phi.apply(alpha, phi.apply_inverse(beta, y))
            modulus = max(modulus, float(np.max(np.abs(back - y))))
        table.append({"index_deviation": delta, "modulus": modulus})
        if delta <= 0.5:
            viol = modulus - (3.0 * delta * radius + _FAMILY_TOLERANCE)
            note("composition_modulus", max(0.0, viol),
                 {"index_deviation": delta, "modulus": modulus})

    table.sort(key=lambda row: row["index_deviation"])
    return PropertyReport("contraction_family", passed, worst, table)


def check_asymptotic_index(psi: AsymptoticIndex, c: float, j_range,
                           tolerance: float) -> PropertyReport:
    """Ratio stability over geometric brackets [c^{j+1}, c^j].

    For each probed j the worst ratio deviation max_i |psi_i(d1)/psi_i(d2) - 1|
    over d1, d2 in the bracket is attained at the endpoints because every
    coordinate is monotone; the report records it per j and the first probed
    j from which the deviation stays below tolerance.
    """
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    j_lo, j_hi = int(j_range[0]), int(j_range[1])
    if j_lo < 0 or j_hi < j_lo:
        raise ValueError("bad j_range")
    if j_hi - j_lo + 1 > 64:
        js = np.unique(np.round(np.geomspace(max(j_lo, 1), j_hi, 64)).astype(int))
        js = np.unique(np.concatenate([[j_lo], js, [j_hi]]))
        js = js[(js >= j_lo) & (js <= j_hi)]
    else:
        js = np.arange(j_lo, j_hi + 1)

    log_c = math.log(c)
    table = []
    for j in js:
        log_hi = j * log_c        # log of c^j
        log_lo = (j + 1) * log_c
        if log_hi >= -1.0:        # bracket reaches eps >= 1/e, undefined there
            raise ValueError(f"bracket at j={j} leaves the validity range")
        dev = 0.0
        for l, k in psi.exponents:
            log_ratio = (
                0.5 * (l * (log_hi - log_lo)
                       + k * (math.log(math.log(-log_hi))
                              - math.log(math.log(-log_lo))))
            )
            dev = max(dev, abs(math.expm1(log_ratio)))
        table.append({"j": int(j), "deviation": dev})

    first_ok = None
    for row in reversed(table):
        if row["deviation"] < tolerance:
            first_ok = row["j"]
        else:
            break
    passed = first_ok is not None
    worst = max(table, key=lambda r: r["deviation"])
    report = PropertyReport("asymptotic_index_ratio", passed,
                            {"max_deviation": worst["deviation"], "at_j": worst["j"],
                             "first_j_below_tolerance": first_ok},
                            table)
    return report
