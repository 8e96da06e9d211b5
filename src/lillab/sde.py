"""Explosive SDE systems, driving noise, and path simulation.

A system is data: its drift is a polynomial given as a table of monomials
(PolynomialDrift, whose rows and Jacobian entries are generated from it)
and its noise a constant (d, k) matrix sigma; the dimensions, the linear
representation and the control degrees are derived from them.
State spaces are open subsets of R^d. A path that leaves the domain (or
blows up to non-finite values) is killed at the first grid point outside:
its explosion_index marks that node, and its states from there on are nan.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np


class NumericalFailure(RuntimeError):
    """Coefficient evaluation produced non-finite values at a valid state."""

    def __init__(self, message, state=None, step=None):
        super().__init__(message)
        self.state = state
        self.step = step


# States with any coordinate beyond this magnitude count as having left every
# compact subset of the domain: the path is killed, and its states from that
# node on are not returned (polynomial drifts up to cubic stay representable
# at the guard). euler_batch kills once per block of nodes, so domain_contains
# may still see a dead row's states, overflowing ones included, up to the end
# of that block; it evaluates them under np.errstate.
OVERFLOW_GUARD = 1e100

_UINT64_MASK = (1 << 64) - 1

# Nodes that euler_batch steps between two liveness checks. One alive call
# per block replaces one per step, whose fixed cost weighs most at small
# batch sizes.
_BLOCK = 256

# Live rows up to which euler_batch steps each row on Python floats, one row
# at a time; above it, one (B,) array per coordinate. The crossover lies at
# 12 to 30 rows on the registered examples, and arrays at 6 to 8 rows take
# twice as long per step as floats (lil-verify stacks the scales of a few
# paths into one call, so that it runs on arrays).
_FLOAT_ROWS = 16

# On arrays, a block holds at most this many state values (nodes x rows x
# coordinates), fewer nodes than _BLOCK for large batches: its nodes then
# stay in cache while they are stepped and copied into the states, and at
# 2000 rows a step takes 35-45% less time than in blocks of _BLOCK nodes.
_COLUMN_VALUES = 1 << 16


def trivial_domain(x) -> bool:
    """Default domain predicate: the whole space.

    alive compares against this function to skip the domain call.
    """
    return True


def alive(x, domain_contains) -> np.ndarray:
    """Which states x (..., d) are alive, as bools (...).

    The exit rule of every integrator: a state is alive when no coordinate
    exceeds OVERFLOW_GUARD in magnitude (which also rejects nan) and
    domain_contains, which maps (..., d) to (...), holds there. Only
    trivial_domain is not called. Raises ValueError when domain_contains
    returns the wrong shape.
    """
    # max propagates nan, and nan or inf fail the comparison. It runs over
    # the leading axis of a (d, states) copy, d long vectorized passes: a max
    # over the short last axis costs about 45 ns a state.
    states = np.asarray(x)
    columns = states.reshape(-1, states.shape[-1]).T
    columns = np.abs(columns, out=np.empty(columns.shape))
    ok = columns.max(axis=0).reshape(states.shape[:-1]) <= OVERFLOW_GUARD
    if domain_contains is not trivial_domain:
        inside = np.asarray(domain_contains(x), dtype=bool)
        if inside.shape != ok.shape:
            raise ValueError(
                f"domain_contains returned shape {inside.shape}, expected "
                f"{ok.shape}: callbacks must broadcast over leading axes")
        ok = ok & inside
    return ok


def _philox(seed: int, stream: int) -> np.random.Generator:
    # Counter-based generator: the (seed, stream) key fully determines the
    # draw sequence, so batches are reproducible regardless of scheduling.
    key = [int(seed) & _UINT64_MASK, int(stream) & _UINT64_MASK]
    return np.random.Generator(np.random.Philox(key=key))


def _powers(h, n: int) -> np.ndarray:
    """h**j for j < n, shaped (*h.shape, n, 1, 1).

    A scalar h takes Python's float power, which numpy's differs from in
    the last bit, so scalar widths keep the bits they had before widths
    could be arrays.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim == 0:
        return np.array([float(h) ** j for j in range(n)])[:, None, None]
    return (h[..., None] ** np.arange(n))[..., None, None]


@dataclass(frozen=True, eq=False)
class LinearSpec:
    """Linear SDE data dx = A x dt + sigma dW with constant sigma.

    The transition law is Gaussian with mean propagator(h) @ x and
    covariance(h), in closed form when A is nilpotent (the chained
    integrators of the registry) and by matrix exponentials otherwise.
    """

    a_matrix: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        s = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError("a_matrix must be square")
        if s.shape[0] != a.shape[0]:
            raise ValueError("sigma row count must match state dimension")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "sigma", s)

    @property
    def dim(self) -> int:
        return self.a_matrix.shape[0]

    def _nilpotent_powers(self):
        """Powers [I, A, A^2, ...] up to the nilpotency degree, or None."""
        powers = [np.eye(self.dim)]
        m = np.eye(self.dim)
        for _ in range(self.dim):
            m = m @ self.a_matrix
            if not np.any(m):
                return powers
            powers.append(m)
        return None

    def propagator(self, h) -> np.ndarray:
        """exp(A h), in closed form when A is nilpotent.

        h may be an array of widths; the result is then (*h.shape, d, d).
        """
        powers = self._nilpotent_powers()
        if powers is None:
            from scipy.linalg import expm
            return expm(self.a_matrix
                        * np.asarray(h, dtype=float)[..., None, None])
        hj = _powers(h, len(powers))
        out = np.zeros(hj.shape[:-3] + self.a_matrix.shape)
        for j, p in enumerate(powers):
            out += p * (hj[..., j, :, :] / math.factorial(j))
        return out

    def covariance(self, h) -> np.ndarray:
        """Transition covariance int_0^h exp(As) sigma sigma^T exp(A^T s) ds.

        Closed-form polynomial in h for nilpotent A; Van Loan's augmented
        exponential otherwise. h may be an array of widths, as in propagator.
        """
        powers = self._nilpotent_powers()
        if powers is None:
            from scipy.linalg import expm
            d = self.dim
            q = self.sigma @ self.sigma.T
            aug = np.zeros((2 * d, 2 * d))
            aug[:d, :d] = -self.a_matrix
            aug[:d, d:] = q
            aug[d:, d:] = self.a_matrix.T
            f = expm(aug * np.asarray(h, dtype=float)[..., None, None])
            return np.swapaxes(f[..., d:, d:], -1, -2) @ f[..., :d, d:]
        mats = [p @ self.sigma for p in powers]
        hj = _powers(h, 2 * len(mats))
        cov = np.zeros(hj.shape[:-3] + self.a_matrix.shape)
        for i, mi in enumerate(mats):
            for j, mj in enumerate(mats):
                w = hj[..., i + j + 1, :, :] / (
                    (i + j + 1) * math.factorial(i) * math.factorial(j))
                cov += w * (mi @ mj.T)
        return 0.5 * (cov + np.swapaxes(cov, -1, -2))

    def bridge(self, left, right=None):
        """Law of x(a + l) given x(a) and, unless right is None, x(a + l + r).

        x(a + l) = from_a x(a) + from_b x(b) + noise z, z standard normal,
        stacked over the arrays l = left and r = right; returns (from_a,
        from_b, noise), from_b = 0 without a right end (the transition).
        In square-root form: x(a + l) = Phi(l) x(a) + L(l) u and x(b) =
        Phi(r) x(a + l) + L(r) v, (u, v) standard normal and L the
        equilibrated Cholesky factors, and (u, v) is conditioned on
        M (u, v) = x(b) - Phi(l + r) x(a), M = [Phi(r) L(l), L(r)], by one
        QR factorization of M^T with unit rows. No covariance is
        differenced, so the law stays accurate with a near either end and
        where chained integrators' covariances are numerically singular.
        """
        d = self.dim
        if right is None:
            prop = self.propagator(left)
            scale, chol = equilibrated_cholesky(self.covariance(left))
            return prop, np.zeros_like(prop), scale[..., :, None] * chol
        phi_l, phi_r, phi_lr = self.propagator(
            np.stack([left, right, left + right]))
        scale, chol = equilibrated_cholesky(
            self.covariance(np.stack([left, right])))
        root_l, root_r = scale[..., :, None] * chol
        m = np.concatenate([phi_r @ root_l, root_r], axis=-1)
        norm = np.linalg.norm(m, axis=-1)
        q, r = np.linalg.qr(np.swapaxes(m / norm[..., :, None], -1, -2),
                            mode="complete")
        from_b = (root_l @ q[..., :d, :d]
                  @ np.linalg.inv(np.swapaxes(r[..., :d, :], -1, -2))
                  / norm[..., None, :])
        return phi_l - from_b @ phi_lr, from_b, root_l @ q[..., :d, d:]


def equilibrated_cholesky(cov: np.ndarray):
    """Factor cov = (D L)(D L)^T with D diagonal, stable across scale spreads.

    Transition covariances of chained integrators have diagonal entries
    spanning many orders of magnitude (t^{2p+1} per coordinate); rescaling by
    sqrt(diag) keeps the Cholesky well conditioned. cov may be a stack
    (..., d, d); D comes back as (..., d), and a jitter needed by one matrix
    is added to all of them.
    """
    cov = np.asarray(cov, dtype=float)
    diag = np.diagonal(cov, axis1=-2, axis2=-1)
    d = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    scaled = cov / (d[..., :, None] * d[..., None, :])
    jitter = 0.0
    for _ in range(6):
        try:
            chol = np.linalg.cholesky(scaled + jitter * np.eye(d.shape[-1]))
            return d, chol
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-14)
    raise NumericalFailure("covariance is not positive definite after jitter")


class PolynomialDrift:
    """A polynomial vector field b on R^d, given as a table of monomials.

    rows[i] is a tuple of (coef, exponents) pairs, and b_i(x) is the sum of
    coef * prod_j x_j ** exponents[j] over them. Calling it maps states
    (..., d) to (..., d). n_monomials counts the monomials. reads[i] lists
    the coordinates b_i reads (an exponent of x_j above 0). depth is the
    number of coordinates in the longest chain of "b_i reads x_j" and chain
    orders them, each after those it reads; on a cycle both are None and
    cycle is one (each coordinate reads the next), else (). On coordinate
    arrays (x0, ..., x<d-1>), components[i] gives b_i with the bits of the
    call, and partials[i][j], for each j in reads[i], the Jacobian entry
    db_i/dx_j. matrix is A, the partials at 0, when every monomial has
    degree 1 (b(x) = A x), else None. rows other than d rows of (finite
    coef, d non-negative int exponents) raise ValueError.
    """

    def __init__(self, d: int, rows):
        self.d = d
        rows = [[(float(c), tuple(e)) for c, e in row] for row in rows]
        if len(rows) != d or any(not math.isfinite(c) or len(e) != d
                                 or any(m != int(m) or m < 0 for m in e)
                                 for row in rows for c, e in row):
            raise ValueError(f"{d} rows of monomials: coefficients must be "
                             f"finite, exponents {d} non-negative ints")
        self.rows = tuple(tuple((c, tuple(map(int, e))) for c, e in row)
                          for row in rows)
        self.n_monomials = sum(map(len, self.rows))
        self.reads = tuple(tuple(j for j in range(d)
                                 if any(e[j] for _, e in row))
                           for row in self.rows)
        # peel off, a level at a time, the coordinates that read only peeled
        # ones; what is left reaches a cycle, and each of it reads some of it
        chain, left, self.depth, self.cycle = [], set(range(d)), 0, ()
        while ready := [i for i in sorted(left)
                        if left.isdisjoint(self.reads[i])]:
            chain += ready
            left -= set(ready)
            self.depth += 1
        self.chain = tuple(chain)
        if left:   # a walk among them comes back to where it has been
            walk = [min(left)]
            while (i := min(left & set(self.reads[walk[-1]]))) not in walk:
                walk.append(i)
            self.depth = self.chain = None
            self.cycle = tuple(walk[walk.index(i):])
        # the table's shape: each coefficient as +-1 when a unit, else +-2
        self._shape = tuple(
            tuple(((-1.0 if c < 0 else 1.0) * (1.0 if abs(c) == 1.0 else 2.0),
                   e) for c, e in row) for row in self.rows)
        (self._evaluate, self.partials, self.components,
         self.matrix) = _compile(self)

    def __call__(self, x):
        return self._evaluate(x)

    def scaled(self, gains) -> "PolynomialDrift":
        """The table with coefficients times gains, row by row in order."""
        gains = iter(np.reshape(gains, self.n_monomials).tolist())
        return PolynomialDrift(self.d, [[(c * next(gains), e) for c, e in row]
                                        for row in self.rows])

    def degrees(self, noisy) -> Optional[tuple]:
        """Control degrees q of the table driven where noisy[i]: under
        u -> s u the control ODE's coordinates scale as y_i -> s^q_i y_i.
        In chain order, q_i is 1 in a driven row and otherwise the common
        weighted degree sum_j e_j q_j of the row's monomials (0 for a row
        with neither); None on a cycle, or where a row mixes degrees (a
        driven row counts its noise as degree 1)."""
        if self.chain is None:
            return None
        q = [0] * self.d
        for i in self.chain:
            own = {sum(m * q[j] for j, m in enumerate(e))
                   for _, e in self.rows[i]} | ({1} if noisy[i] else set())
            if len(own) > 1:
                return None
            q[i] = own.pop() if own else 0
        return tuple(q)


def _sum_source(terms, names) -> str:
    """Source of the sum of coef * x^exps over (coef, exps, tag) terms, left
    to right, each power a repeated product. The variable most terms share,
    when two or more do, is pulled out of them at the place of the first,
    as in (x1 - x3) * x4 - x0: the expression one would write, with its
    bits. A non-unit coefficient is k<n>, n its tag's place in names."""
    shared = [sum(1 for _, e, _ in terms if e[j])
              for j in range(len(terms[0][1]))]
    j = shared.index(max(shared))
    pieces, group = [], []
    for c, e, tag in terms:
        if shared[j] > 1 and e[j]:
            if not group:
                pieces.append(None)
            group.append((c, e[:j] + (e[j] - 1,) + e[j + 1:], tag))
            continue
        factors = [f"x{i}" for i, m in enumerate(e) for _ in range(m)]
        if abs(c) != 1.0 or not factors:
            factors.insert(0, f"k{len(names)}")
            names.append(tag)
        pieces.append((c < 0, " * ".join(factors)))
    pieces = [(False, f"({_sum_source(group, names)}) * x{j}")
              if p is None else p for p in pieces]
    return ("-" if pieces[0][0] else "") + pieces[0][1] + "".join(
        (" - " if neg else " + ") + text for neg, text in pieces[1:])


def _row_terms(i: int, row) -> list:
    """The (coef, exps, tag) terms of row i of a table shape for _sum_source,
    tag (i, t, 1) for term t: b_i as components and the Euler step spell it."""
    return [(c, e, (i, t, 1)) for t, (c, e) in enumerate(row)]


@lru_cache(maxsize=64)
def _factory(d: int, shape: tuple):
    """(make, tags) of a table shape (rows of (+-1 unit or +-2 other coef,
    exponents)); make(k0, ...) -> (partials, components) is source executed
    once per shape (as dataclasses writes __init__), so rescaled tables
    share it: b<i>(x0, ..., x<d-1>) is row i and p<i>_<j> its derivative in
    x<j>, for each x<j> it reads. k<n> is |m * coef| of term t of row i for
    tags[n] = (i, t, m)."""
    names = []
    rows = [_sum_source(_row_terms(i, row), names) if row else "0.0"
            for i, row in enumerate(shape)]
    partials = [[(j, _sum_source(terms, names)) for j in range(d)
                 if (terms := [(c * e[j], e[:j] + (e[j] - 1,) + e[j + 1:],
                                (i, t, e[j]))
                               for t, (c, e) in enumerate(row) if e[j]])]
                for i, row in enumerate(shape)]
    xs = ", ".join(f"x{j}" for j in range(d))
    body = "".join(f"    def {name}({xs}):\n        return {text}\n" for
                   name, text in [(f"b{i}", t) for i, t in enumerate(rows)]
                   + [(f"p{i}_{j}", t) for i, row in enumerate(partials)
                      for j, t in row])
    dicts = "".join("{" + "".join(f"{j}: p{i}_{j}, " for j, _ in row) + "}, "
                    for i, row in enumerate(partials))
    space = {}
    exec(f"def make({', '.join(f'k{n}' for n in range(len(names)))}):\n"
         f"{body}    return ({dicts}), "
         f"({''.join(f'b{i}, ' for i in range(d))})\n", space)
    return space["make"], names


def _coefficients(rows: tuple, tags) -> list:
    """The make arguments k<n> of a table: |m * coef| per tag (i, t, m)."""
    return [abs(rows[i][t][0] * m) for i, t, m in tags]


def _compile(drift: PolynomialDrift):
    """(evaluate, partials, components, A) of a monomial table as source
    (an interpreted loop over the terms costs 3-4x as much on lorenz96);
    evaluate writes column i with components[i]."""
    d, rows = drift.d, drift.rows
    make, tags = _factory(d, drift._shape)
    partials, components = make(*_coefficients(rows, tags))

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out, coords = np.empty_like(x), np.moveaxis(x, -1, 0)
        for i, b in enumerate(components):
            out[..., i] = b(*coords)
        return out

    if any(sum(e) != 1 for row in rows for _, e in row):
        return evaluate, partials, components, None
    a = np.array([[row[j](*np.zeros(d)) if j in row else 0.0
                   for j in range(d)] for row in partials])
    a.flags.writeable = False
    return evaluate, partials, components, a


@lru_cache(maxsize=64)
def _step_factory(d: int, shape: tuple, k: int):
    """(make, tags) of the Euler step of a table shape (as in _factory) with
    k noise columns. make(k0, ..., s0, ...) -> step binds the coefficients
    k<n> of _factory's evaluate and sigma's entries s<i k + c>, zeros too.
    step(x0, ..., noise, dt, extend) takes, for each (n0, ...) of noise,
    x_i <- x_i + (b_i(x)) * dt + (0.0 + s<i k> * n0 + ... + s<i k + k-1> *
    n<k-1>), the drift spelt as evaluate spells it and the noise summed left
    to right, and passes the new (x0, ...) to extend. Its operators are the
    same on Python floats and on numpy arrays, and none of them raises on
    floats: overflow gives inf and inf - inf nan, as in numpy (there is no
    **)."""
    names = []
    drifts = [_sum_source(_row_terms(i, row), names) if row else "0.0"
              for i, row in enumerate(shape)]
    xs = ", ".join(f"x{i}" for i in range(d)) + ","
    steps = "".join(
        f"\n                x{i} + ({b}) * dt + ("
        + " + ".join(["0.0"] + [f"s{i * k + c} * n{c}" for c in range(k)])
        + ")," for i, b in enumerate(drifts))
    args = [f"k{n}" for n in range(len(names))] + [f"s{n}" for n in
                                                   range(d * k)]
    space = {}
    exec(f"def make({', '.join(args)}):\n"
         f"    def step({xs} noise, dt, extend):\n"
         f"        for {', '.join(f'n{c}' for c in range(k))}, in noise:\n"
         f"            {xs} = ({steps}\n            )\n"
         f"            extend(({xs}))\n"
         f"    return step\n", space)
    return space["make"], names


@dataclass(frozen=True, eq=False)
class SdeSystem:
    """SDE dx = drift(x) dt + sigma dB on an open domain of R^d.

    drift is a PolynomialDrift on R^d and sigma a finite (d, k) array, read
    only once stored; dim_state, dim_noise, linear and the control degrees
    (drift.degrees of the rows sigma drives, derived once here) follow
    from them, so a replace of either field keeps them in step.
    domain_contains maps (..., d) to bools (...), True on the open set
    where the dynamics live (see alive). The Euler kernel steps a row on
    after its death, up to the end of the block of nodes it classifies at
    once (see euler_batch), and of the callbacks only domain_contains sees
    those states, so it must not raise on states outside the domain or
    non-finite ones; floating-point warnings are suppressed there. The
    drift is called again only to replay a failure at a row's last live
    state.
    """

    drift: PolynomialDrift
    sigma: np.ndarray
    domain_contains: Callable[[np.ndarray], np.ndarray] = trivial_domain
    degrees: Optional[tuple] = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.drift, PolynomialDrift):
            raise TypeError("drift must be a PolynomialDrift")
        sigma = np.array(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != self.drift.d:
            raise ValueError(f"sigma must have shape ({self.drift.d}, k), "
                             f"not {sigma.shape}")
        if not np.all(np.isfinite(sigma)):
            raise ValueError("sigma must be finite")
        sigma.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "degrees",
                           self.drift.degrees(np.any(sigma != 0.0, axis=1)))

    @property
    def dim_state(self) -> int:
        return self.drift.d

    @property
    def dim_noise(self) -> int:
        return self.sigma.shape[1]

    @property
    def linear(self) -> Optional[LinearSpec]:
        """The LinearSpec (A, sigma) when the drift is A x, else None;
        it enables the exact transition sampler."""
        a = self.drift.matrix
        return None if a is None else LinearSpec(a, self.sigma)


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Brownian increments on a uniform grid, reproducible from (seed, stream).

    increments has shape (n_steps, dim_noise); each row is B_{t+dt} - B_t.
    """

    seed: int
    dt: float
    increments: np.ndarray
    path_index: int = 0

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2:
            raise ValueError("increments must have shape (n_steps, dim_noise)")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "increments", inc)

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def dim_noise(self) -> int:
        return self.increments.shape[1]

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    def standard_normals(self) -> np.ndarray:
        return self.increments / math.sqrt(self.dt)

    def coarsen(self, factor: int) -> "NoisePath":
        """Aggregate consecutive blocks: the same Brownian path on a coarser grid."""
        if factor < 1 or self.n_steps % factor != 0:
            raise ValueError("factor must divide the number of steps")
        blocks = self.increments.reshape(self.n_steps // factor, factor, self.dim_noise)
        return NoisePath(self.seed, self.dt * factor, blocks.sum(axis=1), self.path_index)


def brownian_path(seed: int, dt: float, horizon: float, dim_noise: int = 1,
                  path_index: int = 0) -> NoisePath:
    """Sample a Brownian increment path on a uniform grid.

    The generator is keyed by (seed, path_index), so distinct paths from the
    same seed never share randomness and re-running any subset reproduces it
    bit for bit.
    """
    if dt <= 0.0 or horizon <= 0.0:
        raise ValueError("dt and horizon must be positive")
    n = int(round(horizon / dt))
    if n < 1 or abs(n * dt - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ValueError("horizon must be an integer multiple of dt")
    rng = _philox(seed, path_index)
    inc = rng.standard_normal((n, dim_noise)) * math.sqrt(dt)
    return NoisePath(seed=seed, dt=dt, increments=inc, path_index=path_index)


def row_normals(seed: int, stream: int, rows: range, count: int) -> np.ndarray:
    """count standard normals for each of a range of rows, (len(rows), count).

    Row p owns the counter blocks [p b, (p + 1) b) of Philox (seed, stream),
    whose 4 b uniforms (random() takes one 64-bit word per double) give the
    normals by Box-Muller: any split of the rows draws the same normals.
    """
    half = -(-count // 2)
    blocks = -(-half // 2)
    rng = _philox(seed, stream)
    rng.bit_generator.advance(rows.start * blocks)
    u = rng.random((len(rows), 4 * blocks))
    # in place: radius and angle, then the normals, cosines first, then sines
    radius, angle = u[:, :half], u[:, half:2 * half]
    np.log1p(np.negative(radius, out=radius), out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    cos = np.cos(angle)
    np.multiply(radius, np.sin(angle, out=angle), out=angle)
    radius *= cos
    return u[:, :count]


@dataclass(eq=False)
class ExplosivePath:
    """Piecewise-linear path on a uniform grid, possibly killed at a grid point.

    states rows at indices >= explosion_index are not meaningful (filled with
    nan). explosion_index = None means the path stayed in the domain over
    the whole grid.
    """

    times: np.ndarray
    states: np.ndarray
    explosion_index: Optional[int] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or x.shape[0] != t.shape[0]:
            raise ValueError("times (n,) and states (n, d) must align")
        if t[0] != 0.0 or (len(t) > 1 and np.any(np.diff(t) <= 0.0)):
            raise ValueError("times must increase from 0")
        if self.explosion_index is not None and not (
            0 < self.explosion_index < len(t)
        ):
            raise ValueError("explosion_index out of range")
        self.times = t
        self.states = x

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def explosion_time(self) -> float:
        if self.explosion_index is None:
            return math.inf
        return float(self.times[self.explosion_index])


def euler_batch(system: SdeSystem, x0, increments, dt: float, gains=None):
    """Euler-Maruyama for a batch of B paths, each driven by its own noise.

    x0 (B, d) holds the starting states and increments (B, n, k) the
    Brownian increments of every row on a uniform grid of step dt, a float;
    row b runs the table drift.scaled(gains[b]) (gains (B, monomials),
    finite and non-negative, default 1.0). Returns (states (n + 1, B, d),
    first_dead (B,)). A row whose state is not alive at node j has
    first_dead = j and keeps its last live state from there on; rows that
    survive have first_dead = n + 1.

    Each step is the system's generated Euler step (see _step_factory):
    x_i + (b_i(x)) * dt + (0.0 + sigma_i0 n0 + ...), with the noise summed
    left to right. It runs on Python floats, one row at a time, while at
    most _FLOAT_ROWS rows are alive, and above on one (B,) array per
    coordinate and per coefficient that differs between rows (under
    np.errstate, so overflow and invalid values raise no warning); both
    give the same bits. The live rows are stepped through blocks of _BLOCK
    nodes (on arrays, of at most _COLUMN_VALUES state values), and alive
    classifies each block in one call. A row's nodes depend only on its
    own earlier nodes, so this finds the first dead node a check after
    every step would find, and the returned states are the same. A row
    that dies within a block is stepped on to the block's end, and
    domain_contains sees those states; rows dead in an earlier block are
    not stepped again.

    Raises ValueError for an x0 row that is not alive and for a
    domain_contains that returns the wrong shape. When a row first turns
    non-finite, the drift is called again, at its last live state; a
    non-finite value there raises NumericalFailure with that state and
    step, as a one-row run of the same row would. Rows are checked in the
    order of their first dead node, the lowest row first on ties, so the
    failure raised is the one of the earliest step.
    """
    x = np.array(x0, dtype=float)
    inc = np.asarray(increments, dtype=float)
    if x.ndim != 2 or x.shape[1] != system.dim_state:
        raise ValueError("x0 must have shape (B, dim_state)")
    batch = x.shape[0]
    if inc.ndim != 3 or inc.shape[0] != batch \
            or inc.shape[2] != system.dim_noise:
        raise ValueError("increments must have shape (B, n_steps, dim_noise)")
    domain = system.domain_contains
    if not alive(x, domain).all():
        raise ValueError("x0 must be a finite state inside the domain")
    table = system.drift
    gains = np.ones((batch, table.n_monomials)) if gains is None \
        else np.asarray(gains, dtype=float)
    if gains.shape != (batch, table.n_monomials) \
            or not np.all((gains >= 0.0) & (gains < np.inf)):
        raise ValueError("gains must be finite, non-negative and of shape "
                         "(B, monomials)")
    # the generated step, each monomial whose gains are not all 1.0 taken
    # as non-unit, binds |coef * gain| (tags, B), one float for a tag whose
    # rows share it, and sigma's entries
    varies = iter(np.any(gains != 1.0, axis=0).tolist())
    make, tags = _step_factory(table.d, tuple(tuple(
        (math.copysign(2.0, s) if next(varies) else s, e) for s, e in row)
        for row in table._shape), system.dim_noise)
    at = [sum(map(len, table.rows[:i])) + t for i, t, _ in tags]
    coefficients = np.array(_coefficients(table.rows, tags))[:, None] \
        * gains.T[at]
    shared = [float(k[0]) if batch and np.all(k == k[0]) else None
              for k in coefficients]
    sigma = system.sigma.ravel().tolist()
    dt, n = float(dt), inc.shape[1]
    states = np.empty((n + 1, batch, system.dim_state))
    states[0] = x
    first_dead = np.full(batch, n + 1)
    rows = np.arange(batch)     # the rows alive at the start of the block
    i0 = 0                      # the block's first step
    with np.errstate(over="ignore", invalid="ignore"):
        while i0 < n and len(rows):
            live = len(rows)
            m = min(_BLOCK, n - i0)
            if live > _FLOAT_ROWS:
                m = min(m, max(1, _COLUMN_VALUES // (live * system.dim_state)))
            # slices while every row lives: views, where an index array copies
            every = slice(None) if live == batch else rows
            noise = inc[every, i0:i0 + m]
            if live <= _FLOAT_ROWS:
                # one row's floats at a time: few float objects alive
                block = np.empty((m, live, system.dim_state))
                for r, (x_r, k_r) in enumerate(zip(
                        x.tolist(), coefficients[:, every].T.tolist())):
                    path = []
                    make(*k_r, *sigma)(*x_r, noise[r].tolist(), dt,
                                       path.extend)
                    block[:, r] = np.reshape(path, (m, -1))
            else:
                nodes = []
                make(*[k[every] if s is None else s for k, s in zip(
                    coefficients, shared)], *sigma)(
                    *x.T, np.ascontiguousarray(noise.transpose(1, 2, 0)),
                    dt, nodes.extend)
                block = np.array(nodes).reshape(m, -1, live).transpose(0, 2, 1)
            states[i0 + 1:i0 + 1 + m, every] = block
            block = states[i0 + 1:i0 + 1 + m, every]
            start, x = x, block[-1]
            ok = alive(block, domain)
            died = ~ok.all(axis=0)
            if died.any():
                dead = np.nonzero(died)[0]
                first = np.argmin(ok[:, dead], axis=0)
                for j, r in sorted(zip(first.tolist(), dead.tolist())):
                    if not np.all(np.isfinite(block[j, r])):
                        last = (block[j - 1, r] if j else start[r]).copy()
                        if not np.all(np.isfinite(
                                table.scaled(gains[rows[r]])(last))):
                            raise NumericalFailure(
                                "drift evaluated to non-finite values at "
                                f"step {i0 + j}", state=last, step=i0 + j)
                first_dead[rows[dead]] = i0 + 1 + first
                rows = rows[~died]
                x = x[~died]
            i0 += m
    _freeze(states, first_dead)
    return states, first_dead


def _freeze(states: np.ndarray, first_dead: np.ndarray) -> None:
    """Hold each row of states (n + 1, B, d) at its last live state from its
    first_dead node on, in place; rows with first_dead = n + 1 are kept."""
    if (first_dead < len(states)).any():
        frozen = np.arange(len(states))[:, None] >= first_dead
        last = states[first_dead - 1, np.arange(states.shape[1])]
        np.copyto(states, last, where=frozen[..., None])


def _row_path(times: np.ndarray, states: np.ndarray, first_dead: np.ndarray,
              row: int) -> ExplosivePath:
    """Row `row` of a batched integration as an ExplosivePath on `times`.

    states (n + 1, B, d) and first_dead (B,) come from euler_batch or the
    control-ODE integrator; the row is copied and set to nan from its
    first_dead node on.
    """
    end = int(first_dead[row])
    x = states[:, row].copy()
    x[end:] = np.nan
    return ExplosivePath(times=times, states=x,
                         explosion_index=end if end < len(times) else None)


def simulate_sde(system: SdeSystem, x0, noise: NoisePath,
                 scheme: str = "euler") -> ExplosivePath:
    """Simulate the system along the given noise, over its whole horizon.

    Parameters
    ----------
    system : SdeSystem
    x0 : array_like, shape (d,)
        Initial state; must lie in the domain.
    noise : NoisePath
        For scheme "euler" this carries Brownian increments with
        dim_noise = system.dim_noise. For scheme "exact_linear" the drift
        must be linear (system.linear is not None), and the noise supplies
        one standard normal d-vector per step (dim_noise =
        system.dim_state, increments scaled by sqrt(dt) as usual); the step
        is an exact draw from the Gaussian transition kernel.

    Both schemes are one-row cases of euler_batch. "euler" runs the system
    itself; "exact_linear" runs, on the system's domain, the linear table
    (P - I, N) of the transition (P, 0, N) = system.linear.bridge(dt) with
    width 1 and the standard normals as increments, whose Euler step
    x + (P - I) x * 1 + N z is the exact draw P x + N z. Explosion is
    declared at the first grid point whose state is not alive (outside the
    domain, non-finite or beyond OVERFLOW_GUARD); later rows are nan. An x0
    that is not alive raises ValueError, and non-finite coefficient values
    at an in-domain state raise NumericalFailure.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dim_state,):
        raise ValueError("x0 has wrong shape")
    n, dt = noise.n_steps, noise.dt
    times = dt * np.arange(n + 1)
    if scheme == "euler":
        if noise.dim_noise != system.dim_noise:
            raise ValueError("noise dimension does not match system.dim_noise")
        kernel, steps, width = system, noise.increments, dt
    elif scheme == "exact_linear":
        lin = system.linear
        if lin is None:
            raise ValueError("exact_linear requires a system with linear structure")
        if noise.dim_noise != system.dim_state:
            raise ValueError(
                "exact_linear consumes one standard normal per state coordinate; "
                "supply noise with dim_noise = dim_state"
            )
        prop, _, root = lin.bridge(dt)
        unit = np.eye(system.dim_state, dtype=int).tolist()
        rows = [[(c, unit[j]) for j, c in enumerate(row) if c]
                for row in (prop - np.eye(system.dim_state)).tolist()]
        kernel = SdeSystem(PolynomialDrift(system.dim_state, rows), root,
                           system.domain_contains)
        steps, width = noise.standard_normals(), 1.0
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    states, first_dead = euler_batch(kernel, x0[None], steps[None], width)
    return _row_path(times, states, first_dead, 0)


# ---------------------------------------------------------------------------
# Serialization: CSV columns t, x1..xd, exploded; JSON mirrors the fields.

def path_texts(path: ExplosivePath) -> tuple:
    """The CSV and JSON texts of a path: (csv_text, json_text).

    csv_text is what csv.writer writes for the columns t, x1..xd, exploded
    (CRLF line ends, empty state fields on dead rows), and json_text is
    json.dumps(path_to_json_dict(path), sort_keys=True, indent=2) and a
    newline. Every number is formatted once, by repr, and both texts are
    joined from the same per-row strings.
    """
    n, d = path.states.shape
    end = n if path.explosion_index is None else path.explosion_index
    times = list(map(repr, path.times.tolist()))
    rows = [",".join(map(repr, r)) for r in path.states[:end].tolist()]
    header = ",".join(["t"] + [f"x{j + 1}" for j in range(d)] + ["exploded"])
    csv_text = "".join([
        header, "\r\n",
        "".join(map("{},{},0\r\n".format, times, rows)),
        "".join(map(("{}" + "," * (d + 1) + "1\r\n").format, times[end:])),
    ])
    # ";" joins rows so that the value separators can be indented first
    live = ";".join(rows).replace(",", ",\n      ").replace(
        ";", "\n    ],\n    [\n      ")
    json_text = "".join([
        '{\n  "explosion_index": ', json.dumps(path.explosion_index),
        ',\n  "states": [\n    [\n      ', live, "\n    ]",
        ",\n    null" * (n - end),
        '\n  ],\n  "times": [\n    ', ",\n    ".join(times), "\n  ]\n}\n",
    ])
    # json spells the non-finite floats that repr writes as inf and nan
    # Infinity and NaN; no other token of the text contains either word
    return csv_text, json_text.replace("inf", "Infinity").replace("nan", "NaN")


def path_from_csv(fp) -> ExplosivePath:
    close = False
    if isinstance(fp, (str, bytes)):
        fp = open(fp, "r", newline="", encoding="utf-8")
        close = True
    try:
        reader = csv.reader(fp)
        header = next(reader)
        dim = len(header) - 2
        times, states, explosion = [], [], None
        for i, row in enumerate(reader):
            times.append(float(row[0]))
            if row[-1] == "1":
                if explosion is None:
                    explosion = i
                states.append([math.nan] * dim)
            else:
                states.append([float(v) for v in row[1 : 1 + dim]])
        return ExplosivePath(np.array(times), np.array(states), explosion)
    finally:
        if close:
            fp.close()


def path_to_json_dict(path: ExplosivePath) -> dict:
    return {
        "times": [float(t) for t in path.times],
        "states": [
            None
            if (path.explosion_index is not None and i >= path.explosion_index)
            else [float(v) for v in row]
            for i, row in enumerate(path.states)
        ],
        "explosion_index": path.explosion_index,
    }


def path_from_json_dict(doc: dict) -> ExplosivePath:
    times = np.asarray(doc["times"], dtype=float)
    expl = doc.get("explosion_index")
    dim = next(len(r) for r in doc["states"] if r is not None)
    states = np.array(
        [[math.nan] * dim if r is None else r for r in doc["states"]], dtype=float
    )
    return ExplosivePath(times, states, expl)


def path_to_csv_string(path: ExplosivePath) -> str:
    return path_texts(path)[0]
