"""Concrete weak metric spaces.

Euclidean space, the Poincare disk, the positive-definite cone with the
symmetric Thompson metric and its asymmetric Funk-type half, the stretch
metric on sampled distance functions, and the sup-log-Jacobian metric on
circle diffeomorphisms.  The Funk and stretch metrics genuinely take negative
values and are asymmetric.
"""

from dataclasses import dataclass
from typing import Callable

import cmath
import math

import numpy as np

from ._exact import _halves, _modulus, _pow2_normalize, _two_sum
from .core import MetricDomainError, DegenerateInputError, WeakMetricSpace

_TWO_PI = 2.0 * math.pi


class NotSpdError(ValueError):
    """Matrix is not symmetric positive definite."""


class NotDiffeomorphismError(ValueError):
    """Circle map has a nonpositive or non-finite derivative on the evaluation grid."""


# ---------------------------------------------------------------------------
# Euclidean

def _point_rows(points) -> np.ndarray:
    """The points as one float array with a (flattened) row per point.

    Raises MetricDomainError when their shapes differ.
    """
    if not isinstance(points, np.ndarray):
        shapes = {np.shape(p) for p in points}
        if len(shapes) > 1:
            raise MetricDomainError(f"dimension mismatch: {sorted(shapes)}")
    rows = np.asarray(points, dtype=float)
    return rows.reshape(len(rows), -1)


def euclidean_dist_many(points, i, j) -> np.ndarray:
    """||points[i[k]] - points[j[k]]|| for every k."""
    rows = _point_rows(points)
    # each row scaled by a power of two, as _modulus scales, so its squares
    # neither underflow nor overflow; its dot product sums as np.linalg.norm
    # sums one vector (norm(d, axis=1) sums in another order)
    d, e = _pow2_normalize(rows[i] - rows[j], 1)
    return np.ldexp(np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]), e)


def euclidean_space(dim: int = 3) -> WeakMetricSpace:
    return WeakMetricSpace(name=f"euclidean{dim}", dist_many=euclidean_dist_many,
                           sample_points=lambda rng, m: rng.normal(size=(m, dim)))


# ---------------------------------------------------------------------------
# Poincare disk

def _rooms(z: np.ndarray) -> np.ndarray:
    """1 - |z|^2 of each point of the complex array z (not > 0 for a
    non-finite point).

    Each room is the sum of 1 and the negated squares and cross terms of
    the Veltkamp halves of the point's real and imaginary parts, all of
    them exact.  Two error-free passes of Knuth's sum and then a plain sum
    (Ogita, Rump and Oishi's Sum3) are as accurate as a sum in triple
    precision rounded once, out to the circle.  A point is inside the disk
    exactly when its room is > 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a far or non-finite point
        xh, xl = _halves(z.real)
        yh, yl = _halves(z.imag)
        terms = [np.ones(len(z))] + [-t for t in (xh * xh, yh * yh, 2.0 * xh * xl,
                                                  2.0 * yh * yl, xl * xl, yl * yl)]
        for _ in range(2):
            for k in range(1, len(terms)):
                terms[k], terms[k - 1] = _two_sum(terms[k - 1], terms[k])
        return terms[-1] + sum(terms[:-1])


def _disk_rooms(points):
    """(z, room): the points as one complex array, and 1 - |z|^2 of each.

    Raises MetricDomainError unless every room is > 0.
    """
    z = np.asarray(points, dtype=complex)
    room = _rooms(z)
    outside = np.flatnonzero(~(room > 0.0))
    if outside.size:
        raise MetricDomainError(
            f"point {complex(z[outside[0]])!r} not strictly inside the unit disk")
    return z, room


def poincare_dist_many(points, i, j) -> np.ndarray:
    """The disk distance of (points[i[k]], points[j[k]]) for every k.

    2 asinh(|z - w| / sqrt((1 - |z|^2)(1 - |w|^2))) in real arithmetic:
    numpy's products, sums, quotients and square roots are correctly
    rounded, and asinh is math.asinh per value, not numpy's SIMD path, so
    the bits do not depend on the CPU.
    """
    z, room = _disk_rooms(points)
    ratio = _modulus(z[i] - z[j]) / np.sqrt(room[i] * room[j])
    return 2.0 * np.fromiter(map(math.asinh, ratio.flat), dtype=float, count=ratio.size)


def poincare_space() -> WeakMetricSpace:
    def sample(rng, m):
        # one (r, theta) draw pair a point; each point through Python's
        # complex arithmetic
        out = []
        for u, v in rng.random(size=(m, 2)).tolist():
            r = 0.95 * math.sqrt(u)
            theta = _TWO_PI * v
            out.append(r * cmath.exp(1j * theta))
        return out

    return WeakMetricSpace(name="poincare", dist_many=poincare_dist_many,
                           sample_points=sample)


# ---------------------------------------------------------------------------
# Positive-definite cone: Thompson and Funk

def sym_part(m: np.ndarray) -> np.ndarray:
    """(m + m^T) / 2 of a matrix, or of each matrix of a (..., d, d) stack,
    as m + (m^T - m) / 2: m + m^T could overflow."""
    m = np.asarray(m, dtype=float)
    return m + 0.5 * (m.swapaxes(-1, -2) - m)


def _spd_stack(points):
    """(s, l): the points as one symmetrized (m, d, d) stack, and the
    Cholesky factor l[k] of each point, s[k] = l[k] l[k]^T.

    Raises NotSpdError unless every point is a finite, symmetric (to
    rounding) positive-definite matrix, and MetricDomainError when their
    sizes differ.
    """
    if isinstance(points, np.ndarray) and points.ndim == 3:   # a stacked block
        s = points.astype(float, copy=False)
        if s.shape[1] != s.shape[2]:
            raise NotSpdError("point 0 is not symmetric positive definite")
    else:
        mats = [np.asarray(p, dtype=float) for p in points]
        for k, m in enumerate(mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise NotSpdError(f"point {k} is not symmetric positive definite")
        if len({m.shape for m in mats}) > 1:
            raise MetricDomainError(f"dimension mismatch: {sorted({m.shape for m in mats})}")
        s = np.stack(mats)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite or far-off point
        asym = np.abs(s - s.swapaxes(1, 2)).max(axis=(1, 2))
        bad = ~np.isfinite(s).all(axis=(1, 2)) \
            | (asym > 1e-12 * np.maximum(1.0, np.abs(s).max(axis=(1, 2))))
    if bad.any():
        raise NotSpdError(f"point {np.argmax(bad)} is not symmetric positive definite")
    s = sym_part(s)
    try:
        return s, np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise NotSpdError("a point is not positive definite") from None


def _cone_log_eigs(points, i, j) -> np.ndarray:
    """log of the generalized eigenvalues of (points[j[k]], points[i[k]]),
    one row per k, in descending order.

    With each point factored once, P = L L^T, they are the squared singular
    values of L_P^-1 L_Q, from one stacked SVD: its relative error grows
    with the condition of L_P^-1 L_Q, not with its square as in the
    eigenvalues of L_P^-1 Q L_P^-T, and no eigenvalue itself is formed, so
    none leaves the double range.
    """
    _, l = _spd_stack(points)
    return 2.0 * np.log(np.linalg.svd(np.linalg.inv(l)[i] @ l[j], compute_uv=False))


def thompson_dist_many(points, i, j) -> np.ndarray:
    """The Thompson distance of (p, q) = (points[i[k]], points[j[k]]) for
    every k: the spectral norm of log(p^{-1/2} q p^{-1/2}), which equals
    sup over unit vectors v of |log (qv,v)/(pv,v)|."""
    return np.abs(_cone_log_eigs(points, i, j)).max(axis=1)


def funk_dist_many(points, i, j) -> np.ndarray:
    """The Funk distance of (p, q) = (points[i[k]], points[j[k]]) for every
    k: log of the largest generalized eigenvalue of (q, p), which may be
    negative.  The asymmetric half of the Thompson metric:
    max(funk(p,q), funk(q,p)) = thompson(p,q)."""
    return _cone_log_eigs(points, i, j).max(axis=1)


def _random_spd_stack(rng: np.random.Generator, dim: int, m: int) -> np.ndarray:
    """m random SPD matrices as one (m, dim, dim) stack: the normal
    (dim, dim) factors of all m, then their m scales.  Each scale is
    math.exp per value, not numpy's SIMD exp, so its bits do not depend on
    the CPU.
    """
    a = rng.normal(size=(m, dim, dim))
    scales = np.fromiter(map(math.exp, rng.uniform(-1.0, 1.0, size=m)), dtype=float, count=m)
    return scales[:, None, None] * (a @ a.swapaxes(1, 2) + 0.05 * np.eye(dim))


def thompson_space(dim: int = 3) -> WeakMetricSpace:
    return WeakMetricSpace(name=f"thompson{dim}", dist_many=thompson_dist_many,
                           sample_points=lambda rng, m: _random_spd_stack(rng, dim, m))


def funk_space(dim: int = 3) -> WeakMetricSpace:
    return WeakMetricSpace(name=f"funk{dim}", dist_many=funk_dist_many,
                           sample_points=lambda rng, m: _random_spd_stack(rng, dim, m))


# ---------------------------------------------------------------------------
# Stretch metric on sampled distance functions

def _stretch_ratios(tables: np.ndarray, i, j) -> np.ndarray:
    """log max(tables[j[k]] / tables[i[k]]) for every k; a row per point
    holds its off-diagonal table values."""
    if np.any(tables <= 0.0):
        raise DegenerateInputError("zero or negative off-diagonal distance value")
    return np.log(np.max(tables[j] / tables[i], axis=1))


def _param_rows(points, width: int, kind: str) -> np.ndarray:
    """Parameter-row points as one (m, width) array of finite values."""
    rows = _point_rows(points)
    if rows.shape[1] != width:
        raise MetricDomainError(
            f"{kind} points are rows of {width} parameters, got {rows.shape[1]}")
    if not np.isfinite(rows).all():
        raise MetricDomainError(f"{kind}: non-finite parameter in a point")
    return rows


def stretch_space() -> WeakMetricSpace:
    """Stretch metric over random conformal-factor perturbations of the norm.

    Sampled points are distance functions ||x-y|| * exp((phi(x)+phi(y))/2)
    on a fixed six-point sample of the plane, for the bounded field
    phi(x) = a sin(k . x + phase); all are bi-Lipschitz to the ambient norm.
    A point is its parameter row (a, k1, k2, phase); the zero row is the
    ambient norm itself.
    """
    P = np.random.Generator(np.random.PCG64(12345)).normal(size=(6, 2))
    gaps = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)
    off = ~np.eye(len(P), dtype=bool)

    def sample(rng, m):
        return np.column_stack((rng.uniform(-1.0, 1.0, size=m), rng.normal(size=(m, 2)),
                                rng.uniform(0.0, _TWO_PI, size=m)))

    def dist_many(points, i, j):
        rows = _param_rows(points, 4, "stretch")
        # P @ k of each row as one stacked matrix-vector product: K @ P.T
        # would round differently
        pk = np.matmul(P, rows[:, 1:3, None])[:, :, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            phi = rows[:, :1] * np.sin(pk + rows[:, 3:])
            tables = gaps * np.exp(0.5 * (phi[:, :, None] + phi[:, None, :]))
        bad = ~np.isfinite(tables).all(axis=(1, 2))
        if bad.any():
            raise MetricDomainError(f"stretch: point {np.argmax(bad)} has a non-finite table")
        return _stretch_ratios(tables[:, off], i, j)

    return WeakMetricSpace(name="stretch", dist_many=dist_many, sample_points=sample)


# ---------------------------------------------------------------------------
# Circle diffeomorphisms and the sup-log-Jacobian metric

@dataclass(frozen=True)
class CircleMap:
    """Orientation-preserving circle map with an explicit derivative.

    ``f_and_deriv`` takes a numpy array of angles and returns the float
    arrays ``(f(theta), f'(theta))`` from one call, which shares the work
    the two have in common.
    """

    f_and_deriv: Callable[[np.ndarray], tuple]


def _wrap_angle(t: np.ndarray) -> np.ndarray:
    """t % 2pi, bit for bit, taking the remainder only of the entries it
    can change: those with the sign bit set (-0 too), at or past 2pi, or
    nan.  np.remainder is about 6x slower on a subnormal angle, which an
    orbit contracting onto theta = 0 reaches and keeps."""
    t = np.asarray(t, dtype=float)
    wrap = np.signbit(t) | ~(t < _TWO_PI)
    return np.remainder(t, _TWO_PI, out=t.copy(), where=wrap)


def rotation_circle_map(angle: float) -> CircleMap:
    def f_and_df(t, _a=angle):
        t = np.asarray(t, dtype=float)
        return t + _a, np.ones_like(t)

    return CircleMap(f_and_df)


def sine_circle_map(amplitude: float, phase: float = 0.0, shift: float = 0.0) -> CircleMap:
    """theta -> theta + shift + amplitude*sin(theta + phase); needs |amplitude| < 1."""
    if abs(amplitude) >= 1.0:
        raise NotDiffeomorphismError("|amplitude| must be < 1 for a diffeomorphism")

    def f_and_df(t, _a=amplitude, _p=phase, _s=shift):
        t = np.asarray(t, dtype=float)
        return t + _s + _a * np.sin(t + _p), 1.0 + _a * np.cos(t + _p)

    return CircleMap(f_and_df)


def mobius_circle_map(a: float) -> CircleMap:
    """Circle map induced by the disk automorphism z -> (z+a)/(1+az), real a.

    Derivative (1 - a^2) / |1 + a e^{i theta}|^2; multiplier (1+a)/(1-a) at
    the repelling fixed point theta = pi.  Both are taken in real
    arithmetic: (z+a)/(1+az) at z = e^{i theta}, times |1 + az|^2, has real
    part (1 + a^2) cos theta + 2a and imaginary part (1 - a^2) sin theta,
    and |1 + az|^2 = 1 + a^2 + 2a cos theta.
    """
    a = float(a)
    if abs(a) >= 1.0:
        raise NotDiffeomorphismError("|a| must be < 1")
    p, q, r = 1.0 - a * a, 1.0 + a * a, 2.0 * a

    def f_and_df(t):    # one sin and one cos, shared by f and df
        t = np.asarray(t, dtype=float)
        cos = np.cos(t)
        return _wrap_angle(np.arctan2(p * np.sin(t), q * cos + r)), p / (q + r * cos)

    return CircleMap(f_and_df)


def _jacobian_ratios(derivs: np.ndarray, i, j) -> np.ndarray:
    """max |log(derivs[j[k]] / derivs[i[k]])| for every k; a row per map
    holds its derivative on the grid."""
    if not np.all((derivs > 0.0) & (derivs < math.inf)):    # nan fails both
        raise NotDiffeomorphismError("nonpositive or non-finite derivative on the grid")
    # one (pairs, grid) array, worked in place
    ratio = derivs[j]
    ratio /= derivs[i]
    return np.abs(np.log(ratio, out=ratio), out=ratio).max(axis=1)


def jacobian_space() -> WeakMetricSpace:
    """sup-log-Jacobian metric over random sine circle maps.

    A point is the parameter row (amplitude, phase, shift) of
    ``sine_circle_map``; the zero row is the identity map.
    """
    theta = np.linspace(0.0, _TWO_PI, 128, endpoint=False)

    def dist_many(points, i, j):
        rows = _param_rows(points, 3, "jacobian")
        if np.any(np.abs(rows[:, 0]) >= 1.0):
            raise NotDiffeomorphismError("|amplitude| must be < 1 for a diffeomorphism")
        return _jacobian_ratios(1.0 + rows[:, :1] * np.cos(theta + rows[:, 1:2]), i, j)

    return WeakMetricSpace(
        name="jacobian", dist_many=dist_many,
        sample_points=lambda rng, m: rng.uniform(
            [-0.8, 0.0, 0.0], [0.8, _TWO_PI, _TWO_PI], size=(m, 3)))


# ---------------------------------------------------------------------------

def registered_spaces(dim: int = 3) -> dict:
    """The six metrics exercised by the axiom and functional suites."""
    return {
        "euclidean": euclidean_space(dim),
        "poincare": poincare_space(),
        "thompson": thompson_space(dim),
        "funk": funk_space(dim),
        "stretch": stretch_space(),
        "jacobian": jacobian_space(),
    }


def registered_basepoints(dim: int = 3) -> dict:
    """Natural basepoints of ``registered_spaces(dim)``, keyed like the spaces."""
    return {
        "euclidean": np.zeros(dim),
        "poincare": 0j,
        "thompson": np.eye(dim),
        "funk": np.eye(dim),
        "stretch": np.zeros(4),     # the ambient norm
        "jacobian": np.zeros(3),    # the identity map
    }
