"""Concrete weak metric spaces.

Euclidean space, the Poincare disk (with its closed-form boundary
functionals), the positive-definite cone with the symmetric Thompson
metric and its asymmetric Funk-type half, the stretch metric on sampled
distance functions, and the sup-log-Jacobian metric on circle
diffeomorphisms.  The Funk and stretch metrics genuinely take negative
values and are asymmetric.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import cmath
import math

import numpy as np

from .cocycle import _halves, _two_sum
from .core import MetricDomainError, DegenerateInputError, WeakMetricSpace

_TWO_PI = 2.0 * math.pi


class NotSpdError(ValueError):
    """Matrix is not symmetric positive definite."""


class NotDiffeomorphismError(ValueError):
    """Circle map has a nonpositive derivative on the evaluation grid."""


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
    """euclidean_dist(points[i[k]], points[j[k]]) for every k."""
    rows = _point_rows(points)
    d = rows[i] - rows[j]
    # each row's dot product, summed as np.linalg.norm sums one vector;
    # norm(d, axis=1) sums in another order
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


def euclidean_dist(x, y) -> float:
    return float(euclidean_dist_many((x, y), [0], [1])[0])


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


def _in_disk(z) -> bool:
    """Whether the point z is strictly inside the disk, by the distance
    kernel's own exact rule."""
    return bool(_rooms(np.array([complex(z)]))[0] > 0.0)


def _modulus(d: np.ndarray) -> np.ndarray:
    """|d| of each value of the complex array d, as sqrt(x^2 + y^2).

    x and y are first scaled by the power of two that brings the larger
    into [0.5, 1), so the squares neither underflow nor overflow.  The
    scaling is exact: wherever the unscaled squares are in range, the bits
    are those of the unscaled formula.
    """
    _, e = np.frexp(np.maximum(np.abs(d.real), np.abs(d.imag)))
    x, y = np.ldexp(d.real, -e), np.ldexp(d.imag, -e)
    return np.ldexp(np.sqrt(x * x + y * y), e)


def poincare_dist_many(points, i, j) -> np.ndarray:
    """poincare_dist(points[i[k]], points[j[k]]) for every k.

    2 asinh(|z - w| / sqrt((1 - |z|^2)(1 - |w|^2))) in real arithmetic:
    numpy's products, sums, quotients and square roots are correctly
    rounded, and asinh is math.asinh per value, not numpy's SIMD path, so
    the bits do not depend on the CPU.
    """
    z, room = _disk_rooms(points)
    ratio = _modulus(z[i] - z[j]) / np.sqrt(room[i] * room[j])
    return 2.0 * np.fromiter(map(math.asinh, ratio.flat), dtype=float, count=ratio.size)


def poincare_dist(z, w) -> float:
    """The disk distance 2 asinh(|z - w| / sqrt((1 - |z|^2)(1 - |w|^2)))."""
    return float(poincare_dist_many((z, w), [0], [1])[0])


def busemann_disk(xi, z) -> float:
    """Boundary functional of the disk: log(|xi - z|^2 / (1 - |z|^2)).

    Pointwise limit of h_x(z) for anchors x -> xi radially, normalized so
    that the value at the origin is 0.
    """
    xi = complex(xi)
    if abs(abs(xi) - 1.0) > 1e-12:
        raise MetricDomainError(f"xi must be on the unit circle, got |xi|={abs(xi)}")
    [z], [room] = _disk_rooms([z])
    return math.log(abs(xi - complex(z)) ** 2 / room)


def mobius_disk(a: complex) -> Callable[[complex], complex]:
    """Disk automorphism z -> (z + a) / (1 + conj(a) z), of one point or of
    each point of an array."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise MetricDomainError("Mobius parameter must lie inside the disk")

    def f(z):
        # a stack of points goes one point at a time through Python's
        # complex arithmetic, which rounds differently from numpy's
        if isinstance(z, np.ndarray):
            return np.array([f(w) for w in z.ravel().tolist()],
                            dtype=complex).reshape(z.shape)
        z = complex(z)
        return (z + a) / (1.0 + a.conjugate() * z)

    return f


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
                           sample_points=sample,
                           in_domain=_in_disk)


# ---------------------------------------------------------------------------
# Positive-definite cone: Thompson and Funk

def sym_part(m: np.ndarray) -> np.ndarray:
    """(m + m^T) / 2 of a matrix, or of each matrix of a (..., d, d) stack."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.swapaxes(-1, -2))


def _spd_stack(points) -> np.ndarray:
    """The points as one symmetrized (m, d, d) stack.

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
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite point
        asym = np.abs(s - s.swapaxes(1, 2)).max(axis=(1, 2))
        bad = ~np.isfinite(s).all(axis=(1, 2)) \
            | (asym > 1e-12 * np.maximum(1.0, np.abs(s).max(axis=(1, 2))))
    if bad.any():
        raise NotSpdError(f"point {np.argmax(bad)} is not symmetric positive definite")
    s = 0.5 * (s + s.swapaxes(1, 2))
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise NotSpdError("a point is not positive definite") from None
    return s


def sym_log(m: np.ndarray) -> np.ndarray:
    """Matrix logarithm of an SPD matrix via symmetric eigendecomposition."""
    w, v = np.linalg.eigh(_spd_stack([m])[0])
    return (v * np.log(w)) @ v.T


def _cone_log_eigs(points, i, j) -> np.ndarray:
    """log of the generalized eigenvalues of (points[j[k]], points[i[k]]),
    one row per k.

    The stack is checked once; each pencil is one LAPACK ``sygvd`` call
    (itype 1, eigenvalues only, lower triangle), the routine
    ``scipy.linalg.eigh(q, p, eigvals_only=True)`` uses.
    """
    import scipy.linalg     # at first use: most experiments never load scipy
    sygvd = scipy.linalg.get_lapack_funcs("sygvd", dtype=np.float64)
    s = _spd_stack(points)
    w = np.empty((len(i), s.shape[-1]))
    for k, (a, b) in enumerate(zip(np.asarray(i).tolist(), np.asarray(j).tolist())):
        w[k], _, info = sygvd(s[b], s[a], itype=1, jobz="N", uplo="L")
        if info > s.shape[-1]:
            raise NotSpdError(f"point {a} is not positive definite")
        if info:
            raise np.linalg.LinAlgError(f"sygvd failed with info {info}")
    return np.log(w)


def thompson_dist_many(points, i, j) -> np.ndarray:
    """thompson_dist(points[i[k]], points[j[k]]) for every k."""
    return np.abs(_cone_log_eigs(points, i, j)).max(axis=1)


def funk_dist_many(points, i, j) -> np.ndarray:
    """funk_dist(points[i[k]], points[j[k]]) for every k."""
    return _cone_log_eigs(points, i, j).max(axis=1)


def thompson_dist(p, q) -> float:
    """Spectral norm of log(p^{-1/2} q p^{-1/2}).

    Equals sup over unit vectors v of |log (qv,v)/(pv,v)|.
    """
    return float(thompson_dist_many((p, q), [0], [1])[0])


def funk_dist(p, q) -> float:
    """log of the largest generalized eigenvalue of (q, p); may be negative.

    Asymmetric half of the Thompson metric:
    max(funk(p,q), funk(q,p)) = thompson(p,q).
    """
    return float(funk_dist_many((p, q), [0], [1])[0])


def _random_spd_stack(rng: np.random.Generator, dim: int, m: int) -> np.ndarray:
    """m random SPD matrices as one (m, dim, dim) stack.

    Each matrix draws its normal (dim, dim) factor and then its scale; the
    products are formed for the whole stack at once.
    """
    factors = []
    scales = []
    for _ in range(m):
        factors.append(rng.normal(size=(dim, dim)))
        scales.append(math.exp(rng.uniform(-1.0, 1.0)))
    a = np.array(factors)
    return np.array(scales)[:, None, None] * (a @ a.swapaxes(1, 2) + 0.05 * np.eye(dim))


def random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _random_spd_stack(rng, dim, 1)[0]


def thompson_space(dim: int = 3) -> WeakMetricSpace:
    return WeakMetricSpace(name=f"thompson{dim}", dist_many=thompson_dist_many,
                           sample_points=lambda rng, m: _random_spd_stack(rng, dim, m))


def funk_space(dim: int = 3) -> WeakMetricSpace:
    return WeakMetricSpace(name=f"funk{dim}", dist_many=funk_dist_many,
                           sample_points=lambda rng, m: _random_spd_stack(rng, dim, m))


# ---------------------------------------------------------------------------
# Stretch metric on sampled distance functions

@dataclass(frozen=True)
class SampledDistanceFunction:
    """A distance function evaluated on a fixed finite sample.

    ``table_fn`` evaluates the whole pairwise table from a point list in one
    vectorized call; ``transform`` is an optional map applied to the sample
    points before evaluation, so that pullbacks compose maps instead of
    materializing tables.
    """

    sample: tuple
    table_fn: Callable
    transform: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # sample and table_fn are fixed, so the table is computed at most once
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def _mapped(self, i: int):
        x = self.sample[i]
        if self.transform is not None:
            x = self.transform(x)
            if not np.all(np.isfinite(np.asarray(x, dtype=float))):
                raise MetricDomainError(
                    f"transform mapped sample point {i} outside the domain")
        return x

    def matrix(self) -> np.ndarray:
        if "matrix" in self._cache:
            return self._cache["matrix"]
        n = len(self.sample)
        out = np.asarray(self.table_fn([self._mapped(i) for i in range(n)]),
                         dtype=float)
        if out.shape != (n, n) or not np.isfinite(out).all():
            raise MetricDomainError("table_fn produced an invalid table")
        np.fill_diagonal(out, 0.0)
        self._cache["matrix"] = out
        return out


def stretch_dist_many(points, i, j) -> np.ndarray:
    """stretch_dist(points[i[k]], points[j[k]]) for every k; each point's
    table is read once."""
    if len({len(p.sample) for p in points}) > 1:
        raise DegenerateInputError("distance functions sampled on different sets")
    n = len(points[0].sample)
    off = ~np.eye(n, dtype=bool)
    return _stretch_ratios(np.stack([p.matrix()[off] for p in points]), i, j)


def _stretch_ratios(tables: np.ndarray, i, j) -> np.ndarray:
    """log max(tables[j[k]] / tables[i[k]]) for every k; a row per point
    holds its off-diagonal table values."""
    if np.any(tables <= 0.0):
        raise DegenerateInputError("zero or negative off-diagonal distance value")
    return np.log(np.max(tables[j] / tables[i], axis=1))


def stretch_dist(d1: SampledDistanceFunction, d2: SampledDistanceFunction) -> float:
    """log of the max sampled ratio d2(x,y)/d1(x,y) over x != y; may be negative."""
    return float(stretch_dist_many((d1, d2), [0], [1])[0])


def pullback(T: Callable, d: SampledDistanceFunction) -> SampledDistanceFunction:
    """(T*d)(x, y) := d(Tx, Ty), composed lazily."""
    prev = d.transform
    if prev is None:
        composed = T
    else:
        def composed(x, _prev=prev, _T=T):
            return _prev(_T(x))
    return SampledDistanceFunction(sample=d.sample, table_fn=d.table_fn,
                                   transform=composed)


def _default_stretch_sample(rng: np.random.Generator, n_points: int = 6):
    return tuple(rng.normal(size=2) for _ in range(n_points))


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
    P = np.asarray(_default_stretch_sample(np.random.Generator(np.random.PCG64(12345))))
    gaps = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)
    off = ~np.eye(len(P), dtype=bool)

    def sample(rng, m):
        rows = np.empty((m, 4))
        for row in rows:
            row[0] = rng.uniform(-1.0, 1.0)
            row[1:3] = rng.normal(size=2)
            row[3] = rng.uniform(0.0, _TWO_PI)
        return rows

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


def ambient_norm_sdf(base_sample) -> SampledDistanceFunction:
    base_sample = tuple(np.asarray(p, dtype=float) for p in base_sample)

    def table_fn(pts):
        P = np.asarray(pts, dtype=float)
        return np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)

    return SampledDistanceFunction(sample=base_sample, table_fn=table_fn)


# ---------------------------------------------------------------------------
# Circle diffeomorphisms and the sup-log-Jacobian metric

@dataclass(frozen=True)
class CircleMap:
    """Orientation-preserving circle map with an explicit derivative.

    ``f`` and ``derivative`` must accept numpy arrays of angles.  If no
    derivative is supplied a central difference with step 1e-6 is used.
    """

    f: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def deriv(self, theta: np.ndarray) -> np.ndarray:
        if self.derivative is not None:
            return np.asarray(self.derivative(theta), dtype=float)
        h = 1e-6
        return (np.asarray(self.f(theta + h)) - np.asarray(self.f(theta - h))) / (2.0 * h)


def _wrap_angle(t: np.ndarray) -> np.ndarray:
    """t % 2pi, bit for bit, taking the remainder only of the entries it
    can change: those with the sign bit set (-0 too), at or past 2pi, or
    nan.  np.remainder is about 6x slower on a subnormal angle, which an
    orbit contracting onto theta = 0 reaches and keeps."""
    t = np.asarray(t, dtype=float)
    wrap = np.signbit(t) | ~(t < _TWO_PI)
    return np.remainder(t, _TWO_PI, out=t.copy(), where=wrap)


def identity_circle_map() -> CircleMap:
    return CircleMap(f=lambda t: np.asarray(t, dtype=float),
                     derivative=lambda t: np.ones_like(np.asarray(t, dtype=float)))


def rotation_circle_map(angle: float) -> CircleMap:
    return CircleMap(f=lambda t, _a=angle: np.asarray(t, dtype=float) + _a,
                     derivative=lambda t: np.ones_like(np.asarray(t, dtype=float)))


def sine_circle_map(amplitude: float, phase: float = 0.0, shift: float = 0.0) -> CircleMap:
    """theta -> theta + shift + amplitude*sin(theta + phase); needs |amplitude| < 1."""
    if abs(amplitude) >= 1.0:
        raise NotDiffeomorphismError("|amplitude| must be < 1 for a diffeomorphism")

    def f(t, _a=amplitude, _p=phase, _s=shift):
        t = np.asarray(t, dtype=float)
        return t + _s + _a * np.sin(t + _p)

    def df(t, _a=amplitude, _p=phase):
        t = np.asarray(t, dtype=float)
        return 1.0 + _a * np.cos(t + _p)

    return CircleMap(f=f, derivative=df)


def mobius_circle_map(a: float) -> CircleMap:
    """Circle map induced by the disk automorphism z -> (z+a)/(1+az), real a.

    Derivative (1 - a^2) / |1 + a e^{i theta}|^2; multiplier (1+a)/(1-a) at
    the repelling fixed point theta = pi.
    """
    a = float(a)
    if abs(a) >= 1.0:
        raise NotDiffeomorphismError("|a| must be < 1")

    def f(t, _a=a):
        t = np.asarray(t, dtype=float)
        z = np.exp(1j * t)
        return _wrap_angle(np.angle((z + _a) / (1.0 + _a * z)))

    def df(t, _a=a):
        t = np.asarray(t, dtype=float)
        return (1.0 - _a * _a) / np.abs(1.0 + _a * np.exp(1j * t)) ** 2

    return CircleMap(f=f, derivative=df)


def jacobian_dist_many(points, i, j, grid: int = 256) -> np.ndarray:
    """jacobian_dist(points[i[k]], points[j[k]], grid) for every k; each
    map's derivative is evaluated on the grid once."""
    if grid < 16:
        raise DegenerateInputError("grid must be >= 16")
    theta = np.linspace(0.0, _TWO_PI, grid, endpoint=False)
    derivs = np.empty((len(points), grid))
    for k, f in enumerate(points):
        derivs[k] = f.deriv(theta)
    return _jacobian_ratios(derivs, i, j)


def _jacobian_ratios(derivs: np.ndarray, i, j) -> np.ndarray:
    """max |log(derivs[j[k]] / derivs[i[k]])| for every k; a row per map
    holds its derivative on the grid."""
    if np.any(derivs <= 0.0):
        raise NotDiffeomorphismError("nonpositive derivative on the grid")
    # one (pairs, grid) array, worked in place
    ratio = derivs[j]
    ratio /= derivs[i]
    return np.abs(np.log(ratio, out=ratio), out=ratio).max(axis=1)


def jacobian_dist(f: CircleMap, g: CircleMap, grid: int = 256) -> float:
    """max over the grid of |log(g'(theta)/f'(theta))|; symmetric."""
    return float(jacobian_dist_many((f, g), [0], [1], grid)[0])


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


def registered_basepoints(spaces: dict) -> dict:
    """Natural basepoints for the registered spaces, keyed like the spaces."""
    out = {}
    for name, sp in spaces.items():
        if name == "euclidean":
            dim = int(sp.name.removeprefix("euclidean"))
            out[name] = np.zeros(dim)
        elif name == "poincare":
            out[name] = 0j
        elif name in ("thompson", "funk"):
            dim = int(sp.name.removeprefix(name))
            out[name] = np.eye(dim)
        elif name == "stretch":
            out[name] = np.zeros(4)   # the ambient norm
        elif name == "jacobian":
            out[name] = np.zeros(3)   # the identity map
    return out
