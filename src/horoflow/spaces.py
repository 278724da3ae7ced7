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
import scipy.linalg

from .core import MetricDomainError, DegenerateInputError, WeakMetricSpace


class NotSpdError(ValueError):
    """Matrix is not symmetric positive definite."""


class NotDiffeomorphismError(ValueError):
    """Circle map has a nonpositive derivative on the evaluation grid."""


# ---------------------------------------------------------------------------
# Euclidean

def euclidean_dist(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise MetricDomainError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(np.linalg.norm(x - y))


def euclidean_space(dim: int = 3) -> WeakMetricSpace:
    def sample(rng):
        return rng.normal(size=dim)

    return WeakMetricSpace(name=f"euclidean{dim}", dist=euclidean_dist,
                           sample_point=sample)


# ---------------------------------------------------------------------------
# Poincare disk

def _check_disk(z: complex) -> complex:
    z = complex(z)
    if abs(z) >= 1.0:
        raise MetricDomainError(f"point {z!r} not strictly inside the unit disk")
    return z


def poincare_dist(z, w) -> float:
    """2 artanh |(z-w)/(1 - conj(z) w)|."""
    z = _check_disk(z)
    w = _check_disk(w)
    num = abs(z - w)
    den = abs(1.0 - z.conjugate() * w)
    return 2.0 * math.atanh(num / den)


def busemann_disk(xi, z) -> float:
    """Boundary functional of the disk: log(|xi - z|^2 / (1 - |z|^2)).

    Pointwise limit of h_x(z) for anchors x -> xi radially, normalized so
    that the value at the origin is 0.
    """
    xi = complex(xi)
    if abs(abs(xi) - 1.0) > 1e-12:
        raise MetricDomainError(f"xi must be on the unit circle, got |xi|={abs(xi)}")
    z = _check_disk(z)
    return math.log(abs(xi - z) ** 2 / (1.0 - abs(z) ** 2))


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
    def sample(rng):
        r = 0.95 * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        return r * cmath.exp(1j * theta)

    return WeakMetricSpace(name="poincare", dist=poincare_dist,
                           sample_point=sample,
                           in_domain=lambda z: abs(complex(z)) < 1.0)


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


_SYGVD = scipy.linalg.get_lapack_funcs("sygvd", dtype=np.float64)


def _cone_log_eigs(points, i, j) -> np.ndarray:
    """log of the generalized eigenvalues of (points[j[k]], points[i[k]]),
    one row per k.

    The stack is checked once; each pencil is one LAPACK ``sygvd`` call
    (itype 1, eigenvalues only, lower triangle), the routine
    ``scipy.linalg.eigh(q, p, eigvals_only=True)`` uses.
    """
    s = _spd_stack(points)
    w = np.empty((len(i), s.shape[-1]))
    for k, (a, b) in enumerate(zip(np.asarray(i).tolist(), np.asarray(j).tolist())):
        w[k], _, info = _SYGVD(s[b], s[a], itype=1, jobz="N", uplo="L")
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


def random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    scale = math.exp(rng.uniform(-1.0, 1.0))
    return scale * (a @ a.T + 0.05 * np.eye(dim))


def thompson_space(dim: int = 3) -> WeakMetricSpace:
    return WeakMetricSpace(name=f"thompson{dim}", dist=thompson_dist,
                           dist_many=thompson_dist_many,
                           sample_point=lambda rng: random_spd(rng, dim))


def funk_space(dim: int = 3) -> WeakMetricSpace:
    return WeakMetricSpace(name=f"funk{dim}", dist=funk_dist,
                           dist_many=funk_dist_many,
                           sample_point=lambda rng: random_spd(rng, dim))


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
    tables = np.stack([p.matrix()[off] for p in points])
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


def stretch_space() -> WeakMetricSpace:
    """Stretch metric over random conformal-factor perturbations of the norm.

    Sampled points are distance functions ||x-y|| * exp((phi(x)+phi(y))/2)
    for a random bounded field phi, all bi-Lipschitz to the ambient norm.
    """
    base_sample = _default_stretch_sample(np.random.Generator(np.random.PCG64(12345)))

    def sample(rng):
        a = rng.uniform(-1.0, 1.0)
        k = rng.normal(size=2)
        phase = rng.uniform(0.0, 2.0 * math.pi)

        def table_fn(pts, _a=a, _k=k, _p=phase):
            P = np.asarray(pts, dtype=float)
            gaps = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)
            phi = _a * np.sin(P @ _k + _p)
            return gaps * np.exp(0.5 * (phi[:, None] + phi[None, :]))

        return SampledDistanceFunction(sample=base_sample, table_fn=table_fn)

    return WeakMetricSpace(name="stretch", dist=stretch_dist,
                           dist_many=stretch_dist_many, sample_point=sample)


def ambient_norm_sdf(base_sample) -> SampledDistanceFunction:
    base_sample = tuple(np.asarray(p, dtype=float) for p in base_sample)

    def table_fn(pts):
        P = np.asarray(pts, dtype=float)
        return np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)

    return SampledDistanceFunction(sample=base_sample, table_fn=table_fn)


# ---------------------------------------------------------------------------
# Circle diffeomorphisms and the sup-log-Jacobian metric

_TWO_PI = 2.0 * math.pi


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
        return np.angle((z + _a) / (1.0 + _a * z)) % _TWO_PI

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
    grid = 128

    def sample(rng):
        return sine_circle_map(amplitude=rng.uniform(-0.8, 0.8),
                               phase=rng.uniform(0.0, _TWO_PI),
                               shift=rng.uniform(0.0, _TWO_PI))

    return WeakMetricSpace(name="jacobian",
                           dist=lambda f, g: jacobian_dist(f, g, grid),
                           dist_many=lambda pts, i, j: jacobian_dist_many(pts, i, j, grid),
                           sample_point=sample)


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
            probe = sp.sample_point(np.random.Generator(np.random.PCG64(0)))
            out[name] = ambient_norm_sdf(probe.sample)
        elif name == "jacobian":
            out[name] = identity_circle_map()
    return out
