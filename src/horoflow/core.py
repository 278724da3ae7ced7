"""Weak-metric contracts.

A weak metric is a distance function with d(x, x) = 0 and the triangle
inequality, but possibly asymmetric and possibly negative.  This module
defines the space contract and the sampled property suites: the metric
axioms, and the bounds of the metric functionals
h(y) = d(y, anchor) - d(x0, anchor).  Concrete spaces live in
:mod:`horoflow.spaces`.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import math

import numpy as np

# samples per batched evaluation in the property suites; bounds the points
# and distance temporaries held at once.  Each block is one sample_points
# draw, so it also fixes the draw order: changing it re-pins the
# metric-axioms digests
_BLOCK = 64


class MetricDomainError(ValueError):
    """A distance evaluation left the space's domain or was non-finite."""


class DegenerateInputError(ValueError):
    """Inputs too degenerate for the requested computation."""


@dataclass(frozen=True)
class WeakMetricSpace:
    """A point domain plus a (possibly asymmetric, possibly negative) distance.

    ``dist_many(points, i, j)`` is the distance kernel: it returns the array
    of d(points[i[k]], points[j[k]]) for every k, doing per-point work once
    per point.  ``sample_points(rng, m)`` draws m random points from the
    domain as one sequence (a stacked array where the points allow); it is
    required by the sampled axiom and functional suites.
    """

    name: str
    dist_many: Callable[[Sequence, np.ndarray, np.ndarray], np.ndarray]
    sample_points: Optional[Callable[[np.random.Generator, int], Sequence]] = None

    def distances(self, points: Sequence, i, j) -> np.ndarray:
        """d(points[i[k]], points[j[k]]) for every k, as one float array."""
        v = np.asarray(self.dist_many(points, i, j), dtype=float)
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            k = bad[0]
            raise self._non_finite(float(v[k]), points[i[k]], points[j[k]])
        return v

    def _non_finite(self, v, x, y) -> MetricDomainError:
        return MetricDomainError(
            f"{self.name}: non-finite distance {v!r} for pair ({x!r}, {y!r})")


@dataclass(frozen=True)
class AxiomReport:
    max_identity_error: float
    max_triangle_violation: float  # relative slack
    min_pair_symmetrization: float


def _fold_max(start: float, values: np.ndarray) -> float:
    """max(start, *values) as Python folds it: the first of equal values wins,
    so a -0.0 never replaces a 0.0 start."""
    return max(start, float(values[np.argmax(values)]))


def _fold_min(start: float, values: np.ndarray) -> float:
    """min(start, *values) as Python folds it."""
    return min(start, float(values[np.argmin(values)]))


def _point_blocks(space: WeakMetricSpace, n: int, rng: np.random.Generator):
    """Blocks of sampled points, three per sample and at most ``_BLOCK``
    samples each, drawn in order from rng by one ``sample_points`` call a
    block."""
    if space.sample_points is None:
        raise DegenerateInputError(f"{space.name}: no point sampler registered")
    if n < 1:
        raise DegenerateInputError("the sample count must be >= 1")
    return (space.sample_points(rng, 3 * min(_BLOCK, n - start))
            for start in range(0, n, _BLOCK))


def _with_point(points: Sequence, x) -> Sequence:
    """The points followed by x: one stacked array when x has the shape of
    a row of a stacked block, else a list."""
    if isinstance(points, np.ndarray) and np.shape(x) == points.shape[1:]:
        return np.concatenate((points, np.asarray(x)[None]))
    return [*points, x]


def check_weak_metric_axioms(space: WeakMetricSpace, n_triples: int,
                             rng: np.random.Generator) -> AxiomReport:
    """Sample triples and measure the worst-case axiom defects.

    Triangle violations are reported relative to the magnitude of the
    distances involved, since transcendental distance formulas accumulate
    rounding proportional to their size.  Triples are drawn from rng in
    blocks, in the order x, y, z of each triple; every distance of a block
    is one batched evaluation.
    """
    max_id = 0.0
    max_tri = 0.0
    min_pair = math.inf
    for points in _point_blocks(space, n_triples, rng):
        x = np.arange(0, len(points), 3)
        y = x + 1
        z = x + 2
        dxx, dxy, dxz, dzy, dyx = space.distances(
            points, np.concatenate([x, x, x, z, y]),
            np.concatenate([x, y, z, y, x])).reshape(5, -1)
        scale = np.maximum(np.maximum(np.maximum(1.0, np.abs(dxy)), np.abs(dxz)),
                           np.abs(dzy))
        max_id = _fold_max(max_id, np.abs(dxx))
        max_tri = _fold_max(max_tri, (dxy - dxz - dzy) / scale)
        min_pair = _fold_min(min_pair, dxy + dyx)
    return AxiomReport(max_identity_error=max_id,
                       max_triangle_violation=max_tri,
                       min_pair_symmetrization=min_pair)


@dataclass(frozen=True)
class FunctionalBoundReport:
    max_lower_violation: float   # of -d(x0,y) <= h(y)
    max_upper_violation: float   # of h(y) <= d(y,x0)
    max_continuity_violation: float  # of |h(y)-h(z)| <= max{d(y,z), d(z,y)}


def check_functional_bounds(space: WeakMetricSpace, x0, n_samples: int,
                            rng: np.random.Generator) -> FunctionalBoundReport:
    """Worst-case defects of the metric-functional bounds on random samples.

    Samples are drawn from rng in blocks, in the order anchor, y, z of each
    sample; every distance of a block, x0 included, is one batched
    evaluation.
    """
    low = up = cont = 0.0
    for points in _point_blocks(space, n_samples, rng):
        a = np.arange(0, len(points), 3)
        y = a + 1
        z = a + 2
        x = np.full(a.size, len(points))
        points = _with_point(points, x0)
        dxa, dya, dza, dxy, dyx, dyz, dzy = space.distances(
            points, np.concatenate([x, y, z, x, y, y, z]),
            np.concatenate([a, a, a, y, x, z, y])).reshape(7, -1)
        hy = dya - dxa
        hz = dza - dxa
        # the symmetrization max(d(y,z), d(z,y)), as Python's max: the first wins a tie
        sym = np.where(dzy > dyz, dzy, dyz)
        low = _fold_max(low, -dxy - hy)
        up = _fold_max(up, hy - dyx)
        cont = _fold_max(cont, np.abs(hy - hz) - sym)
    return FunctionalBoundReport(max_lower_violation=low,
                                 max_upper_violation=up,
                                 max_continuity_violation=cont)
