"""Ergodic cocycles of nonexpansive maps.

Drivers emit seeded sequences of maps (or matrices); the engine evaluates
orbits u(n)x0 in a declared composition order, the subadditive distance
cocycle a(n) = d(x0, u(n)x0), the top exponent lim a(n)/n, and a
convergence diagnostic comparing -h(u(n)x0)/n against a(n)/n for the
metric functional anchored at the final orbit point.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import bisect
import math

import numpy as np

from .core import DegenerateInputError, WeakMetricSpace
from .seeding import trial_rng

GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0

RIGHT = "right_increment"
LEFT = "left_increment"


class IntegrabilityError(RuntimeError):
    """A sampled step distance was non-finite."""


class EstimationError(RuntimeError):
    """Too many trials were truncated for a trustworthy estimate."""


@dataclass(frozen=True)
class ErgodicDriver:
    """A seeded generator of map sequences.

    kind:
      - ``iid_finite``: i.i.d. choice among ``maps`` with ``weights``;
      - ``iid_parametric``: ``sampler(rng)`` draws a fresh map each step;
      - ``rotation``: an irrational circle rotation by ``angle`` with the
        unit interval partitioned at ``breakpoints`` (ascending, last 1.0),
        interval i labeled by maps[i].

    ``order`` declares the composition convention: ``right_increment``
    appends new maps innermost (u(n) = g1 g2 ... gn), ``left_increment``
    outermost (v(n) = gn ... g2 g1).

    Orbits apply each map to a stack of points along one leading axis
    (the points of every trial and checkpoint that drew it), so a map
    must act on each point of a stack as it acts on that point alone;
    ``x + 1.0`` does.  numpy's complex multiply and divide round
    differently from Python's, so a map of scalar complex points that
    must round as Python does loops over the stack, as
    :func:`horoflow.spaces.mobius_disk` does.
    """

    kind: str
    seed: int
    order: str = RIGHT
    maps: tuple = ()
    weights: tuple = ()
    sampler: Optional[Callable[[np.random.Generator], Any]] = None
    angle: float = GOLDEN_ROTATION
    breakpoints: tuple = ()

    def __post_init__(self):
        if self.kind not in ("iid_finite", "iid_parametric", "rotation"):
            raise ValueError(f"unknown driver kind {self.kind!r}")
        if self.order not in (RIGHT, LEFT):
            raise ValueError(f"unknown composition order {self.order!r}")
        if self.kind == "iid_finite":
            if not self.maps:
                raise ValueError("iid_finite driver needs maps")
            w = self.weights or tuple(1.0 / len(self.maps) for _ in self.maps)
            if abs(sum(w) - 1.0) > 1e-12:
                raise ValueError("probability weights must sum to 1")
            object.__setattr__(self, "weights", tuple(w))
        if self.kind == "iid_parametric" and self.sampler is None:
            raise ValueError("iid_parametric driver needs a sampler")
        if self.kind == "rotation":
            if not self.maps:
                raise ValueError("rotation driver needs maps")
            bp = self.breakpoints or tuple((i + 1) / len(self.maps)
                                           for i in range(len(self.maps)))
            if len(bp) != len(self.maps) or abs(bp[-1] - 1.0) > 1e-12 \
                    or any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
                raise ValueError("breakpoints must ascend to 1.0, one per map")
            object.__setattr__(self, "breakpoints", tuple(bp))

    def rng(self, trial: int) -> np.random.Generator:
        return trial_rng(self.seed, trial)

    def indices(self, trial: int, n: int) -> np.ndarray:
        """Positions in ``maps`` of the first n emitted maps, deterministically.

        Only finite and rotation drivers choose among ``maps``; parametric
        drivers raise ValueError.
        """
        if self.kind == "iid_parametric":
            raise ValueError("iid_parametric drivers draw maps, not indices")
        rng = self.rng(trial)
        if self.kind == "iid_finite":
            return rng.choice(len(self.maps), size=n, p=np.asarray(self.weights))
        theta0 = rng.random()
        pos = (theta0 + self.angle * np.arange(n)) % 1.0
        idx = np.searchsorted(np.asarray(self.breakpoints), pos, side="right")
        return np.minimum(idx, len(self.maps) - 1)

    def elements(self, trial: int, n: int) -> list:
        """The first n emitted maps g(omega), g(T omega), ..., deterministically."""
        if self.kind == "iid_parametric":
            rng = self.rng(trial)
            return [self.sampler(rng) for _ in range(n)]
        return [self.maps[i] for i in self.indices(trial, n)]


def element_stack(driver: ErgodicDriver, trials, n: int, dtype=float):
    """(mats, idx): the first n elements of each listed trial as positions
    in one stack.

    ``mats`` is an (m, d, d) array and row t of the (len(trials), n) array
    ``idx`` lists the positions of trial t's elements in step order.  Finite
    and rotation drivers stack their ``maps`` and index them with
    :meth:`ErgodicDriver.indices`; parametric drivers stack every draw.
    """
    if driver.kind == "iid_parametric":
        mats = np.asarray([driver.elements(t, n) for t in trials], dtype=dtype)
        mats = mats.reshape(-1, *mats.shape[-2:])
        return mats, np.arange(len(mats)).reshape(-1, n)
    return (np.asarray(driver.maps, dtype=dtype),
            np.array([driver.indices(t, n) for t in trials]))


def constant_driver(element, seed: int = 0, order: str = RIGHT) -> ErgodicDriver:
    return ErgodicDriver(kind="iid_finite", seed=seed, order=order,
                         maps=(element,), weights=(1.0,))


def apply_element(g, x):
    """Apply a driver element to a point or to a stack of points along a
    leading axis: callables act by call, arrays by matvec on each point."""
    if callable(g):
        return g(x)
    return (np.asarray(g) @ np.asarray(x)[..., None])[..., 0]


# ---------------------------------------------------------------------------
# Orbits

@dataclass(frozen=True)
class OrbitResult:
    points: list          # u(1)x0 ... u(m)x0, m = completed
    completed: int
    truncated: bool


def _point(x0, p):
    """p as a point of x0's kind: a Python scalar when x0 is a scalar."""
    return p.item() if np.ndim(x0) == 0 else p


def generate_orbit(driver: ErgodicDriver, space: Optional[WeakMetricSpace],
                   x0, n: int, trial: int = 0) -> OrbitResult:
    """Orbit (u(1)x0, ..., u(n)x0) in the driver's declared order.

    Right-increment orbits fold every prefix (O(n^2) point updates, in n
    stacked steps); use :func:`orbit_at` with checkpoints for long runs.
    Leaving the space's domain truncates the orbit with a marker.
    """
    if n < 1:
        raise DegenerateInputError("n must be >= 1")
    pts, cut = orbit_at(driver, space, x0, range(1, n + 1), trial)
    completed = n if cut is None else cut - 1
    return OrbitResult(points=[pts[k] for k in range(1, completed + 1)],
                       completed=completed, truncated=cut is not None)


def orbit_at(driver: ErgodicDriver, space: Optional[WeakMetricSpace],
             x0, ks: Sequence[int], trial: int = 0):
    """Orbit points u(k)x0 at the requested indices only.

    Returns (dict k -> point, truncated_at or None).  A right-increment
    orbit is truncated at the first checkpoint whose point lies outside
    the space's domain, a left-increment orbit at the first step that
    leaves it; the dict holds the checkpoints before that.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise DegenerateInputError("checkpoints must be >= 1")
    pts, [cut] = _fold_orbits(driver, space, x0, ks, [trial])
    return {k: _point(x0, pts[j, 0]) for j, k in enumerate(ks)
            if cut is None or k < cut}, cut


def _fold_orbits(driver: ErgodicDriver, space: Optional[WeakMetricSpace],
                 x0, ks: list, trials):
    """Orbit points of every listed trial at the sorted checkpoints ks.

    Returns (pts, cut): pts[j, t] is trial t's point u(ks[j])x0, in one
    (len(ks), len(trials), *shape of x0) array, and cut[t] is where trial
    t's orbit was truncated (see :func:`orbit_at`), or None.

    Each step applies each drawn map once, to the stack of points that
    drew it: finite and rotation drivers group the trials by map index,
    parametric drivers go trial by trial.  A right-increment fold walks
    the steps i = n-1 down to 0, and checkpoint k's rows join once i < k,
    so each gets g_1(...g_k(x0)).  A left-increment orbit steps forward,
    checks the domain after every step and stops moving a trial that left.
    """
    n = ks[-1]
    trials = list(trials)
    x = np.asarray(x0)
    pts = np.empty((len(ks), len(trials)) + x.shape,
                   dtype=np.result_type(x, float))
    pts[:] = x
    if driver.kind == "iid_parametric":
        gs = [driver.elements(t, n) for t in trials]

        def groups(i):
            return [(g[i], np.array([t])) for t, g in enumerate(gs)]
    else:
        idx = np.array([driver.indices(t, n) for t in trials])

        def groups(i):
            col = idx[:, i]
            sels = [np.flatnonzero(col == m) for m in range(len(driver.maps))]
            return [(g, sel) for g, sel in zip(driver.maps, sels) if sel.size]

    def outside(p):
        return not space.in_domain(_point(x0, p))

    checked = space is not None and space.in_domain is not None
    cut = [None] * len(trials)
    if driver.order == LEFT:
        y = pts[0].copy()
        moving = np.ones(len(trials), dtype=bool)
        rows = {k: j for j, k in enumerate(ks)}
        for k in range(1, n + 1):
            for g, sel in groups(k - 1):
                sel = sel[moving[sel]]
                if sel.size:
                    y[sel] = apply_element(g, y[sel])
            if checked:
                for t in np.flatnonzero(moving):
                    if outside(y[t]):
                        cut[t] = k
                        moving[t] = False
            if k in rows:
                pts[rows[k]] = y
        return pts, cut
    for i in range(n - 1, -1, -1):
        first = bisect.bisect_right(ks, i)
        for g, sel in groups(i):
            block = pts[first:, sel]
            pts[first:, sel] = apply_element(
                g, block.reshape((-1,) + x.shape)).reshape(block.shape)
    if checked:
        for t in range(len(trials)):
            cut[t] = next((k for j, k in enumerate(ks) if outside(pts[j, t])), None)
    return pts, cut


def geometric_checkpoints(n: int, count: int = 16, start: int = 1) -> list:
    """count roughly geometrically spaced integers from start to n, inclusive."""
    if n < start:
        raise DegenerateInputError("n must be >= start")
    if count < 1:
        raise DegenerateInputError("count must be >= 1")
    ks = np.unique(np.geomspace(start, n, num=count).round().astype(int))
    ks = ks[(ks >= start) & (ks <= n)]
    if ks[-1] != n:
        ks = np.append(ks, n)
    return [int(k) for k in ks]


# ---------------------------------------------------------------------------
# Subadditive cocycle and the top exponent

@dataclass(frozen=True)
class SubadditiveTrace:
    a: np.ndarray          # a[0] = 0, a[k] = d(x0, u(k)x0)
    basepoint: Any
    truncated: bool


@dataclass(frozen=True)
class LyapunovEstimate:
    lambda_hat: float
    n: int
    trials: int
    per_trial: np.ndarray
    std_error: float
    tail_slope: float
    truncated_trials: int = 0


def subadditive_trace(driver: ErgodicDriver, space: WeakMetricSpace,
                      x0, n: int, trial: int = 0) -> SubadditiveTrace:
    orbit = generate_orbit(driver, space, x0, n, trial)
    a = np.zeros(orbit.completed + 1)
    for k, p in enumerate(orbit.points, start=1):
        a[k] = space.distance(x0, p)
    return SubadditiveTrace(a=a, basepoint=x0, truncated=orbit.truncated)


def _tail_slope(ks: np.ndarray, ratios: np.ndarray) -> float:
    """Least-squares slope of a(k)/k against log k over the last decade."""
    if len(ks) < 2:
        return 0.0
    x = np.log(ks.astype(float))
    A = np.vstack([x, np.ones_like(x)]).T
    coef = np.linalg.lstsq(A, ratios, rcond=None)[0]
    return float(coef[0])


def estimate_top_exponent(driver: ErgodicDriver, space: WeakMetricSpace,
                          x0, n: int, trials: int) -> LyapunovEstimate:
    """Monte-Carlo estimate of lim a(n)/n across independent seeded trials.

    Every trial and every tail checkpoint fold together on one stack of
    points, so the driver's maps act on point stacks (see
    :class:`ErgodicDriver`).  Truncated trials are excluded and counted;
    more than 10% truncation is an estimation error.  tail_slope is the
    drift of the mean ratio a(k)/k over checkpoints in [n/10, n], a
    convergence diagnostic.
    """
    if trials < 1 or n < 10:
        raise DegenerateInputError("need trials >= 1 and n >= 10")
    tail_ks = geometric_checkpoints(n, count=8, start=max(1, n // 10))
    pts, cut = _fold_orbits(driver, space, x0, tail_ks, range(trials))
    kept = [t for t in range(trials) if cut[t] is None]
    ratios = [np.array([space.distance(x0, _point(x0, pts[j, t])) / k
                        for j, k in enumerate(tail_ks)]) for t in kept]
    truncated = trials - len(kept)
    if truncated > 0.1 * trials:
        raise EstimationError(f"{truncated}/{trials} trials truncated")
    per_trial = np.array([r[-1] for r in ratios])
    # summed one trial at a time, in trial order
    tail_sum = np.zeros(len(tail_ks))
    for r in ratios:
        tail_sum += r
    lam = float(np.mean(per_trial))
    se = float(np.std(per_trial, ddof=1) / math.sqrt(len(per_trial))) \
        if len(per_trial) > 1 else 0.0
    slope = _tail_slope(np.asarray(tail_ks, dtype=float), tail_sum / len(kept))
    return LyapunovEstimate(lambda_hat=lam, n=n, trials=trials,
                            per_trial=per_trial, std_error=se,
                            tail_slope=slope, truncated_trials=truncated)


# ---------------------------------------------------------------------------
# Integrability

@dataclass(frozen=True)
class IntegrabilityReport:
    mean_step: float
    heavy_tail_flag: bool
    samples_used: int


def check_integrability(driver: ErgodicDriver, space: WeakMetricSpace,
                        x0, samples: int = 1000) -> IntegrabilityReport:
    """Mean of |d(x0, g x0)| over the driver's one-step distribution.

    Finite-support and rotation drivers are integrated exactly over their
    weights / interval lengths.  Parametric drivers are sampled, with a
    heaviness flag raised when running means over doubling windows fail to
    stabilize.
    """
    def step(g) -> float:
        v = abs(space.distance(x0, apply_element(g, x0)))
        if not math.isfinite(v):
            raise IntegrabilityError("non-finite one-step distance")
        return v

    if driver.kind == "iid_finite":
        mean = sum(w * step(g) for g, w in zip(driver.maps, driver.weights))
        return IntegrabilityReport(mean_step=mean, heavy_tail_flag=False,
                                   samples_used=len(driver.maps))
    if driver.kind == "rotation":
        edges = (0.0,) + driver.breakpoints
        mean = sum((edges[i + 1] - edges[i]) * step(g)
                   for i, g in enumerate(driver.maps))
        return IntegrabilityReport(mean_step=mean, heavy_tail_flag=False,
                                   samples_used=len(driver.maps))
    if samples < 100:
        raise DegenerateInputError("samples must be >= 100")
    rng = driver.rng(0)
    vals = np.empty(samples)
    for i in range(samples):
        vals[i] = step(driver.sampler(rng))
    cum = np.cumsum(vals)
    windows = [w for w in (100, 1000, 10000, 100000) if w <= samples]
    if windows[-1] != samples:
        windows.append(samples)
    means = [cum[w - 1] / w for w in windows]
    heavy = False
    for m1, m2 in zip(means, means[1:]):
        if abs(m2 - m1) > 0.2 * max(abs(m1), 1e-12):
            heavy = True
    return IntegrabilityReport(mean_step=float(means[-1]),
                               heavy_tail_flag=heavy, samples_used=samples)


# ---------------------------------------------------------------------------
# Metric-functional convergence diagnostic

@dataclass(frozen=True)
class GapTrace:
    ks: list
    gaps: list
    truncated: bool


def functional_gap(driver: ErgodicDriver, space: WeakMetricSpace, x0,
                   n: int, probe_budget: int = 16, trial: int = 0) -> GapTrace:
    """gap(k) = |(-1/k) h(u(k)x0) - (1/k) d(x0, u(k)x0)| at geometric checkpoints.

    h is the anchor-backed functional at the final orbit point u(n)x0.  The
    gap is reported, not asserted to vanish.
    """
    if n < 100:
        raise DegenerateInputError("n must be >= 100")
    ks = geometric_checkpoints(n, count=probe_budget)
    pts, cut = orbit_at(driver, space, x0, ks, trial=trial)
    truncated = cut is not None
    if n not in pts:
        raise EstimationError("orbit truncated before the anchor point")
    anchor = pts[n]
    dx0a = space.distance(x0, anchor)
    out_ks, out_gaps = [], []
    for k in ks:
        if k not in pts:
            continue
        p = pts[k]
        h = space.distance(p, anchor) - dx0a
        gap = abs(-h / k - space.distance(x0, p) / k)
        out_ks.append(k)
        out_gaps.append(gap)
    return GapTrace(ks=out_ks, gaps=out_gaps, truncated=truncated)


# ---------------------------------------------------------------------------
# Boundary-safe hyperbolic walks
#
# Orbits of disk Mobius maps reach the floating-point boundary of the disk
# after ~38 units of hyperbolic distance, so long walks are evaluated
# through scaled 2x2 matrix products instead of disk coordinates:
# for a unit-determinant disk isometry g = [[alpha, beta], [conj beta,
# conj alpha]], d(0, g.0) = 2 arccosh |alpha|.

def mobius_matrix(a: complex) -> np.ndarray:
    """Unit-determinant matrix of the disk automorphism z -> (z+a)/(1+conj(a)z)."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise DegenerateInputError("Mobius parameter must lie inside the disk")
    s = 1.0 / math.sqrt(1.0 - abs(a) ** 2)
    return np.array([[s, s * a], [s * a.conjugate(), s]], dtype=complex)


def _dist_origin(alpha_mag_log: float) -> float:
    """2 arccosh |alpha| from log|alpha|, stable for large |alpha|."""
    if alpha_mag_log > 20.0:
        return 2.0 * (alpha_mag_log + math.log(2.0))
    x = math.exp(alpha_mag_log)
    if x < 1.0:
        x = 1.0
    return 2.0 * math.acosh(x)


def checkpoint_list(checkpoints, n: int) -> list:
    """Sorted distinct integer checkpoints, each in [1, n]."""
    try:
        ks = sorted(set(int(k) for k in checkpoints))
    except (TypeError, ValueError):
        raise DegenerateInputError("checkpoints must be a list of integers") from None
    if not ks or ks[0] < 1 or ks[-1] > n:
        raise DegenerateInputError(f"checkpoints must lie in [1, {n}]")
    return ks


def hyperbolic_walk_gap(driver: ErgodicDriver, n: int, trials: int = 1,
                        probe_budget: int = 16, checkpoints=None) -> list:
    """Boundary-safe version of :func:`functional_gap` for disk Mobius drivers.

    Driver elements must be unit-determinant 2x2 complex matrices (see
    :func:`mobius_matrix`).  Distances between orbit points are computed
    from suffix products, so no disk coordinate ever reaches |z| = 1.
    Returns one :class:`GapTrace` per trial 0 .. trials-1; all trials step
    together on stacked arrays.  Note gap(n) vanishes by construction (the
    functional is anchored at u(n)x0); pass explicit interior
    ``checkpoints`` for a nondegenerate diagnostic.
    """
    if n < 10 or trials < 1:
        raise DegenerateInputError("need n >= 10 and trials >= 1")
    if checkpoints is None:
        ks = geometric_checkpoints(n, count=probe_budget)
    else:
        ks = checkpoint_list(checkpoints, n)
    mats, idx = element_stack(driver, range(trials), n, dtype=complex)
    # track 0 holds the prefix products P_k = M_1 ... M_k, which give
    # a(k) = d(0, u(k)0); track 1 the suffix products S_j = M_{j+1} ... M_n,
    # which give d(u(j)0, u(n)0).  Step k extends P_{k-1} by M_k and S_j by
    # M_j for j = n-k+1, then divides every product by its largest entry
    # modulus.  Log scales, track 0 first, are summed with math.log one
    # element at a time, since numpy's vectorized log may differ from libm
    # in the last bit.
    want = set(ks) | {n}
    steps = idx.T
    T = np.empty((2, trials, 2, 2), dtype=complex)
    T[:] = np.eye(2)
    ls = [0.0] * (2 * trials)

    def dist(scales, prods):
        return [_dist_origin(l + math.log(abs(p[0, 0]))) for l, p in zip(scales, prods)]

    a, suffix = {}, {}
    for k in range(1, n + 1):
        j = n - k + 1
        if j in want:
            suffix[j] = dist(ls[trials:], T[1])
        T[0] = T[0] @ mats.take(steps[k - 1], axis=0)
        T[1] = mats.take(steps[j - 1], axis=0) @ T[1]
        s = np.abs(T).max(axis=(2, 3))
        T /= s[..., None, None]
        ls = [x + math.log(y) for x, y in zip(ls, s.ravel().tolist())]
        if k in want:
            a[k] = dist(ls, T[0])
    return [GapTrace(ks=ks, gaps=[abs(-(suffix[k][t] - a[n][t]) / k - a[k][t] / k)
                                  for k in ks], truncated=False)
            for t in range(trials)]
