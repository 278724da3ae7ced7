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

from .core import DegenerateInputError, WeakMetricSpace, _with_point
from .seeding import trial_rng

GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0

RIGHT = "right_increment"
LEFT = "left_increment"


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
        interval i labeled by maps[i]; its ``weights`` are the interval
        lengths.

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
            if len(w) != len(self.maps):
                raise ValueError("iid_finite driver needs one weight per map")
            if not (all(x >= 0.0 for x in w) and abs(sum(w) - 1.0) <= 1e-12):
                raise ValueError("probability weights must be nonnegative and sum to 1")
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
            lengths = (b - a for a, b in zip((0.0,) + self.breakpoints, self.breakpoints))
            object.__setattr__(self, "weights", tuple(lengths))

    def rng(self, trial: int) -> np.random.Generator:
        return trial_rng(self.seed, trial)

    def draw(self, trials, n: int):
        """(maps, idx): the first n emitted maps of each listed trial,
        deterministically.

        Row t of the (len(trials), n) integer array ``idx`` lists the
        positions in ``maps`` of trial t's maps, in step order.  Finite and
        rotation drivers return their own ``maps``; a parametric driver
        returns its draws, trial after trial, and ``idx`` counts them.
        """
        trials = list(trials)
        if self.kind == "iid_parametric":
            maps = [self.sampler(rng) for rng in map(self.rng, trials)
                    for _ in range(n)]
            return maps, np.arange(len(trials) * n).reshape(len(trials), n)
        if self.kind == "iid_finite":
            p = np.asarray(self.weights)
            idx = [self.rng(t).choice(len(self.maps), size=n, p=p) for t in trials]
        else:
            bp = np.asarray(self.breakpoints)
            turns = self.angle * np.arange(n)
            last = len(self.maps) - 1
            idx = [np.minimum(np.searchsorted(bp, (self.rng(t).random() + turns) % 1.0,
                                              side="right"), last) for t in trials]
        return self.maps, np.array(idx, dtype=np.intp).reshape(len(trials), n)

    def elements(self, trial: int, n: int) -> list:
        """The first n emitted maps g(omega), g(T omega), ..., deterministically."""
        maps, [idx] = self.draw([trial], n)
        return [maps[i] for i in idx]


def constant_driver(element, seed: int = 0, order: str = RIGHT) -> ErgodicDriver:
    return ErgodicDriver(kind="iid_finite", seed=seed, order=order,
                         maps=(element,), weights=(1.0,))


def apply_element(g, x):
    """Apply a driver element to a point or to a stack of points along a
    leading axis: callables act by call, arrays by matvec on each point."""
    if callable(g):
        return g(x)
    return (np.asarray(g) @ np.asarray(x)[..., None])[..., 0]


def screen_invertible(mats: np.ndarray, idx) -> np.ndarray:
    """The inverses of the matrices idx draws from the (m, d, d) stack mats,
    stacked like mats (nan where nothing is drawn).  A drawn matrix that is
    non-finite or has no finite inverse for the inverse track is a singular
    step matrix; any other runs, however badly conditioned, and a product
    that leaves the double range faults at its step."""
    used = np.unique(idx)
    invs = np.full(np.shape(mats), np.nan)
    try:
        invs[used] = np.linalg.inv(mats[used])
    except np.linalg.LinAlgError:       # an exactly singular matrix
        pass
    # an infinite entry can still have a finite inverse
    if np.all(np.isfinite(mats[used])) and np.all(np.isfinite(invs[used])):
        return invs
    raise DegenerateInputError("singular step matrix")


def check_steps(values: np.ndarray, first: int = 1) -> None:
    """Raise a rescaling fault at the first step (row) with a zero or
    non-finite value; row 0 is step ``first``."""
    fault = np.flatnonzero(~np.all(np.isfinite(values) & (values != 0.0), axis=1))
    if fault.size:
        raise FloatingPointError(f"rescaling fault at step {first + fault[0]}")


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
    drew it (a parametric draw is one trial's alone).  A right-increment
    fold walks the steps i = n-1 down to 0, and checkpoint k's rows join
    once i < k, so each gets g_1(...g_k(x0)).  A left-increment orbit
    steps forward, checks the domain after every step and stops moving a
    trial that left.
    """
    n = ks[-1]
    trials = list(trials)
    x = np.asarray(x0)
    pts = np.empty((len(ks), len(trials)) + x.shape,
                   dtype=np.result_type(x, float))
    pts[:] = x
    maps, idx = driver.draw(trials, n)
    # one stable sort of every step's column up front; a step's groups are
    # then the runs of equal positions, trials ascending within each
    order = np.argsort(idx, axis=0, kind="stable")
    drawn = np.take_along_axis(idx, order, axis=0)
    heads = np.diff(drawn, axis=0, prepend=-1) != 0

    def groups(i):
        starts = np.flatnonzero(heads[:, i]).tolist()
        return [(maps[drawn[a, i]], order[a:b, i])
                for a, b in zip(starts, starts[1:] + [len(trials)])]

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


def _distances_from(space: WeakMetricSpace, x0, points) -> np.ndarray:
    """d(x0, p) for each of the points, in one batched evaluation."""
    m = len(points)
    return space.distances(_with_point(points, x0), np.full(m, m), np.arange(m))


def subadditive_trace(driver: ErgodicDriver, space: WeakMetricSpace,
                      x0, n: int, trial: int = 0) -> SubadditiveTrace:
    orbit = generate_orbit(driver, space, x0, n, trial)
    a = np.zeros(orbit.completed + 1)
    a[1:] = _distances_from(space, x0, orbit.points)
    return SubadditiveTrace(a=a, basepoint=x0, truncated=orbit.truncated)


def _tail_slope(ks, ratios) -> float:
    """Least-squares slope of a(k)/k against log k over the last decade.

    The closed form sum(dx * dy) / sum(dx * dx) of the deviations from the
    means, with math.log and math.fsum: no LAPACK call, whose rounding
    follows the BLAS core, and exactly 0 for equal ratios.
    """
    if len(ks) < 2:
        return 0.0
    x = [math.log(k) for k in ks]
    y = np.asarray(ratios, dtype=float).tolist()
    x_mean = math.fsum(x) / len(x)
    y_mean = math.fsum(y) / len(y)
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    return math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)


def tail_checkpoints(n: int) -> list:
    """The checkpoints in [n/10, n] at which an estimate's tail is read."""
    return geometric_checkpoints(n, count=8, start=max(1, n // 10))


def summarize_trials(per_trial: np.ndarray, tail_ks, tail, n: int, trials: int,
                     truncated_trials: int = 0) -> LyapunovEstimate:
    """Mean and standard error of the kept trials' final values; tail holds
    the mean value at each of the checkpoints tail_ks."""
    m = len(per_trial)
    # deviations from the first value, summed exactly: equal values give
    # their value and a std error of exactly 0
    dev = [v - per_trial[0] for v in per_trial.tolist()]
    mean_dev = math.fsum(dev) / m
    se = math.sqrt(math.fsum((d - mean_dev) ** 2 for d in dev) / (m - 1) / m) \
        if m > 1 else 0.0
    return LyapunovEstimate(float(per_trial[0] + mean_dev), n, trials, per_trial, se,
                            _tail_slope(tail_ks, tail), truncated_trials)


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
    tail_ks = tail_checkpoints(n)
    pts, cut = _fold_orbits(driver, space, x0, tail_ks, range(trials))
    kept = [t for t in range(trials) if cut[t] is None]
    # checkpoint-major rows, one per kept trial
    points = pts[:, kept].reshape((-1,) + np.shape(x0))
    ratios = _distances_from(space, x0, points).reshape(len(tail_ks), len(kept)) \
        / np.array(tail_ks)[:, None]
    truncated = trials - len(kept)
    if truncated > 0.1 * trials:
        raise EstimationError(f"{truncated}/{trials} trials truncated")
    per_trial = ratios[-1]
    # summed one trial at a time, in trial order
    tail_sum = np.zeros(len(tail_ks))
    for r in ratios.T:
        tail_sum += r
    return summarize_trials(per_trial, tail_ks, tail_sum / len(kept), n, trials, truncated)


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
    weights.  Parametric drivers are sampled, with a heaviness flag raised
    when running means over doubling windows fail to stabilize.  A
    non-finite step distance raises :class:`horoflow.core.MetricDomainError`.
    """
    def steps(maps) -> np.ndarray:
        return np.abs(_distances_from(space, x0, [apply_element(g, x0) for g in maps]))

    if driver.kind != "iid_parametric":
        mean = sum(w * v for w, v in zip(driver.weights, steps(driver.maps).tolist()))
        return IntegrabilityReport(mean_step=mean, heavy_tail_flag=False,
                                   samples_used=len(driver.maps))
    if samples < 100:
        raise DegenerateInputError("samples must be >= 100")
    rng = driver.rng(0)
    vals = steps([driver.sampler(rng) for _ in range(samples)])
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

    h is the anchor-backed functional at the final orbit point u(n)x0, so
    an orbit truncated before it is an estimation error.  The gap is
    reported, not asserted to vanish.
    """
    if n < 100:
        raise DegenerateInputError("n must be >= 100")
    ks = geometric_checkpoints(n, count=probe_budget)
    pts, cut = orbit_at(driver, space, x0, ks, trial=trial)
    if cut is not None:
        raise EstimationError("orbit truncated before the anchor point")
    # d(p, anchor) for each orbit point p, then d(x0, p): point m - 1 is the
    # anchor u(n)x0 and point m is x0
    m = len(ks)
    idx = np.arange(m)
    d = space.distances(_with_point([pts[k] for k in ks], x0),
                        np.concatenate([idx, np.full(m, m)]),
                        np.concatenate([np.full(m, m - 1), idx]))
    h = d[:m] - d[-1]
    gaps = np.abs(-h / ks - d[m:] / ks)
    return GapTrace(ks=ks, gaps=gaps.tolist(), truncated=False)


# ---------------------------------------------------------------------------
# Scaled products in log depth
#
# A product of many matrices is formed by pairwise (tree) reduction, so each
# factor passes through about log2 n multiplications.  A node of the tree is
# a scaled product (hi, lo, exps): per trial, the matrix hi + lo times
# 2**exps.  Every node is divided by the power of two at or above its largest
# entry modulus, which is exact, so the exponents count the scale without
# rounding.
#
# Subproducts of a long product are close to rank one.  A node whose two
# factors are far from aligned amplifies the rounding of its product, so a
# tree rounded to double at every node can lose to a one-step-at-a-time
# loop, whose track meets one fresh factor at a time.  A product of real
# matrices therefore carries each node as a double-double hi + lo (hi =
# fl(hi + lo)) with error-free transformations (Dekker's product, Knuth's
# sum; Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005), to about
# 2**-104.  A product of complex matrices has lo None and rounds hi at every
# node: the disk walk still beats its step loop this way (see
# tests/test_cocycle.py), several times faster than in double-double.

# (trial, step) matrices gathered at once; bounds the temporaries.  Also
# the steps a lyapunov kernel runs between two rescaling-fault checks
_PRODUCT_BLOCK = 1 << 12
# Veltkamp's constant: splits a double into two halves of 26 bits
_SPLIT = 2.0 ** 27 + 1.0


def _two_sum(a, b):
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _halves(a):
    c = _SPLIT * a
    big = c - (c - a)
    return big, a - big


def _dd_matmul(ah, al, bh, bl):
    """(hi, lo) of (ah + al) @ (bh + bl) for real stacks with entries of
    modulus at most 1."""
    A, B = ah[..., :, :, None], bh[..., None, :, :]
    a1, a2 = (h[..., :, :, None] for h in _halves(ah))
    b1, b2 = (h[..., None, :, :] for h in _halves(bh))
    p = A * B
    e = a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)    # p + e == A * B
    e += al[..., :, :, None] * B + A * bl[..., None, :, :]
    hi, lo = p[..., 0, :], e.sum(axis=-2)
    for k in range(1, p.shape[-2]):
        hi, q = _two_sum(hi, p[..., k, :])
        lo = lo + q
    s = hi + lo
    return s, lo - (s - hi)


def _rescaled(hi, lo, exps):
    e = np.frexp(np.abs(hi).max(axis=(-2, -1)))[1]
    scale = np.ldexp(1.0, -e)[..., None, None]
    return hi * scale, None if lo is None else lo * scale, exps + e


def _part(node, index):
    return [None if a is None else a[index] for a in node]


def chain_product(first, then, later_left: bool = False):
    """The scaled product of two scaled products: ``then`` after ``first``,
    on the right of it, or on the left when ``later_left``."""
    (xh, xl, xe), (yh, yl, ye) = (then, first) if later_left else (first, then)
    if xl is None:
        return _rescaled(xh @ yh, None, xe + ye)
    return _rescaled(*_dd_matmul(xh, xl, yh, yl), xe + ye)


def pairwise_product(mats: np.ndarray, idx, later_left: bool = False):
    """Scaled per-trial products of ``mats[idx[t, 0]], mats[idx[t, 1]], ...``.

    Later factors go on the right (M_1 M_2 ... M_L), or on the left when
    ``later_left`` (M_L ... M_2 M_1).  idx is a (trials, L) integer array,
    L >= 1.  Real factors are multiplied in double-double arithmetic.  Read
    the result with :func:`scaled_matrices`.

    The steps are gathered in aligned blocks of a power-of-two width that
    keeps each gather within ``_PRODUCT_BLOCK`` matrices, and full blocks
    merge as a binary counter, so the tree, and with it every rounding, is
    the same whatever the width: each trial of a batch equals its one-trial
    call bit for bit.
    """
    trials, steps = idx.shape
    width = 1 << max(_PRODUCT_BLOCK // trials, 1).bit_length() - 1
    stack = []      # (steps covered, scaled product), aligned and decreasing
    for start in range(0, steps, width):
        x = mats[idx[:, start:start + width]]
        node = _rescaled(x, None if np.iscomplexobj(x) else np.zeros_like(x),
                         np.zeros(x.shape[:2], dtype=np.int64))
        while node[0].shape[1] > 1:
            m = node[0].shape[1] // 2 * 2
            pair = chain_product(_part(node, np.s_[:, 0:m:2]),
                                 _part(node, np.s_[:, 1:m:2]), later_left)
            if m < node[0].shape[1]:    # an odd node carries to the next level
                pair = [None if a is None else np.concatenate([a, b[:, m:]], axis=1)
                        for a, b in zip(pair, node)]
            node = pair
        size, node = x.shape[1], _part(node, np.s_[:, 0])
        while stack and stack[-1][0] == size:
            node = chain_product(stack.pop()[1], node, later_left)
            size *= 2
        stack.append((size, node))
    node = stack.pop()[1]
    while stack:
        node = chain_product(stack.pop()[1], node, later_left)
    return node


def scaled_matrices(node):
    """(p, log_scale) of a scaled product: the (trials, d, d) stack p, each
    with largest entry modulus in [1/2, 1), and the (trials,) logs, so that
    p * exp(log_scale) is the product."""
    return node[0], node[2] * math.log(2.0)


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
    maps, idx = driver.draw(range(trials), n)
    mats = np.asarray(maps, dtype=complex)
    # the segment products M_{b+1} ... M_c between consecutive bounds b < c,
    # chained forward into the prefix products P_k = M_1 ... M_k, which give
    # a(k) = d(0, u(k)0), and backward into the suffix products
    # S_j = M_{j+1} ... M_n, which give d(u(j)0, u(n)0)
    bounds = [0] + sorted(set(ks) | {n})
    segs = [pairwise_product(mats, idx[:, b:c]) for b, c in zip(bounds, bounds[1:])]

    def dist(node):
        p, logs = scaled_matrices(node)
        return [_dist_origin(x) for x in (logs + np.log(np.abs(p[:, 0, 0]))).tolist()]

    a, suffix = {}, {n: [0.0] * trials}
    prefix = suffix_prod = None
    for c, seg in zip(bounds[1:], segs):
        prefix = seg if prefix is None else chain_product(prefix, seg)
        a[c] = dist(prefix)
    for b, seg in zip(bounds[-2:0:-1], segs[:0:-1]):
        suffix_prod = seg if suffix_prod is None else chain_product(seg, suffix_prod)
        suffix[b] = dist(suffix_prod)
    return [GapTrace(ks=ks, gaps=[abs(-(suffix[k][t] - a[n][t]) / k - a[k][t] / k)
                                  for k in ks], truncated=False)
            for t in range(trials)]
