"""Ergodic cocycles of nonexpansive maps.

Drivers emit seeded sequences of maps (or matrices); the engine folds
orbits u(n)x0 = g1(g2(...gn(x0))) and estimates the top exponent
lim a(n)/n of the subadditive distance cocycle a(n) = d(x0, u(n)x0).
Long disk Mobius walks are carried as scaled matrix products, from which
a convergence diagnostic compares -h(u(n)x0)/n against a(n)/n for the
metric functional anchored at the final orbit point.
"""

from dataclasses import dataclass
from typing import Optional

import bisect
import math

import numpy as np

from .core import DegenerateInputError, WeakMetricSpace, _with_point
from .seeding import trial_rng


class EstimationError(RuntimeError):
    """Too many trials were truncated for a trustworthy estimate."""


@dataclass(frozen=True)
class ErgodicDriver:
    """A seeded i.i.d. choice among ``maps`` with probabilities ``weights``
    (uniform when empty), each trial from its own stream.

    The orbit fold and the disk walk compose right increments, a new map
    innermost: u(n) = g1 g2 ... gn.

    Orbits apply each map to a stack of points along one leading axis
    (the points of every trial and checkpoint that drew it), so a map
    must act on each point of a stack as it acts on that point alone;
    ``x + 1.0`` does.  numpy's complex multiply and divide round
    differently from Python's, so a map of scalar complex points that
    must round as Python does loops over the stack, as
    :func:`horoflow.spaces.mobius_disk` does.
    """

    seed: int
    maps: tuple
    weights: tuple = ()

    def __post_init__(self):
        if not self.maps:
            raise ValueError("driver needs maps")
        w = self.weights or tuple(1.0 / len(self.maps) for _ in self.maps)
        if len(w) != len(self.maps):
            raise ValueError("driver needs one weight per map")
        if not (all(x >= 0.0 for x in w) and abs(sum(w) - 1.0) <= 1e-12):
            raise ValueError("probability weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", tuple(w))

    def draw(self, trials, n: int):
        """(maps, idx): the first n emitted maps of each listed trial,
        deterministically.

        ``maps`` is the driver's own; row t of the (len(trials), n) integer
        array ``idx`` lists the positions in ``maps`` of trial t's maps, in
        step order.
        """
        trials = list(trials)
        p = np.asarray(self.weights)
        idx = [trial_rng(self.seed, t).choice(len(self.maps), size=n, p=p)
               for t in trials]
        return self.maps, np.array(idx, dtype=np.intp).reshape(len(trials), n)

    def elements(self, trial: int, n: int) -> list:
        """The first n emitted maps g(omega), g(T omega), ..., deterministically."""
        maps, [idx] = self.draw([trial], n)
        return [maps[i] for i in idx]


def constant_driver(element, seed: int = 0) -> ErgodicDriver:
    return ErgodicDriver(seed=seed, maps=(element,), weights=(1.0,))


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
    # the drawn indices in order, by a count rather than np.unique's sort
    used = np.flatnonzero(np.bincount(np.ravel(idx), minlength=len(mats)))
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

def _point(x0, p):
    """p as a point of x0's kind: a Python scalar when x0 is a scalar."""
    return p.item() if np.ndim(x0) == 0 else p


def _fold_orbits(driver: ErgodicDriver, space: Optional[WeakMetricSpace],
                 x0, ks: list, trials):
    """Orbit points of every listed trial at the sorted checkpoints ks.

    Returns (pts, cut): pts[j, t] is trial t's point u(ks[j])x0, in one
    (len(ks), len(trials), *shape of x0) array, and cut[t] is the first
    checkpoint whose point lies outside the space's domain, where trial
    t's orbit is truncated, or None; the points from the cut on are not
    orbit points.

    Each step applies each drawn map once, to the stack of points that
    drew it.  The fold walks the steps i = n-1 down to 0, and checkpoint
    k's rows join once i < k, so each gets g_1(...g_k(x0)).
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
    for i in range(n - 1, -1, -1):
        first = bisect.bisect_right(ks, i)
        starts = np.flatnonzero(heads[:, i]).tolist()
        for a, b in zip(starts, starts[1:] + [len(trials)]):
            sel = order[a:b, i]
            block = pts[first:, sel]
            pts[first:, sel] = apply_element(
                maps[drawn[a, i]], block.reshape((-1,) + x.shape)).reshape(block.shape)
    cut = [None] * len(trials)
    if space is not None and space.in_domain is not None:
        for t in range(len(trials)):
            cut[t] = next((k for j, k in enumerate(ks)
                           if not space.in_domain(_point(x0, pts[j, t]))), None)
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


def _two_prod(a, b):
    """(p, q) with p + q == a * b exactly, for entries of modulus at most 1
    whose product is not subnormal (Dekker's product)."""
    a1, a2 = _halves(a)
    b1, b2 = _halves(b)
    p = a * b
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


def _dd_matmul(ah, al, bh, bl):
    """(hi, lo) of (ah + al) @ (bh + bl) for real stacks of one shape with
    entries of modulus at most 1.

    The stack axis is moved innermost, so every elementwise operation runs
    over the whole stack rather than over rows of length d; each product is
    still formed on its own, so the bits do not depend on the layout.  The
    results are views in that layout, which the next call takes without a
    copy when it chains them whole."""
    shape, d = ah.shape, ah.shape[-1]
    ah, al, bh, bl = (np.ascontiguousarray(x.reshape(-1, d, d).transpose(1, 2, 0))
                      for x in (ah, al, bh, bl))
    A, B = ah[:, :, None], bh[None]                 # (i, k, j, stack)
    # the broadcast views are split before they broadcast, d^2 entries each
    p, e = _two_prod(A, B)
    e += al[:, :, None] * B + A * bl[None]
    hi, lo = p[:, 0], e.sum(axis=1)
    for k in range(1, d):
        hi, q = _two_sum(hi, p[:, k])
        lo = lo + q
    s = hi + lo
    return tuple(x.transpose(2, 0, 1).reshape(shape) for x in (s, lo - (s - hi)))


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
    # C order again: _dd_matmul leaves its results as transposed views
    return np.ascontiguousarray(node[0]), node[2] * math.log(2.0)


# ---------------------------------------------------------------------------
# Boundary-safe hyperbolic walks
#
# Orbits of disk Mobius maps reach the floating-point boundary of the disk
# after ~38 units of hyperbolic distance, so long walks are evaluated
# through scaled 2x2 matrix products instead of disk coordinates:
# for a unit-determinant disk isometry g = [[alpha, beta], [conj beta,
# conj alpha]], d(0, g.0) = 2 arccosh |alpha|.

@dataclass(frozen=True)
class GapTrace:
    ks: list
    gaps: list


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
    """gap(k) = |(-1/k) h(u(k)x0) - (1/k) d(x0, u(k)x0)| of a disk Mobius walk
    from x0 = 0, for the metric functional h anchored at u(n)x0.

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
                                  for k in ks])
            for t in range(trials)]
