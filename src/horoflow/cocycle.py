"""Ergodic cocycles of nonexpansive maps.

Drivers emit seeded sequences of maps (or matrices); the engine folds
orbits u(n)x0 = g1(g2(...gn(x0))) and estimates the top exponent
lim a(n)/n of the subadditive distance cocycle a(n) = d(x0, u(n)x0).
Long disk Mobius walks are carried as scaled real matrix products, which
give their top exponent and a convergence diagnostic comparing -h(u(n)x0)/n
against a(n)/n for the metric functional anchored at the final orbit
point.
"""

from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import bisect
import math

import numpy as np

from ._exact import _dd_matmul, _rescaled, _two_sum
from .core import DegenerateInputError, WeakMetricSpace, _with_point
from .seeding import trial_rng


@dataclass(frozen=True)
class ErgodicDriver:
    """A seeded i.i.d. choice among ``maps`` with probabilities ``weights``
    (uniform when empty), each trial from its own stream.

    The orbit fold and the disk walk compose right increments, a new map
    innermost: u(n) = g1 g2 ... gn.

    Orbits apply each map to a stack of points along one leading axis
    (the points of every trial and checkpoint that drew it), so a map
    must act on each point of a stack as it acts on that point alone;
    ``x + 1.0`` does.
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


def constant_driver(element, seed: int = 0) -> ErgodicDriver:
    return ErgodicDriver(seed=seed, maps=(element,), weights=(1.0,))


def apply_element(g, x):
    """Apply a driver element to a point or to a stack of points along a
    leading axis: callables act by call, arrays by matvec on each point."""
    if callable(g):
        return g(x)
    return (np.asarray(g) @ np.asarray(x)[..., None])[..., 0]


def screen_invertible(mats: np.ndarray) -> np.ndarray:
    """The inverses of the (m, d, d) stack mats, every matrix of which a
    step draws (:func:`_drawn`).  A matrix that is non-finite or has no
    finite inverse for the inverse track is a singular step matrix; any
    other runs, however badly conditioned, and a product that leaves the
    double range faults at its step."""
    try:
        invs = np.linalg.inv(mats)
        # an infinite entry can still have a finite inverse
        if np.all(np.isfinite(mats)) and np.all(np.isfinite(invs)):
            return invs
    except np.linalg.LinAlgError:       # an exactly singular matrix
        pass
    raise DegenerateInputError("singular step matrix")


def _drawn(mats, idx):
    """(mats, invs, idx): the matrices of the (m, d, d) stack mats that idx
    draws, in stack order, their inverses, screened
    (:func:`screen_invertible`), and idx relabelled to them."""
    drawn = np.bincount(np.ravel(idx), minlength=len(mats)) > 0
    if not drawn.all():
        mats, idx = mats[drawn], (np.cumsum(drawn) - 1)[idx]
    return mats, screen_invertible(mats), idx


def check_steps(values: np.ndarray, first: int = 1) -> None:
    """Raise a rescaling fault at the first step (row) with a zero or
    non-finite value; row 0 is step ``first``."""
    fault = np.flatnonzero(~np.all(np.isfinite(values) & (values != 0.0), axis=1))
    if fault.size:
        raise FloatingPointError(f"rescaling fault at step {first + fault[0]}")


# ---------------------------------------------------------------------------
# Orbits

def _fold_orbits(driver: ErgodicDriver, x0, ks: list, trials) -> np.ndarray:
    """Orbit points of every listed trial at the sorted checkpoints ks:
    pts[j, t] is trial t's point u(ks[j])x0, in one
    (len(ks), len(trials), *shape of x0) array.

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
    return pts


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
    per_trial: np.ndarray
    std_error: float
    tail_slope: float


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


def summarize_trials(per_trial: np.ndarray, tail_ks, tail) -> LyapunovEstimate:
    """Mean and standard error of the trials' final values; tail holds the
    mean value at each of the checkpoints tail_ks."""
    m = len(per_trial)
    # deviations from the first value, summed exactly: equal values give
    # their value and a std error of exactly 0
    dev = [v - per_trial[0] for v in per_trial.tolist()]
    mean_dev = math.fsum(dev) / m
    se = math.sqrt(math.fsum((d - mean_dev) ** 2 for d in dev) / (m - 1) / m) \
        if m > 1 else 0.0
    return LyapunovEstimate(float(per_trial[0] + mean_dev), per_trial, se,
                            _tail_slope(tail_ks, tail))


def _summarize_cocycle(a: np.ndarray, tail_ks) -> LyapunovEstimate:
    """The estimate from the cocycle values a(k), one row per checkpoint of
    tail_ks and one column per trial: each trial's a(n)/n, and the tail
    slope of the mean ratio a(k)/k."""
    ratios = a / np.array(tail_ks)[:, None]
    # summed one trial at a time, in trial order
    tail_sum = np.zeros(len(tail_ks))
    for r in ratios.T:
        tail_sum += r
    return summarize_trials(ratios[-1], tail_ks, tail_sum / ratios.shape[1])


def estimate_top_exponent(driver: ErgodicDriver, space: WeakMetricSpace,
                          x0, n: int, trials: int) -> LyapunovEstimate:
    """Monte-Carlo estimate of lim a(n)/n across independent seeded trials.

    Every trial and every tail checkpoint fold together on one stack of
    points, so the driver's maps act on point stacks (see
    :class:`ErgodicDriver`).  An orbit point outside the space's domain
    raises the distance's own error.  tail_slope is the drift of the mean
    ratio a(k)/k over checkpoints in [n/10, n], a convergence diagnostic.
    """
    if trials < 1 or n < 10:
        raise DegenerateInputError("need trials >= 1 and n >= 10")
    tail_ks = tail_checkpoints(n)
    # checkpoint-major rows, one per trial
    points = _fold_orbits(driver, x0, tail_ks, range(trials)).reshape((-1,) + np.shape(x0))
    a = _distances_from(space, x0, points).reshape(len(tail_ks), trials)
    return _summarize_cocycle(a, tail_ks)


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
# loop, whose track meets one fresh factor at a time.  Each node is
# therefore carried as a double-double hi + lo (hi = fl(hi + lo)) with the
# error-free transformations of horoflow._exact, to about 2**-104, from
# leaves given as such pairs: a tree rounded to double misses the disk
# walk's rate by up to 10 ulp of 50-digit products (tests/test_cocycle.py).
#
# Each level pairs its nodes from the left, and an odd node at the end
# carries to the next level, so node j of level h is the product of steps
# j 2**h ... (j + 1) 2**h - 1, the last one cut short at the end.  The
# segments between checkpoints share the levels: their nodes sit side by
# side on one node axis, and one call a level pairs the nodes of every
# segment, each within its own segment, an odd node carrying at each
# segment's end.
#
# A driver that draws few matrices repeats the tree's subproducts: a
# constant one's aligned pairs are all one product, and a two-map one has
# at most 4, 16 and 256 distinct windows at the first three levels.  So a
# node is a pair (table, codes): the scaled products of its (trials, nodes)
# nodes are the rows of the stack ``table`` that the integer array
# ``codes`` names, or, where codes is None (a plain node), ``table``
# itself, laid out as the nodes.  Each distinct pair of codes is multiplied
# once (common-subexpression elimination on the tree: Ershov, Comm. ACM
# 1(8), 1958), and the segments of a level share one table.  Its operands
# and their operations are the plain tree's, so every bit is too.  Codes
# are integers, so a coded level takes all steps at once, and so does a
# plain level of no more nodes than a gather takes.  A plain level past a
# gather, and those above it, are formed from blocks of products gathered
# by their codes, as fresh leaves are, with the tree above a gather built
# depth first.

# (trial, step) matrices gathered at once, and twice the products a call
# forms at most (or one a trial, where a gather is one step); bounds the
# temporaries
_PRODUCT_BLOCK = 1 << 12
# products a call forms at most, in equal parts, of pairs taken from
# tables by their codes (or one a trial): a plain level of a coded pass
# spans every segment, and formed in one call its temporaries, about 700
# bytes a 2 x 2 product, raised perfbench long-orbit's peak RSS by about
# 0.35 MB
_CODED_CALL = _PRODUCT_BLOCK // 4


def _gather_width(trials):
    """The steps a trial of ``trials`` gathers at once: a power of two,
    within ``_PRODUCT_BLOCK`` matrices for all trials, or 1."""
    return 1 << max(_PRODUCT_BLOCK // trials, 1).bit_length() - 1


def _part(node, index):
    return [a[index] for a in node]


def chain_product(first, then, later_left: bool = False):
    """The scaled product of two scaled products: ``then`` after ``first``,
    on the right of it, or on the left when ``later_left``."""
    (xh, xl, xe), (yh, yl, ye) = (then, first) if later_left else (first, then)
    return _rescaled(*_dd_matmul(xh, xl, yh, yl), xe + ye)


def _distinct(keys, size):
    """(kept, codes): the distinct values of the integer array keys, each in
    [0, size), ascending, and each key's position among them; marked in a
    dense boolean array of that size, with no sort."""
    mark = np.zeros(size, dtype=bool)
    mark[keys] = True
    return np.flatnonzero(mark), (np.cumsum(mark) - 1)[keys]


def _coded(node, pairs):
    """Whether a level of the coded node ``node`` that pairs ``pairs`` nodes
    a trial multiplies its distinct code pairs: where the u**2 code pairs
    that a table of u products allows are fewer than the pairs, and than
    the products a gather's first level forms."""
    table, codes = node
    trials = len(codes)
    return len(table[0]) ** 2 < min(trials * pairs, max(_PRODUCT_BLOCK // 2, trials))


def _split(node, index):
    """The nodes ``index`` of a node."""
    table, codes = node
    return (_part(table, index), None) if codes is None else (table, codes[index])


def _products(node):
    """The scaled products of a node's nodes, laid out as the nodes."""
    table, codes = node
    return table if codes is None else _part(table, codes)


def _pair_nodes(first, then, later_left):
    """The node of the products of two nodes of one (trials, nodes) shape
    and one kind, pair by pair, by :func:`chain_product`.

    Two plain nodes multiply every pair into a plain node.  Two coded
    nodes multiply each distinct (left, right) pair of codes once where
    :func:`_coded` holds, and the codes number the distinct pairs, in
    O(pairs + u1 u2) work for tables of u1 and u2 products, with no sort.
    Otherwise they multiply every pair into a plain node, taken from
    their tables at most ``_CODED_CALL`` products a call, in equal parts,
    into one level."""
    (t1, c1), (t2, c2) = first, then
    if c1 is None:
        return chain_product(t1, t2, later_left), None
    if _coded(first, c1.shape[1]):
        u2 = len(t2[0])
        kept, codes = _distinct(c1 * u2 + c2, len(t1[0]) * u2)
        i, j = np.divmod(kept, u2)
        return chain_product(_part(t1, i), _part(t2, j), later_left), codes
    trials, nodes = c1.shape
    step = -(-nodes // -(-trials * nodes // _CODED_CALL))   # equal parts, rounded up
    out = [np.empty(c1.shape + a.shape[1:], dtype=a.dtype) for a in t1]
    for a in range(0, nodes, step):
        pairs = _part(t1, c1[:, a:a + step]), _part(t2, c2[:, a:a + step])
        for o, x in zip(out, chain_product(*pairs, later_left)):
            o[:, a:a + step] = x
    return out, None


def _placed(pairs, odd, carried):
    """The (trials, nodes, ...) array of pairs with odd after them, or, for
    a boolean mask ``carried`` over the nodes, with odd where it is set
    and pairs elsewhere, each in order."""
    if carried is None:
        return np.concatenate([pairs, odd], axis=1)
    out = np.empty(pairs.shape[:1] + carried.shape + pairs.shape[2:], dtype=pairs.dtype)
    out[:, ~carried], out[:, carried] = pairs, odd
    return out


def _with_odd(node, odd, carried):
    """A level's node of pairs with the carried node odd placed as
    :func:`_placed` places it; a coded odd node's distinct products join
    the table."""
    (table, codes), (odd_table, odd_codes) = node, odd
    if codes is None:
        return [_placed(a, b, carried) for a, b in zip(table, _products(odd))], None
    kept, odd_codes = _distinct(odd_codes, len(odd_table[0]))
    return ([np.concatenate([a, b[kept]]) for a, b in zip(table, odd_table)],
            _placed(codes, len(table[0]) + odd_codes, carried))


def _levels(node, counts, later_left):
    """(node, counts) after the levels of ``node``, whose (trials, nodes)
    nodes lie in runs of ``counts`` nodes, in order.  Every level pairs
    the nodes of all runs in one :func:`_pair_nodes` call, each run's from
    the left, an odd node at a run's end carrying to the next level.

    The levels go on to one node a run, but a coded node stops before a
    plain level of more nodes than a gather takes, for
    :func:`_gathered_products` to form within the gather bound.

    Where no run before the last one with a pair is odd, as in one run,
    the pairs are strided views and the carried nodes follow them.
    Gathering them by index instead, as other levels do, copies a level
    of 2048 2 x 2 pairs in three to six times as long, and made a fresh
    d = 2 pass of 20000 steps about 40% slower (one core of a 2-vCPU
    x86-64 host, numpy 2.4)."""
    counts = list(counts)
    while max(counts) > 1:
        m = 2 * sum(c // 2 for c in counts)
        codes = node[1]
        if (codes is not None and sum(counts) > _gather_width(len(codes))
                and not _coded(node, m // 2)):
            break
        last = max(r for r, c in enumerate(counts) if c > 1)
        if not any(c % 2 for c in counts[:last]):
            left, right, rest, carried = np.s_[:, 0:m:2], np.s_[:, 1:m:2], np.s_[:, m:], None
        else:
            sizes = np.array(counts)
            halves, odd, ends = sizes // 2, sizes % 2 == 1, np.cumsum(sizes)
            # run r's pairs start at its first node, two nodes apart; its
            # odd node ends it, before the level and after
            first = (np.repeat(ends - sizes - 2 * (np.cumsum(halves) - halves), halves)
                     + 2 * np.arange(m // 2))
            left, right, rest = np.s_[:, first], np.s_[:, first + 1], np.s_[:, (ends - 1)[odd]]
            carried = np.zeros(len(first) + odd.sum(), dtype=bool)
            carried[(np.cumsum(sizes - halves) - 1)[odd]] = True
        pairs, carry = (_split(node, left), _split(node, right)), _split(node, rest)
        # gathered pairs are copies: the level is let go before they multiply
        del node, codes
        node = _pair_nodes(*pairs, later_left)
        if m < sum(counts):
            node = _with_odd(node, carry, carried)
        counts = [c - c // 2 for c in counts]
    return node, counts


def _gathered_products(leaf, idx, lengths, later_left):
    """The per-trial scaled products, one a run, of the (trials, nodes)
    node ``leaf(idx)``, whose nodes lie in runs of ``lengths`` nodes,
    formed from the nodes ``leaf`` takes for blocks of idx of at most
    ``_PRODUCT_BLOCK`` (trial, node) entries.

    Consecutive runs that fit a gather's width together are one pass of
    :func:`_levels`.  A run longer than the width cuts at the largest
    power of two below its length and its two parts' products are
    paired, which is the product its levels would form.  Above the gather
    the tree is so built depth first: a trial holds O(log n) products
    besides its runs', not one a gather."""
    width = _gather_width(len(idx))
    groups = []         # the runs of each block, in order
    for c in lengths:
        if groups and sum(groups[-1]) + c <= width:
            groups[-1].append(c)
        else:
            groups.append([c])
    parts, start = [], 0
    for runs in groups:
        block = idx[:, start:start + sum(runs)]
        steps = block.shape[1]
        start += steps
        if steps <= width:
            # passed on unnamed, so that each level frees the last
            parts.append(_products(_levels(leaf(block), runs, later_left)[0]))
        else:
            half = 1 << (steps - 1).bit_length() - 1
            parts.append(chain_product(
                _gathered_products(leaf, block[:, :half], [half], later_left),
                _gathered_products(leaf, block[:, half:], [steps - half], later_left),
                later_left))
    return parts[0] if len(parts) == 1 else [np.concatenate(a, axis=1) for a in zip(*parts)]


def _segment_products(leaves, idx, lengths, later_left):
    """The per-trial scaled products of the consecutive segments of
    ``lengths`` steps (together all of idx's) that idx draws from the
    double-double matrices ``leaves = (hi, lo)``, one a segment, in
    order; see :func:`pairwise_product`."""
    hi, lo = leaves
    if _coded((leaves, idx), idx.shape[1] // 2):
        # the first level can repeat a pair: the leaves are normalized once
        # and idx is their codes.  The levels take all steps at once, as
        # codes are integers, up to a plain level past a gather; that one
        # and those above it take the products of the last table by their
        # codes, a block at a time
        node, lengths = _levels((_rescaled(hi, lo, np.zeros(len(hi), dtype=np.int64)), idx),
                                lengths, later_left)
        if max(lengths) == 1:
            return _products(node)
        table, idx = node

        def leaf(block):
            return table, block
    else:
        def leaf(block):
            return _rescaled(hi[block], lo[block], np.zeros(block.shape, dtype=np.int64)), None
    return _gathered_products(leaf, idx, lengths, later_left)


def pairwise_product(leaves, idx, later_left: bool = False):
    """Scaled per-trial products of ``M[idx[t, 0]], M[idx[t, 1]], ...``, in
    double-double arithmetic, for the real (m, d, d) stacks
    ``leaves = (hi, lo)`` of the matrices M = hi + lo.

    Later factors go on the right (M_1 M_2 ... M_L), or on the left when
    ``later_left`` (M_L ... M_2 M_1).  idx is a (trials, L) integer array,
    L >= 1.  Read the result with :func:`scaled_matrices`.

    This is the one-segment call of :func:`_checkpoint_products`' tree.
    Each level pairs its nodes from the left, an odd node at the end
    carrying to the next level, so the tree, and with it every rounding,
    depends on L alone: each trial of a batch equals its one-trial call
    bit for bit.

    Each distinct product is formed once: a node carries an integer code
    per trial naming its product in a table, and each level multiplies
    each distinct (left, right) pair of codes once, wherever the table
    allows fewer such pairs than there are pairs and than a gather's
    first level forms (:func:`_coded`).  The rule reads only the counts of
    codes and of nodes.  A product multiplies the same operands by the
    same operations either way, so every bit is that of the plain tree.
    Where the first level can repeat a pair, the leaves are normalized
    once and idx is their codes, and the levels take all steps at once up
    to a plain level of more nodes than a gather takes.  That level and
    those above it, and all levels of a fresh matrix a step, are formed
    from at most ``_PRODUCT_BLOCK`` products gathered at once
    (:func:`_gathered_products`), so no call forms more than half as
    many products (or one a trial, where a gather is one step).
    """
    return _part(_segment_products(leaves, idx, [idx.shape[1]], later_left), np.s_[:, 0])


def scaled_matrices(node):
    """(p, log_scale) of a scaled product: the (trials, d, d) stack p, each
    with largest entry modulus in [1/2, 1), and the (trials,) logs, so that
    p * exp(log_scale) is the product."""
    # C order again: _dd_matmul leaves its results as transposed views
    return np.ascontiguousarray(node[0]), node[2] * math.log(2.0)


def _running_products(nodes, later_left: bool = False):
    """(p, log_scale) stacks of the running products of the scaled products
    ``nodes``, each chained after the last (on its left when
    ``later_left``): row j reads nodes[0] ... nodes[j], with leading axes
    (row, trial)."""
    p, logs = zip(*map(scaled_matrices,
                       accumulate(nodes, partial(chain_product, later_left=later_left))))
    return np.stack(p), np.stack(logs)


def _checkpoint_products(leaves, idx, ks: list, later_left: bool = False):
    """(segs, p, log_scale) of the per-trial products of the steps idx draws
    from the double-double matrices ``leaves = (hi, lo)``, at the sorted
    distinct checkpoints ks.

    segs[j] is the scaled product of steps ks[j-1]+1 .. ks[j] (from step 1
    for j = 0); p and log_scale are the stacks of the running products at
    each checkpoint (see :func:`_running_products`).  ``later_left`` orders
    both as in :func:`pairwise_product`.

    The segments are formed together (:func:`_segment_products`): each
    level of the tree pairs the nodes of every segment in one call, and
    the segments share one table of distinct products, up to a plain
    level of more nodes than a gather takes; that level and those above
    it gather as many segments' nodes at once as a gather holds.  Each
    segment's tree is its :func:`pairwise_product` tree, so segs[j] equals
    that call bit for bit.  Steps past ks[-1] are not read.
    """
    bounds = [0] + list(ks)
    lengths = [c - b for b, c in zip(bounds, bounds[1:])]
    products = _segment_products(leaves, idx[:, :ks[-1]], lengths, later_left)
    segs = [_part(products, np.s_[:, j]) for j in range(len(ks))]
    return (segs, *_running_products(segs, later_left))


# ---------------------------------------------------------------------------
# Boundary-safe hyperbolic walks
#
# Orbits of disk Mobius maps reach the floating-point boundary of the disk
# after ~38 units of hyperbolic distance, so long walks are evaluated
# through scaled 2x2 matrix products instead of disk coordinates:
# for a unit-determinant disk isometry g = [[alpha, beta], [conj beta,
# conj alpha]], d(0, g.0) = 2 arccosh |alpha|.  The Cayley transform of
# the disk to the half-plane (Beardon, The Geometry of Discrete Groups,
# 1983) conjugates g to the real [[Re alpha + Re beta, Im alpha - Im beta],
# [-(Im alpha + Im beta), Re alpha - Re beta]], so products are real and
# 2 alpha = (h11 + h22) + i (h12 - h21) of the product h.

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


def _walk_distances(driver: ErgodicDriver, n: int, trials: int, ks: list,
                    suffix: bool = False):
    """The (rows, trials) array a of the disk Mobius walks of trials
    0 .. trials-1 from 0, at the sorted checkpoints ks in [1, n] and at n:
    row j is checkpoint j of sorted(set(ks) | {n}), a[j, t] = d(0, u(k)0)
    for that checkpoint k.  With ``suffix``, (a, suffix), and
    suffix[j, t] = d(u(k)0, u(n)0).

    Driver elements must be SU(1,1) matrices (see :func:`mobius_matrix`).
    The leaves are their Cayley forms, each entry a sum of two doubles kept
    exactly as a ``_two_sum`` hi + lo.  Every distance comes from a scaled
    product, so no disk coordinate ever reaches |z| = 1.
    """
    maps, idx = driver.draw(range(trials), n)
    g = np.asarray(maps, dtype=complex)
    alpha, beta = g[:, 0, 0], g[:, 0, 1]
    entries = (_two_sum(alpha.real, beta.real), _two_sum(alpha.imag, -beta.imag),
               _two_sum(-alpha.imag, -beta.imag), _two_sum(alpha.real, -beta.real))
    leaves = [np.stack(part, axis=-1).reshape(-1, 2, 2) for part in zip(*entries)]
    # the segment products M_{b+1} ... M_c between consecutive bounds b < c,
    # chained forward into the prefix products P_k = M_1 ... M_k, which give
    # a(k) = d(0, u(k)0), and, for the suffix only, backward from the last
    # segment into S_j = M_{j+1} ... M_n, which give d(u(j)0, u(n)0), down
    # to the first checkpoint's S (S_0 is not formed)
    segs, p, logs = _checkpoint_products(leaves, idx, sorted(set(ks) | {n}))

    def dist(p, logs):     # math.log per value: np.log rounds by SIMD dispatch
        re = (p[..., 0, 0] + p[..., 1, 1]).ravel().tolist()
        im = (p[..., 0, 1] - p[..., 1, 0]).ravel().tolist()
        return np.reshape([_dist_origin(s + math.log(0.5 * math.hypot(x, y)))
                           for s, x, y in zip(logs.ravel().tolist(), re, im)], logs.shape)

    a = dist(p, logs)
    if not suffix:
        return a
    s = np.zeros_like(a)    # n's own suffix distance is 0
    if len(segs) > 1:
        sp, slogs = _running_products(segs[:0:-1], later_left=True)
        s[:-1] = dist(sp[::-1], slogs[::-1])
    return a, s


def walk_top_exponent(driver: ErgodicDriver, n: int, trials: int) -> LyapunovEstimate:
    """:func:`estimate_top_exponent` of a disk Mobius walk from 0 in the disk
    distance, with each a(k) read from the walk's scaled prefix products
    (see :func:`_walk_distances`), so n is not bounded by the circle."""
    if trials < 1 or n < 10:
        raise DegenerateInputError("need trials >= 1 and n >= 10")
    tail_ks = tail_checkpoints(n)
    return _summarize_cocycle(_walk_distances(driver, n, trials, tail_ks), tail_ks)


def hyperbolic_walk_gap(driver: ErgodicDriver, n: int, trials: int, checkpoints):
    """(ks, gaps): gap(k) = |(-1/k) h(u(k)x0) - (1/k) d(x0, u(k)x0)| of a disk
    Mobius walk from x0 = 0, for the metric functional h anchored at
    u(n)x0, at each checkpoint k of the list ks.

    Distances come from :func:`_walk_distances`, all trials together on
    stacked arrays; gaps[t, j] is trial t's gap at ks[j], one row for each
    trial 0 .. trials-1, and ks the checkpoints sorted and distinct.  Note
    gap(n) vanishes by construction (the functional is anchored at u(n)x0);
    interior checkpoints give a nondegenerate diagnostic.
    """
    if n < 10 or trials < 1:
        raise DegenerateInputError("need n >= 10 and trials >= 1")
    ks = checkpoint_list(checkpoints, n)
    a, suffix = _walk_distances(driver, n, trials, ks, suffix=True)
    # ks are the first len(ks) rows, as every checkpoint lies in [1, n]
    k, m = np.array(ks)[:, None], len(ks)
    return ks, np.abs(-(suffix[:m] - a[-1]) / k - a[:m] / k).T
