"""Drivers, orbits, the top exponent, and the hyperbolic walk's gap."""

import itertools
import math
import statistics
import tracemalloc

import numpy as np
import pytest

from horoflow import cocycle
from horoflow.cocycle import (ErgodicDriver, apply_element, chain_product, check_steps,
                              constant_driver, estimate_top_exponent,
                              geometric_checkpoints, hyperbolic_walk_gap,
                              mobius_matrix, pairwise_product, screen_invertible,
                              summarize_trials, tail_checkpoints, walk_top_exponent,
                              _checkpoint_products, _distances_from, _drawn,
                              _fold_orbits, _running_products, _tail_slope)
from horoflow._exact import _dd_matmul
from horoflow.core import DegenerateInputError, MetricDomainError
from horoflow.seeding import trial_rng
from horoflow.spaces import euclidean_space, poincare_space

from oracles import (batch_first_dd_matmul, elements, euclidean_dist, loop_orbit_at,
                     loop_top_exponent, loop_walk_gaps, mobius_disk, mp_walk_gaps,
                     plain_pairwise_product, poincare_dist, rotation_draws, sampled_draws)


# ---------------------------------------------------------------------------
# Drivers

def test_driver_validation():
    with pytest.raises(ValueError):
        ErgodicDriver(seed=0, maps=())
    with pytest.raises(ValueError):
        ErgodicDriver(seed=0, maps=(np.eye(2),) * 2, weights=(0.5, 0.6))
    with pytest.raises(ValueError):  # one weight short
        ErgodicDriver(seed=0, maps=(1.0, 2.0, 100.0), weights=(0.5, 0.5))
    with pytest.raises(ValueError):  # negative weight, sum 1
        ErgodicDriver(seed=0, maps=(1.0, 2.0), weights=(1.5, -0.5))


def test_elements_deterministic_per_trial():
    drv = ErgodicDriver(seed=11, maps=("a", "b"), weights=(0.5, 0.5))
    first = elements(drv, 0, 50)
    assert elements(drv, 0, 50) == first
    assert elements(drv, 1, 50) != first  # overwhelmingly likely and fixed by seed


def test_elements_are_the_maps_at_indices():
    drv = ErgodicDriver(seed=4, maps=("a", "b", "c"), weights=(0.2, 0.3, 0.5))
    maps, idx = drv.draw(range(5), 200)
    assert maps is drv.maps
    assert idx.shape == (5, 200)
    for t in (0, 3):
        one_maps, [one] = drv.draw([t], 200)
        # a trial's stream does not depend on the batch it is drawn in
        assert [maps[i] for i in idx[t]] == [one_maps[i] for i in one]
        assert elements(drv, t, 200) == [one_maps[i] for i in one]


def test_apply_element_matrices_and_callables():
    assert apply_element(lambda x: x + 1.0, 1.0) == 2.0
    out = apply_element(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))
    assert np.allclose(out, [2.0, 3.0])
    # a stack of points along a leading axis, one matvec per point
    out = apply_element(np.diag([2.0, 3.0]), np.array([[1.0, 1.0], [0.5, -1.0]]))
    assert out.tolist() == [[2.0, 3.0], [1.0, -3.0]]


# ---------------------------------------------------------------------------
# Orbits

def _orbit(driver, x0, ks, trial=0):
    """One trial's orbit points at the sorted checkpoints ks, as a dict
    k -> point, as :func:`oracles.loop_orbit_at` returns them."""
    pts = _fold_orbits(driver, x0, ks, [trial])
    return {k: pts[j, 0] for j, k in enumerate(ks)}


def test_orbit_order_contract():
    f = lambda x: x + 1.0
    g = lambda x: 2.0 * x
    drv = ErgodicDriver(seed=5, maps=(f, g), weights=(0.5, 0.5))
    gs = elements(drv, 0, 3)
    right = _orbit(drv, 1.0, [1, 2, 3])
    assert right[1] == gs[0](1.0)
    assert right[2] == gs[0](gs[1](1.0))
    assert right[3] == gs[0](gs[1](gs[2](1.0)))


def test_geometric_checkpoints_shape():
    ks = geometric_checkpoints(1000, count=8)
    assert ks[0] == 1 and ks[-1] == 1000
    assert ks == sorted(set(ks))
    with pytest.raises(DegenerateInputError):
        geometric_checkpoints(5, start=10)
    with pytest.raises(DegenerateInputError):
        geometric_checkpoints(5, count=0)


# ---------------------------------------------------------------------------
# Subadditive cocycle and the top exponent

def test_translation_cocycle_is_linear():
    sp = euclidean_space(1)
    drv = constant_driver(lambda x: x + 1.0)
    est = estimate_top_exponent(drv, sp, np.zeros(1), 200, 3)
    assert est.lambda_hat == pytest.approx(1.0, abs=1e-12)
    assert est.tail_slope == 0.0
    assert est.std_error == 0.0


def test_tail_slope_is_the_least_squares_fit():
    rng = trial_rng(17, 0)
    for size in (2, 3, 8):
        ks = np.unique(rng.integers(1, 10000, size=size))
        ratios = rng.normal(size=len(ks))
        want = np.polyfit(np.log(ks), ratios, 1)[0]
        assert _tail_slope(ks.tolist(), ratios) == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert _tail_slope([5], [1.0]) == 0.0
    assert _tail_slope([10, 20, 40, 80], [0.3] * 4) == 0.0


def test_summary_is_the_sample_mean_and_standard_error():
    rng = trial_rng(18, 0)
    for m in (2, 3, 10):
        values = rng.normal(1.0, 0.1, size=m)
        est = summarize_trials(values, [1, 2], np.zeros(2))
        assert est.lambda_hat == pytest.approx(statistics.fmean(values), rel=1e-15)
        assert est.std_error == pytest.approx(
            statistics.stdev(values) / math.sqrt(m), rel=1e-12)
    # equal values give their value and exactly 0; for three copies of
    # this one, operator-tau's per-trial value, np.mean is 1 ulp lower and
    # np.std gives a std error of 1.6e-16
    for m in (1, 3, 7):
        est = summarize_trials(np.full(m, 1.3862943611198904), [1, 2], np.zeros(2))
        assert (est.lambda_hat, est.std_error) == (1.3862943611198904, 0.0)


def test_subadditivity_along_shifted_seeds():
    # a(n+m) <= a(n) + a(m) o T^n for i.i.d. +-1 translations: check the
    # sampled inequality on the realized sequence itself.
    sp = euclidean_space(1)
    drv = ErgodicDriver(seed=21,
                        maps=(lambda x: x + 1.0, lambda x: x - 1.0),
                        weights=(0.5, 0.5))
    gs = elements(drv, 0, 40)
    steps = np.array([g(0.0) for g in gs])  # +-1 increments
    prefix = np.concatenate([[0.0], np.cumsum(steps)])
    a = np.abs(prefix)  # d(0, u(n)0) for commuting translations
    for n in range(1, 20):
        for m in range(1, 20):
            a_shift = abs(prefix[n + m] - prefix[n])
            assert a[n + m] <= a[n] + a_shift + 1e-12


def test_pm1_walk_exponent_is_small():
    sp = euclidean_space(1)
    drv = ErgodicDriver(seed=13,
                        maps=(lambda x: x + 1.0, lambda x: x - 1.0),
                        weights=(0.5, 0.5))
    est = estimate_top_exponent(drv, sp, np.zeros(1), 4000, 10)
    assert 0.0 <= est.lambda_hat < 0.05
    assert est.per_trial.std() > 0.0  # trials are genuinely independent


def test_disk_mobius_exponent_matches_translation_length():
    sp = poincare_space()
    drv = constant_driver(mobius_disk(0.5))
    # short horizon: |u(n)0| approaches 1 at double-precision speed
    est = estimate_top_exponent(drv, sp, 0j, 12, 2)
    assert est.lambda_hat == pytest.approx(2.0 * math.atanh(0.5), abs=1e-8)


def test_estimate_refuses_an_orbit_that_leaves_the_disk():
    sp = poincare_space()
    drv = constant_driver(lambda z: z + 0.4)  # not an isometry; 1.2 is outside
    with pytest.raises(MetricDomainError, match="not strictly inside the unit disk"):
        estimate_top_exponent(drv, sp, 0j, 100, 5)


def test_basepoint_shift_does_not_move_the_exponent():
    sp = poincare_space()
    drv = constant_driver(mobius_disk(0.5))
    a = estimate_top_exponent(drv, sp, 0j, 25, 1).lambda_hat
    b = estimate_top_exponent(drv, sp, 0.3j, 25, 1).lambda_hat
    assert a == pytest.approx(b, abs=0.2)  # same limit, finite-n offset O(1/n)


# ---------------------------------------------------------------------------
# Matrix cocycles

@pytest.mark.filterwarnings("error")
def test_screen_invertible_refuses_only_matrices_without_a_finite_inverse():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    # any scale and any condition number whose inverse is representable
    for scale in (1e-301, 1e-7, 1.0, 1e308):
        mats = scale * np.stack([np.eye(2), rot])
        assert np.array_equal(screen_invertible(mats), np.linalg.inv(mats))
    eps = np.finfo(float).eps
    for good in (np.diag([1e-301, 1e301]), np.diag([1e8, 1e-8]), np.diag([1.0, eps])):
        assert np.array_equal(screen_invertible(good[None]), np.linalg.inv(good[None]))
    for bad in (np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]]),
                np.diag([1e-310, 1.0]), np.diag([1.0, np.nan]), np.diag([np.inf, 1.0])):
        with pytest.raises(DegenerateInputError, match="^singular step matrix$"):
            screen_invertible(np.stack([np.eye(2), bad]))
        with pytest.raises(DegenerateInputError, match="^singular step matrix$"):
            _drawn(np.stack([np.eye(2), bad]), np.array([[1, 0, 1]]))
        # a matrix that is never drawn is dropped before the screen, and the
        # steps are relabelled to the drawn ones
        mats, invs, idx = _drawn(np.stack([bad, 2.0 * np.eye(2)]), np.array([[1, 1]]))
        assert mats.tolist() == [[[2.0, 0.0], [0.0, 2.0]]]
        assert invs.tolist() == [[[0.5, 0.0], [0.0, 0.5]]] and idx.tolist() == [[0, 0]]


def test_check_steps_names_the_first_fault():
    check_steps(np.array([[1.0, -2.0], [1e-320, 1e308]]))
    for bad in (0.0, -0.0, np.inf, np.nan):
        values = np.ones((5, 3))
        values[3, 1] = bad
        values[4, 0] = 0.0
        with pytest.raises(FloatingPointError, match="^rescaling fault at step 4$"):
            check_steps(values)
        # a block that starts at step 101
        with pytest.raises(FloatingPointError, match="^rescaling fault at step 104$"):
            check_steps(values, 101)


# ---------------------------------------------------------------------------
# The hyperbolic walk's convergence diagnostic

def test_mobius_matrix_properties():
    m = mobius_matrix(0.5)
    assert np.linalg.det(m) == pytest.approx(1.0)
    with pytest.raises(DegenerateInputError):
        mobius_matrix(1.0)


def test_hyperbolic_walk_gap_constant_driver():
    drv = constant_driver(mobius_matrix(0.5))
    ks, gaps = hyperbolic_walk_gap(drv, 2000, 1, geometric_checkpoints(2000))
    assert gaps.shape == (1, len(ks))
    assert max(gaps[0]) <= 1e-9
    assert ks[-1] == 2000


def _two_map_walk(seed=7):
    return ErgodicDriver(seed=seed,
                         maps=(mobius_matrix(0.5), mobius_matrix(0.3 + 0.2j)),
                         weights=(0.5, 0.5))


def test_hyperbolic_walk_interior_checkpoints():
    drv = _two_map_walk()
    ks, gaps = hyperbolic_walk_gap(drv, 4000, 1, [2000])
    assert ks == [2000]
    assert gaps[0, 0] < 0.05
    for bad in ([500], [], 5, ["x"]):
        with pytest.raises(DegenerateInputError):
            hyperbolic_walk_gap(drv, 100, 1, bad)


def _parametric_walk(seed):
    return sampled_draws(seed, lambda r: mobius_matrix(
        complex(r.uniform(-0.6, 0.6), r.uniform(-0.6, 0.6))))


_WALKS = {"constant": lambda seed: constant_driver(mobius_matrix(0.5), seed=seed),
          "two_maps": _two_map_walk, "parametric": _parametric_walk}


@pytest.mark.parametrize("name", ["two_maps", "parametric"])
def test_walk_against_the_mpmath_product(name):
    # gap(k) of the pairwise walk and of the old step loop against 50-digit
    # prefix and suffix products; a checkpoint at 1, two length-1 segments,
    # odd segment lengths, and at n = 2000 a walk of 4 trials, whose gather
    # block (1024 steps) is shorter than its longest segment.  The top
    # exponent's a(n)/n, from the same prefix products, within 4 ulp
    new_errs, old_errs = [], []
    for seed in range(1, 7):
        driver = _WALKS[name](seed)
        for n in (50, 300, 2000):
            ks = [1, 2, 9, n // 3, n - 1, n]
            trials = 4 if n == 2000 else 1
            t = trials - 1
            mats = elements(driver, t, n)
            exact, a_n = mp_walk_gaps(mats, ks)
            old = loop_walk_gaps(mats, ks)
            new = hyperbolic_walk_gap(driver, n, trials, checkpoints=ks)[1][t]
            rate, want = walk_top_exponent(driver, n, trials).per_trial[t], float(a_n / n)
            assert abs(rate - want) <= 4 * math.ulp(want), (seed, n)
            # gap(k) cancels terms of size a(n)
            floor = 8 * np.finfo(float).eps * max(1.0, float(a_n))
            for k, g_new, g_old, g in zip(ks, new, old, exact):
                new_err, old_err = float(abs(g_new - g)), float(abs(g_old - g))
                assert new_err <= max(old_err, floor), (seed, n, k, new_err, old_err)
                new_errs.append(new_err)
                old_errs.append(old_err)
    assert max(new_errs) <= max(old_errs)


@pytest.mark.parametrize("name", sorted(_WALKS))
@pytest.mark.parametrize("checkpoints", [None, [1, 50, 120, 299, 300]])
def test_each_trial_of_a_batch_equals_its_one_trial_walk(name, checkpoints):
    # 200 trials gather 16 steps a block, so a segment spans several full
    # blocks, 4 trials 1024 and one trial the whole walk: the tree and
    # every rounding are the same
    driver, n = _WALKS[name](11), 300
    ks = checkpoints or geometric_checkpoints(n, count=16)
    batch_ks, batch = hyperbolic_walk_gap(driver, n, 200, ks)
    _, few = hyperbolic_walk_gap(driver, n, 4, ks)
    _, one = hyperbolic_walk_gap(driver, n, 1, ks)
    assert batch_ks == ks
    assert batch.shape == (200, len(ks))
    assert batch[:4].tolist() == few.tolist()
    assert batch[:1].tolist() == one.tolist()


def _dd_stack(rng, shape, kinds):
    """(hi, lo) pairs with |hi| <= 1 and lo below hi's last bit; of every
    ``kinds`` entries, about one is 0, one -0 and one scaled near 1e-300."""
    hi = rng.uniform(-1.0, 1.0, shape)
    lo = hi * rng.uniform(-1.0, 1.0, shape) * 2.0 ** -53
    kind = rng.integers(0, kinds, shape)
    for x in (hi, lo):
        x[kind == 0] = 0.0
        x[kind == 1] = -0.0
        x[kind == 2] *= 1e-300
    return hi, lo


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 3, 4])
def test_dd_matmul_equals_the_batch_first_product(d):
    # the stack-innermost kernel forms every product and sum as the
    # batch-first one did, so the bits, signed zeros and underflows
    # included, are the same
    rng = np.random.default_rng(40 + d)
    for trials, steps in [(1, 1), (3, 1), (1, 2), (2, 7), (5, 33), (1, 2048)]:
        for kinds in (3, 10):       # every entry 0, -0 or tiny; or three in ten
            shape = (trials, steps, d, d)
            args = _dd_stack(rng, shape, kinds) + _dd_stack(rng, shape, kinds)
            for got, want in zip(_dd_matmul(*args), batch_first_dd_matmul(*args)):
                assert got.shape == shape
                assert got.tobytes() == want.tobytes(), (trials, steps, kinds)


# ---------------------------------------------------------------------------
# The memoized product tree against the plain one

def _step_draws(rng, maps, d, trials, steps, lo_zero):
    """((hi, lo), idx): ``maps`` Gaussian d x d leaves drawn uniformly at
    random, or a fresh leaf a step for maps None; lo is zero or below hi's
    last bit."""
    m = trials * steps if maps is None else maps
    hi = rng.standard_normal((m, d, d))
    lo = np.zeros_like(hi) if lo_zero else hi * rng.uniform(-1.0, 1.0, hi.shape) * 2.0 ** -53
    idx = (np.arange(m).reshape(trials, steps) if maps is None
           else rng.integers(0, maps, (trials, steps)))
    return (hi, lo), idx


@pytest.mark.parametrize("maps, d", [(1, 3), (2, 2), (3, 3), (None, 4)],
                         ids=["constant", "two_maps", "three_maps", "fresh"])
def test_pairwise_product_equals_the_plain_tree(maps, d):
    # every product multiplies the same operands by the same operations as
    # the plain tree, so hi, lo and the exponents are equal, for every gather
    # width: 2000 trials gather 2 steps a block, so the binary counter's
    # merges do the work, and 3000 trials gather one step a block, so the
    # first pairs are formed in a merge.  Each row of a batch equals its
    # one-row call
    rng = np.random.default_rng(2 if maps is None else 10 + maps)
    for trials in (1, 3, 30, 200, 2000, 3000):
        for steps in (1, 2, 5, 63, 64, 65, 1000, 4097):
            if trials * steps * d ** 3 > 1 << 20:     # the plain tree's work
                continue
            for lo_zero in (True, False):
                leaves, idx = _step_draws(rng, maps, d, trials, steps, lo_zero)
                for later_left in (False, True):
                    got = pairwise_product(leaves, idx, later_left)
                    want = plain_pairwise_product(leaves, idx, later_left)
                    case = (trials, steps, lo_zero, later_left)
                    for g, w in zip(got, want):
                        assert g.shape == w.shape, case
                        assert (g == w).all(), case
                    for t in sorted({0, trials // 2, trials - 1}):
                        row = pairwise_product(leaves, idx[t:t + 1], later_left)
                        for g, r in zip(got, row):
                            assert (g[t] == r[0]).all(), case + (t,)


def _counted_rows(monkeypatch, leaves, idx):
    """The rows :func:`pairwise_product` multiplies for idx."""
    rows = []

    def counting(first, then, later_left=False):
        rows.append(first[2].size)
        return chain_product(first, then, later_left)
    monkeypatch.setattr(cocycle, "chain_product", counting)
    pairwise_product(leaves, idx)
    monkeypatch.undo()
    return sum(rows)


def test_pairwise_product_forms_each_distinct_product_once(monkeypatch):
    # exact counts, no timing: one constant step forms one product a level
    # (12 levels for 4096 steps); a two-map walk has at most 4, 16 and 256
    # distinct windows at its first three levels; fresh steps repeat no pair
    rng = np.random.default_rng(3)
    leaves, idx = _step_draws(rng, 1, 2, 1, 4096, True)
    assert _counted_rows(monkeypatch, leaves, idx) <= 12
    leaves, idx = _step_draws(rng, 2, 2, 1, 4096, True)
    assert _counted_rows(monkeypatch, leaves, idx) < 4095 / 4
    for trials, steps in [(1, 4096), (3, 1000), (200, 65), (3000, 5)]:
        leaves, idx = _step_draws(rng, None, 2, trials, steps, True)
        assert _counted_rows(monkeypatch, leaves, idx) == trials * (steps - 1)


def _per_segment_products(leaves, idx, ks, later_left):
    """:func:`cocycle._checkpoint_products` one plain tree a segment."""
    bounds = [0] + ks
    segs = [plain_pairwise_product(leaves, idx[:, b:c], later_left)
            for b, c in zip(bounds, bounds[1:])]
    return (segs, *_running_products(segs, later_left))


@pytest.mark.parametrize("maps, d", [(1, 3), (2, 2), (3, 3), (32, 2), (None, 4)],
                         ids=["constant", "two_maps", "three_maps", "many_maps", "fresh"])
def test_checkpoint_products_equal_the_per_segment_trees(maps, d):
    # the segments share each level and one table of distinct products, and
    # each segment's tree is the plain one, so every segment's hi, lo and
    # exponents, and every running product, are equal.  Each size's lone
    # segment [n] is longer than its gather width (4096 steps for 1 trial,
    # 1024 for 3, 128 for 30, 16 for 200); the last list has segments of
    # one step.  32 maps code one level, and at 30 and 200 trials their
    # first plain level is past a gather, so it and those above it gather
    # the table's products by their codes
    rng = np.random.default_rng(20 if maps is None else 20 + maps)
    for trials, n in [(1, 5000), (3, 1500), (30, 300), (200, 40)]:
        lists = [[n], tail_checkpoints(n), geometric_checkpoints(n, 16),
                 geometric_checkpoints(n, 64), [1, 2, 3, n // 2, n // 2 + 1, n - 1, n]]
        for lo_zero in (True, False):
            leaves, idx = _step_draws(rng, maps, d, trials, n, lo_zero)
            for ks, later_left in itertools.product(lists, (False, True)):
                got = _checkpoint_products(leaves, idx, ks, later_left)
                want = _per_segment_products(leaves, idx, ks, later_left)
                case = (trials, n, len(ks), lo_zero, later_left)
                assert len(got[0]) == len(want[0]) == len(ks), case
                for g_seg, w_seg in zip(got[0], want[0]):
                    for g, w in zip(g_seg, w_seg):
                        assert g.shape == w.shape and (g == w).all(), case
                for g, w in zip(got[1:], want[1:]):
                    assert g.shape == w.shape and (g == w).all(), case


def test_checkpoint_products_pair_each_level_once(monkeypatch):
    # exact counts, no timing: a two-map pass of one trial forms each level
    # of every segment in one call, ceil(log2 10000) = 14 for a longest
    # segment of 10000 steps (one more, as its first plain level, 1250
    # products taken from a table by their codes, takes two calls),
    # however many checkpoints cut the other 10000, besides the
    # len(ks) - 1 running products
    rng = np.random.default_rng(4)
    leaves, idx = _step_draws(rng, 2, 2, 1, 20000, True)
    calls = []

    def counting(first, then, later_left=False):
        calls.append(later_left)
        return chain_product(first, then, later_left)
    monkeypatch.setattr(cocycle, "chain_product", counting)
    counts = []
    for count in (8, 16, 64):
        ks = geometric_checkpoints(10000, count) + [20000]
        calls.clear()
        _checkpoint_products(leaves, idx, ks)
        counts.append(len(calls) - (len(ks) - 1))
    assert counts[0] <= math.ceil(math.log2(10000)) + 1
    assert counts == [counts[0]] * 3
    ks = tail_checkpoints(20000)
    calls.clear()
    _checkpoint_products(leaves, idx, ks)
    longest = max(c - b for b, c in zip([0] + ks, ks))
    assert len(calls) - (len(ks) - 1) <= math.ceil(math.log2(longest)) + 1


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("trials, n, d", [(16, 2000, 4), (200, 250, 3), (1, 20000, 2)])
def test_checkpoint_products_keep_the_gather_bound(trials, n, d):
    # fresh leaves are gathered at most _PRODUCT_BLOCK matrices at once and
    # the tree above a gather is built depth first, so a pass at the tail
    # checkpoints allocates at its peak no more than one tree a segment
    # (tracemalloc counts numpy's buffers, deterministically)
    leaves, idx = _step_draws(np.random.default_rng(6), None, d, trials, n, True)
    ks = tail_checkpoints(n)
    one_pass = _traced_peak(_checkpoint_products, leaves, idx, ks, True)
    per_segment = _traced_peak(_per_segment_products, leaves, idx, ks, True)
    assert one_pass <= 1.1 * per_segment, (one_pass, per_segment)


@pytest.mark.parametrize("maps, d, trials, n", [(64, 4, 16, 2000), (32, 4, 16, 2000),
                                                (32, 4, 16, 8000), (2, 2, 3, 20000)])
def test_coded_checkpoint_products_keep_the_gather_bound(maps, d, trials, n):
    # a coded pass takes all steps at once only while its levels are coded,
    # each forming at most _PRODUCT_BLOCK / 2 distinct products (64 maps
    # allow 4096 first pairs, so their first level is plain); its first
    # plain level past a gather, and those above it, take the last table's
    # products by their codes a gather at once.  So besides one tree a
    # segment's products it holds its integer codes, within idx's own size,
    # and not one product a pair of its first plain level
    leaves, idx = _step_draws(np.random.default_rng(7), maps, d, trials, n, True)
    ks = tail_checkpoints(n)
    one_pass = _traced_peak(_checkpoint_products, leaves, idx, ks, True)
    per_segment = _traced_peak(_per_segment_products, leaves, idx, ks, True)
    assert one_pass <= 1.1 * per_segment + idx.nbytes, (one_pass, per_segment, idx.nbytes)


# ---------------------------------------------------------------------------
# The stacked orbit fold against the one-trial loop

def _pm1_walk(seed):
    return ErgodicDriver(seed=seed, maps=(lambda x: x + 1.0, lambda x: x - 1.0),
                         weights=(0.5, 0.5))


# leaves the disk on a long enough run of shifts: a few of 40 trials at n 12
# do, and the estimate refuses the batch
_SHIFT_OR_HALVE = ErgodicDriver(seed=3, maps=(lambda z: z + 0.3, lambda z: 0.5 * z),
                                weights=(0.3, 0.7))


def _random_shift(rng):
    s = rng.uniform(-1.0, 1.0)
    return lambda x, _s=s: x + _s


_R1 = euclidean_space(1)
_DISK = poincare_space()
_MATRICES = rotation_draws(2, (np.array([[0.9, 0.2], [-0.1, 0.8]]),
                               np.array([[1.1, 0.0], [0.3, 0.7]])), (0.4, 1.0))

# label -> (driver, space, x0, [(n, trials), ...])
_FOLDS = {
    "translation": (constant_driver(lambda x: x + 1.0), _R1, np.zeros(1),
                    [(200, 3), (10, 1)]),
    "pm1_walk": (_pm1_walk(11), _R1, np.zeros(1), [(500, 50), (4000, 10), (50, 3)]),
    "disk_mobius": (constant_driver(mobius_disk(0.5), seed=5), _DISK, 0j,
                    [(12, 2), (25, 1)]),
    "disk_mobius_offset": (constant_driver(mobius_disk(0.3 + 0.2j)), _DISK, 0.3j,
                           [(20, 3)]),
    "shift_or_halve": (_SHIFT_OR_HALVE, _DISK, 0j, [(12, 40)]),
    "parametric": (sampled_draws(6, _random_shift), _R1, np.zeros(1), [(200, 6)]),
    "matrices": (_MATRICES, euclidean_space(2), np.ones(2), [(60, 5)]),
}


@pytest.mark.parametrize("label", sorted(_FOLDS))
def test_stacked_top_exponent_equals_the_trial_loop(label):
    driver, space, x0, sizes = _FOLDS[label]
    for n, trials in sizes:
        try:
            want = loop_top_exponent(driver, space, x0, n, trials)
        except MetricDomainError:
            with pytest.raises(MetricDomainError):
                estimate_top_exponent(driver, space, x0, n, trials)
            continue
        got = estimate_top_exponent(driver, space, x0, n, trials)
        assert got.per_trial.tolist() == want.per_trial.tolist()
        assert (got.lambda_hat, got.std_error, got.tail_slope) \
            == (want.lambda_hat, want.std_error, want.tail_slope)


@pytest.mark.parametrize("label", sorted(_FOLDS))
def test_stacked_orbit_at_equals_the_point_loop(label):
    driver, space, x0, _ = _FOLDS[label]
    for ks, trial in (([1, 2, 5, 12], 0), ([3, 7, 30], 2), (list(range(1, 16)), 1)):
        got = _orbit(driver, x0, ks, trial)
        want = loop_orbit_at(driver, x0, ks, trial)
        assert sorted(got) == sorted(want)
        for k in want:
            assert np.asarray(got[k]).tolist() == np.asarray(want[k]).tolist()


# ---------------------------------------------------------------------------
# Batched distances against the one-pair loops

# label -> (driver, space, scalar distance, x0)
_ORBITS = {
    "pm1_walk": (_pm1_walk(11), _R1, euclidean_dist, np.zeros(1)),
    "disk_mobius": (ErgodicDriver(seed=5,
                                  maps=(mobius_disk(0.05), mobius_disk(-0.03 + 0.04j))),
                    _DISK, poincare_dist, 0.3j),
    "rotation": (_MATRICES, euclidean_space(2), euclidean_dist, np.ones(2)),
    "parametric": (sampled_draws(6, _random_shift), _R1, euclidean_dist, np.zeros(1)),
}


@pytest.mark.parametrize("label", sorted(_ORBITS))
def test_batched_cocycle_distances_equal_the_pair_loop(label):
    # a(k) = d(x0, u(k)x0): the stacked fold's points in one batched call,
    # as the top exponent takes them, against the loop's points one pair at
    # a time through the scalar distance
    driver, space, dist, x0 = _ORBITS[label]
    ks = list(range(1, 41))
    for trial in (0, 3):
        want_pts = loop_orbit_at(driver, x0, ks, trial)
        want = [dist(x0, want_pts[k]) for k in ks]
        pts = _fold_orbits(driver, x0, ks, [trial])
        assert _distances_from(space, x0, pts[:, 0]).tolist() == want
