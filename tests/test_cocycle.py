"""Drivers, orbits, the top exponent, and the hyperbolic walk's gap."""

import math
import re
import statistics

import numpy as np
import pytest

from horoflow.cocycle import (LEFT, ErgodicDriver, EstimationError, GOLDEN_ROTATION,
                              apply_element, check_steps, constant_driver,
                              estimate_top_exponent, geometric_checkpoints,
                              hyperbolic_walk_gap, mobius_matrix, screen_invertible,
                              summarize_trials, _dd_matmul, _distances_from,
                              _fold_orbits, _tail_slope)
from horoflow.core import DegenerateInputError
from horoflow.seeding import trial_rng
from horoflow.spaces import (euclidean_dist, euclidean_space, mobius_disk, poincare_dist,
                             poincare_space)

from oracles import (batch_first_dd_matmul, loop_orbit_at, loop_top_exponent,
                     loop_walk_gaps, mp_walk_gaps)


# ---------------------------------------------------------------------------
# Drivers

def test_driver_validation():
    with pytest.raises(ValueError):
        ErgodicDriver(kind="markov", seed=0)
    with pytest.raises(ValueError):
        ErgodicDriver(kind="iid_finite", seed=0)  # no maps
    with pytest.raises(ValueError):
        ErgodicDriver(kind="iid_finite", seed=0, maps=(np.eye(2),) * 2,
                      weights=(0.5, 0.6))
    with pytest.raises(ValueError):  # one weight short
        ErgodicDriver(kind="iid_finite", seed=0, maps=(1.0, 2.0, 100.0),
                      weights=(0.5, 0.5))
    with pytest.raises(ValueError):  # negative weight, sum 1
        ErgodicDriver(kind="iid_finite", seed=0, maps=(1.0, 2.0),
                      weights=(1.5, -0.5))
    with pytest.raises(ValueError):
        ErgodicDriver(kind="iid_parametric", seed=0)  # no sampler
    with pytest.raises(ValueError):
        ErgodicDriver(kind="rotation", seed=0, maps=(np.eye(2),) * 2,
                      breakpoints=(0.8, 0.7))
    with pytest.raises(ValueError):
        ErgodicDriver(kind="iid_finite", seed=0, maps=(np.eye(2),),
                      order="sideways")


def test_elements_deterministic_per_trial():
    drv = ErgodicDriver(kind="iid_finite", seed=11, maps=("a", "b"),
                        weights=(0.5, 0.5))
    first = drv.elements(0, 50)
    assert drv.elements(0, 50) == first
    assert drv.elements(1, 50) != first  # overwhelmingly likely and fixed by seed


def test_elements_are_the_maps_at_indices():
    finite = ErgodicDriver(kind="iid_finite", seed=4, maps=("a", "b", "c"),
                           weights=(0.2, 0.3, 0.5))
    rotation = ErgodicDriver(kind="rotation", seed=4, maps=("a", "b"),
                             breakpoints=(0.3, 1.0))
    parametric = ErgodicDriver(kind="iid_parametric", seed=4,
                               sampler=lambda rng: rng.random())
    for drv in (finite, rotation, parametric):
        maps, idx = drv.draw(range(5), 200)
        assert idx.shape == (5, 200)
        for t in (0, 3):
            one_maps, [one] = drv.draw([t], 200)
            # a trial's stream does not depend on the batch it is drawn in
            assert [maps[i] for i in idx[t]] == [one_maps[i] for i in one]
            assert drv.elements(t, 200) == [one_maps[i] for i in one]
    assert finite.draw(range(5), 200)[0] is finite.maps
    assert rotation.draw(range(5), 200)[0] is rotation.maps
    maps, idx = parametric.draw(range(5), 200)
    assert len(maps) == 1000
    assert idx.tolist() == np.arange(1000).reshape(5, 200).tolist()


def test_rotation_driver_hits_interval_frequencies():
    drv = ErgodicDriver(kind="rotation", seed=0, maps=("a", "b"),
                        breakpoints=(0.25, 1.0))
    labels = drv.elements(0, 20000)
    frac_a = labels.count("a") / 20000
    # equidistribution of the golden rotation
    assert frac_a == pytest.approx(0.25, abs=0.01)
    assert drv.angle == GOLDEN_ROTATION
    # the interval lengths are the rotation's weights
    drv = ErgodicDriver(kind="rotation", seed=0, maps=(lambda x: x + 1.0,) * 3,
                        breakpoints=(0.1, 0.7, 1.0))
    assert drv.weights == (0.1 - 0.0, 0.7 - 0.1, 1.0 - 0.7)


def test_apply_element_matrices_and_callables():
    assert apply_element(lambda x: x + 1.0, 1.0) == 2.0
    out = apply_element(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))
    assert np.allclose(out, [2.0, 3.0])
    # a stack of points along a leading axis, one matvec per point
    out = apply_element(np.diag([2.0, 3.0]), np.array([[1.0, 1.0], [0.5, -1.0]]))
    assert out.tolist() == [[2.0, 3.0], [1.0, -3.0]]


# ---------------------------------------------------------------------------
# Orbits and composition order

def _orbit(driver, space, x0, ks, trial=0):
    """One trial's orbit points at the sorted checkpoints ks, up to its cut:
    (dict k -> point, cut), as :func:`oracles.loop_orbit_at` returns them."""
    pts, [cut] = _fold_orbits(driver, space, x0, ks, [trial])
    return {k: pts[j, 0] for j, k in enumerate(ks) if cut is None or k < cut}, cut


def test_orbit_order_contract():
    f = lambda x: x + 1.0
    g = lambda x: 2.0 * x
    drv = ErgodicDriver(kind="iid_finite", seed=5, maps=(f, g),
                        weights=(0.5, 0.5))
    gs = drv.elements(0, 3)
    right, _ = _orbit(drv, None, 1.0, [1, 2, 3])
    assert right[1] == gs[0](1.0)
    assert right[2] == gs[0](gs[1](1.0))
    assert right[3] == gs[0](gs[1](gs[2](1.0)))
    drv_left = ErgodicDriver(kind="iid_finite", seed=5, maps=(f, g),
                             weights=(0.5, 0.5), order="left_increment")
    left, _ = _orbit(drv_left, None, 1.0, [1, 2, 3])
    assert left[3] == gs[2](gs[1](gs[0](1.0)))


def test_orbit_truncates_outside_domain():
    sp = poincare_space()
    drv = constant_driver(lambda z: z + 0.4)  # not an isometry; exits the disk
    pts, cut = _orbit(drv, sp, 0j, list(range(1, 11)))
    assert cut == 3  # 0.8 still inside, 1.2 outside
    assert sorted(pts) == [1, 2]


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
        est = summarize_trials(values, [1, 2], np.zeros(2), 50, m)
        assert est.lambda_hat == pytest.approx(statistics.fmean(values), rel=1e-15)
        assert est.std_error == pytest.approx(
            statistics.stdev(values) / math.sqrt(m), rel=1e-12)
    # equal values give their value and exactly 0; for three copies of
    # this one, operator-tau's per-trial value, np.mean is 1 ulp lower and
    # np.std gives a std error of 1.6e-16
    for m in (1, 3, 7):
        est = summarize_trials(np.full(m, 1.3862943611198904), [1, 2], np.zeros(2), 50, m)
        assert (est.lambda_hat, est.std_error) == (1.3862943611198904, 0.0)


def test_subadditivity_along_shifted_seeds():
    # a(n+m) <= a(n) + a(m) o T^n for i.i.d. +-1 translations: check the
    # sampled inequality on the realized sequence itself.
    sp = euclidean_space(1)
    drv = ErgodicDriver(kind="iid_finite", seed=21,
                        maps=(lambda x: x + 1.0, lambda x: x - 1.0),
                        weights=(0.5, 0.5))
    gs = drv.elements(0, 40)
    steps = np.array([g(0.0) for g in gs])  # +-1 increments
    prefix = np.concatenate([[0.0], np.cumsum(steps)])
    a = np.abs(prefix)  # d(0, u(n)0) for commuting translations
    for n in range(1, 20):
        for m in range(1, 20):
            a_shift = abs(prefix[n + m] - prefix[n])
            assert a[n + m] <= a[n] + a_shift + 1e-12


def test_pm1_walk_exponent_is_small():
    sp = euclidean_space(1)
    drv = ErgodicDriver(kind="iid_finite", seed=13,
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


def test_estimate_rejects_heavy_truncation():
    sp = poincare_space()
    drv = constant_driver(lambda z: z + 0.4)
    with pytest.raises(EstimationError):
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
        assert np.array_equal(screen_invertible(mats, [[1, 0, 1]]), np.linalg.inv(mats))
    eps = np.finfo(float).eps
    for good in (np.diag([1e-301, 1e301]), np.diag([1e8, 1e-8]), np.diag([1.0, eps])):
        assert np.array_equal(screen_invertible(good[None], [0]), np.linalg.inv(good[None]))
    for bad in (np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]]),
                np.diag([1e-310, 1.0]), np.diag([1.0, np.nan]), np.diag([np.inf, 1.0])):
        with pytest.raises(DegenerateInputError, match="^singular step matrix$"):
            screen_invertible(np.stack([np.eye(2), bad]), [0, 1])
        # a matrix that is never drawn is not screened, and its inverse is nan
        invs = screen_invertible(np.stack([2.0 * np.eye(2), bad]), [0, 0])
        assert invs[0].tolist() == [[0.5, 0.0], [0.0, 0.5]] and np.all(np.isnan(invs[1]))


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
    [tr] = hyperbolic_walk_gap(drv, 2000)
    assert max(tr.gaps) <= 1e-9
    assert tr.ks[-1] == 2000


def _two_map_walk(seed=7):
    return ErgodicDriver(kind="iid_finite", seed=seed,
                         maps=(mobius_matrix(0.5), mobius_matrix(0.3 + 0.2j)),
                         weights=(0.5, 0.5))


def test_hyperbolic_walk_interior_checkpoints():
    drv = _two_map_walk()
    [tr] = hyperbolic_walk_gap(drv, 4000, checkpoints=[2000])
    assert tr.ks == [2000]
    assert tr.gaps[0] < 0.05
    for bad in ([500], [], 5, ["x"]):
        with pytest.raises(DegenerateInputError):
            hyperbolic_walk_gap(drv, 100, checkpoints=bad)


def _parametric_walk(seed):
    return ErgodicDriver(kind="iid_parametric", seed=seed, sampler=lambda r: mobius_matrix(
        complex(r.uniform(-0.6, 0.6), r.uniform(-0.6, 0.6))))


_WALKS = {"constant": lambda seed: constant_driver(mobius_matrix(0.5), seed=seed),
          "two_maps": _two_map_walk, "parametric": _parametric_walk}


@pytest.mark.parametrize("name", ["two_maps", "parametric"])
def test_walk_against_the_mpmath_product(name):
    # gap(k) of the pairwise walk and of the old step loop against 50-digit
    # prefix and suffix products; a checkpoint at 1, two length-1 segments,
    # odd segment lengths, and at n = 2000 a walk of 4 trials, whose gather
    # block (1024 steps) is shorter than its longest segment
    new_errs, old_errs = [], []
    for seed in range(1, 7):
        driver = _WALKS[name](seed)
        for n in (50, 300, 2000):
            ks = [1, 2, 9, n // 3, n - 1, n]
            trials = 4 if n == 2000 else 1
            t = trials - 1
            mats = driver.elements(t, n)
            exact, a_n = mp_walk_gaps(mats, ks)
            old = loop_walk_gaps(mats, ks)
            new = hyperbolic_walk_gap(driver, n, trials, checkpoints=ks)[t].gaps
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
    batch = hyperbolic_walk_gap(driver, n, 200, checkpoints=checkpoints)
    few = hyperbolic_walk_gap(driver, n, 4, checkpoints=checkpoints)
    [one] = hyperbolic_walk_gap(driver, n, 1, checkpoints=checkpoints)
    assert len(batch) == 200
    assert all(tr.ks == ks for tr in batch)
    assert [tr.gaps for tr in batch[:4]] == [tr.gaps for tr in few]
    assert batch[0].gaps == one.gaps


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
# The stacked orbit fold against the one-trial loop

def _pm1_walk(seed, order="right_increment"):
    return ErgodicDriver(kind="iid_finite", seed=seed, order=order,
                         maps=(lambda x: x + 1.0, lambda x: x - 1.0),
                         weights=(0.5, 0.5))


def _shift_or_halve(order):
    # leaves the disk on a long enough run of shifts: some trials truncate
    return ErgodicDriver(kind="iid_finite", seed=3, order=order,
                         maps=(lambda z: z + 0.3, lambda z: 0.5 * z),
                         weights=(0.3, 0.7))


def _random_shift(rng):
    s = rng.uniform(-1.0, 1.0)
    return lambda x, _s=s: x + _s


_R1 = euclidean_space(1)
_DISK = poincare_space()
_MATRICES = ErgodicDriver(kind="rotation", seed=2,
                          maps=(np.array([[0.9, 0.2], [-0.1, 0.8]]),
                                np.array([[1.1, 0.0], [0.3, 0.7]])),
                          breakpoints=(0.4, 1.0))

# label -> (driver, space, x0, [(n, trials), ...])
_FOLDS = {
    "translation": (constant_driver(lambda x: x + 1.0), _R1, np.zeros(1),
                    [(200, 3), (10, 1)]),
    "pm1_walk": (_pm1_walk(11), _R1, np.zeros(1), [(500, 50), (4000, 10), (50, 3)]),
    "disk_mobius": (constant_driver(mobius_disk(0.5), seed=5), _DISK, 0j,
                    [(12, 2), (25, 1)]),
    "disk_mobius_offset": (constant_driver(mobius_disk(0.3 + 0.2j)), _DISK, 0.3j,
                           [(20, 3)]),
    "truncating": (constant_driver(lambda z: z + 0.4), _DISK, 0j, [(100, 5), (10, 2)]),
    "shift_or_halve": (_shift_or_halve("right_increment"), _DISK, 0j, [(12, 40)]),
    "left_shift_or_halve": (_shift_or_halve(LEFT), _DISK, 0j, [(12, 40), (30, 10)]),
    "left_pm1_walk": (_pm1_walk(4, LEFT), _R1, np.zeros(1), [(300, 7)]),
    "parametric": (ErgodicDriver(kind="iid_parametric", seed=6, sampler=_random_shift),
                   _R1, np.zeros(1), [(200, 6)]),
    "matrices": (_MATRICES, euclidean_space(2), np.ones(2), [(60, 5)]),
}


@pytest.mark.parametrize("label", sorted(_FOLDS))
def test_stacked_top_exponent_equals_the_trial_loop(label):
    driver, space, x0, sizes = _FOLDS[label]
    for n, trials in sizes:
        try:
            want = loop_top_exponent(driver, space, x0, n, trials)
        except EstimationError as e:
            with pytest.raises(EstimationError, match=re.escape(str(e))):
                estimate_top_exponent(driver, space, x0, n, trials)
            continue
        got = estimate_top_exponent(driver, space, x0, n, trials)
        assert got.per_trial.tolist() == want.per_trial.tolist()
        assert (got.lambda_hat, got.std_error, got.tail_slope, got.truncated_trials) \
            == (want.lambda_hat, want.std_error, want.tail_slope, want.truncated_trials)


@pytest.mark.parametrize("label", sorted(_FOLDS))
def test_stacked_orbit_at_equals_the_point_loop(label):
    driver, space, x0, _ = _FOLDS[label]
    for ks, trial in (([1, 2, 5, 12], 0), ([3, 7, 30], 2), (list(range(1, 16)), 1)):
        got, cut = _orbit(driver, space, x0, ks, trial)
        want, want_cut = loop_orbit_at(driver, space, x0, ks, trial)
        assert cut == want_cut
        assert sorted(got) == sorted(want)
        for k in want:
            assert np.asarray(got[k]).tolist() == np.asarray(want[k]).tolist()


def test_fold_grid_truncates_some_trials_but_not_too_many():
    # the shift-or-halve cases above exercise truncation counts inside the 10% limit
    for order in ("right_increment", LEFT):
        est = estimate_top_exponent(_shift_or_halve(order), _DISK, 0j, 12, 40)
        assert 0 < est.truncated_trials <= 4


# ---------------------------------------------------------------------------
# Batched distances against the one-pair loops

# label -> (driver, space, scalar distance, x0)
_ORBITS = {
    "pm1_walk": (_pm1_walk(11), _R1, euclidean_dist, np.zeros(1)),
    "disk_mobius": (ErgodicDriver(kind="iid_finite", seed=5,
                                  maps=(mobius_disk(0.05), mobius_disk(-0.03 + 0.04j))),
                    _DISK, poincare_dist, 0.3j),
    "truncating": (constant_driver(lambda z: z + 0.4), _DISK, poincare_dist, 0j),
    "rotation": (_MATRICES, euclidean_space(2), euclidean_dist, np.ones(2)),
    "parametric": (ErgodicDriver(kind="iid_parametric", seed=6, sampler=_random_shift),
                   _R1, euclidean_dist, np.zeros(1)),
}


@pytest.mark.parametrize("label", sorted(_ORBITS))
def test_batched_cocycle_distances_equal_the_pair_loop(label):
    # a(k) = d(x0, u(k)x0) up to the orbit's cut: the stacked fold's points
    # in one batched call, as the top exponent takes them, against the
    # loop's points one pair at a time through the scalar distance
    driver, space, dist, x0 = _ORBITS[label]
    ks = list(range(1, 41))
    for trial in (0, 3):
        want_pts, want_cut = loop_orbit_at(driver, space, x0, ks, trial)
        want = [dist(x0, want_pts[k]) for k in sorted(want_pts)]
        pts, cut = _fold_orbits(driver, space, x0, ks, [trial])
        assert cut == [want_cut]
        assert _distances_from(space, x0, pts[:len(want), 0]).tolist() == want
