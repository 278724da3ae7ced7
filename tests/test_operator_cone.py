"""Scaled operator products, the tau exponent, vector states, and the
exponential-map inequality."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from horoflow.cli import _SL2_PAIR, EXPERIMENTS, _matrix_driver, _run_segal_sweep
from horoflow._exact import _rescaled, _two_prod
from horoflow.cocycle import (ErgodicDriver, _checkpoint_products, _drawn, _tail_slope,
                              constant_driver, tail_checkpoints)
from horoflow.core import DegenerateInputError
from horoflow.operator_cone import (ConsistencyError, SymmetryError,
                                    _check_symmetric, _fold,
                                    expm_symmetric, expm_taylor,
                                    extract_vector_state,
                                    log_squared_positive_part, segal_check,
                                    squared_positive_part_lognorm,
                                    state_ratio_check, tau_estimate)
from horoflow.seeding import trial_rng
from horoflow.spaces import sym_part

from oracles import (elements, exact_log_gram_norm, loop_accumulate, loop_expm_taylor,
                     loop_segal_sweep, mp_distance, mp_log_gram_norms, mp_segal,
                     mp_state_ratios, rotation_draws, sampled_draws,
                     scipy_segal_sweep, sweep_pairs)


def _random_driver(seed=3, spread=0.5):
    rng = trial_rng(seed, 0)
    a = np.eye(3) + spread * rng.normal(size=(3, 3))
    b = np.eye(3) + spread * rng.normal(size=(3, 3))
    return ErgodicDriver(seed=seed, maps=(a, b), weights=(0.5, 0.5))


def _row(tracks, j, t=0):
    """Checkpoint row j of trial t of the track stacks of _fold."""
    return [x[j, t] for x in tracks]


def test_scaled_product_tracks_are_consistent():
    drv = _random_driver()
    f, lf, g, lg, k = _fold(drv, 20, [0], [20])
    assert f.shape == g.shape == (1, 1, 3, 3)
    assert lf.shape == lg.shape == k.shape == (1, 1)
    assert k.tolist() == [[20]]
    # each track is scaled by a power of two to largest entry modulus in [1/2, 1)
    assert 0.5 <= np.abs(f).max() < 1.0
    assert 0.5 <= np.abs(g).max() < 1.0
    scale = math.exp(lf[0, 0] + lg[0, 0])
    assert np.linalg.norm(scale * f[0, 0] @ g[0, 0] - np.eye(3)) < 1e-8 * scale


def test_lognorm_refuses_inconsistent_tracks():
    # row 0 gives v = 2 (I/2) = I and v^{-1} = 2 (I/2) = I; row 1 gives
    # v = I and v^{-1} = 4 (I/2) = 2I, which are not inverses:
    # v v^{-1} - I = I, whose defect sqrt(2) is far above the 8e-6 budget
    # at scale 8
    half = 0.5 * np.eye(2)
    tracks = (np.stack([half, half]), np.log([2.0, 2.0]), np.stack([half, half]),
              np.log([2.0, 4.0]), np.array([1, 1]))
    assert squared_positive_part_lognorm(*(x[0] for x in tracks)) == 0.0
    with pytest.raises(ConsistencyError, match="defect 1.414e"):
        squared_positive_part_lognorm(*tracks)
    with pytest.raises(ConsistencyError, match="defect 1.414e"):
        squared_positive_part_lognorm(*(x[1] for x in tracks))


def test_lognorm_matches_direct_eigendecomposition():
    # keep the horizon short so v^T v stays representable for the direct
    # matrix path; the norm is checked against exact arithmetic instead
    drv = _random_driver(spread=0.3)
    gs = elements(drv, 0, 8)
    v = np.eye(3)
    for g in gs:
        v = np.asarray(g) @ v
    p = _row(_fold(drv, 8, [0], [8]), 0)
    assert squared_positive_part_lognorm(*p) == pytest.approx(
        exact_log_gram_norm(gs), abs=1e-8)
    w, q = np.linalg.eigh(v.T @ v)
    assert np.allclose(log_squared_positive_part(*p), (q * np.log(w)) @ q.T, atol=1e-8)


def test_lognorm_is_thompson_distance_from_identity():
    # the Thompson distance from I to v^T v is max |log eig(v^T v)|; the
    # oracle evaluates it in exact arithmetic, since forming v^T v in
    # floating point squares the condition number of v
    drv = _random_driver(seed=8)
    p = _row(_fold(drv, 8, [0], [8]), 0)
    assert squared_positive_part_lognorm(*p) == pytest.approx(
        exact_log_gram_norm(elements(drv, 0, 8)), abs=1e-9)


# the parameters operator-tau declares, at their defaults
_TAU_DEFAULTS = {key: default
                 for key, (default, _) in EXPERIMENTS["operator-tau"].params.items()}


_FOLD_DRIVERS = {
    "sl2_pair": lambda seed: _matrix_driver({**_TAU_DEFAULTS, "preset": "sl2_pair",
                                             "seed": seed}),
    "random_3x3": _random_driver,
    "parametric": lambda seed: sampled_draws(
        seed, lambda rng: np.eye(3) + 0.4 * rng.normal(size=(3, 3))),
    # a constant orthogonal matrix: tau is a few ulp from 0
    "rotation": lambda seed: _matrix_driver({**_TAU_DEFAULTS, "preset": "rotation",
                                             "seed": seed}),
    "sl2_rotation": lambda seed: rotation_draws(seed, _SL2_PAIR),
}


def _oracle_checkpoints(n):
    # a checkpoint at 1, two length-1 segments and odd segment lengths
    return [1, 2, 9, n // 3, n - 1, n]


@pytest.mark.parametrize("name", sorted(_FOLD_DRIVERS))
def test_fold_against_the_mpmath_product(name):
    # tau(k) at each checkpoint of the pairwise fold and of the old step loop,
    # against 50-digit products of the same factors; at n = 2000 the fold
    # carries 4 trials, so its gather block (1024 steps) is shorter than its
    # longest segment
    new_errs, old_errs = [], []
    for seed in range(1, 7):
        driver = _FOLD_DRIVERS[name](seed)
        for n in (50, 300, 2000):
            ks = _oracle_checkpoints(n)
            trials = 4 if n == 2000 else 1
            t = trials - 1
            mats = elements(driver, t, n)
            exact = mp_log_gram_norms(mats, ks)
            old = squared_positive_part_lognorm(*loop_accumulate(mats, ks)) / ks
            tracks = _fold(driver, n, range(trials), ks)
            new = squared_positive_part_lognorm(*(x[:, t] for x in tracks)) / ks
            for k, new_k, old_k in zip(ks, new.tolist(), old.tolist()):
                new_err = float(abs(new_k - exact[k]))
                old_err = float(abs(old_k - exact[k]))
                floor = 4 * math.ulp(float(exact[k]))
                assert new_err <= max(old_err, floor), (seed, n, k, new_err, old_err)
                new_errs.append(new_err)
                old_errs.append(old_err)
    assert max(new_errs) <= max(old_errs)


@pytest.mark.parametrize("name", sorted(_FOLD_DRIVERS))
def test_each_trial_of_a_batch_equals_its_one_trial_fold(name):
    # 200 trials gather 16 steps a block, so at n 300 a segment spans
    # several full blocks, and one trial gathers the whole run: the tree
    # and every rounding are the same.  The tail checkpoints straddle the
    # k <= 50 track check, at n 60 with most of them below it, and the
    # stacked readings of tau_estimate equal a reading one row at a time
    driver, trials = _FOLD_DRIVERS[name](3), 200
    for n in (60, 300):
        ks = tail_checkpoints(n)
        assert ks[0] <= 50 < ks[-1]
        batch = _fold(driver, n, range(trials), ks)
        for t in (0, 97, trials - 1):
            one = _fold(driver, n, [t], ks)
            for x, y in zip(batch, one):
                assert np.array_equal(x[:, t], y[:, 0])
        est = tau_estimate(driver, n, 5)
        assert est.per_trial.tolist() == [
            squared_positive_part_lognorm(*_row(batch, -1, t)) / n for t in range(5)]
        tail = [squared_positive_part_lognorm(*_row(batch, j)) / k for j, k in enumerate(ks)]
        assert (squared_positive_part_lognorm(*(x[:, 0] for x in batch)) / ks).tolist() == tail
        assert est.tail_slope == _tail_slope(ks, tail)


def _two_pass_fold(driver, n, trials, ks):
    """_fold's four tracks from one checkpoint pass each: the forward
    track's later factors on the left, the inverse track's on the right."""
    maps, idx = driver.draw(trials, n)
    mats, invs, idx = _drawn(np.asarray(maps, dtype=float), idx)
    zeros = np.zeros(mats.shape)
    _, f, lf = _checkpoint_products((mats, zeros), idx, ks, later_left=True)
    _, g, lg = _checkpoint_products((invs, zeros), idx, ks)
    return f, lf, g, lg


# off-diagonal entries whose products are subnormal, so that Dekker's
# product of two of them has no exact error term
_TINY = (np.array([[1.0, 3.3e-160], [7.1e-160, 0.9]]),
         np.array([[0.8, 1.7e-160], [2.9e-160, 1.1]]))

_ONE_PASS_DRIVERS = {
    "constant": lambda: constant_driver(np.array([[2.0, 1.0], [1.0, 1.0]])),
    "two_maps": lambda: _FOLD_DRIVERS["sl2_pair"](3),
    "fresh": lambda: _FOLD_DRIVERS["parametric"](3),
    "subnormal": lambda: ErgodicDriver(seed=3, maps=_TINY),
}


def test_the_subnormal_stack_has_an_inexact_error_term():
    hi, _, _ = _rescaled(np.stack(_TINY), np.zeros((2, 2, 2)), np.zeros(2, dtype=np.int64))
    x, y = hi[1, 0, 1], hi[0, 1, 0]
    p, e = _two_prod(x, y)
    assert 0.0 < abs(p) < np.finfo(float).tiny
    assert Fraction(p) + Fraction(e) != Fraction(x) * Fraction(y)


@pytest.mark.parametrize("name", sorted(_ONE_PASS_DRIVERS))
def test_fold_equals_two_passes(name):
    # the forward track read as the transpose of the later-right product of
    # the transposes, in one pass with the inverse track, is the later-left
    # pass bit for bit, also where Dekker's error term is not exact
    driver = _ONE_PASS_DRIVERS[name]()
    for n, trials in ((1, 1), (300, 3), (2000, 2)):
        ks = sorted({1, max(n // 3, 1), n - 1 or 1, n})
        got = _fold(driver, n, range(trials), ks)
        want = _two_pass_fold(driver, n, range(trials), ks)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
        assert got[-1].tolist() == [[k] * trials for k in ks]


def test_tau_constant_diagonal_is_exact():
    drv = constant_driver(np.diag([2.0, 0.5]))
    for n in (10, 37, 100):
        est = tau_estimate(drv, n, 1)
        assert est.lambda_hat == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    with pytest.raises(DegenerateInputError):
        tau_estimate(drv, 5, 1)


def test_accumulate_rejects_singular_steps():
    drv = constant_driver(np.diag([1.0, 0.0]))
    with pytest.raises(DegenerateInputError):
        _fold(drv, 5, [0], [5])


def test_extract_vector_state_achieves_the_norm():
    y = np.diag([3.0, -1.0, 0.5])
    xi = extract_vector_state(y)
    assert np.allclose(xi, [1.0, 0.0, 0.0])
    assert abs(float(xi @ y @ xi)) == pytest.approx(np.linalg.norm(y, 2))
    # modulus tie: the positive eigenvalue wins
    xi = extract_vector_state(np.diag([4.0, -4.0]))
    assert np.allclose(xi, [1.0, 0.0])
    # sign convention: first nonzero component positive
    y = np.array([[0.0, 1.0], [1.0, 0.0]])
    xi = extract_vector_state(y)
    assert xi[0] > 0.0
    assert abs(float(xi @ y @ xi)) == pytest.approx(np.linalg.norm(y, 2))


def test_extract_vector_state_validation():
    with pytest.raises(SymmetryError):
        extract_vector_state(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_state_ratios_constant_diagonal_hit_tau_exactly():
    drv = constant_driver(np.diag([2.0, 0.5]))
    rows = state_ratio_check(drv, 200, [10, 100, 200])
    tau = 2.0 * math.log(2.0)
    for l, ratio, tau_hat in rows:
        assert tau_hat == pytest.approx(tau, abs=1e-12)
        assert ratio == pytest.approx(tau, abs=1e-9)
    with pytest.raises(DegenerateInputError):
        state_ratio_check(drv, 100, [500])


@pytest.mark.parametrize("N", [50, 200])
def test_state_ratios_match_the_mpmath_product(N):
    # the small singular value of a long sl2 product is read from the
    # inverse track; from F^T F alone it is rounding noise, and its log
    # can outweigh the top eigenvalue of y_N and pick the wrong xi
    for seed in range(1, 7):
        driver = _FOLD_DRIVERS["sl2_pair"](seed)
        ls = [1, 10, N // 3, N]
        exact = mp_state_ratios(elements(driver, 0, N), ls)
        for l, ratio, _ in state_ratio_check(driver, N, ls):
            assert ratio == pytest.approx(float(exact[l]), rel=1e-14), (seed, l)


def test_segal_equality_for_commuting_arguments():
    u = np.diag([1.0, -0.5])
    v = np.diag([0.3, 0.7])
    lhs, rhs, _ = segal_check(u, v)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_segal_inequality_random_pairs():
    rng = trial_rng(9, 0)
    for _ in range(200):
        u = rng.uniform(-2.0, 2.0, size=(3, 3))
        v = rng.uniform(-2.0, 2.0, size=(3, 3))
        u = 0.5 * (u + u.T)
        v = 0.5 * (v + v.T)
        lhs, rhs, _ = segal_check(u, v)
        assert lhs <= rhs + 1e-10


def test_segal_rejects_nonsymmetric():
    with pytest.raises(SymmetryError):
        segal_check(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(DegenerateInputError):
        segal_check(np.eye(2), np.eye(3))


def test_expm_paths_agree():
    rng = trial_rng(10, 0)
    for _ in range(50):
        u = rng.uniform(-2.0, 2.0, size=(3, 3))
        u = 0.5 * (u + u.T)
        for e in (expm_symmetric(u), expm_taylor(u)):
            assert np.linalg.norm(scipy.linalg.expm(u) - e, 2) <= 1e-9


def test_stacked_expm_taylor_equals_the_matrix_loop():
    rng = trial_rng(13, 0)
    # 1-norms from below 1 (no squaring) to a few hundred, mixed in one stack
    a = rng.uniform(-1.0, 1.0, size=(40, 3, 3)) * np.geomspace(0.01, 100.0, 40)[:, None, None]
    e = expm_taylor(a)
    for i in range(len(a)):
        assert e[i].tolist() == loop_expm_taylor(a[i]).tolist()
        assert expm_taylor(a[i]).tolist() == e[i].tolist()
    assert expm_taylor(np.zeros((2, 2))).tolist() == np.eye(2).tolist()


def test_segal_check_stacks_pairs():
    rng = trial_rng(12, 0)
    u = sym_part(rng.uniform(-2.0, 2.0, size=(5, 3, 3)))
    v = sym_part(rng.uniform(-2.0, 2.0, size=(5, 3, 3)))
    lhs, rhs, e_sum = segal_check(u, v)
    assert lhs.shape == rhs.shape == (5,)
    assert e_sum.shape == (5, 3, 3)
    for i in range(5):
        # a single pair is the stack-of-one case
        one_lhs, one_rhs, one_sum = segal_check(u[i], v[i])
        assert (one_lhs, one_rhs) == (lhs[i], rhs[i])
        assert one_sum.tolist() == e_sum[i].tolist()
        assert expm_symmetric(u[i]).tolist() == expm_symmetric(u)[i].tolist()


def test_symmetry_tolerance_is_per_matrix():
    skew = np.array([[0.0, 1e-7], [0.0, 0.0]])
    big = 1e6 * np.eye(2) + skew    # within the tolerance of its own scale
    _check_symmetric(big)
    with pytest.raises(SymmetryError):
        _check_symmetric(skew)
    with pytest.raises(SymmetryError):
        _check_symmetric(np.stack([big, skew]))
    with pytest.raises(SymmetryError):
        segal_check(np.stack([np.eye(2), skew]), np.stack([np.eye(2), np.eye(2)]))


@pytest.mark.filterwarnings("error")
def test_segal_check_rejects_overflow():
    with pytest.raises(DegenerateInputError, match="scale"):
        segal_check(np.diag([400.0, 0.0, 1.0]), np.diag([400.0, 1.0, 0.0]))
    with pytest.raises(DegenerateInputError, match="scale"):
        segal_check(np.diag([800.0, 0.0]), np.zeros((2, 2)))


@pytest.mark.parametrize("seed", [11, 0, 5, 7])
def test_stacked_segal_sweep_equals_the_pair_loop(seed):
    for dim in (2, 3, 4):
        for scale in (1.0, 2.0, 3.0):
            cfg = {"seed": seed, "pairs": 200, "dim": dim, "scale": scale}
            assert _run_segal_sweep(cfg)[1] == loop_segal_sweep(seed, 200, dim, scale)
    # more pairs than one stacked block holds
    cfg = {"seed": seed, "pairs": 1100, "dim": 3, "scale": 2.0}
    assert _run_segal_sweep(cfg)[1] == loop_segal_sweep(seed, 1100, 3, 2.0)


def test_a_shorter_segal_sweep_is_a_prefix_of_a_longer_one():
    # the sweep reads one stream, so its first 500 pairs are the same
    # whether the sweep stops there or runs past a stacked block (1024)
    cfg = {"seed": 3, "dim": 3, "scale": 2.0}
    short = _run_segal_sweep({**cfg, "pairs": 500})[1]
    assert _run_segal_sweep({**cfg, "pairs": 1100})[1][:500] == short


def test_segal_sweep_against_the_mpmath_oracle():
    # sweep pairs at the default scale, against 50-digit exponentials: the
    # eigendecomposition sides and the Taylor path are each no worse, at
    # their worst pair, than the scipy path the sweep used before
    seed, pairs, scale = 5, 25, 2.0
    for dim in (2, 3, 4):
        rows = _run_segal_sweep({"seed": seed, "pairs": pairs, "dim": dim, "scale": scale})[1]
        old_rows = scipy_segal_sweep(seed, pairs, dim, scale)
        uv = list(sweep_pairs(seed, pairs, dim, scale))
        err = {key: [] for key in ("lhs", "rhs", "path", "gap")}
        old = {key: [] for key in err}
        for (i, lhs, rhs, _, gap), (_, old_lhs, old_rhs, _, old_gap) in zip(rows, old_rows):
            u, v = uv[i]
            exact_lhs, exact_rhs, exact_sum = mp_segal(u, v)
            err["lhs"].append(float(abs(lhs - exact_lhs) / exact_lhs))
            old["lhs"].append(float(abs(old_lhs - exact_lhs) / exact_lhs))
            err["rhs"].append(float(abs(rhs - exact_rhs) / exact_rhs))
            old["rhs"].append(float(abs(old_rhs - exact_rhs) / exact_rhs))
            err["path"].append(mp_distance(expm_taylor(u + v), exact_sum))
            old["path"].append(mp_distance(scipy.linalg.expm(u + v), exact_sum))
            err["gap"].append(gap)
            old["gap"].append(old_gap)
        for key in err:
            assert max(err[key]) <= max(old[key]), (dim, key, max(err[key]), max(old[key]))
