"""Scaled operator products, the tau exponent, vector states, and the
exponential-map inequality."""

import math

import numpy as np
import pytest
import scipy.linalg

from horoflow.cli import _SL2_PAIR, EXPERIMENTS, _matrix_driver, _run_segal_sweep
from horoflow.cocycle import ErgodicDriver, constant_driver, geometric_checkpoints
from horoflow.core import DegenerateInputError
from horoflow.operator_cone import (ConsistencyError, ScaledProduct,
                                    SymmetryError, _check_symmetric, _fold,
                                    expm_symmetric,
                                    extract_vector_state,
                                    log_squared_positive_part, segal_check,
                                    squared_positive_part_lognorm,
                                    state_ratio_check, tau_estimate)
from horoflow.seeding import trial_rng
from horoflow.spaces import sym_part

from oracles import (exact_log_gram_norm, loop_accumulate, loop_segal_sweep,
                     mp_log_gram_norms, mp_state_ratios)


def _random_driver(seed=3, spread=0.5):
    rng = trial_rng(seed, 0)
    a = np.eye(3) + spread * rng.normal(size=(3, 3))
    b = np.eye(3) + spread * rng.normal(size=(3, 3))
    return ErgodicDriver(kind="iid_finite", seed=seed, maps=(a, b),
                         weights=(0.5, 0.5))


def test_scaled_product_tracks_are_consistent():
    drv = _random_driver()
    [p] = _fold(drv, 20, [0], [20])[20]
    assert p.n == 20
    # each track is scaled by a power of two to largest entry modulus in [1/2, 1)
    assert 0.5 <= np.abs(p.forward).max() < 1.0
    assert 0.5 <= np.abs(p.inverse).max() < 1.0
    assert p.reconstruction_defect() < 1e-8 * math.exp(p.log_scale + p.inv_log_scale)


def test_lognorm_refuses_inconsistent_tracks():
    # the tracks give v = 2 (I/2) = I and v^{-1} = 4 (I/2) = 2I, which are
    # not inverses: v v^{-1} - I = I, whose defect sqrt(2) is far above
    # the 8e-6 budget at scale 8
    half = 0.5 * np.eye(2)
    p = ScaledProduct(forward=half, log_scale=math.log(2.0), inverse=half,
                      inv_log_scale=math.log(4.0), n=1)
    with pytest.raises(ConsistencyError, match="defect 1.414e"):
        squared_positive_part_lognorm(p)


def test_lognorm_matches_direct_eigendecomposition():
    # keep the horizon short so v^T v stays representable for the direct
    # matrix path; the norm is checked against exact arithmetic instead
    drv = _random_driver(spread=0.3)
    gs = drv.elements(0, 8)
    v = np.eye(3)
    for g in gs:
        v = np.asarray(g) @ v
    [p] = _fold(drv, 8, [0], [8])[8]
    assert squared_positive_part_lognorm(p) == pytest.approx(
        exact_log_gram_norm(gs), abs=1e-8)
    w, q = np.linalg.eigh(v.T @ v)
    assert np.allclose(log_squared_positive_part(p), (q * np.log(w)) @ q.T, atol=1e-8)


def test_lognorm_is_thompson_distance_from_identity():
    # the Thompson distance from I to v^T v is max |log eig(v^T v)|; the
    # oracle evaluates it in exact arithmetic, since forming v^T v in
    # floating point squares the condition number of v
    drv = _random_driver(seed=8)
    [p] = _fold(drv, 8, [0], [8])[8]
    assert squared_positive_part_lognorm(p) == pytest.approx(
        exact_log_gram_norm(drv.elements(0, 8)), abs=1e-9)


# the parameters operator-tau declares, at their defaults
_TAU_DEFAULTS = {key: default
                 for key, (default, _) in EXPERIMENTS["operator-tau"].params.items()}


_FOLD_DRIVERS = {
    "sl2_pair": lambda seed: _matrix_driver({**_TAU_DEFAULTS, "preset": "sl2_pair",
                                             "seed": seed}),
    "random_3x3": _random_driver,
    "parametric": lambda seed: ErgodicDriver(
        kind="iid_parametric", seed=seed,
        sampler=lambda rng: np.eye(3) + 0.4 * rng.normal(size=(3, 3))),
    # a constant orthogonal matrix: tau is a few ulp from 0
    "rotation": lambda seed: _matrix_driver({**_TAU_DEFAULTS, "preset": "rotation",
                                             "seed": seed}),
    "sl2_rotation": lambda seed: ErgodicDriver(kind="rotation", seed=seed, maps=_SL2_PAIR),
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
            mats = driver.elements(t, n)
            exact = mp_log_gram_norms(mats, ks)
            _, old = loop_accumulate(mats, ks)
            snaps = _fold(driver, n, range(trials), ks)
            for k in ks:
                new_err = float(abs(squared_positive_part_lognorm(snaps[k][t]) / k - exact[k]))
                old_err = float(abs(squared_positive_part_lognorm(old[k]) / k - exact[k]))
                floor = 4 * math.ulp(float(exact[k]))
                assert new_err <= max(old_err, floor), (seed, n, k, new_err, old_err)
                new_errs.append(new_err)
                old_errs.append(old_err)
    assert max(new_errs) <= max(old_errs)


@pytest.mark.parametrize("name", sorted(_FOLD_DRIVERS))
def test_each_trial_of_a_batch_equals_its_one_trial_fold(name):
    # 200 trials gather 16 steps a block, so a segment spans several full
    # blocks, and one trial gathers the whole run: the tree and every
    # rounding are the same
    driver, n, trials = _FOLD_DRIVERS[name](3), 300, 200
    ks = geometric_checkpoints(n, count=8, start=n // 10)
    batch = _fold(driver, n, range(trials), ks)
    for t in (0, 97, trials - 1):
        [one] = _fold(driver, n, [t], ks)[n]
        p = batch[n][t]
        assert np.array_equal(p.forward, one.forward)
        assert np.array_equal(p.inverse, one.inverse)
        assert (p.log_scale, p.inv_log_scale, p.n) == (one.log_scale, one.inv_log_scale, one.n)
    est = tau_estimate(driver, n, 5)
    assert est.per_trial.tolist() == [squared_positive_part_lognorm(batch[n][t]) / n
                                      for t in range(5)]


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
    rep = extract_vector_state(np.diag([3.0, -1.0, 0.5]))
    assert np.allclose(rep.xi, [1.0, 0.0, 0.0])
    assert rep.achieved == pytest.approx(3.0)
    # modulus tie: the positive eigenvalue wins
    rep = extract_vector_state(np.diag([4.0, -4.0]))
    assert np.allclose(rep.xi, [1.0, 0.0])
    # sign convention: first nonzero component positive
    y = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = extract_vector_state(y)
    assert rep.xi[0] > 0.0
    assert abs(float(rep.xi @ y @ rep.xi)) == pytest.approx(1.0)


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
        exact = mp_state_ratios(driver.elements(0, N), ls)
        for l, ratio, _ in state_ratio_check(driver, N, ls):
            assert ratio == pytest.approx(float(exact[l]), rel=1e-14), (seed, l)


def test_segal_equality_for_commuting_arguments():
    u = np.diag([1.0, -0.5])
    v = np.diag([0.3, 0.7])
    lhs, rhs = segal_check(u, v)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_segal_inequality_random_pairs():
    rng = trial_rng(9, 0)
    for _ in range(200):
        u = rng.uniform(-2.0, 2.0, size=(3, 3))
        v = rng.uniform(-2.0, 2.0, size=(3, 3))
        u = 0.5 * (u + u.T)
        v = 0.5 * (v + v.T)
        lhs, rhs = segal_check(u, v)
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
        gap = np.linalg.norm(scipy.linalg.expm(u) - expm_symmetric(u), 2)
        assert gap <= 1e-9


def test_segal_check_stacks_pairs():
    rng = trial_rng(12, 0)
    u = sym_part(rng.uniform(-2.0, 2.0, size=(5, 3, 3)))
    v = sym_part(rng.uniform(-2.0, 2.0, size=(5, 3, 3)))
    lhs, rhs = segal_check(u, v)
    assert lhs.shape == rhs.shape == (5,)
    for i in range(5):
        # a single pair is the stack-of-one case
        assert segal_check(u[i], v[i]) == (lhs[i], rhs[i])
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
