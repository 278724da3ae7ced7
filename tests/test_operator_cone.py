"""Scaled operator products, the tau exponent, vector states, and the
exponential-map inequality."""

import math

import numpy as np
import pytest
import scipy.linalg

from horoflow.cli import EXPERIMENTS, _matrix_driver
from horoflow.cocycle import (ErgodicDriver, _tail_slope, constant_driver,
                              geometric_checkpoints)
from horoflow.core import DegenerateInputError
from horoflow.operator_cone import (SymmetryError, accumulate_product,
                                    expm_symmetric, extract_vector_state,
                                    log_squared_positive_part, segal_check,
                                    squared_positive_part_lognorm,
                                    state_ratio_check, tau_estimate)
from horoflow.seeding import trial_rng
from horoflow.spaces import sym_log

from oracles import exact_log_gram_norm, loop_accumulate


def _random_driver(seed=3, spread=0.5):
    rng = trial_rng(seed, 0)
    a = np.eye(3) + spread * rng.normal(size=(3, 3))
    b = np.eye(3) + spread * rng.normal(size=(3, 3))
    return ErgodicDriver(kind="iid_finite", seed=seed, maps=(a, b),
                         weights=(0.5, 0.5))


def test_scaled_product_tracks_are_consistent():
    drv = _random_driver()
    p = accumulate_product(drv, 20)
    assert p.n == 20
    assert np.linalg.norm(p.forward, 2) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(p.inverse, 2) == pytest.approx(1.0, abs=1e-12)
    assert p.reconstruction_defect() < 1e-8 * math.exp(p.log_scale + p.inv_log_scale)


def test_lognorm_matches_direct_eigendecomposition():
    # keep the horizon short so v^T v stays representable for the direct
    # matrix path; the norm is checked against exact arithmetic instead
    drv = _random_driver(spread=0.3)
    gs = drv.elements(0, 8)
    v = np.eye(3)
    for g in gs:
        v = np.asarray(g) @ v
    p = accumulate_product(drv, 8)
    assert squared_positive_part_lognorm(p) == pytest.approx(
        exact_log_gram_norm(gs), abs=1e-8)
    assert np.allclose(log_squared_positive_part(p), sym_log(v.T @ v), atol=1e-8)


def test_lognorm_is_thompson_distance_from_identity():
    # the Thompson distance from I to v^T v is max |log eig(v^T v)|; the
    # oracle evaluates it in exact arithmetic, since forming v^T v in
    # floating point squares the condition number of v
    drv = _random_driver(seed=8)
    p = accumulate_product(drv, 8)
    assert squared_positive_part_lognorm(p) == pytest.approx(
        exact_log_gram_norm(drv.elements(0, 8)), abs=1e-9)


# the parameters operator-tau declares, at their defaults
_TAU_DEFAULTS = {key: default
                 for key, (default, _) in EXPERIMENTS["operator-tau"].params.items()}


@pytest.mark.parametrize("driver, n, trials", [
    (_matrix_driver({**_TAU_DEFAULTS, "preset": "sl2_pair", "seed": 7}), 250, 30),
    (_matrix_driver({**_TAU_DEFAULTS, "preset": "rotation", "seed": 7}), 60, 3),
    (_random_driver(), 40, 5)], ids=["sl2_pair", "rotation", "random_3x3"])
def test_batched_tau_equals_the_step_loop(driver, n, trials):
    # every trial folded at once gives the one-trial loop's values exactly
    est = tau_estimate(driver, n, trials)
    ref = [squared_positive_part_lognorm(loop_accumulate(driver.elements(t, n))[0]) / n
           for t in range(trials)]
    assert est.per_trial.tolist() == ref
    tail_ks = geometric_checkpoints(n, count=8, start=max(1, n // 10))
    _, snaps = loop_accumulate(driver.elements(0, n), tail_ks)
    tail = [squared_positive_part_lognorm(snaps[k]) / k for k in tail_ks]
    assert est.tail_slope == _tail_slope(np.asarray(tail_ks, dtype=float), np.array(tail))


def test_parametric_product_equals_the_step_loop():
    drv = ErgodicDriver(kind="iid_parametric", seed=2,
                        sampler=lambda rng: np.eye(3) + 0.4 * rng.normal(size=(3, 3)))
    p = accumulate_product(drv, 40, trial=3)
    q, _ = loop_accumulate(drv.elements(3, 40))
    assert np.array_equal(p.forward, q.forward)
    assert np.array_equal(p.inverse, q.inverse)
    assert (p.log_scale, p.inv_log_scale, p.n) == (q.log_scale, q.inv_log_scale, q.n)


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
        accumulate_product(drv, 5)


def test_extract_vector_state_achieves_the_norm():
    rep = extract_vector_state(np.diag([3.0, -1.0, 0.5]), eps=1e-9)
    assert np.allclose(rep.xi, [1.0, 0.0, 0.0])
    assert rep.achieved == pytest.approx(3.0)
    assert rep.s_flag == 1
    # modulus tie: the positive eigenvalue wins
    rep = extract_vector_state(np.diag([4.0, -4.0]), eps=1e-9)
    assert np.allclose(rep.xi, [1.0, 0.0])
    # sign convention: first nonzero component positive
    y = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = extract_vector_state(y, eps=1e-9)
    assert rep.xi[0] > 0.0
    assert abs(float(rep.xi @ y @ rep.xi)) == pytest.approx(1.0)


def test_extract_vector_state_validation():
    with pytest.raises(SymmetryError):
        extract_vector_state(np.array([[0.0, 1.0], [0.0, 0.0]]), eps=1e-9)
    with pytest.raises(DegenerateInputError):
        extract_vector_state(np.eye(2), eps=0.0)


def test_state_ratios_constant_diagonal_hit_tau_exactly():
    drv = constant_driver(np.diag([2.0, 0.5]))
    rows = state_ratio_check(drv, 200, [10, 100, 200])
    tau = 2.0 * math.log(2.0)
    for l, ratio, tau_hat in rows:
        assert tau_hat == pytest.approx(tau, abs=1e-12)
        assert ratio == pytest.approx(tau, abs=1e-9)
    with pytest.raises(DegenerateInputError):
        state_ratio_check(drv, 100, [500])


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
