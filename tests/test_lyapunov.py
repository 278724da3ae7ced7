"""QR spectra, single-direction growth rates, and filtration probing."""

import math

import numpy as np
import pytest

from horoflow.cocycle import _PRODUCT_BLOCK, ErgodicDriver, constant_driver
from horoflow.core import DegenerateInputError
from horoflow.lyapunov import _growth_rates, filtration_probe, qr_spectrum
from horoflow.operator_cone import _fold
from horoflow.seeding import trial_rng

from oracles import loop_growth_rates, loop_qr_spectrum


def test_diagonal_spectrum_is_exact():
    drv = constant_driver(np.diag([3.0, 1.0, 0.5]))
    est = qr_spectrum(drv, 3, 100)
    assert np.allclose(est.exponents,
                       [math.log(3.0), 0.0, -math.log(2.0)], atol=1e-12)
    assert np.max(est.resid) <= 1e-12


def test_conjugated_spectrum_converges():
    rng = trial_rng(17, 0)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    m = q @ np.diag([3.0, 1.0, 0.5]) @ q.T
    est = qr_spectrum(constant_driver(m), 3, 20000)
    assert np.allclose(est.exponents,
                       [math.log(3.0), 0.0, -math.log(2.0)], atol=1e-3)


def test_spectrum_sum_rule():
    # sum of exponents = mean log |det| for any invertible cocycle
    rng = trial_rng(18, 0)
    a = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    b = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    drv = ErgodicDriver(kind="iid_finite", seed=4, maps=(a, b),
                        weights=(0.5, 0.5))
    est = qr_spectrum(drv, 3, 2000, trial=0)
    gs = drv.elements(0, 2000)
    mean_logdet = np.mean([math.log(abs(np.linalg.det(g))) for g in gs])
    assert float(np.sum(est.exponents)) == pytest.approx(mean_logdet, abs=1e-9)


def test_rotation_spectrum_is_null():
    th = 0.9
    m = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    est = qr_spectrum(constant_driver(m), 2, 1000)
    assert np.max(np.abs(est.exponents)) <= 1e-12


def test_spectrum_rejects_bad_input():
    with pytest.raises(DegenerateInputError):
        qr_spectrum(constant_driver(np.diag([1.0, 0.0])), 2, 100)
    with pytest.raises(DegenerateInputError):
        qr_spectrum(constant_driver(np.eye(2)), 2, 5)


def test_vector_growth_rates_pick_filtration_layers():
    A = np.diag([2.0, 0.5])[None]

    def rate(v, n):
        return float(_growth_rates(A, np.zeros((1, n), dtype=np.intp), [v], [n])[0, 0])

    assert rate([1.0, 0.0], 500) == pytest.approx(math.log(2.0))
    assert rate([0.0, 1.0], 500) == pytest.approx(-math.log(2.0))
    # generic vectors leave the slow subspace (transient is O(1/n))
    assert rate([1.0, 1.0], 2000) == pytest.approx(math.log(2.0), abs=1e-3)
    with pytest.raises(DegenerateInputError):
        rate([0.0, 0.0], 100)


def test_filtration_probe_clusters_rates():
    A = np.diag([2.0, 0.5])
    probes = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    rep = filtration_probe(A, probes, 400)
    assert len(rep.clusters) == 2
    slow = [c for c in rep.clusters if 1 in c][0]
    assert slow == [1]  # only e2 lives in the slow layer
    assert rep.rates[1] == pytest.approx(-math.log(2.0))
    # the probes may come as the rows of one array
    assert filtration_probe(A, np.array(probes), 400).rates.tolist() == rep.rates.tolist()


def test_filtration_probe_single_cluster_for_conformal():
    rep = filtration_probe(2.0 * np.eye(3),
                           [np.eye(3)[i] for i in range(3)], 200)
    assert len(rep.clusters) == 1


def test_filtration_probe_validation():
    for empty in ([], np.empty((0, 2))):
        with pytest.raises(DegenerateInputError):
            filtration_probe(np.eye(2), empty, 200)
    with pytest.raises(DegenerateInputError):
        filtration_probe(np.eye(2), [np.array([1.0, 0.0])], 50)
    with pytest.raises(DegenerateInputError, match="singular"):
        filtration_probe(np.diag([0.0, 1.0]), [np.array([1.0, 1.0])], 200)
    for probes in ([np.ones(3)], [np.ones(2), np.ones(3)], [np.array([1.0, np.nan])],
                   [np.array([1e200, 1e200])]):
        with pytest.raises(DegenerateInputError, match="probe vector"):
            filtration_probe(np.eye(2), probes, 200)


def _random_pair(dim, seed):
    rng = trial_rng(seed, 0)
    a = rng.normal(size=(dim, dim)) + 2.0 * np.eye(dim)
    b = rng.normal(size=(dim, dim)) + 2.0 * np.eye(dim)
    return ErgodicDriver(kind="iid_finite", seed=seed, maps=(a, b), weights=(0.5, 0.5))


_SL2_PAIR = ErgodicDriver(kind="iid_finite", seed=5,
                          maps=(np.array([[2.0, 1.0], [1.0, 1.0]]),
                                np.array([[1.0, 1.0], [1.0, 2.0]])),
                          weights=(0.5, 0.5))
_PARAMETRIC = ErgodicDriver(kind="iid_parametric", seed=2,
                            sampler=lambda r: r.normal(size=(2, 2)) + 2.0 * np.eye(2))
# unshifted Gaussian steps: the R diagonal's signs change from step to step
# in mixed patterns, so the kernel's frame, whose column signs are left as
# LAPACK returns them, differs from the loop's positive-diagonal frame
_GAUSSIAN_4 = ErgodicDriver(kind="iid_parametric", seed=9,
                            sampler=lambda r: r.normal(size=(4, 4)))
_COCYCLES = {
    "sl2_pair": (_SL2_PAIR, 2),
    "gaussian_4": (_GAUSSIAN_4, 4),
    "random_pair_3": (_random_pair(3, 18), 3),
    "parametric": (_PARAMETRIC, 2),
    "diag": (constant_driver(np.diag([3.0, 1.0, 0.5])), 3),
    "rotation": (constant_driver(np.array([[0.6, -0.8], [0.8, 0.6]])), 2),
}


@pytest.mark.parametrize("label", sorted(_COCYCLES))
def test_qr_spectrum_equals_the_running_sum_loop(label):
    drv, dim = _COCYCLES[label]
    for n, trial in ((10, 0), (2000, 0), (2000, 3), (20000, 1)):
        got = qr_spectrum(drv, dim, n, trial)
        want = loop_qr_spectrum(drv, dim, n, trial)
        assert got.exponents.tolist() == want.exponents.tolist()
        assert got.resid.tolist() == want.resid.tolist()


@pytest.mark.parametrize("diag", [[1e-7, 1e-7], [1e-301, 1e-301], [1e-301, 1e301]])
def test_qr_spectrum_equals_the_loop_at_tiny_and_huge_scales(diag):
    # the loop refuses only what the kernel refuses, a zero or non-finite
    # R diagonal entry, not a small one
    drv = constant_driver(np.diag(diag))
    for n in (10, 2000):
        got = qr_spectrum(drv, 2, n)
        want = loop_qr_spectrum(drv, 2, n)
        assert got.exponents.tolist() == want.exponents.tolist()
        assert got.resid.tolist() == want.resid.tolist()


@pytest.mark.parametrize("step", [1, 1000, _PRODUCT_BLOCK, _PRODUCT_BLOCK + 1,
                                  _PRODUCT_BLOCK + 1000])
def test_a_rescaling_fault_ends_the_run_at_its_block(step):
    # the squared norm of diag(1e155, 1) e1 overflows at the fault's step;
    # every step after its block draws index 2, past the end of mats, so a
    # run that went on would raise IndexError instead
    end = -(-step // _PRODUCT_BLOCK) * _PRODUCT_BLOCK
    idx = np.zeros((1, end + _PRODUCT_BLOCK), dtype=np.intp)
    idx[0, step - 1] = 1
    idx[0, end:] = 2
    mats = [np.eye(2), np.diag([1e155, 1.0])]
    with pytest.raises(FloatingPointError, match=f"^rescaling fault at step {step}$"):
        _growth_rates(mats, idx, [[1.0, 0.0]], [idx.shape[1]])
    # finite, with a finite inverse, but the norm of its first column overflows
    bad = np.array([[1.5e308, 0.0], [1.5e308, 1.0]])
    draws = iter([bad if k == step else np.eye(2) for k in range(1, end + 1)])
    drv = ErgodicDriver(kind="iid_parametric", seed=0, sampler=lambda r: next(draws))
    with pytest.raises(FloatingPointError, match=f"^rescaling fault at step {step}$"):
        qr_spectrum(drv, 2, end)


@pytest.mark.filterwarnings("error")
def test_singular_and_nan_draws_are_refused_up_front():
    # every drawn matrix is screened before the first step, a parametric
    # driver's draws too: a zero or a nan step is never reached
    singular = ErgodicDriver(kind="iid_parametric", seed=0,
                             sampler=lambda r: np.diag([1.0, float(r.random() > 0.2)]))
    with_nan = ErgodicDriver(kind="iid_parametric", seed=0,
                             sampler=lambda r: np.diag([1.0, math.nan
                                                        if r.random() < 0.2 else 1.0]))
    for driver in (singular, with_nan):
        with pytest.raises(DegenerateInputError, match="^singular step matrix$"):
            qr_spectrum(driver, 2, 50)
        with pytest.raises(DegenerateInputError, match="^singular step matrix$"):
            _fold(driver, 50, [0], [50])


@pytest.mark.parametrize("label", sorted(_COCYCLES))
def test_one_run_growth_rates_equal_separate_runs(label):
    # trials 0-5, two start vectors each, as the rows of one stacked run
    drv, dim = _COCYCLES[label]
    rng = trial_rng(30, 0)
    for ks in ([50, 100], [500], [1, 7, 600, 1000]):
        maps, idx = drv.draw(range(6), ks[-1])
        V = rng.normal(size=(12, dim))
        got = _growth_rates(maps, np.repeat(idx, 2, axis=0), V, ks)
        for r, v in enumerate(V):
            assert got[r].tolist() == loop_growth_rates(drv, v, ks, trial=r // 2)


def _loop_clusters(half, rates):
    """filtration_probe's grouping at its default tolerance, in plain Python."""
    tol = max(10.0 * max(abs(r - h) for r, h in zip(rates, half)), 1e-9)
    order = sorted(range(len(rates)), key=rates.__getitem__)
    clusters = [[order[0]]]
    for prev, i in zip(order, order[1:]):
        if rates[i] - rates[prev] < tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def test_filtration_probe_rates_equal_the_two_run_loop():
    for A in (np.diag([2.0, 0.5]), np.diag([3.0, 1.0, 1.0]),
              np.array([[1.0, 2.0], [0.5, 3.0]]), np.diag([1.0, 1.0 + 1e-9])):
        dim = len(A)
        probes = [np.eye(dim)[i] for i in range(dim)] + [np.ones(dim)]
        rep = filtration_probe(A, probes, 1000)
        half, rates = zip(*(loop_growth_rates(constant_driver(A), p, [500, 1000])
                            for p in probes))
        assert rep.rates.tolist() == list(rates)
        assert rep.clusters == _loop_clusters(half, rates)
