"""Nonexpansive layer chains, drift, and diffeomorphism stretch experiments."""

import dataclasses
import math

import numpy as np
import pytest

from horoflow.cli import EXPERIMENTS, _run_resnet_drift
from horoflow.cocycle import ErgodicDriver, constant_driver
from horoflow.core import DegenerateInputError
from horoflow.deepnet import (LayerMap, NormConstraintError, _operator_norm, apply_chain,
                              jacobian_cocycle_dist, lipschitz_profile,
                              make_layer, max_stretch, resnet_drift,
                              spectral_normalize)
from horoflow.seeding import trial_rng
from horoflow.spaces import (CircleMap, NotDiffeomorphismError,
                             mobius_circle_map, rotation_circle_map,
                             sine_circle_map)

from oracles import (complex_mobius_circle_map, elements, loop_jacobian_cocycle,
                     loop_lipschitz_profile, loop_max_stretch, loop_resnet_drift, mean_v_hat,
                     mp_mobius_cocycle, operator_norm_svd, sampled_draws)


# ---------------------------------------------------------------------------
# Spectral normalization and layers

def test_spectral_normalize_matches_svd():
    # the norm it divides by is the SVD norm to within a few ulps, so no
    # normalized weight expands by more than 8 eps
    eps = np.finfo(float).eps
    rng = trial_rng(31, 0)
    for _ in range(50):
        w = rng.normal(size=(5, 5))
        w2 = spectral_normalize(w)
        norm, true = _operator_norm(w), operator_norm_svd(w)
        assert abs(norm - true) <= 8 * eps * true
        assert operator_norm_svd(w2) <= 1.0 + 8 * eps
        if norm > 1.0:
            assert np.array_equal(w2, w / norm)
            assert operator_norm_svd(w2) >= 1.0 - 8 * eps
        else:
            assert np.array_equal(w2, w)


def test_spectral_normalize_rejects_nonfinite():
    with pytest.raises(DegenerateInputError):
        spectral_normalize(np.array([[1.0, float("nan")], [0.0, 1.0]]))


def test_make_layer_modes():
    w = 2.0 * np.eye(2)
    layer = make_layer(w, np.zeros(2), "relu")
    assert operator_norm_svd(layer.W) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DegenerateInputError):
        make_layer(w, np.zeros(2), "softplus")


def test_apply_chain_puts_first_layer_outermost():
    l1 = make_layer(np.eye(1), np.array([1.0]), "relu")
    l2 = make_layer(0.5 * np.eye(1), np.zeros(1), "relu")
    # l1(l2(x)) = x / 4 + 1 for x >= 0, and l2(l1(x)) = (x + 1) / 4
    out = apply_chain([l1, l2], np.array([4.0]))
    assert out[0] == pytest.approx(2.0)


def test_layer_forms():
    # T(x) = W^T act(Wx + b) at a point, and at each column of a stack
    w = spectral_normalize(np.array([[0.6, 0.2], [0.1, 0.5]]))
    b = np.array([0.3, -0.2])
    x = np.array([1.0, 2.0])
    layer = make_layer(w, b, "tanh")
    assert np.allclose(layer.apply(x), w.T @ np.tanh(w @ x + b))
    cols = layer.apply(np.stack([x, -x], axis=1)[None])
    assert np.allclose(cols[0, :, 1], w.T @ np.tanh(w @ -x + b))


# ---------------------------------------------------------------------------
# Drift

def _relu_biases(seed, n, trials, d=1):
    # each layer draws one bias value from {0.5, 1.5} for every coordinate
    support = np.array([0.5, 1.5])
    picks = np.array([trial_rng(seed, t).integers(2, size=n) for t in range(trials)])
    return np.repeat(support[picks][:, :, None], d, axis=2)


def test_resnet_drift_matches_apply_chain():
    w = spectral_normalize(np.eye(1))
    biases = _relu_biases(2, 7, 3)
    rep = resnet_drift(w, "relu", biases, np.zeros(1))
    for t in range(3):
        layers = [LayerMap(W=w, b=b, activation="relu") for b in biases[t]]
        assert np.allclose(rep.v_hat[t], apply_chain(layers, np.zeros(1)) / 7)


@pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
@pytest.mark.parametrize("d", [1, 3])
def test_batched_drift_equals_the_trial_loop(activation, d):
    # every trial stepped at once gives the one-trial loop's values exactly
    rng = trial_rng(12, d)
    n, trials = 40, 5
    w = spectral_normalize(rng.normal(size=(d, d)))
    biases = rng.normal(size=(trials, n, d))
    x0 = rng.normal(size=d)
    rep = resnet_drift(w, activation, biases, x0)
    chains = [[LayerMap(W=w, b=b, activation=activation) for b in biases[t]]
              for t in range(trials)]
    v_hat, gap = loop_resnet_drift(chains, x0)
    assert np.array_equal(rep.v_hat, v_hat)
    assert rep.cross_input_gap == gap


def test_drift_mean_for_relu_bias_chain():
    w = spectral_normalize(np.eye(1))
    rep = resnet_drift(w, "relu", _relu_biases(5, 500, 20), np.zeros(1))
    # mean bias is 1 and relu(x + b) = x + b along the positive orbit
    assert mean_v_hat(rep)[0] == pytest.approx(1.0, abs=5 * rep.per_coordinate_se[0] + 1e-3)
    assert rep.cross_input_gap <= 1.0 / 500 + 1e-15


def test_tanh_chain_drift_is_bounded_by_sqrt_d_over_n():
    rng = trial_rng(6, 0)
    d, n, trials = 3, 50, 5
    w = spectral_normalize(rng.normal(size=(d, d)))
    biases = np.array([trial_rng(1, t).normal(size=(n, d)) for t in range(trials)])
    rep = resnet_drift(w, "tanh", biases, rng.normal(size=d))
    assert np.all(np.linalg.norm(rep.v_hat, axis=1) <= math.sqrt(d) / n)


def test_resnet_drift_experiment_draws_a_bias_per_coordinate():
    # at d = 2 the coordinates see different biases, so some trial's
    # normalized output has two different coordinates
    cfg = {key: default for key, (default, _) in EXPERIMENTS["resnet-drift"].params.items()}
    cfg.update(seed=5, d=2, n=50, trials=3, activation="tanh")
    _, rows = _run_resnet_drift(cfg)
    v_hat = np.array([row[2] for row in rows]).reshape(3, 2)
    assert np.any(v_hat[:, 0] != v_hat[:, 1])


def test_resnet_drift_rejects_uncertified_layers():
    with pytest.raises(NormConstraintError):
        resnet_drift(2.0 * np.eye(1), "relu", np.zeros((1, 5, 1)), np.zeros(1))


def test_resnet_drift_rejects_bad_inputs():
    w = np.eye(2)
    with pytest.raises(DegenerateInputError):
        resnet_drift(w, "softplus", np.zeros((1, 5, 2)), np.zeros(2))
    # the biases must be a (trials, n, len(x0)) stack with trials, n >= 1
    for shape in ((1, 4, 3), (5, 2), (0, 5, 2), (1, 0, 2)):
        with pytest.raises(DegenerateInputError, match="trials, n"):
            resnet_drift(w, "relu", np.zeros(shape), np.zeros(2))


def _stacked_pairs(pair_sampler, n_pairs, rng):
    """(x, y): n_pairs pairs drawn in order from rng, stacked."""
    x, y = zip(*(pair_sampler(rng) for _ in range(n_pairs)))
    return np.array(x), np.array(y)


def test_lipschitz_profile_bound():
    rng = trial_rng(8, 0)
    layers = [make_layer(rng.normal(size=(4, 4)), rng.normal(size=4), "relu")
              for _ in range(60)]
    x, y = trial_rng(2, 0).normal(size=(2, 100, 4))
    prof = lipschitz_profile(layers, x, y)
    assert 0.0 <= prof <= 1.0 / 60 + 1e-12
    with pytest.raises(DegenerateInputError, match="coincident"):
        lipschitz_profile(layers, x[:5], x[:5])
    # x and y must be one (pairs, d) shape with at least one pair
    for bad_x, bad_y in ((x[:0], y[:0]), (x, y[:5]), (x[0], y[0]), (x[:, :3], y)):
        with pytest.raises(DegenerateInputError, match="pairs, d"):
            lipschitz_profile(layers, bad_x, bad_y)


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("d", [2, 5])
def test_batched_profile_equals_the_pair_loop(activation, d):
    # all pairs through the chain as one stack give the per-point loop's value
    rng = trial_rng(8, d)
    layers = [make_layer(rng.normal(size=(d, d)), rng.normal(size=d), activation)
              for _ in range(12)]

    def pairs(r):
        return r.normal(size=d), r.normal(size=d)

    def some_coincident(r):
        x, y = pairs(r)
        return (x, x) if r.random() < 0.3 else (x, y)

    for sampler in (pairs, some_coincident):
        prof = lipschitz_profile(layers, *_stacked_pairs(sampler, 30, trial_rng(3, 0)))
        assert prof > 0.0
        assert prof == loop_lipschitz_profile(layers, sampler, 30, trial_rng(3, 0))


# ---------------------------------------------------------------------------
# Maximal stretch

def test_max_stretch_identity_and_rotation_are_null():
    ident = constant_driver(lambda z: z)
    assert max_stretch(ident, 20, 256).lambda_hat == pytest.approx(0.0, abs=1e-12)
    phase = complex(math.cos(1.0), math.sin(1.0))
    rot = constant_driver(lambda z, _p=phase: _p * z)
    assert abs(max_stretch(rot, 20, 256).lambda_hat) <= 1e-9


def test_max_stretch_mobius_finds_repelling_point():
    a = 0.5
    drv = constant_driver(lambda z, _a=a: (z + _a) / (1.0 + _a * z))
    rep = max_stretch(drv, 50, 1024)
    assert rep.lambda_hat == pytest.approx(math.log(3.0), rel=0.05)
    assert abs(rep.z_hat - (-1.0)) <= 1e-2
    assert rep.argmax_trace  # checkpoints were recorded
    with pytest.raises(DegenerateInputError):
        max_stretch(drv, 0, 64)


def test_max_stretch_rejects_escaping_maps():
    bad = constant_driver(lambda z: z * complex("nan"))
    with pytest.raises(DegenerateInputError):
        max_stretch(bad, 3, 32)


def _disk_map(a):
    return lambda z: (z + a) / (1.0 + np.conj(a) * z)


_STRETCH_DRIVERS = {
    "constant": constant_driver(_disk_map(0.5)),
    "two_maps": ErgodicDriver(seed=4,
                              maps=(_disk_map(0.5), _disk_map(-0.3 + 0.2j)),
                              weights=(0.3, 0.7)),
    "parametric": sampled_draws(4, lambda r: _disk_map(
        complex(r.uniform(-0.6, 0.6), r.uniform(-0.6, 0.6)))),
}


@pytest.mark.parametrize("name", sorted(_STRETCH_DRIVERS))
def test_max_stretch_equals_the_step_loop(name):
    # each distinct drawn map evaluated once gives the per-step loop's report
    rep = max_stretch(_STRETCH_DRIVERS[name], 300, 64)
    ref = loop_max_stretch(_STRETCH_DRIVERS[name], 300, 64)
    assert rep.lambda_hat == ref.lambda_hat
    assert rep.argmax_trace == ref.argmax_trace
    assert rep.z_hat == ref.z_hat


def test_max_stretch_reports_the_first_step_that_leaves_the_chart():
    # the bad map is the second distinct one drawn, at the first step it
    # is drawn, as in the per-step loop
    drv = ErgodicDriver(seed=2,
                        maps=(_disk_map(0.5), lambda z: z * complex("nan")),
                        weights=(0.5, 0.5))
    first = elements(drv, 0, 50).index(drv.maps[1]) + 1
    assert first > 1
    for kernel in (max_stretch, loop_max_stretch):
        with pytest.raises(DegenerateInputError,
                           match=f"map left the sampled chart at depth {first}$"):
            kernel(drv, 50, 32)


# ---------------------------------------------------------------------------
# Jacobian cocycle

def test_jacobian_cocycle_rotation_is_flat():
    drv = constant_driver(rotation_circle_map(1.0))
    rows = jacobian_cocycle_dist(drv, 20, 128)
    assert all(a == 0.0 for _, a, _ in rows)


def test_jacobian_cocycle_constant_mobius_rate():
    drv = constant_driver(mobius_circle_map(0.5))
    rows = jacobian_cocycle_dist(drv, 200, 512)
    k, a, ratio = rows[-1]
    assert k == 200
    # rate approaches log of the multiplier at the repelling fixed point
    assert ratio == pytest.approx(math.log(3.0), abs=0.02)


def test_jacobian_cocycle_first_step_matches_metric():
    drv = constant_driver(sine_circle_map(0.5))
    rows = jacobian_cocycle_dist(drv, 1, 256)
    assert rows[0][1] == pytest.approx(math.log(2.0))


_CIRCLE_DRIVERS = {
    "mobius_0.5": constant_driver(mobius_circle_map(0.5)),
    "mobius_-0.3": constant_driver(mobius_circle_map(-0.3)),
    "sine": constant_driver(sine_circle_map(0.5)),
    "rotation": constant_driver(rotation_circle_map(1.0)),
    "mix": ErgodicDriver(seed=7,
                         maps=(mobius_circle_map(0.5), sine_circle_map(0.5),
                               rotation_circle_map(1.0))),
}


@pytest.mark.parametrize("label", sorted(_CIRCLE_DRIVERS))
def test_jacobian_cocycle_equals_the_step_loop(label):
    drv = _CIRCLE_DRIVERS[label]
    got = jacobian_cocycle_dist(drv, 1000, 512)
    assert got == loop_jacobian_cocycle(drv, 1000, 512)


@pytest.mark.parametrize("a", [0.5, -0.3, 0.9])
def test_mobius_cocycle_against_the_mpmath_iterate(a):
    # a(k) of the real-arithmetic Mobius map against the 50-digit closed
    # form of its k-th iterate errs no more than the old complex form's,
    # over every k.  Only a(k) is gated: a grid point near the repelling
    # fixed point leaves it threefold a step in any arithmetic, so its own
    # sum is ill-conditioned
    n, grid = 1000, 512
    want = mp_mobius_cocycle(a, n, grid)

    def error(g):
        rows = jacobian_cocycle_dist(constant_driver(g), n, grid)
        return max(abs(row[1] - w) for row, w in zip(rows, want))

    assert error(mobius_circle_map(a)) <= error(complex_mobius_circle_map(a))


_STEEP_MOBIUS = {f"mobius_{a}": constant_driver(mobius_circle_map(a)) for a in (0.9, -0.99)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("label", sorted(_CIRCLE_DRIVERS) + sorted(_STEEP_MOBIUS))
def test_circle_points_stay_on_the_circle(label):
    # without the division by the norm, the point nearest the repelling
    # fixed point drifts off the circle and overflows; with it, every point
    # the kernel hands a step is within 4 ulp of the circle, and no step warns
    drv = {**_CIRCLE_DRIVERS, **_STEEP_MOBIUS}[label]
    radii = []

    def recorded(g):
        def f_and_df(c, s):
            radii.append(np.hypot(c, s))
            return g.f_and_deriv(c, s)

        return CircleMap(f_and_df)

    drv = dataclasses.replace(drv, maps=tuple(map(recorded, drv.maps)))
    jacobian_cocycle_dist(drv, 1000, 512)
    assert len(radii) == 1000
    assert np.abs(np.array(radii) - 1.0).max() <= 4.0 * np.finfo(float).eps


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_jacobian_cocycle_refuses_a_non_finite_derivative(bad):
    # a map whose derivative is nan or inf near theta = pi once gave rows of
    # nan or inf; the first step already meets such points
    g = CircleMap(lambda c, s: (c, s, np.where(c < -0.99, bad, 1.0)))
    with pytest.raises(NotDiffeomorphismError, match="at step 1$"):
        jacobian_cocycle_dist(constant_driver(g), 10, 64)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_jacobian_cocycle_refuses_a_bad_derivative_at_its_step(bad):
    # the rotation by 1 takes the grid point (1, 0) to its third image at
    # angle 2 at step 3: the only step whose derivative is bad there, and the
    # one refused, with no warning from its log
    turn = rotation_circle_map(1.0)

    def f_and_df(c, s):
        c2, s2, d = turn.f_and_deriv(c, s)
        return c2, s2, np.where(np.abs(c - math.cos(2.0)) + np.abs(s - math.sin(2.0)) < 1e-9,
                                bad, d)

    for kernel in (jacobian_cocycle_dist, loop_jacobian_cocycle):
        with pytest.raises(NotDiffeomorphismError, match="at step 3$"):
            kernel(constant_driver(CircleMap(f_and_df)), 10, 64)


def test_jacobian_cocycle_validation():
    drv = constant_driver(rotation_circle_map(1.0))
    with pytest.raises(DegenerateInputError):
        jacobian_cocycle_dist(drv, 10, 8)
    folding = CircleMap(lambda c, s: (c, -s, -np.ones_like(c)))
    with pytest.raises(NotDiffeomorphismError):
        jacobian_cocycle_dist(constant_driver(folding), 5, 64)
