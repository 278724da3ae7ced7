"""Nonexpansive neural layers and diffeomorphism stretch experiments.

Layer maps are affine-plus-activation with an operator-norm bound
certified by the SVD; chains of such layers are nonexpansive, their
normalized outputs drift to an input-independent vector, and their
normalized Lipschitz profile collapses like 1/n.  The module also hosts
the maximal-stretch and log-Jacobian experiments for cocycles of circle
diffeomorphisms.
"""

from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np

from .cocycle import ErgodicDriver, geometric_checkpoints
from .core import DegenerateInputError
from .seeding import trial_rng
from .spaces import _TWO_PI, CircleMap, NotDiffeomorphismError, _wrap_angle


class NormConstraintError(ValueError):
    """A layer violates the operator-norm-at-most-1 constraint."""


def _relu(t):
    return np.maximum(t, 0.0)


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


# each activation is 1-Lipschitz componentwise
ACTIVATIONS = {"relu": _relu, "tanh": np.tanh, "sigmoid": _sigmoid}

PLAIN = "plain"               # g(x) = act(Wx + b)
RESNET_ADJOINT = "resnet_adjoint"  # T(x) = W^T act(Wx + b)


def _operator_norm(W) -> float:
    """Operator 2-norm of a float weight array: its largest singular value,
    which the SVD gives to within a few ulps."""
    if W.ndim != 2 or W.size == 0:
        raise DegenerateInputError("weight must be a nonempty matrix")
    if not np.all(np.isfinite(W)):
        raise DegenerateInputError("non-finite weight entries")
    return float(np.linalg.norm(W, 2))


def _audit_norm(W) -> None:
    """Refuse a weight whose operator norm exceeds 1 by more than 1e-9."""
    norm = _operator_norm(W)
    if norm > 1.0 + 1e-9:
        raise NormConstraintError(f"weight operator norm {norm:.6g} exceeds 1")


def spectral_normalize(W):
    """Scale W so its operator norm is at most 1; returns (W, certified_norm).

    W is unchanged when its norm is already <= 1.
    """
    W = np.asarray(W, dtype=float)
    norm = _operator_norm(W)
    if norm > 1.0:
        return W / norm, 1.0
    return W, norm


@dataclass(frozen=True)
class LayerMap:
    """Affine-plus-activation layer with a certified operator-norm bound."""

    W: np.ndarray
    b: np.ndarray
    activation: str
    form: str = RESNET_ADJOINT
    certified_norm: float = 1.0

    def apply(self, x):
        """The layer at a point x of shape (d,), or at each column of x of
        shape (..., d, k)."""
        b = self.b if np.ndim(x) == 1 else self.b[:, None]
        z = ACTIVATIONS[self.activation](self.W @ x + b)
        if self.form == RESNET_ADJOINT:
            return self.W.T @ z
        return z

    def __call__(self, x):
        return self.apply(x)


def make_layer(W, b, activation: str, form: str = RESNET_ADJOINT,
               audit: bool = False) -> LayerMap:
    """Build a layer, either projecting W onto the norm ball or auditing it.

    The weight is divided by its norm when above 1; with ``audit`` instead a
    violating weight is rejected.
    """
    if activation not in ACTIVATIONS:
        raise DegenerateInputError(f"unknown activation {activation!r}")
    if form not in (PLAIN, RESNET_ADJOINT):
        raise DegenerateInputError(f"unknown layer form {form!r}")
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    if audit:
        _audit_norm(W)
    W, norm = spectral_normalize(W)
    return LayerMap(W=W, b=b, activation=activation, form=form, certified_norm=norm)


def apply_chain(layers: Sequence[LayerMap], x0):
    """Apply layers with the first layer outermost: T1(T2(...Tn(x0))).

    x0 is one point of shape (d,) or a stack of points of shape (k, d, 1)
    (see :meth:`LayerMap.apply`).
    """
    y = np.asarray(x0, dtype=float)
    for layer in reversed(layers):
        y = layer.apply(y)
    return y


@dataclass(frozen=True)
class DriftReport:
    v_hat: np.ndarray            # (trials, d)
    n: int
    cross_input_gap: float
    per_coordinate_se: np.ndarray

    @property
    def mean_v_hat(self) -> np.ndarray:
        return np.mean(self.v_hat, axis=0)


def resnet_drift(W, activation: str, biases, x0, n: int, trials: int) -> DriftReport:
    """Normalized deep-chain outputs u(n)x0 / n across seeded trials.

    Every layer is T(x) = W^T act(Wx + b) with the shared weight W, whose
    operator norm must be at most 1; ``biases`` has shape (trials, n, d) and
    trial t's chain is T_1(T_2(... T_n(x0))) with T_k using biases[t, k-1].
    All trials step together.  The cross-input gap compares against the
    shifted input x0 + e1; by nonexpansiveness it is bounded by
    ||x0 - x0'|| / n, the assertable form of input independence of the
    drift vector.
    """
    if n < 1 or trials < 1:
        raise DegenerateInputError("need n >= 1 and trials >= 1")
    if activation not in ACTIVATIONS:
        raise DegenerateInputError(f"unknown activation {activation!r}")
    act = ACTIVATIONS[activation]
    W = np.asarray(W, dtype=float)
    _audit_norm(W)
    x0 = np.asarray(x0, dtype=float)
    d = x0.shape[0]
    biases = np.asarray(biases, dtype=float)
    if biases.shape != (trials, n, d):
        raise DegenerateInputError(
            f"biases have shape {biases.shape}, expected {(trials, n, d)}")
    # both inputs ride through every trial's chain together (first layer
    # outermost): X[t] holds trial t's images of x0 and x0 + e1 as columns
    X = np.empty((trials, d, 2))
    X[:, :, 0] = x0
    X[:, :, 1] = x0
    X[:, 0, 1] += 1.0
    for k in range(n - 1, -1, -1):
        X = W.T @ act(W @ X + biases[:, k, :, None])
    v_hat = X[:, :, 0] / n
    # one norm per difference vector, as a 1-D dot product
    gap = max(float(np.linalg.norm(r)) / n for r in X[:, :, 0] - X[:, :, 1])
    se = np.std(v_hat, axis=0, ddof=1) / math.sqrt(trials) if trials > 1 \
        else np.zeros(d)
    return DriftReport(v_hat=v_hat, n=n, cross_input_gap=gap, per_coordinate_se=se)


def lipschitz_profile(layers: Sequence[LayerMap], pair_sampler, n_pairs: int,
                      seed: int = 0) -> float:
    """max over sampled pairs of ||u(n)x - u(n)y|| / (n ||x - y||).

    For certified nonexpansive chains this is at most 1/n, quantifying how
    close the normalized composition is to a constant function.  Pairs are
    drawn in order from one stream, and every point of every non-coincident
    pair goes through the chain in one (points, d, 1) stack.
    """
    if n_pairs < 1:
        raise DegenerateInputError("n_pairs must be >= 1")
    if not layers:
        raise DegenerateInputError("need at least one layer")
    rng = trial_rng(seed, 0)
    xs, ys, bases = [], [], []
    for _ in range(n_pairs):
        x, y = pair_sampler(rng)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        base = float(np.linalg.norm(x - y))
        if base != 0.0:
            xs.append(x)
            ys.append(y)
            bases.append(base)
    if not bases:
        raise DegenerateInputError("all sampled pairs were coincident")
    out = apply_chain(layers, np.stack(xs + ys)[:, :, None])
    diff = out[:len(xs)] - out[len(xs):]
    n = len(layers)
    # one norm per difference vector, as a 1-D dot product
    return max(float(np.linalg.norm(r)) / (n * base) for r, base in zip(diff, bases))


# ---------------------------------------------------------------------------
# Maximal stretch for diffeomorphism cocycles on the circle

@dataclass(frozen=True)
class StretchReport:
    lambda_hat: float
    argmax_trace: list   # (depth, (x, y)) best pair at each checkpoint
    z_hat: complex


def max_stretch(driver: ErgodicDriver, n: int, grid: int,
                trial: int = 0) -> StretchReport:
    """Maximal-stretch exponent of a cocycle of maps of the unit circle.

    Driver elements are complex maps z -> g(z) (vectorizable over numpy
    arrays) preserving the circle.  A fixed pair grid (near-diagonal pairs
    at the scales 1e-2 and 1e-4 around equispaced midpoints) is evaluated
    once under each distinct drawn map; the log of the best sampled stretch
    of each step's map accumulates, in step order, into lambda_hat.

    Depth-n difference quotients saturate in double precision once the
    cumulative stretch exceeds (pair scale)/eps, so the estimate composes
    per-step sampled suprema instead; for constant and rotation drivers the
    two notions coincide.  Refining the grid never decreases lambda_hat.
    """
    if n < 1 or grid < 1:
        raise DegenerateInputError("n and grid must be >= 1")
    mids = _TWO_PI * np.arange(grid) / grid
    xs, ys = [], []
    for s in (1e-2, 1e-4):
        xs.append(np.exp(1j * (mids - 0.5 * s)))
        ys.append(np.exp(1j * (mids + 0.5 * s)))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    base = np.abs(x - y)
    checkpoints = set(geometric_checkpoints(n, count=12))
    maps, [idx] = driver.draw([trial], n)
    steps = idx.tolist()
    # each distinct drawn map is evaluated once, in order of its first step,
    # so a map that leaves the chart is reported at its first drawn step
    first = {}
    for k, m in enumerate(steps, start=1):
        first.setdefault(m, k)
    log_best, best = {}, {}
    for m, k in first.items():
        g = maps[m]
        gx = g(x)
        gy = g(y)
        if not (np.all(np.isfinite(gx)) and np.all(np.isfinite(gy))):
            raise DegenerateInputError(f"map left the sampled chart at depth {k}")
        ratios = np.abs(gx - gy) / base
        i = int(np.argmax(ratios))
        log_best[m] = math.log(float(ratios[i]))
        best[m] = (complex(x[i]), complex(y[i]))
    total = 0.0
    trace = []
    for k, m in enumerate(steps, start=1):
        total += log_best[m]
        if k in checkpoints:
            trace.append((k, best[m]))
    best_pair = best[steps[-1]]
    z_hat = 0.5 * (best_pair[0] + best_pair[1])
    return StretchReport(lambda_hat=total / n, argmax_trace=trace, z_hat=z_hat)


def jacobian_cocycle_dist(driver: ErgodicDriver, n: int, grid: int,
                          trial: int = 0):
    """Distance-from-identity cocycle in the sup-log-Jacobian metric.

    Driver elements are :class:`CircleMap` objects composed as left
    increments; derivatives along the composition accumulate by the chain
    rule on the grid.  Returns rows (k, a(k), a(k)/k).
    """
    if grid < 16:
        raise DegenerateInputError("grid must be >= 16")
    theta = np.linspace(0.0, _TWO_PI, grid, endpoint=False)
    pos = theta.copy()
    cumlog = np.zeros(grid)
    rows = []
    maps, [idx] = driver.draw([trial], n)
    for k, i in enumerate(idx.tolist(), start=1):
        f, d = maps[i].f_and_deriv(pos)
        if not (d.min() > 0.0 and d.max() < math.inf):     # nan fails the first
            raise NotDiffeomorphismError(
                f"nonpositive or non-finite composed derivative at step {k}")
        cumlog += np.log(d)
        pos = _wrap_angle(f)
        a_k = float(np.max(np.abs(cumlog)))
        rows.append((k, a_k, a_k / k))
    return rows
