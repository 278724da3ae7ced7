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
from .spaces import _TWO_PI, NotDiffeomorphismError, _wrap_angle


class NormConstraintError(ValueError):
    """A layer violates the operator-norm-at-most-1 constraint."""


def _relu(t):
    return np.maximum(t, 0.0)


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


# each activation is 1-Lipschitz componentwise
ACTIVATIONS = {"relu": _relu, "tanh": np.tanh, "sigmoid": _sigmoid}


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
    """W scaled so its operator norm is at most 1: divided by its norm when
    above 1, unchanged otherwise."""
    W = np.asarray(W, dtype=float)
    norm = _operator_norm(W)
    return W / norm if norm > 1.0 else W


@dataclass(frozen=True)
class LayerMap:
    """The layer T(x) = W^T act(Wx + b) with a certified operator-norm bound."""

    W: np.ndarray
    b: np.ndarray
    activation: str

    def apply(self, x):
        """The layer at a point x of shape (d,), or at each column of x of
        shape (..., d, k)."""
        b = self.b if np.ndim(x) == 1 else self.b[:, None]
        return self.W.T @ ACTIVATIONS[self.activation](self.W @ x + b)


def make_layer(W, b, activation: str) -> LayerMap:
    """Build a layer, projecting W onto the norm ball: the weight is divided
    by its norm when above 1."""
    if activation not in ACTIVATIONS:
        raise DegenerateInputError(f"unknown activation {activation!r}")
    W = spectral_normalize(W)
    return LayerMap(W=W, b=np.asarray(b, dtype=float), activation=activation)


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
    cross_input_gap: float
    per_coordinate_se: np.ndarray


def resnet_drift(W, activation: str, biases, x0) -> DriftReport:
    """Normalized deep-chain outputs u(n)x0 / n across seeded trials.

    Every layer is T(x) = W^T act(Wx + b) with the shared weight W, whose
    operator norm must be at most 1; ``biases`` is a (trials, n, d) stack,
    d = len(x0), and trial t's chain is T_1(T_2(... T_n(x0))) with T_k using
    biases[t, k-1].
    All trials step together.  The cross-input gap compares against the
    shifted input x0 + e1; by nonexpansiveness it is bounded by
    ||x0 - x0'|| / n, the assertable form of input independence of the
    drift vector.  An output, the gap or a standard error that leaves the
    double range raises DegenerateInputError.
    """
    if activation not in ACTIVATIONS:
        raise DegenerateInputError(f"unknown activation {activation!r}")
    act = ACTIVATIONS[activation]
    W = np.asarray(W, dtype=float)
    _audit_norm(W)
    x0 = np.asarray(x0, dtype=float)
    d = x0.shape[0]
    biases = np.asarray(biases, dtype=float)
    if biases.ndim != 3 or biases.shape[2] != d or 0 in biases.shape[:2]:
        raise DegenerateInputError(f"biases have shape {biases.shape}, expected a "
                                   f"(trials, n, {d}) stack with trials, n >= 1")
    trials, n, _ = biases.shape
    # both inputs ride through every trial's chain together (first layer
    # outermost): X[t] holds trial t's images of x0 and x0 + e1 as columns
    X = np.empty((trials, d, 2))
    X[:, :, 0] = x0
    X[:, :, 1] = x0
    X[:, 0, 1] += 1.0
    # tanh and sigmoid take an overflowed pre-activation to their limits;
    # any other overflow leaves a non-finite value, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1, -1, -1):
            X = W.T @ act(W @ X + biases[:, k, :, None])
        v_hat = X[:, :, 0] / n
        # one norm per difference vector, as a 1-D dot product
        gap = max(float(np.linalg.norm(r)) / n for r in X[:, :, 0] - X[:, :, 1])
        se = np.std(v_hat, axis=0, ddof=1) / math.sqrt(trials) if trials > 1 \
            else np.zeros(d)
    if not (np.all(np.isfinite(v_hat)) and math.isfinite(gap) and np.all(np.isfinite(se))):
        raise DegenerateInputError(
            "resnet drift leaves the double range: the biases are too large")
    return DriftReport(v_hat=v_hat, cross_input_gap=gap, per_coordinate_se=se)


def lipschitz_profile(layers: Sequence[LayerMap], x, y) -> float:
    """max over the pairs (x[i], y[i]) of ||u(n)x - u(n)y|| / (n ||x - y||).

    For certified nonexpansive chains this is at most 1/n, quantifying how
    close the normalized composition is to a constant function.  x and y
    are (pairs, d) stacks; coincident pairs are skipped, and every point of
    every other pair goes through the chain in one (points, d, 1) stack.
    """
    if not layers:
        raise DegenerateInputError("need at least one layer")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape or len(x) < 1:
        raise DegenerateInputError(f"x and y have shapes {x.shape} and {y.shape}, "
                                   "expected one (pairs, d) shape with pairs >= 1")
    # one norm per difference vector, as a 1-D dot product
    bases = np.array([float(np.linalg.norm(r)) for r in x - y])
    keep = bases != 0.0
    if not keep.any():
        raise DegenerateInputError("all sampled pairs were coincident")
    x, y, bases = x[keep], y[keep], bases[keep]
    out = apply_chain(layers, np.concatenate([x, y])[:, :, None])
    diff = out[:len(x)] - out[len(x):]
    n = len(layers)
    return max(float(np.linalg.norm(r)) / (n * base)
               for r, base in zip(diff, bases.tolist()))


# ---------------------------------------------------------------------------
# Maximal stretch for diffeomorphism cocycles on the circle

@dataclass(frozen=True)
class StretchReport:
    lambda_hat: float
    argmax_trace: list   # (depth, (x, y)) best pair at each checkpoint
    z_hat: complex


def max_stretch(driver: ErgodicDriver, n: int, grid: int) -> StretchReport:
    """Maximal-stretch exponent of a cocycle of maps of the unit circle,
    along the driver's trial 0.

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
    maps, [idx] = driver.draw([0], n)
    # each distinct drawn map is evaluated once, in order of its first step,
    # so a map that leaves the chart is reported at its first drawn step
    drawn, first = np.unique(idx, return_index=True)
    log_best, best = np.empty(len(maps)), {}
    for k, m in sorted(zip(first.tolist(), drawn.tolist())):
        g = maps[m]
        gx = g(x)
        gy = g(y)
        if not (np.all(np.isfinite(gx)) and np.all(np.isfinite(gy))):
            raise DegenerateInputError(f"map left the sampled chart at depth {k + 1}")
        ratios = np.abs(gx - gy) / base
        i = int(np.argmax(ratios))
        log_best[m] = math.log(float(ratios[i]))
        best[m] = (complex(x[i]), complex(y[i]))
    # the steps' logs summed in step order
    total = float(np.cumsum(log_best[idx])[-1])
    trace = [(k, best[idx[k - 1]]) for k in geometric_checkpoints(n, count=12)]
    best_pair = best[idx[-1]]
    z_hat = 0.5 * (best_pair[0] + best_pair[1])
    return StretchReport(lambda_hat=total / n, argmax_trace=trace, z_hat=z_hat)


def jacobian_cocycle_dist(driver: ErgodicDriver, n: int, grid: int):
    """Distance-from-identity cocycle in the sup-log-Jacobian metric, along
    the driver's trial 0.

    Driver elements are :class:`horoflow.spaces.CircleMap` objects composed
    as left increments; derivatives along the composition accumulate by the
    chain rule on the grid.  Returns rows (k, a(k), a(k)/k).
    """
    if grid < 16:
        raise DegenerateInputError("grid must be >= 16")
    theta = np.linspace(0.0, _TWO_PI, grid, endpoint=False)
    pos = theta.copy()
    cumlog = np.zeros(grid)
    rows = []
    maps, [idx] = driver.draw([0], n)
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
