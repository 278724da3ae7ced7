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
from .spaces import _TWO_PI, NotDiffeomorphismError, _row_norms


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
        gap = float(np.max(_row_norms(X[:, :, 0] - X[:, :, 1]))) / n
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
    bases = _row_norms(x - y)
    keep = bases != 0.0
    if not keep.any():
        raise DegenerateInputError("all sampled pairs were coincident")
    x, y, bases = x[keep], y[keep], bases[keep]
    out = apply_chain(layers, np.concatenate([x, y])[:, :, None])[:, :, 0]
    diffs = _row_norms(out[:len(x)] - out[len(x):])
    return float(np.max(diffs / (len(layers) * bases)))


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
    mids = np.tile(_TWO_PI * np.arange(grid) / grid, 2)
    half = np.repeat([0.5e-2, 0.5e-4], grid)
    x = np.exp(1j * (mids - half))
    y = np.exp(1j * (mids + half))
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


# derivative values (steps x grid points) reduced at once: 64 steps at
# grid 512, fewer on a finer grid, so memory does not grow with the grid
_BLOCK_VALUES = 1 << 15


def _onto_circle(x, y, c, s, norm):
    """(x, y) / sqrt(x*x + y*y) into (c, s), with ``norm`` as scratch: the
    operations of the plain formula, in its order.  The outputs go in by
    position: ``out=`` by keyword costs about 0.4 µs a call more."""
    np.multiply(x, x, norm)
    np.multiply(y, y, s)
    np.add(norm, s, norm)
    np.sqrt(norm, norm)
    np.divide(x, norm, c)
    np.divide(y, norm, s)


def _cocycle_block(maps, steps, done, pts, norm, cumlog, buf):
    """a(k) of the steps done+1 .. done+len(steps) of the Jacobian cocycle,
    which apply the listed maps; see :func:`jacobian_cocycle_dist`.

    Step k maps the points pts[(k-1) % 2], a pair (c, s), and leaves its
    image, divided by its norm, in pts[k % 2]; the last step's image is
    divided only once the block is not refused.  cumlog, the sum of logs
    before the block, gains the block's only after that, so a block that
    raises leaves it as it was.
    """
    for j, i in enumerate(steps):
        if j:
            _onto_circle(x, y, *pts[(done + j) % 2], norm)
        x, y, d = maps[i].f_and_deriv(*pts[(done + j) % 2])
        buf[j] = d
    logs = buf[:len(steps)]
    rows = list(logs)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(logs, logs)
        np.add(rows[0], cumlog, rows[0])
        # the running sums, row by row in step order: each is the step
        # loop's bit for bit.  np.cumsum along the steps gives the same
        # bits, but took 2.3 µs a row of 512 against 1.1
        for prev, row in zip(rows, rows[1:]):
            np.add(prev, row, row)
        a = np.abs(logs).max(axis=1)
    bad = np.flatnonzero(~(a < math.inf))                   # nan fails too
    if bad.size:
        raise NotDiffeomorphismError(
            f"nonpositive or non-finite composed derivative at step {done + 1 + bad[0]}")
    _onto_circle(x, y, *pts[(done + len(steps)) % 2], norm)
    cumlog[:] = rows[-1]
    return a


def jacobian_cocycle_dist(driver: ErgodicDriver, n: int, grid: int):
    """Distance-from-identity cocycle in the sup-log-Jacobian metric, along
    the driver's trial 0.

    Driver elements are :class:`horoflow.spaces.CircleMap` objects composed
    as left increments; derivatives along the composition accumulate by the
    chain rule on the grid.  The grid is carried as points (c, s) of the
    circle, the cos and sin of its angles taken once, and every step's
    image is divided by its norm: one place for every map, without which
    the point nearest a repelling fixed point drifts off the circle and
    overflows.  A step whose derivative is somewhere zero, negative, nan
    or inf makes a(k) inf or nan (a sum of at most n logs of finite
    positive derivatives stays finite), and is refused.  Returns rows
    (k, a(k), a(k)/k).

    The steps run in blocks of about ``_BLOCK_VALUES`` derivative values
    (64 steps at grid 512).  A step only maps the points, keeps the
    derivative as a row of the block and divides the image by its norm;
    at the block's end one call each takes the logs of all rows, adds the
    sum before the block to the first, runs the sums down the rows and
    takes each row's largest modulus, with the same operations on each
    value as a step at a time.  The refusal is read there, and names the
    block's first step whose a(k) is not below inf.  So that the steps
    after it raise or warn nothing a step at a time would not, a block
    runs with every floating-point exception that numpy's current settings
    report raised (:func:`numpy.errstate`), and a block that raises
    anything runs again one step at a time under those settings, each
    step refused before its image is divided, as the step loop does.
    """
    if grid < 16:
        raise DegenerateInputError("grid must be >= 16")
    theta = np.linspace(0.0, _TWO_PI, grid, endpoint=False)
    both = np.empty((2, 2, grid))           # (c, s) before odd and even steps
    both[0] = np.cos(theta), np.sin(theta)
    pts = [tuple(p) for p in both]
    norm, cumlog = np.empty(grid), np.zeros(grid)
    width = max(_BLOCK_VALUES // grid, 1)
    buf = np.empty((min(width, n), grid))
    a = np.empty(n)
    maps, [idx] = driver.draw([0], n)
    reported = {k: "raise" for k, v in np.geterr().items() if v != "ignore"}
    for done in range(0, n, width):
        steps = idx[done:done + width].tolist()
        start = both[done % 2].copy()
        try:
            with np.errstate(**reported):
                a[done:done + len(steps)] = _cocycle_block(maps, steps, done, pts, norm,
                                                          cumlog, buf)
        except Exception:
            both[done % 2] = start
            for j, i in enumerate(steps):
                a[done + j] = _cocycle_block(maps, [i], done + j, pts, norm, cumlog, buf)[0]
    ks = np.arange(1, n + 1)
    return list(zip(range(1, n + 1), a.tolist(), (a / ks).tolist()))
