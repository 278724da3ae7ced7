"""Matrix products in the positive-definite cone.

Long left-increment products v(n) are carried as two unit-spectral-norm
tracks (forward and inverse) with extracted log scales, so both extreme
log singular values stay available without overflow.  From these the
exponent tau = lim (1/n) ||log(v(n)^T v(n))|| is estimated, near-maximizing
vector states are extracted, and the exponential-map inequality
||exp(u+v)|| <= ||exp(u/2) exp(v) exp(u/2)|| is checked by two independent
matrix-exponential paths.
"""

from dataclasses import dataclass

import math

import numpy as np
import scipy.linalg

from .cocycle import (DegenerateInputError, ErgodicDriver, LyapunovEstimate,
                      checkpoint_list, element_stack, geometric_checkpoints,
                      _tail_slope)
from .spaces import sym_part


class SymmetryError(ValueError):
    """Input matrix is not symmetric within tolerance."""


class ConsistencyError(RuntimeError):
    """Forward and inverse tracks disagree beyond the reconstruction budget."""


@dataclass(frozen=True)
class ScaledProduct:
    forward: np.ndarray     # unit spectral norm
    log_scale: float
    inverse: np.ndarray     # unit spectral norm
    inv_log_scale: float
    n: int

    @property
    def dim(self) -> int:
        return self.forward.shape[0]

    def reconstruction_defect(self) -> float:
        """|| v(n) v(n)^{-1} - I ||, only meaningful while representable."""
        scale = math.exp(self.log_scale + self.inv_log_scale)
        return float(np.linalg.norm(scale * self.forward @ self.inverse - np.eye(self.dim)))


@dataclass(frozen=True)
class StateReport:
    xi: np.ndarray
    achieved: float
    norm_y: float
    eps: float
    s_flag: int = 1   # finite truncation forces the pure vector-state case


def _spec_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def accumulate_product(driver: ErgodicDriver, n: int, trial: int = 0) -> ScaledProduct:
    """Left-increment product v(n) with per-step spectral-norm extraction."""
    if n < 1:
        raise DegenerateInputError("n must be >= 1")
    return _fold(driver, n, [trial], [n])[n][0]


def _fold(driver: ErgodicDriver, n: int, trials, checkpoints) -> dict:
    """:func:`_accumulate` over the first n matrices of each listed trial."""
    return _accumulate(*element_stack(driver, trials, n), checkpoints)


def _accumulate(mats, idx, checkpoints) -> dict:
    """Fold all trials' products at once; {k: [ScaledProduct of each trial]}.

    ``mats`` is an (m, d, d) stack and row t of the (trials, n) array
    ``idx`` lists the stack positions trial t multiplies in step order.
    Each distinct matrix is checked and inverted once.  The forward and
    inverse tracks of every trial share one (2, trials, d, d) array, and
    each step divides every track by its spectral norm.
    """
    used = np.unique(idx)
    if np.any(np.abs(np.linalg.det(mats[used])) <= 1e-12):
        raise DegenerateInputError("singular step matrix")
    invs = np.empty_like(mats)
    invs[used] = np.linalg.inv(mats[used])
    trials, n = idx.shape
    dim = mats.shape[-1]
    tracks = np.empty((2, trials, dim, dim))
    tracks[:] = np.eye(dim)
    # log scales, forward tracks first; summed with math.log one element at
    # a time, since numpy's vectorized log may differ from libm in the last bit
    scales = [0.0] * (2 * trials)
    want = set(checkpoints)
    snaps = {}
    for k in range(1, n + 1):
        step = idx[:, k - 1]
        tracks[0] = mats.take(step, axis=0) @ tracks[0]
        tracks[1] = tracks[1] @ invs.take(step, axis=0)
        s = np.linalg.svd(tracks, compute_uv=False)[..., 0]
        tracks /= s[..., None, None]
        scales = [a + math.log(b) for a, b in zip(scales, s.ravel().tolist())]
        if k in want:
            snaps[k] = [ScaledProduct(forward=tracks[0, t].copy(),
                                      log_scale=scales[t],
                                      inverse=tracks[1, t].copy(),
                                      inv_log_scale=scales[trials + t], n=k)
                        for t in range(trials)]
    return snaps


def squared_positive_part_lognorm(p: ScaledProduct) -> float:
    """||log(v^T v)|| computed as 2 max(log sigma_max(v), log sigma_max(v^{-1}))."""
    if p.n <= 50 and p.log_scale + p.inv_log_scale < 300.0:
        defect = p.reconstruction_defect()
        if defect > 1e-6 * math.exp(min(p.log_scale + p.inv_log_scale, 300.0)):
            raise ConsistencyError(f"track reconstruction defect {defect:.3e}")
    lf = p.log_scale + math.log(_spec_norm(p.forward))
    li = p.inv_log_scale + math.log(_spec_norm(p.inverse))
    return 2.0 * max(lf, li)


def log_squared_positive_part(p: ScaledProduct) -> np.ndarray:
    """log(v^T v) as a symmetric matrix: 2*log_scale*I + log(F^T F).

    Representable whenever the normalized track F^T F is itself not too
    ill-conditioned (long products concentrate rank, so use with moderate n).
    """
    m = sym_part(p.forward.T @ p.forward)
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, 1e-300)
    return (v * (np.log(w) + 2.0 * p.log_scale)) @ v.T


def tau_estimate(driver: ErgodicDriver, n: int, trials: int) -> LyapunovEstimate:
    """Per-trial (1/n) ||log(v(n)^T v(n))||, averaged across seeded trials."""
    if n < 10 or trials < 1:
        raise DegenerateInputError("need n >= 10 and trials >= 1")
    tail_ks = geometric_checkpoints(n, count=8, start=max(1, n // 10))
    snaps = _fold(driver, n, range(trials), tail_ks)
    per_trial = np.array([squared_positive_part_lognorm(p) / n for p in snaps[n]])
    tail_vals = np.array([squared_positive_part_lognorm(snaps[k][0]) / k
                          for k in tail_ks])
    lam = float(np.mean(per_trial))
    se = float(np.std(per_trial, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    slope = _tail_slope(np.asarray(tail_ks, dtype=float), tail_vals)
    return LyapunovEstimate(lambda_hat=lam, n=n, trials=trials,
                            per_trial=per_trial, std_error=se, tail_slope=slope)


def _check_symmetric(y, tol: float = 1e-9) -> np.ndarray:
    """y symmetrized, after checking each matrix of a (..., d, d) stack
    against its own tolerance."""
    y = np.asarray(y, dtype=float)
    skew = np.max(np.abs(y - y.swapaxes(-1, -2)), axis=(-2, -1))
    if np.any(skew > tol * np.maximum(1.0, np.max(np.abs(y), axis=(-2, -1)))):
        raise SymmetryError("input matrix is not symmetric")
    return sym_part(y)


def extract_vector_state(y, eps: float) -> StateReport:
    """Unit eigenvector xi of a symmetric y with |(y xi, xi)| = ||y||.

    Tie-break among eigenvalues: modulus descending, then value descending,
    then index; the sign of xi is fixed by making its first nonzero
    component positive.
    """
    if eps <= 0.0:
        raise DegenerateInputError("eps must be > 0")
    y = _check_symmetric(y)
    w, v = np.linalg.eigh(y)
    idx = sorted(range(len(w)), key=lambda i: (-abs(w[i]), -w[i], i))
    best = idx[0]
    xi = v[:, best].copy()
    nz = np.flatnonzero(np.abs(xi) > 1e-12)
    if nz.size and xi[nz[0]] < 0.0:
        xi = -xi
    achieved = abs(float(w[best]))
    return StateReport(xi=xi, achieved=achieved, norm_y=float(np.max(np.abs(w))),
                       eps=eps)


def state_ratio_check(driver: ErgodicDriver, N: int, checkpoints, trial: int = 0):
    """Vector-state ratios |(y_l xi_N, xi_N)| / l against tau_hat = ||y_N||/N.

    xi_N is extracted from y_N = log(v(N)^T v(N)); returns a list of rows
    (l, ratio, tau_hat).  For constant diagonal drivers the ratio equals
    tau_hat exactly at every l; in general the table is a report.
    """
    checkpoints = checkpoint_list(checkpoints, N)
    ks = sorted(set(checkpoints + [N]))
    snaps = {k: ps[0] for k, ps in _fold(driver, N, [trial], ks).items()}
    y_N = log_squared_positive_part(snaps[N])
    tau_hat = squared_positive_part_lognorm(snaps[N]) / N
    xi = extract_vector_state(y_N, eps=1e-9).xi
    rows = []
    for l in checkpoints:
        y_l = log_squared_positive_part(snaps[l])
        rows.append((l, abs(float(xi @ y_l @ xi)) / l, tau_hat))
    return rows


def expm_symmetric(u) -> np.ndarray:
    """exp of a symmetric matrix, or of each matrix of a (..., d, d) stack,
    via eigendecomposition (cross-check path)."""
    u = _check_symmetric(u)
    w, v = np.linalg.eigh(u)
    return (v * np.exp(w)[..., None, :]) @ v.swapaxes(-1, -2)


def segal_check(u, v):
    """(||exp(u+v)||, ||exp(u/2) exp(v) exp(u/2)||), both spectral norms.

    u and v are symmetric matrices or (..., d, d) stacks of them; a stack
    gives one pair of norms per matrix pair.  Every exponential of the
    stack comes from one scaling-and-squaring call; :func:`expm_symmetric`
    provides the independent path for trust checks.  Raises
    DegenerateInputError when an exponential overflows.
    """
    u = _check_symmetric(u)
    v = _check_symmetric(v)
    if u.shape != v.shape:
        raise DegenerateInputError("dimension mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        e_sum, eu2, ev = scipy.linalg.expm(np.stack([u + v, 0.5 * u, v]))
        e = np.stack([e_sum, eu2 @ ev @ eu2])
    if not np.all(np.isfinite(e)):
        raise DegenerateInputError(
            "matrix exponential overflows: the scale of u and v is too large")
    lhs, rhs = np.linalg.svd(e, compute_uv=False).max(axis=-1)
    return lhs, rhs
