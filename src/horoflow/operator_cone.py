"""Matrix products in the positive-definite cone.

Long left-increment products v(n) are carried as two tracks (forward and
inverse), each formed by pairwise reduction and scaled by a power of two
to largest entry modulus in [1/2, 1) with extracted log scales, so both
extreme log singular values stay available without overflow.  From these the
exponent tau = lim (1/n) ||log(v(n)^T v(n))|| is estimated, near-maximizing
vector states are extracted, and the exponential-map inequality
||exp(u+v)|| <= ||exp(u/2) exp(v) exp(u/2)|| is checked by two independent
matrix-exponential paths.
"""

from dataclasses import dataclass

import math

import numpy as np

from .cocycle import (DegenerateInputError, ErgodicDriver, LyapunovEstimate,
                      chain_product, checkpoint_list, pairwise_product,
                      scaled_matrices, screen_invertible, summarize_trials,
                      tail_checkpoints)
from .spaces import sym_part


class SymmetryError(ValueError):
    """Input matrix is not symmetric within tolerance."""


class ConsistencyError(RuntimeError):
    """Forward and inverse tracks disagree beyond the reconstruction budget."""


@dataclass(frozen=True)
class ScaledProduct:
    forward: np.ndarray     # largest entry modulus in [1/2, 1)
    log_scale: float
    inverse: np.ndarray     # largest entry modulus in [1/2, 1)
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


def _spec_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def _fold(driver: ErgodicDriver, n: int, trials, checkpoints) -> dict:
    """Fold the first n matrices of each listed trial at once;
    {k: [ScaledProduct of each trial]}.

    The trials share the driver's drawn stack of matrices (see
    :meth:`ErgodicDriver.draw`), so each distinct matrix is screened and
    inverted once.  Each segment between consecutive sorted checkpoints is
    formed by :func:`horoflow.cocycle.pairwise_product` in double-double
    arithmetic, the forward track with later factors on the left and the
    inverse track with them on the right; the segments are then chained in
    order.
    """
    maps, idx = driver.draw(trials, n)
    mats = np.asarray(maps, dtype=float)
    invs = screen_invertible(mats, idx)
    bounds = [0] + sorted(set(checkpoints))
    snaps = {}
    fwd = inv = None
    for b, c in zip(bounds, bounds[1:]):
        seg, iseg = (pairwise_product(mats, idx[:, b:c], later_left=True),
                     pairwise_product(invs, idx[:, b:c]))
        fwd = seg if fwd is None else chain_product(fwd, seg, later_left=True)
        inv = iseg if inv is None else chain_product(inv, iseg)
        (f, lf), (g, lg) = scaled_matrices(fwd), scaled_matrices(inv)
        snaps[c] = [ScaledProduct(forward=f[t], log_scale=float(lf[t]),
                                  inverse=g[t], inv_log_scale=float(lg[t]), n=c)
                    for t in range(idx.shape[0])]
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
    """log(v^T v) as a symmetric matrix: sum of 2 log s_i r_i r_i^T over
    the singular values s_i and right singular vectors r_i of v.

    Each pair is read from the track where it is largest relative to the
    track's top singular value: the forward track F = v e^{-log_scale}
    holds the large s_i, and the inverse track G = v^{-1} e^{-inv_log_scale},
    whose left singular vectors are the r_i with singular values 1/s_i,
    holds the small ones, which a long product rounds away in F.  For
    d > 2 a long product can round the middle singular values away in both.
    """
    _, sf, rf = np.linalg.svd(p.forward)
    ri, si, _ = np.linalg.svd(p.inverse)
    # both in the order of s_i, descending
    si, ri = si[::-1], ri[:, ::-1].T
    from_fwd = sf / sf[0] >= si / si[-1]
    logs = np.empty_like(sf)
    logs[from_fwd] = p.log_scale + np.log(sf[from_fwd])
    logs[~from_fwd] = -(p.inv_log_scale + np.log(si[~from_fwd]))
    r = np.where(from_fwd[:, None], rf, ri)
    return sym_part((r.T * (2.0 * logs)) @ r)


def tau_estimate(driver: ErgodicDriver, n: int, trials: int) -> LyapunovEstimate:
    """Per-trial (1/n) ||log(v(n)^T v(n))||, averaged across seeded trials."""
    if n < 10 or trials < 1:
        raise DegenerateInputError("need n >= 10 and trials >= 1")
    tail_ks = tail_checkpoints(n)
    snaps = _fold(driver, n, range(trials), tail_ks)
    per_trial = np.array([squared_positive_part_lognorm(p) / n for p in snaps[n]])
    tail_vals = np.array([squared_positive_part_lognorm(snaps[k][0]) / k
                          for k in tail_ks])
    return summarize_trials(per_trial, tail_ks, tail_vals, n)


def _check_symmetric(y, tol: float = 1e-9) -> np.ndarray:
    """y symmetrized, after checking each matrix of a (..., d, d) stack
    against its own tolerance."""
    y = np.asarray(y, dtype=float)
    skew = np.max(np.abs(y - y.swapaxes(-1, -2)), axis=(-2, -1))
    if np.any(skew > tol * np.maximum(1.0, np.max(np.abs(y), axis=(-2, -1)))):
        raise SymmetryError("input matrix is not symmetric")
    return sym_part(y)


def extract_vector_state(y) -> StateReport:
    """Unit eigenvector xi of a symmetric y with |(y xi, xi)| = ||y||.

    Tie-break among eigenvalues: modulus descending, then value descending,
    then index; the sign of xi is fixed by making its first nonzero
    component positive.
    """
    y = _check_symmetric(y)
    w, v = np.linalg.eigh(y)
    idx = sorted(range(len(w)), key=lambda i: (-abs(w[i]), -w[i], i))
    best = idx[0]
    xi = v[:, best].copy()
    nz = np.flatnonzero(np.abs(xi) > 1e-12)
    if nz.size and xi[nz[0]] < 0.0:
        xi = -xi
    achieved = abs(float(w[best]))
    return StateReport(xi=xi, achieved=achieved)


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
    xi = extract_vector_state(y_N).xi
    rows = []
    for l in checkpoints:
        y_l = log_squared_positive_part(snaps[l])
        rows.append((l, abs(float(xi @ y_l @ xi)) / l, tau_hat))
    return rows


def _exp_eig(w, q) -> np.ndarray:
    """exp of the symmetric matrices with eigenvalues w and orthonormal
    eigenvectors q (the columns of each matrix of q)."""
    return (q * np.exp(w)[..., None, :]) @ q.swapaxes(-1, -2)


def expm_symmetric(u) -> np.ndarray:
    """exp of a symmetric matrix, or of each matrix of a (..., d, d) stack,
    as q exp(w) q^T from one stacked eigendecomposition.

    This is the path :func:`segal_check` takes; :func:`expm_taylor`, which
    shares no step with it, is its cross-check.
    """
    return _exp_eig(*np.linalg.eigh(_check_symmetric(u)))


# Taylor degree of expm_taylor: for ||a||_1 < 1 the first omitted term is
# below 1/19! ~ 8e-18, under half an ulp of the identity term
_TAYLOR_DEGREE = 18


def expm_taylor(a) -> np.ndarray:
    """exp of a matrix, or of each matrix of a (..., d, d) stack, by Taylor
    scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).

    Each matrix is scaled by 2^-s, with s from the exponent of its 1-norm so
    that the scaled norm is below 1 (np.ldexp, exact), put through the
    degree-18 Taylor polynomial in Horner form and squared s times.  It uses
    no eigendecomposition, so it checks :func:`expm_symmetric`
    independently.
    """
    a = np.asarray(a, dtype=float)
    _, s = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1))
    s = np.maximum(s, 0)
    a = np.ldexp(a, -s[..., None, None])
    eye = np.eye(a.shape[-1])
    e = eye + a / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        e = eye + (a @ e) / k
    for i in range(int(np.max(s, initial=0))):
        e = np.where((s > i)[..., None, None], e @ e, e)
    return e


def segal_check(u, v):
    """(||exp(u+v)||, ||exp(u/2) exp(v) exp(u/2)||, exp(u+v)): both norms
    spectral, and the exponential from the eigendecomposition that gives
    the first.

    u and v are symmetric matrices or (..., d, d) stacks of them; a stack
    gives one pair of norms and one exponential per matrix pair.  The left
    side is exp of the top eigenvalue of u+v, from one stacked
    eigendecomposition; the right side is the top eigenvalue of the
    positive-definite product exp(u/2) exp(v) exp(u/2), with both factors
    from :func:`expm_symmetric`.  Raises DegenerateInputError when an
    exponential overflows.
    """
    u = _check_symmetric(u)
    v = _check_symmetric(v)
    if u.shape != v.shape:
        raise DegenerateInputError("dimension mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        w, q = np.linalg.eigh(u + v)
        e_sum = _exp_eig(w, q)
        eu2, ev = expm_symmetric(np.stack([0.5 * u, v]))
        p = eu2 @ ev @ eu2
    if not (np.all(np.isfinite(e_sum)) and np.all(np.isfinite(p))):
        raise DegenerateInputError(
            "matrix exponential overflows: the scale of u and v is too large")
    return np.exp(w[..., -1]), np.linalg.eigvalsh(p)[..., -1], e_sum
