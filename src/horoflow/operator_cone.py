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

import math

import numpy as np

from .cocycle import (DegenerateInputError, ErgodicDriver, LyapunovEstimate,
                      _checkpoint_products, _drawn, checkpoint_list, summarize_trials,
                      tail_checkpoints)
from .spaces import sym_part


class SymmetryError(ValueError):
    """Input matrix is not symmetric within tolerance."""


class ConsistencyError(RuntimeError):
    """Forward and inverse tracks disagree beyond the reconstruction budget."""


def _fold(driver: ErgodicDriver, n: int, trials, checkpoints) -> tuple:
    """(forward, log_scale, inverse, inv_log_scale, k) of the first n
    matrices of each listed trial, folded at once.

    Each is a stack with leading axes (checkpoint, trial), checkpoints
    sorted and distinct: forward and inverse are the scaled tracks of
    v(k) and v(k)^{-1}, each with largest entry modulus in [1/2, 1),
    log_scale and inv_log_scale their logs of scale, and k the checkpoint
    of each row.  The trials share the driver's drawn stack of matrices
    (see :meth:`ErgodicDriver.draw`), so each distinct drawn matrix is
    screened and inverted once (:func:`horoflow.cocycle._drawn`).

    Both tracks are one :func:`horoflow.cocycle._checkpoint_products`
    pass from exact leaves (lo zero), later factors on the right: the
    inverse track is M_1^{-1} ... M_k^{-1}, and the forward track is read
    as the transpose of M_1^T ... M_k^T = (M_k ... M_1)^T.  The leaves
    are the stack [M^T; M^{-1}] and the inverse track's trials follow the
    forward track's, their codes offset by the m drawn matrices.  The
    transpose keeps every bit: each entry of a product of transposes is
    the entry of the product in the other order, the same products in the
    same order of summation with the factors of each product swapped.
    The two lo products of a pair commute, and Dekker's product is
    symmetric in its factors wherever its error term is exact, that is,
    where no product of the factors' halves is subnormal (where one is,
    tests/test_operator_cone.py finds the tracks equal too).  Scaling by
    the largest entry modulus does not see the transpose.
    """
    maps, idx = driver.draw(trials, n)
    mats, invs, idx = _drawn(np.asarray(maps, dtype=float), idx)
    ks = sorted(set(checkpoints))
    leaves = np.concatenate([mats.swapaxes(-1, -2), invs])
    _, p, logs = _checkpoint_products((leaves, np.zeros(leaves.shape)),
                                      np.concatenate([idx, idx + len(mats)]), ks)
    t = len(idx)
    f, lf = np.ascontiguousarray(p[:, :t].swapaxes(-1, -2)), logs[:, :t]
    return f, lf, p[:, t:], logs[:, t:], np.broadcast_to(np.array(ks)[:, None], lf.shape)


def squared_positive_part_lognorm(forward, log_scale, inverse, inv_log_scale, k):
    """||log(v^T v)|| of each row of the track stacks (see :func:`_fold`),
    computed as 2 max(log sigma_max(v), log sigma_max(v^{-1})).

    A row with k <= 50 whose scale e^s, s = log_scale + inv_log_scale < 300,
    keeps v v^{-1} representable is refused when that product is further
    than 1e-6 e^s from I (Frobenius norm).
    """
    s = np.ravel(log_scale + inv_log_scale)
    rows = np.flatnonzero((np.ravel(k) <= 50) & (s < 300.0))
    d = np.shape(forward)[-1]
    f, g = (np.reshape(x, (-1, d, d))[rows] for x in (forward, inverse))
    scale = np.exp(s[rows])[:, None, None]
    defect = np.linalg.norm(scale * f @ g - np.eye(d), axis=(-2, -1))
    bad = np.flatnonzero(defect > 1e-6 * scale[:, 0, 0])
    if bad.size:
        raise ConsistencyError(f"track reconstruction defect {defect[bad[0]]:.3e}")
    top = np.linalg.svd(np.stack([forward, inverse]), compute_uv=False)[..., 0]
    logs = np.reshape([math.log(x) for x in top.ravel().tolist()], top.shape)
    return 2.0 * np.maximum(log_scale + logs[0], inv_log_scale + logs[1])


def log_squared_positive_part(forward, log_scale, inverse, inv_log_scale, k) -> np.ndarray:
    """log(v^T v) of each row of the track stacks (see :func:`_fold`), as a
    symmetric matrix: sum of 2 log s_i r_i r_i^T over the singular values
    s_i and right singular vectors r_i of v.

    Each pair is read from the track where it is largest relative to the
    track's top singular value: the forward track F = v e^{-log_scale}
    holds the large s_i, and the inverse track G = v^{-1} e^{-inv_log_scale},
    whose left singular vectors are the r_i with singular values 1/s_i,
    holds the small ones, which a long product rounds away in F.  For
    d > 2 a long product can round the middle singular values away in both.
    k is not read; it is taken so that both readers unpack the same stacks.
    """
    _, sf, rf = np.linalg.svd(forward)
    ri, si, _ = np.linalg.svd(inverse)
    # both in the order of s_i, descending
    si, ri = si[..., ::-1], ri[..., ::-1].swapaxes(-1, -2)
    from_fwd = sf / sf[..., :1] >= si / si[..., -1:]
    # the log of each chosen value only: the other may be 0
    s = np.log(np.where(from_fwd, sf, si))
    logs = np.where(from_fwd, np.expand_dims(log_scale, -1) + s,
                    -(np.expand_dims(inv_log_scale, -1) + s))
    r = np.where(from_fwd[..., None], rf, ri)
    return sym_part((r.swapaxes(-1, -2) * (2.0 * logs)[..., None, :]) @ r)


def tau_estimate(driver: ErgodicDriver, n: int, trials: int) -> LyapunovEstimate:
    """Per-trial (1/n) ||log(v(n)^T v(n))||, averaged across seeded trials."""
    if n < 10 or trials < 1:
        raise DegenerateInputError("need n >= 10 and trials >= 1")
    tail_ks = tail_checkpoints(n)
    tracks = _fold(driver, n, range(trials), tail_ks)
    per_trial = squared_positive_part_lognorm(*(x[-1] for x in tracks)) / n
    tail = squared_positive_part_lognorm(*(x[:, 0] for x in tracks)) / tail_ks
    return summarize_trials(per_trial, tail_ks, tail)


# largest skew entry of a symmetric input, relative to max(1, its largest entry)
_SYMMETRY_TOL = 1e-9


def _check_symmetric(y) -> np.ndarray:
    """y symmetrized, after checking each matrix of a (..., d, d) stack
    against its own tolerance."""
    y = np.asarray(y, dtype=float)
    skew = np.max(np.abs(y - y.swapaxes(-1, -2)), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(y), axis=(-2, -1)))
    if np.any(skew > _SYMMETRY_TOL * scale):
        raise SymmetryError("input matrix is not symmetric")
    return sym_part(y)


def extract_vector_state(y) -> np.ndarray:
    """The unit eigenvector xi of a symmetric y with |(y xi, xi)| = ||y||.

    Tie-break among eigenvalues: modulus descending, then value descending,
    then index; the sign of xi is fixed by making its first nonzero
    component positive.
    """
    y = _check_symmetric(y)
    w, v = np.linalg.eigh(y)
    idx = sorted(range(len(w)), key=lambda i: (-abs(w[i]), -w[i], i))
    xi = v[:, idx[0]].copy()
    nz = np.flatnonzero(np.abs(xi) > 1e-12)
    if nz.size and xi[nz[0]] < 0.0:
        xi = -xi
    return xi


def state_ratio_check(driver: ErgodicDriver, N: int, checkpoints, trial: int = 0):
    """Vector-state ratios |(y_l xi_N, xi_N)| / l against tau_hat = ||y_N||/N.

    xi_N is extracted from y_N = log(v(N)^T v(N)); returns a list of rows
    (l, ratio, tau_hat).  For constant diagonal drivers the ratio equals
    tau_hat exactly at every l; in general the table is a report.
    """
    checkpoints = checkpoint_list(checkpoints, N)
    # checkpoint rows of the trial; N is the last, and the checkpoints the first
    tracks = [x[:, 0] for x in _fold(driver, N, [trial], checkpoints + [N])]
    y = log_squared_positive_part(*tracks)
    tau_hat = float(squared_positive_part_lognorm(*(x[-1] for x in tracks))) / N
    xi = extract_vector_state(y[-1])
    ratios = np.abs(np.vecdot(xi @ y[:len(checkpoints)], xi)) / checkpoints
    return list(zip(checkpoints, ratios.tolist(), [tau_hat] * len(checkpoints)))


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
