"""Lyapunov spectra of finite-dimensional invertible matrix cocycles.

The full spectrum is accumulated by the standard re-orthonormalized QR
scheme (no raw matrix product is ever formed); single-direction growth
rates use per-step renormalization, with every start vector and trial a
row on one leading axis; filtration structure is probed by clustering the
growth rates of a probe set under a constant matrix.
"""

from dataclasses import dataclass

import math

import numpy as np
import scipy.linalg

from .cocycle import ErgodicDriver, check_steps, screen_invertible, tail_checkpoints
from .core import DegenerateInputError


@dataclass(frozen=True)
class SpectrumEstimate:
    exponents: np.ndarray   # sorted descending, with multiplicity (length = dim)
    n: int
    resid: np.ndarray       # per-exponent running-mean drift over the last decade


@dataclass(frozen=True)
class FiltrationProbeReport:
    probes: list
    rates: np.ndarray
    clusters: list          # lists of probe indices, partitioning the probes


def qr_spectrum(driver: ErgodicDriver, dim: int, n: int, trial: int = 0) -> SpectrumEstimate:
    """All dim exponents of the cocycle by QR accumulation.

    At each step the new matrix is applied to the running orthonormal frame
    and re-factorized with the positive-diagonal convention; exponents are
    the time averages of log r_ii.  The stream is consumed as left
    increments (new matrix outermost), matching the operator convention.
    """
    if n < 10:
        raise DegenerateInputError("n must be >= 10")
    maps, [idx] = driver.draw([trial], n)
    mats = np.asarray(maps, dtype=float)
    screen_invertible(mats, idx)
    q = np.eye(dim)
    rdiag = np.empty((n, dim))
    # raw LAPACK factor/assemble keeps the per-step cost viable at n = 1e5
    geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (q,))
    for k, i in enumerate(idx.tolist()):
        packed, tau, _, _ = geqrf(mats[i] @ q, overwrite_a=True)
        rdiag[k] = np.diagonal(packed)
        qmat, _, _ = orgqr(packed, tau)
        q = np.where(rdiag[k] < 0.0, -qmat, qmat)
    check_steps(rdiag)
    # running sums of log r_ii; a checkpoint's snapshot is its row over k
    sums = np.cumsum(np.log(np.abs(rdiag)), axis=0)
    ks = np.array(tail_checkpoints(n))
    final = sums[-1] / n
    resid = np.max(np.abs(sums[ks - 1] / ks[:, None] - final), axis=0)
    order = np.argsort(-final)
    return SpectrumEstimate(exponents=final[order], n=n, resid=resid[order])


def vector_growth_rate(driver: ErgodicDriver, v, n: int, trial: int = 0) -> float:
    """(1/n) log ||A(n) v|| with per-step renormalization (no overflow).
    Unscreened: v outside a singular matrix's kernel has a valid rate."""
    if n < 1:
        raise DegenerateInputError("n must be >= 1")
    maps, idx = driver.draw([trial], n)
    return float(_growth_rates(maps, idx, [v], [n])[0, 0])


def _growth_rates(mats, idx, V, ks) -> np.ndarray:
    """(1/k) log ||A(k) v|| for each row at each ascending checkpoint k, all
    read off one renormalized run of ks[-1] steps per row.

    Row r starts at V[r], and its step i applies mats[idx[r, i]]; the rows
    run together on a leading axis.  Returns a (rows, len(ks)) array.  A
    step norm that is zero or past the double range is a rescaling fault.
    """
    mats = np.asarray(mats, dtype=float)
    dim = mats.shape[-1]
    try:
        V = np.asarray(V, dtype=float)
    except ValueError as e:     # rows of unequal lengths
        raise DegenerateInputError(f"probe vectors must have length {dim}") from e
    if V.ndim != 2 or V.shape[1] != dim:
        raise DegenerateInputError(f"probe vectors must have length {dim}")
    w = V[:, :, None]
    with np.errstate(over="ignore"):
        nv = np.sqrt(np.matmul(V[:, None, :], w))
    # a nan or inf entry makes the norm nan or inf
    if not np.all(np.isfinite(nv) & (nv > 0.0)):
        raise DegenerateInputError("probe vector norm must be finite and nonzero")
    w = w / nv
    steps = np.asarray(idx).T
    norms = np.empty(steps.shape)
    with np.errstate(all="ignore"):
        for i, col in enumerate(steps):
            w = np.matmul(mats[col], w)
            s = np.sqrt(np.matmul(w.transpose(0, 2, 1), w))
            norms[i] = s[:, 0, 0]
            w = w / s
    check_steps(norms)
    # math.log, not np.log: numpy's SIMD log can differ in the last bit.
    # The norms are read one at a time, not as a list, which would hold a
    # Python float for every step of every row.  The running sums add in
    # step order, as a scalar loop would, and overwrite the norms.
    logs = np.fromiter(map(math.log, norms.flat), dtype=float, count=norms.size)
    sums = np.cumsum(logs.reshape(norms.shape), axis=0, out=norms)
    ks = np.asarray(ks)
    return (sums[ks - 1] / ks[:, None]).T


def filtration_probe(A, probes, n: int, cluster_tol: float = None) -> FiltrationProbeReport:
    """Growth rates of probe vectors under the constant cocycle A^n.

    Probes whose rates differ by less than cluster_tol are grouped; the
    default tolerance is 10x the observed tail drift of the rates (with a
    1e-9 floor), since exact filtrations must be resolved at the available
    numerical resolution.
    """
    if len(probes) == 0:
        raise DegenerateInputError("probes must be nonempty")
    if n < 100:
        raise DegenerateInputError("n must be >= 100")
    A = np.asarray(A, dtype=float)
    screen_invertible(A[None], [0])
    # every probe is a row of one run; its n // 2 rate is a checkpoint of it
    idx = np.broadcast_to(np.intp(0), (len(probes), n))
    half, rates = _growth_rates(A[None], idx, probes, [n // 2, n]).T
    if cluster_tol is None:
        spread = float(np.max(np.abs(rates - half)))
        cluster_tol = max(10.0 * spread, 1e-9)
    order = np.argsort(rates)
    clusters = []
    current = [int(order[0])]
    for prev, idx in zip(order, order[1:]):
        if rates[idx] - rates[prev] < cluster_tol:
            current.append(int(idx))
        else:
            clusters.append(current)
            current = [int(idx)]
    clusters.append(current)
    return FiltrationProbeReport(probes=list(probes), rates=rates, clusters=clusters)
