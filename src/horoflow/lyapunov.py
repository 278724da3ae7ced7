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

from .cocycle import (_PRODUCT_BLOCK, ErgodicDriver, check_steps, screen_invertible,
                      tail_checkpoints)
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
    and re-factorized; exponents are the time averages of log |r_ii|.  The
    frame's column signs are left as LAPACK returns them, because |r_ii|
    does not depend on them.  The stream is consumed as left
    increments (new matrix outermost), matching the operator convention.
    Each block of ``_PRODUCT_BLOCK`` steps is checked for a rescaling
    fault as it completes, so a fault ends the run within one block.
    """
    import scipy.linalg     # at first use: most experiments never load scipy
    if n < 10:
        raise DegenerateInputError("n must be >= 10")
    maps, [idx] = driver.draw([trial], n)
    mats = np.asarray(maps, dtype=float)
    screen_invertible(mats, idx)
    q = np.eye(dim)
    rdiag = np.empty((n, dim))
    # raw LAPACK factor/assemble keeps the per-step cost viable at n = 1e5
    geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (q,))
    steps = idx.tolist()
    views = list(mats)      # a list lookup a step, not an array index
    for start in range(0, n, _PRODUCT_BLOCK):
        for k in range(start, min(start + _PRODUCT_BLOCK, n)):
            packed, tau, _, _ = geqrf(views[steps[k]] @ q, overwrite_a=True)
            rdiag[k] = packed.diagonal()
            q, _, _ = orgqr(packed, tau, overwrite_a=True)
        check_steps(rdiag[start:k + 1], start + 1)
    # running sums of log r_ii; a checkpoint's snapshot is its row over k
    sums = np.cumsum(np.log(np.abs(rdiag)), axis=0)
    ks = np.array(tail_checkpoints(n))
    final = sums[-1] / n
    resid = np.max(np.abs(sums[ks - 1] / ks[:, None] - final), axis=0)
    order = np.argsort(-final)
    return SpectrumEstimate(exponents=final[order], n=n, resid=resid[order])


def _growth_rates(mats, idx, V, ks) -> np.ndarray:
    """(1/k) log ||A(k) v|| for each row at each ascending checkpoint k, all
    read off one renormalized run of ks[-1] steps per row.

    Row r starts at V[r], and its step i applies mats[idx[r, i]]; the rows
    run together on a leading axis.  idx may instead be a single row, whose
    step i then applies to every row.  Returns a (rows, len(ks)) array.

    The steps are gathered in blocks that keep each gather within
    ``_PRODUCT_BLOCK`` matrices, so a shared idx row gathers
    ``_PRODUCT_BLOCK`` steps at once.  A step norm that is zero or past the
    double range is a rescaling fault, raised when its block completes.
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
    n = len(steps)
    norms = np.empty((n, len(V)))
    # every step writes into the same buffers: u = A w, then its squared
    # norm into the step's row of norms, then the sqrt, then w = u / norm
    u = np.empty_like(w)
    u_t = u.transpose(0, 2, 1)
    step_norms = norms.reshape(n, len(V), 1, 1)
    width = max(_PRODUCT_BLOCK // steps.shape[1], 1)
    with np.errstate(all="ignore"):
        for start in range(0, n, width):
            stop = min(start + width, n)
            for a, s in zip(mats[steps[start:stop]], step_norms[start:stop]):
                np.matmul(a, w, out=u)
                np.matmul(u_t, u, out=s)
                np.sqrt(s, out=s)
                np.divide(u, s, out=w)
            check_steps(norms[start:stop], start + 1)
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
    # every probe is a row of one run, all rows sharing one idx row; a
    # probe's n // 2 rate is a checkpoint of its row
    idx = np.zeros((1, n), dtype=np.intp)
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
