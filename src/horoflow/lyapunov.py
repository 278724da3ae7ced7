"""Lyapunov spectra of finite-dimensional invertible matrix cocycles.

The full spectrum is accumulated by the standard re-orthonormalized QR
scheme (no raw matrix product is ever formed); single-direction growth
rates run every start vector and trial as a row on one leading axis,
rescaled by an exact power of two once a block of steps; filtration
structure is probed by clustering the growth rates of a probe set under a
constant matrix.
"""

from dataclasses import dataclass

import math

import numpy as np

from .cocycle import (_PRODUCT_BLOCK, ErgodicDriver, check_steps, screen_invertible,
                      tail_checkpoints)
from .core import DegenerateInputError

_LOG2 = math.log(2.0)


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


def _rescale(w):
    """Scale each row of the (rows, d, 1) stack w in place by the power of
    two that puts its largest modulus in [0.5, 1).  Returns the (rows,)
    largest moduli before the scaling and the exponents taken out; a row
    whose largest modulus is zero or not finite keeps its entries, with
    exponent 0."""
    top = np.max(np.abs(w), axis=(1, 2))
    exps = np.frexp(top)[1]
    np.ldexp(w, -exps[:, None, None], out=w)
    return top, exps


def _growth_rates(mats, idx, V, ks) -> np.ndarray:
    """(1/k) log ||A(k) v|| for each row at each ascending checkpoint k, all
    read off one run of ks[-1] steps per row.

    Row r starts at V[r], and its step i applies mats[idx[r, i]]; the rows
    run together on a leading axis.  idx may instead be a single row, whose
    step i then applies to every row.  Returns a (rows, len(ks)) array.

    Each step is one stacked matmul.  The rows are rescaled only at the end
    of a block of steps, by the power of two that puts a row's largest
    modulus in [0.5, 1), and the exponents taken out are summed exactly as
    integers; power-of-two scaling is exact, so where a block ends moves no
    bit.  A block is short enough that no row can overflow or reach the
    subnormals inside it: its width times log2 of the largest infinity
    norm of a drawn matrix or of its inverse is at most 960.  Blocks also
    end at every checkpoint, where the rate is (log ||w|| - log ||w_0|| +
    E log 2) / k from the rescaled row w, the rescaled start w_0 and the
    exponent sum E.  A gather stays within ``_PRODUCT_BLOCK`` matrices.  A
    row whose largest modulus is zero or past the double range at a block
    end is a rescaling fault at the block's last step.  Only a block of one
    step can fault (a matrix whose norm, or whose inverse's, is past 2^960
    makes every block one step long), so the step named is exact.
    """
    mats = np.asarray(mats, dtype=float)
    dim = mats.shape[-1]
    try:
        V = np.asarray(V, dtype=float)
    except ValueError as e:     # rows of unequal lengths
        raise DegenerateInputError(f"probe vectors must have length {dim}") from e
    if V.ndim != 2 or V.shape[1] != dim:
        raise DegenerateInputError(f"probe vectors must have length {dim}")
    w = V[:, :, None].copy()
    top, _ = _rescale(w)
    if not np.all(np.isfinite(top) & (top > 0.0)):
        raise DegenerateInputError("probe vectors must be finite and nonzero")
    invs = screen_invertible(mats, idx)
    drawn = ~np.isnan(invs[:, 0, 0])    # an undrawn matrix's inverse is nan
    with np.errstate(over="ignore"):
        bound = max(float(np.abs(mats[drawn]).sum(axis=-1).max()),
                    float(np.abs(invs[drawn]).sum(axis=-1).max()), 2.0)
    steps = np.asarray(idx).T
    width = min(max(int(960 // math.log2(bound)), 1),
                max(_PRODUCT_BLOCK // steps.shape[1], 1))
    rows = len(V)
    # math.log, not np.log: numpy's SIMD log can differ in the last bit
    logs0 = [math.log(math.hypot(*row)) for row in w[:, :, 0].tolist()]
    total = np.zeros(rows, dtype=np.int64)
    rates = np.empty((rows, len(ks)))
    # every step writes into the other buffer, then the two swap
    u = np.empty_like(w)
    start = 0
    with np.errstate(all="ignore"):
        for j, k in enumerate(ks):
            while start < k:
                stop = min(start + width, k)
                for a in mats[steps[start:stop]]:
                    np.matmul(a, w, out=u)
                    w, u = u, w
                top, exps = _rescale(w)
                check_steps(top[None], stop)
                total += exps
                start = stop
            rates[:, j] = [(math.log(math.hypot(*row)) - log0 + e * _LOG2) / k
                           for row, log0, e in zip(w[:, :, 0].tolist(), logs0,
                                                   total.tolist())]
    return rates


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
