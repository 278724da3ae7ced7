"""Lyapunov spectra of finite-dimensional invertible matrix cocycles.

The full spectrum is accumulated by the standard re-orthonormalized QR
scheme (no raw matrix product is ever formed); single-direction growth
rates use per-step renormalization; filtration structure is probed by
clustering the growth rates of a probe set under a constant matrix.
"""

from dataclasses import dataclass

import math

import numpy as np
import scipy.linalg

from .cocycle import ErgodicDriver, constant_driver, geometric_checkpoints
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
    if driver.kind in ("iid_finite", "rotation"):
        for a in driver.maps:
            if abs(np.linalg.det(np.asarray(a, dtype=float))) <= 1e-12:
                raise DegenerateInputError("driver contains a singular matrix")
    mats = [np.asarray(a, dtype=float) for a in driver.elements(trial, n)]
    q = np.eye(dim)
    rdiag = np.empty((n, dim))
    # raw LAPACK factor/assemble keeps the per-step cost viable at n = 1e5
    geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (q,))
    for k, a in enumerate(mats):
        packed, tau, _, _ = geqrf(a @ q, overwrite_a=True)
        rdiag[k] = np.diagonal(packed)
        qmat, _, _ = orgqr(packed, tau)
        q = np.where(rdiag[k] < 0.0, -qmat, qmat)
    # near-singular R means a singular step matrix slipped through
    fault = np.flatnonzero(np.any(np.abs(rdiag) < 1e-300, axis=1))
    if fault.size:
        raise FloatingPointError(f"rescaling fault at step {fault[0] + 1}")
    # running sums of log r_ii; a checkpoint's snapshot is its row over k
    sums = np.cumsum(np.log(np.abs(rdiag)), axis=0)
    ks = np.array(geometric_checkpoints(n, count=8, start=max(1, n // 10)))
    final = sums[-1] / n
    resid = np.max(np.abs(sums[ks - 1] / ks[:, None] - final), axis=0)
    order = np.argsort(-final)
    return SpectrumEstimate(exponents=final[order], n=n, resid=resid[order])


def vector_growth_rate(driver: ErgodicDriver, v, n: int, trial: int = 0) -> float:
    """(1/n) log ||A(n) v|| with per-step renormalization (no overflow)."""
    return _growth_rates(driver, v, [n], trial)[0]


def _growth_rates(driver: ErgodicDriver, v, ks: list, trial: int = 0) -> list:
    """(1/k) log ||A(k) v|| at each ascending checkpoint k, all read off one
    renormalized run of ks[-1] steps."""
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise DegenerateInputError("zero probe vector")
    w = v / nv
    rate = 0.0
    rates = []
    for k, a in enumerate(driver.elements(trial, ks[-1]), start=1):
        w = np.asarray(a, dtype=float) @ w
        s = np.linalg.norm(w)
        rate += math.log(s)
        w = w / s
        if k in ks:
            rates.append(rate / k)
    return rates


def filtration_probe(A, probes, n: int, cluster_tol: float = None) -> FiltrationProbeReport:
    """Growth rates of probe vectors under the constant cocycle A^n.

    Probes whose rates differ by less than cluster_tol are grouped; the
    default tolerance is 10x the observed tail drift of the rates (with a
    1e-9 floor), since exact filtrations must be resolved at the available
    numerical resolution.
    """
    if not probes:
        raise DegenerateInputError("probes must be nonempty")
    if n < 100:
        raise DegenerateInputError("n must be >= 100")
    A = np.asarray(A, dtype=float)
    if abs(np.linalg.det(A)) <= 1e-12:
        raise DegenerateInputError("singular matrix")
    drv = constant_driver(A)
    # each probe runs once; its n // 2 rate is a checkpoint of the same run
    half, rates = np.array([_growth_rates(drv, p, [n // 2, n]) for p in probes]).T
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
