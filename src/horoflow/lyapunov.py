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
    sums = np.zeros(dim)
    checkpoints = set(geometric_checkpoints(n, count=8, start=max(1, n // 10)))
    snapshots = []
    # raw LAPACK factor/assemble keeps the per-step cost viable at n = 1e5
    geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (q,))
    for k, a in enumerate(mats, start=1):
        packed, tau, _, _ = geqrf(a @ q, overwrite_a=True)
        rdiag = np.diagonal(packed).copy()
        # near-singular R means a singular step matrix slipped through
        if np.any(np.abs(rdiag) < 1e-300):
            raise FloatingPointError(f"rescaling fault at step {k}")
        qmat, _, _ = orgqr(packed, tau)
        q = np.where(rdiag < 0.0, -qmat, qmat)
        sums += np.log(np.abs(rdiag))
        if k in checkpoints:
            snapshots.append(sums / k)
    final = sums / n
    resid = np.max(np.abs(np.asarray(snapshots) - final), axis=0) \
        if snapshots else np.zeros(dim)
    order = np.argsort(-final)
    return SpectrumEstimate(exponents=final[order], n=n, resid=resid[order])


def vector_growth_rate(driver: ErgodicDriver, v, n: int, trial: int = 0) -> float:
    """(1/n) log ||A(n) v|| with per-step renormalization (no overflow)."""
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise DegenerateInputError("zero probe vector")
    w = v / nv
    rate = 0.0
    for a in driver.elements(trial, n):
        w = np.asarray(a, dtype=float) @ w
        s = np.linalg.norm(w)
        rate += math.log(s)
        w = w / s
    return rate / n


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
    drv = constant_driver(np.asarray(A, dtype=float))
    rates = np.array([vector_growth_rate(drv, p, n) for p in probes])
    half = np.array([vector_growth_rate(drv, p, n // 2) for p in probes])
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
