"""Independent numerical oracles for the test suite.

Each oracle recomputes a quantity by a route different from the package
implementation: quadrature of the hyperbolic line element, radial limits
of anchored functionals, direct optimization of Rayleigh quotients, SVD
for operator norms, exact rational arithmetic for matrix products, and a
one-trial, one-step-at-a-time fold of scaled operator products.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.integrate

from horoflow.core import DegenerateInputError
from horoflow.operator_cone import ScaledProduct


def radial_poincare_length(r: float) -> float:
    """Hyperbolic length of the segment [0, r] by quadrature of 2/(1-t^2)."""
    val, _ = scipy.integrate.quad(lambda t: 2.0 / (1.0 - t * t), 0.0, r)
    return val


def busemann_radial_limit(dist_fn, xi: complex, z: complex, eps: float = 1e-9) -> float:
    """h(z) for the anchored functional at (1-eps)*xi, basepoint 0.

    Converges to the boundary functional at xi as eps -> 0.
    """
    anchor = (1.0 - eps) * xi
    return dist_fn(z, anchor) - dist_fn(0j, anchor)


def _pencil_max_ratio(p: np.ndarray, q: np.ndarray, rng: np.random.Generator) -> float:
    """max over v of (qv,v)/(pv,v) by power iteration with repeated squaring.

    p^{-1}q is formed by an LU solve and squared 40 times (normalized each
    time), which amplifies even tiny spectral gaps far beyond double
    precision; the Rayleigh quotient at the resulting directions is
    second-order accurate in the eigenvector error.
    """
    d = p.shape[0]
    m = np.linalg.solve(p, q)
    m = m / np.abs(m).max()
    for _ in range(40):
        m = m @ m
        m = m / np.abs(m).max()
    best = -math.inf
    for v in (m @ rng.normal(size=(d, 3))).T:
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v = v / nv
        best = max(best, float(v @ q @ v) / float(v @ p @ v))
    return best


def rayleigh_sup(p: np.ndarray, q: np.ndarray, rng: np.random.Generator) -> float:
    """sup over unit v of |log (qv,v)/(pv,v)|.

    The sup of the ratio and of its reciprocal are each located by
    :func:`_pencil_max_ratio`; the answer is the larger |log|.
    """
    up = _pencil_max_ratio(p, q, rng)
    down = _pencil_max_ratio(q, p, rng)
    return max(abs(math.log(up)), abs(math.log(down)))


def operator_norm_svd(m: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)[0])


def _is_positive_definite(m) -> bool:
    """Sylvester's criterion for an exact symmetric matrix, by elimination."""
    m = [row[:] for row in m]
    d = len(m)
    for k in range(d):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, d):
            f = m[i][k] / m[k][k]
            for j in range(k, d):
                m[i][j] -= f * m[k][j]
    return True


def exact_log_gram_norm(factors) -> float:
    """||log(v^T v)||_2 for v = factors[-1] ... factors[1] factors[0].

    The float factors are converted to exact rationals, so the product and
    its Gram matrix g carry no rounding however ill-conditioned v is.  The
    extreme eigenvalues of g are bisected to relative precision 1e-15: x lies
    below lambda_min iff g - x*I is positive definite, and below lambda_max
    iff x*I - g is not.
    """
    mats = [[[Fraction(x) for x in row] for row in np.asarray(f, dtype=float).tolist()]
            for f in factors]
    d = len(mats[0])

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)]

    v = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for g in mats:
        v = mul(g, v)
    gram = mul([list(col) for col in zip(*v)], v)

    def shifted(x, sign):
        return [[sign * (gram[i][j] - (x if i == j else 0)) for j in range(d)]
                for i in range(d)]

    def root(below):
        lo, hi = Fraction(0), sum(gram[i][i] for i in range(d))
        while hi - lo > 1e-15 * hi:
            mid = (lo + hi) / 2
            if below(mid):
                lo = mid
            else:
                hi = mid
        return hi

    lam_min = root(lambda x: _is_positive_definite(shifted(x, 1)))
    lam_max = root(lambda x: not _is_positive_definite(shifted(x, -1)))
    return max(math.log(lam_max), -math.log(lam_min))


def loop_accumulate(mats, checkpoints=()):
    """Scaled forward and inverse tracks of v(n) = mats[-1] ... mats[0], one
    matrix at a time, each step checking det, inverting and dividing both
    tracks by their spectral norms.  Returns (final, {k: snapshot}).

    The batched fold in :mod:`horoflow.operator_cone` must agree with this
    loop bit for bit: it performs the same floating-point operations.
    """
    dim = np.asarray(mats[0]).shape[0]
    fwd = np.eye(dim)
    ls = 0.0
    inv = np.eye(dim)
    ils = 0.0
    want = set(checkpoints)
    snaps = {}
    k = 0
    for a in mats:
        a = np.asarray(a, dtype=float)
        if abs(np.linalg.det(a)) <= 1e-12:
            raise DegenerateInputError("singular step matrix")
        fwd = a @ fwd
        s = float(np.linalg.norm(fwd, 2))
        fwd = fwd / s
        ls += math.log(s)
        inv = inv @ np.linalg.inv(a)
        s2 = float(np.linalg.norm(inv, 2))
        inv = inv / s2
        ils += math.log(s2)
        k += 1
        if k in want:
            snaps[k] = ScaledProduct(forward=fwd.copy(), log_scale=ls,
                                     inverse=inv.copy(), inv_log_scale=ils, n=k)
    final = ScaledProduct(forward=fwd, log_scale=ls, inverse=inv,
                          inv_log_scale=ils, n=k)
    return final, snaps
