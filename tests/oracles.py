"""Independent numerical oracles for the test suite.

Each oracle recomputes a quantity by a route different from the package
implementation: quadrature of the hyperbolic line element, radial limits
of anchored functionals, direct optimization of Rayleigh quotients, SVD
for operator norms, exact rational arithmetic for matrix products and
determinants, 50-digit products for the pairwise-reduced operator fold
and disk walk (whose old one-step-at-a-time loops stay as the error
baseline), the batch-first double-double product that the
stack-innermost one replaced, the plain product tree that forms every
node (the package's tree forms each distinct product once), the
50-digit Mobius form of the disk distance, 40-digit generalized eigenvalues of the cone's pencils,
50-digit exponentials for the Segal check (whose old ``scipy.linalg.expm`` loop stays as the error baseline),
one-trial, one-step-at-a-time loops for the kernels that step all trials
together (layer chains, orbit folds, Segal pairs), one-pair-at-a-time
loops over scalar distances for the batched distance kernels, a per-step
loop for the maximal stretch, the disk sampler's old per-point loop,
one-sample-at-a-time loops for the metric property suites over the six
metrics with each point built on its own,
block-at-a-time sums for the growth rates (whose old step-at-a-time
loop stays as the error baseline), and 50-digit Gram-Schmidt for
the QR spectrum (whose old LAPACK loop stays as the error baseline).  Two
stand-in drivers, a fresh sampled map a step and a circle rotation's
labels, give kernel tests inputs that the one finite driver does not.

The pair-at-a-time references that only tests call live here, not in the
package: the one-pair distance of each metric (``distance`` and the six
``*_dist``, each one pair of its space's batched kernel, with the
sampled-table stretch points ``SampledDistanceFunction`` and the kernels
``stretch_dist_many`` and ``jacobian_dist_many`` over points built one at
a time), the disk's closed-form boundary functional ``busemann_disk``,
the disk automorphism ``mobius_disk`` on points, ``random_spd``, a
driver's one-trial ``elements`` list and a drift report's ``mean_v_hat``.
"""

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np
import scipy.integrate
import scipy.linalg

from horoflow._exact import _balanced, _halves, _rescaled, _two_sum
from horoflow.cocycle import (_PRODUCT_BLOCK, _dist_origin, _part, chain_product,
                              geometric_checkpoints, summarize_trials)
from horoflow.core import (_BLOCK, AxiomReport, DegenerateInputError,
                           FunctionalBoundReport, MetricDomainError, WeakMetricSpace)
from horoflow.deepnet import ACTIVATIONS, StretchReport
from horoflow.lyapunov import _ROW_BLOCK, SpectrumEstimate, _block_widths
from horoflow.operator_cone import SymmetryError
from horoflow.seeding import trial_rng
from horoflow.spaces import (_TWO_PI, CircleMap, NotDiffeomorphismError, _disk_rooms,
                             _jacobian_ratios, _random_spd_stack, _stretch_ratios,
                             euclidean_dist_many, funk_dist_many, poincare_dist_many,
                             thompson_dist_many)


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


def fraction_det(m):
    """The determinant of the square matrix m, exactly: Leibniz's sum of
    signed products of Fractions, every double converting exactly."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(m, dtype=float).tolist()]
    total = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in zip(rows, perm):
            term *= row[col]
        total += term
    return total


def loop_accumulate(mats, checkpoints):
    """Scaled forward and inverse tracks of v(k) = mats[k-1] ... mats[0], one
    matrix at a time, each step inverting and dividing both tracks by their
    spectral norms.  Returns the track stacks (forward, log_scale, inverse,
    inv_log_scale, k) of :func:`horoflow.operator_cone._fold`, one row per
    checkpoint k, sorted, up to len(mats).  A non-finite matrix,
    or one without a finite inverse, is a singular step matrix, as in
    :func:`horoflow.cocycle.screen_invertible`.

    This is the fold :mod:`horoflow.operator_cone` ran before it formed
    its products by pairwise reduction; its error against
    :func:`mp_log_gram_norms` is the baseline the pairwise fold must match.
    """
    dim = np.asarray(mats[0]).shape[0]
    fwd = np.eye(dim)
    ls = 0.0
    inv = np.eye(dim)
    ils = 0.0
    want = set(checkpoints)
    snaps = []
    k = 0
    for a in mats:
        a = np.asarray(a, dtype=float)
        try:
            a_inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:       # an exactly singular matrix
            a_inv = np.full_like(a, np.nan)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(a_inv))):
            raise DegenerateInputError("singular step matrix")
        fwd = a @ fwd
        s = float(np.linalg.norm(fwd, 2))
        fwd = fwd / s
        ls += math.log(s)
        inv = inv @ a_inv
        s2 = float(np.linalg.norm(inv, 2))
        inv = inv / s2
        ils += math.log(s2)
        k += 1
        if k in want:
            snaps.append((fwd.copy(), ls, inv.copy(), ils, k))
    return tuple(np.array(x) for x in zip(*snaps))


def loop_walk_gaps(mats, ks):
    """gap(k) at each checkpoint k of one disk walk on the unit-determinant
    2x2 matrices ``mats``: the prefix products, then the suffix products,
    one matrix at a time, each divided by its largest entry modulus.

    This is the walk :func:`horoflow.cocycle.hyperbolic_walk_gap` ran before
    it formed its products by pairwise reduction; its error against
    :func:`mp_walk_gaps` is the baseline the pairwise walk must match.
    """
    n = len(mats)
    want = set(ks) | {n}
    a = {}
    P = np.eye(2, dtype=complex)
    ls = 0.0
    for k, m in enumerate(mats, start=1):
        P = P @ m
        s = float(np.max(np.abs(P)))
        P = P / s
        ls += math.log(s)
        if k in want:
            a[k] = _dist_origin(ls + math.log(abs(P[0, 0])))
    suffix = {}
    S = np.eye(2, dtype=complex)
    ls = 0.0
    for j in range(n, 0, -1):
        if j in want:
            suffix[j] = _dist_origin(ls + math.log(abs(S[0, 0])))
        S = mats[j - 1] @ S
        s = float(np.max(np.abs(S)))
        S = S / s
        ls += math.log(s)
    return [abs(-(suffix[k] - a[n]) / k - a[k] / k) for k in ks]


def batch_first_dd_matmul(ah, al, bh, bl):
    """(hi, lo) of (ah + al) @ (bh + bl) with the stack axes leading and
    every elementwise operation broadcast over (..., d, d, d).

    This is the double-double product :func:`horoflow._exact._dd_matmul`
    ran before it moved the stack axis innermost; the two must agree bit
    for bit.
    """
    A, B = ah[..., :, :, None], bh[..., None, :, :]
    a1, a2 = (h[..., :, :, None] for h in _halves(ah))
    b1, b2 = (h[..., None, :, :] for h in _halves(bh))
    p = A * B
    e = a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)    # p + e == A * B
    e += al[..., :, :, None] * B + A * bl[..., None, :, :]
    hi, lo = p[..., 0, :], e.sum(axis=-2)
    for k in range(1, p.shape[-2]):
        hi, q = _two_sum(hi, p[..., k, :])
        lo = lo + q
    s = hi + lo
    return s, lo - (s - hi)


def plain_pairwise_product(leaves, idx, later_left: bool = False):
    """:func:`horoflow.cocycle.pairwise_product` as it ran before it formed
    each distinct product once: every node of every trial is multiplied,
    each block gathered and normalized on its own.  The two must agree bit
    for bit.

    Scaled per-trial products of ``M[idx[t, 0]], M[idx[t, 1]], ...``, in
    double-double arithmetic, for the real (m, d, d) stacks
    ``leaves = (hi, lo)`` of the matrices M = hi + lo.

    Later factors go on the right (M_1 M_2 ... M_L), or on the left when
    ``later_left`` (M_L ... M_2 M_1).  idx is a (trials, L) integer array,
    L >= 1.  Read the result with :func:`scaled_matrices`.

    The steps are gathered in aligned blocks of a power-of-two width that
    keeps each gather within ``_PRODUCT_BLOCK`` matrices, and full blocks
    merge as a binary counter, so the tree, and with it every rounding, is
    the same whatever the width: each trial of a batch equals its one-trial
    call bit for bit.
    """
    hi, lo = leaves
    trials, steps = idx.shape
    width = 1 << max(_PRODUCT_BLOCK // trials, 1).bit_length() - 1
    stack = []      # (steps covered, scaled product), aligned and decreasing
    for start in range(0, steps, width):
        block = idx[:, start:start + width]
        node = _rescaled(hi[block], lo[block], np.zeros(block.shape, dtype=np.int64))
        while node[0].shape[1] > 1:
            m = node[0].shape[1] // 2 * 2
            pair = chain_product(_part(node, np.s_[:, 0:m:2]),
                                 _part(node, np.s_[:, 1:m:2]), later_left)
            if m < node[0].shape[1]:    # an odd node carries to the next level
                pair = [np.concatenate([a, b[:, m:]], axis=1) for a, b in zip(pair, node)]
            node = pair
        size, node = block.shape[1], _part(node, np.s_[:, 0])
        while stack and stack[-1][0] == size:
            node = chain_product(stack.pop()[1], node, later_left)
            size *= 2
        stack.append((size, node))
    node = stack.pop()[1]
    while stack:
        node = chain_product(stack.pop()[1], node, later_left)
    return node


# digits of the product oracles: a product of a few thousand factors keeps
# far more than double precision
_MP_DPS = 50


def _mp(m):
    """m as an object array of mpmath numbers; every double converts exactly."""
    return np.vectorize(mpmath.mpmathify, otypes=[object])(np.asarray(m))


def _mp_log_norm(v):
    """log of the spectral norm of an object array."""
    return mpmath.log(max(mpmath.mp.svd_r(mpmath.matrix(v.tolist()), compute_uv=False)))


def mp_log_gram_norms(mats, ks):
    """{k: (1/k) ||log(v(k)^T v(k))||_2} for v(k) = mats[k-1] ... mats[0], as
    50-digit numbers.

    The norm is 2 max(log ||v(k)||, log ||w(k)||), w(k) = inv(mats[0]) ...
    inv(mats[k-1]), since the smallest singular value of a long product is
    lost to cancellation in v(k) itself.  Each factor of w(k) is the
    double-precision ``np.linalg.inv`` of a step matrix, the factor both
    folds are given, so the oracle measures how a fold forms its products.
    Every double converts exactly.
    """
    want = set(ks)
    out = {}
    with mpmath.workdps(_MP_DPS):
        exact = {}
        fwd = inv = _mp(np.eye(np.asarray(mats[0]).shape[0]))
        for k, m in enumerate(mats, start=1):
            if id(m) not in exact:
                exact[id(m)] = _mp(m), _mp(np.linalg.inv(np.asarray(m, dtype=float)))
            f, fi = exact[id(m)]
            fwd = f @ fwd
            inv = inv @ fi
            if k in want:
                out[k] = 2 * max(_mp_log_norm(fwd), _mp_log_norm(inv)) / k
    return out


def mp_state_ratios(mats, ls):
    """{l: |(y_l xi, xi)| / l} for y_l = log(v(l)^T v(l)), v(l) = mats[l-1]
    ... mats[0], and xi the unit eigenvector of y_N, N = max(ls), with the
    eigenvalue of largest modulus (the larger on a tie).

    The Gram matrices are formed and diagonalized with enough digits that
    their smallest eigenvalue, at least prod ||mats[k]||^-4 of the largest
    for unit-determinant factors, keeps 30 digits.
    """
    ls = sorted(set(ls))
    mats = mats[:ls[-1]]
    digits = 30 + int(4 * sum(math.log10(np.linalg.norm(m, 2)) for m in mats))
    with mpmath.workdps(digits):
        v = mpmath.eye(np.asarray(mats[0]).shape[0])
        ys = {}
        for k, m in enumerate(mats, start=1):
            v = mpmath.matrix(np.asarray(m, dtype=float).tolist()) * v
            if k in ls:
                w, q = mpmath.eigsy(v.T * v)
                ys[k] = q * mpmath.diag([mpmath.log(x) for x in w]) * q.T
        w, q = mpmath.eigsy(ys[ls[-1]])
        top = max(range(len(w)), key=lambda i: (abs(w[i]), w[i]))
        xi = q[:, top]
        return {l: abs((xi.T * ys[l] * xi)[0]) / l for l in ls}


def mp_walk_gaps(mats, ks):
    """(gaps, a(n)) of one disk walk on the 2x2 matrices ``mats``, as 50-digit
    numbers: gap(k) at each checkpoint k, from the prefix and suffix
    products formed one exact factor at a time."""
    n = len(mats)
    want = set(ks) | {n}

    def dist(p):
        return 2 * mpmath.acosh(max(abs(p[0, 0]), 1))

    with mpmath.workdps(_MP_DPS):
        exact = [_mp(m) for m in mats]
        a = {}
        P = _mp(np.eye(2, dtype=complex))
        for k, m in enumerate(exact, start=1):
            P = P @ m
            if k in want:
                a[k] = dist(P)
        suffix = {n: mpmath.mpf(0)}
        S = _mp(np.eye(2, dtype=complex))
        for j in range(n, 1, -1):
            S = exact[j - 1] @ S
            if j - 1 in want:
                suffix[j - 1] = dist(S)
        return [abs(-(suffix[k] - a[n]) / k - a[k] / k) for k in ks], a[n]


def mp_poincare_dist(z, w):
    """The disk distance 2 artanh(|z - w| / |1 - conj(z) w|) of two points, as
    a 50-digit number: the Mobius form, not the kernel's conformal-factor
    form.  Every double converts exactly."""
    with mpmath.workdps(_MP_DPS):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        return 2 * mpmath.atanh(abs(z - w) / abs(1 - mpmath.conj(z) * w))


def mp_cone_log_eigs(p, q):
    """log of the generalized eigenvalues of the pencil (q, p), ascending, as
    40-digit numbers: the eigenvalues of L^-1 q L^-T for p = L L^T, by
    mpmath's Cholesky factor and symmetric eigensolver.  Every double
    converts exactly, and each matrix is taken as its symmetric part.
    """
    with mpmath.workdps(40):
        p, q = (mpmath.matrix(np.asarray(m, dtype=float).tolist()) for m in (p, q))
        li = mpmath.cholesky((p + p.T) / 2) ** -1
        c = li * ((q + q.T) / 2) * li.T
        return sorted(mpmath.log(w) for w in mpmath.eigsy((c + c.T) / 2, eigvals_only=True))


def loop_max_stretch(driver, n, grid):
    """The maximal-stretch report with every step's map evaluated on the
    whole pair grid, one step at a time; :func:`horoflow.deepnet.max_stretch`
    must agree field for field."""
    mids = 2.0 * math.pi * np.arange(grid) / grid
    x = np.concatenate([np.exp(1j * (mids - 0.5 * s)) for s in (1e-2, 1e-4)])
    y = np.concatenate([np.exp(1j * (mids + 0.5 * s)) for s in (1e-2, 1e-4)])
    base = np.abs(x - y)
    checkpoints = set(geometric_checkpoints(n, count=12))
    total = 0.0
    trace = []
    best_pair = None
    for k, g in enumerate(elements(driver, 0, n), start=1):
        gx = g(x)
        gy = g(y)
        if not (np.all(np.isfinite(gx)) and np.all(np.isfinite(gy))):
            raise DegenerateInputError(f"map left the sampled chart at depth {k}")
        ratios = np.abs(gx - gy) / base
        i = int(np.argmax(ratios))
        total += math.log(float(ratios[i]))
        best_pair = (complex(x[i]), complex(y[i]))
        if k in checkpoints:
            trace.append((k, best_pair))
    z_hat = 0.5 * (best_pair[0] + best_pair[1])
    return StretchReport(lambda_hat=total / n, argmax_trace=trace, z_hat=z_hat)


def loop_jacobian_cocycle(driver, n, grid):
    """The distance-from-identity cocycle with each step's map and its
    derivative evaluated on the moving grid points one step at a time,
    each step refused by its own derivative's smallest and largest value
    and its image divided by its norm;
    :func:`horoflow.deepnet.jacobian_cocycle_dist` must agree row for row."""
    theta = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)
    cumlog = np.zeros(grid)
    rows = []
    for k, g in enumerate(elements(driver, 0, n), start=1):
        c, s, d = g.f_and_deriv(c, s)
        if not (d.min() > 0.0 and d.max() < math.inf):     # nan fails the first
            raise NotDiffeomorphismError(
                f"nonpositive or non-finite composed derivative at step {k}")
        cumlog += np.log(d)
        norm = np.sqrt(c * c + s * s)
        c, s = c / norm, s / norm
        a = float(np.max(np.abs(cumlog)))
        rows.append((k, a, a / k))
    return rows


def complex_mobius_circle_map(a):
    """The circle map of z -> (z + a) / (1 + az), real a, in complex
    arithmetic: the image is (Re, Im) of the complex quotient at
    z = c + is, divided by its modulus, and f' = (1 - a^2) / |1 + az|^2.
    The error baseline of :func:`mp_mobius_cocycle`."""
    a = float(a)

    def f_and_df(c, s):
        z = c + 1j * s
        w = 1.0 + a * z
        image = (z + a) / w
        image /= np.abs(image)
        return image.real, image.imag, (1.0 - a * a) / np.abs(w) ** 2

    return CircleMap(f_and_df)


def mp_mobius_cocycle(a, n, grid):
    """[a(1), ..., a(n)] of the Jacobian cocycle of the real Mobius circle
    map (:func:`horoflow.spaces.mobius_circle_map`) on the grid of
    :func:`horoflow.deepnet.jacobian_cocycle_dist`, as 50-digit numbers.

    The k-th iterate of z -> (z + a) / (1 + az) is the same map with
    parameter b_k = tanh(k artanh a), so with x = k artanh a its derivative
    is (1 - b_k^2) / (1 + b_k^2 + 2 b_k cos theta) = 1 / D,
    D = cosh 2x + sinh 2x cos theta, taken as e^-2x + 2 sinh 2x cos^2(theta/2)
    for x >= 0 and e^2x - 2 sinh 2x sin^2(theta/2) for x < 0: sums of
    positive terms, with no cancellation near the fixed points 0 and pi.
    a(k) is the largest |log D| over the grid angles, each double exactly;
    D grows with the squared term, so that is |log D| at its smallest or
    largest value over the grid."""
    halves = [mpmath.mpf(t) / 2 for t in np.linspace(0.0, _TWO_PI, grid, endpoint=False)]
    with mpmath.workdps(_MP_DPS):
        cos2 = [mpmath.cos(h) ** 2 for h in halves]
        sin2 = [mpmath.sin(h) ** 2 for h in halves]
        out = []
        for k in range(1, n + 1):
            x = k * mpmath.atanh(mpmath.mpf(a))
            if x >= 0:
                base, sq = mpmath.exp(-2 * x), [min(cos2), max(cos2)]
            else:
                base, sq = mpmath.exp(2 * x), [min(sin2), max(sin2)]
            out.append(max(abs(mpmath.log(base + 2 * abs(mpmath.sinh(2 * x)) * c))
                           for c in sq))
        return out


def _chain(layers, X):
    """T1(T2(...Tn(X))) for the LayerMaps ``layers``, one layer at a time;
    X holds points as columns, or is one point."""
    for layer in reversed(layers):
        b = layer.b if X.ndim == 1 else layer.b[:, None]
        X = layer.W.T @ ACTIVATIONS[layer.activation](layer.W @ X + b)
    return X


def loop_resnet_drift(chains, x0):
    """(v_hat, cross_input_gap) of the drift, one trial's chain at a time.

    ``chains[t]`` lists trial t's LayerMaps, first layer outermost; x0 and
    x0 + e1 ride through each chain as the two columns of one matrix.  The
    batched :func:`horoflow.deepnet.resnet_drift` must agree bit for bit.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = x0.copy()
    x1[0] += 1.0
    v_hat = np.empty((len(chains), x0.shape[0]))
    gap = 0.0
    for t, layers in enumerate(chains):
        n = len(layers)
        X = _chain(layers, np.stack([x0, x1], axis=1))
        v_hat[t] = X[:, 0] / n
        gap = max(gap, float(np.linalg.norm(X[:, 0] - X[:, 1])) / n)
    return v_hat, gap


def mean_v_hat(report):
    """The drift vector of a :class:`horoflow.deepnet.DriftReport`: its
    trials' normalized outputs averaged per coordinate."""
    return np.mean(report.v_hat, axis=0)


def loop_lipschitz_profile(layers, pair_sampler, n_pairs, rng):
    """The Lipschitz profile with each point of each pair, drawn from rng,
    sent through the chain on its own; the batched
    :func:`horoflow.deepnet.lipschitz_profile` must agree bit for bit."""
    n = len(layers)
    best = 0.0
    for _ in range(n_pairs):
        x, y = pair_sampler(rng)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        base = float(np.linalg.norm(x - y))
        if base == 0.0:
            continue
        ratio = float(np.linalg.norm(_chain(layers, x) - _chain(layers, y))) / (n * base)
        best = max(best, ratio)
    return best

# ---------------------------------------------------------------------------
# One-pair distances: each is one pair of its space's batched kernel (or, for
# stretch and Jacobian points built one at a time, of a kernel over such
# points), the pair-at-a-time reference that pair_loop runs


def distance(space, x, y):
    """d(x, y) in the space, one pair of its batched kernel; a non-finite
    distance is refused with MetricDomainError, as
    :meth:`horoflow.core.WeakMetricSpace.distances` refuses it."""
    return float(space.distances((x, y), [0], [1])[0])


def _one_pair(name, dist_many, x, y):
    return distance(WeakMetricSpace(name=name, dist_many=dist_many), x, y)


def euclidean_dist(x, y):
    return _one_pair("euclidean", euclidean_dist_many, x, y)


def poincare_dist(z, w):
    """The disk distance 2 asinh(|z - w| / sqrt((1 - |z|^2)(1 - |w|^2)))."""
    return _one_pair("poincare", poincare_dist_many, z, w)


def thompson_dist(p, q):
    """Spectral norm of log(p^{-1/2} q p^{-1/2}).

    Equals sup over unit vectors v of |log (qv,v)/(pv,v)|.
    """
    return _one_pair("thompson", thompson_dist_many, p, q)


def funk_dist(p, q):
    """log of the largest generalized eigenvalue of (q, p); may be negative.

    Asymmetric half of the Thompson metric:
    max(funk(p,q), funk(q,p)) = thompson(p,q).
    """
    return _one_pair("funk", funk_dist_many, p, q)


@dataclass(frozen=True)
class SampledDistanceFunction:
    """A distance function evaluated on a fixed finite sample.

    ``table_fn`` evaluates the whole pairwise table from a point list in one
    vectorized call.
    """

    sample: tuple
    table_fn: Callable
    # sample and table_fn are fixed, so the table is computed at most once
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def matrix(self) -> np.ndarray:
        if "matrix" in self._cache:
            return self._cache["matrix"]
        n = len(self.sample)
        out = np.asarray(self.table_fn(list(self.sample)), dtype=float)
        if out.shape != (n, n) or not np.isfinite(out).all():
            raise MetricDomainError("table_fn produced an invalid table")
        np.fill_diagonal(out, 0.0)
        self._cache["matrix"] = out
        return out


def stretch_dist_many(points, i, j):
    """stretch_dist(points[i[k]], points[j[k]]) for every k; each point's
    table is read once."""
    if len({len(p.sample) for p in points}) > 1:
        raise DegenerateInputError("distance functions sampled on different sets")
    n = len(points[0].sample)
    off = ~np.eye(n, dtype=bool)
    return _stretch_ratios(np.stack([p.matrix()[off] for p in points]), i, j)


def stretch_dist(d1, d2):
    """log of the max sampled ratio d2(x,y)/d1(x,y) over x != y; may be negative."""
    return _one_pair("stretch", stretch_dist_many, d1, d2)


def sine_derivative(amplitude, phase):
    """theta -> 1 + amplitude cos(theta + phase): the sine circle map's
    derivative in angle form, as :func:`horoflow.spaces.jacobian_space`
    reads a parameter row (:func:`horoflow.spaces.sine_circle_map` reads it
    off the points of the circle, which rounds differently)."""
    return lambda t: 1.0 + amplitude * np.cos(t + phase)


def jacobian_dist_many(points, i, j, grid=256):
    """jacobian_dist(points[i[k]], points[j[k]], grid) for every k; each
    point's derivative is evaluated on the grid once: a ``CircleMap``'s at
    the grid's points (cos theta, sin theta), an angle-form derivative's
    (:func:`sine_derivative`) at the grid's angles."""
    if grid < 16:
        raise DegenerateInputError("grid must be >= 16")
    theta = np.linspace(0.0, _TWO_PI, grid, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)
    derivs = np.empty((len(points), grid))
    for k, f in enumerate(points):
        derivs[k] = f.f_and_deriv(c, s)[2] if isinstance(f, CircleMap) else f(theta)
    return _jacobian_ratios(derivs, i, j)


def jacobian_dist(f, g, grid=256):
    """max over the grid of |log(g'(theta)/f'(theta))|; symmetric."""
    return _one_pair("jacobian", lambda points, i, j: jacobian_dist_many(points, i, j, grid),
                     f, g)


def random_spd(rng, dim):
    """One random SPD matrix, as the cone spaces sample a block of one."""
    return _random_spd_stack(rng, dim, 1)[0]


def busemann_disk(xi, z):
    """Boundary functional of the disk: log(|xi - z|^2 / (1 - |z|^2)).

    Pointwise limit of h_x(z) for anchors x -> xi radially, normalized so
    that the value at the origin is 0: the disk's horofunction in closed
    form, which :func:`busemann_radial_limit` approaches through the disk's
    distance kernel.
    """
    xi = complex(xi)
    if abs(abs(xi) - 1.0) > 1e-12:
        raise MetricDomainError(f"xi must be on the unit circle, got |xi|={abs(xi)}")
    [z], [room] = _disk_rooms([z])
    return math.log(abs(xi - complex(z)) ** 2 / room)


def pair_loop(dist):
    """A distance kernel that calls the scalar ``dist`` one pair at a time."""
    def dist_many(points, i, j):
        return np.array([dist(points[a], points[b]) for a, b in zip(i, j)], dtype=float)

    return dist_many


def _one_at_a_time(sample):
    """A ``sample_points`` that draws m points by m calls of sample(rng)."""
    return lambda rng, m: [sample(rng) for _ in range(m)]


def loop_disk_points(rng, m):
    """m disk points as the Poincare sampler drew them before it was
    stacked: one (r, theta) draw pair a point from one block draw, each
    point through Python's complex arithmetic."""
    out = []
    for u, v in rng.random(size=(m, 2)).tolist():
        r = 0.95 * math.sqrt(u)
        theta = 2.0 * math.pi * v
        out.append(r * cmath.exp(1j * theta))
    return out


def _reference_stretch_sample():
    rng = np.random.Generator(np.random.PCG64(12345))
    return tuple(rng.normal(size=2) for _ in range(6))


def _reference_distance_function(sample, a, k, phase):
    """||x-y|| * exp((phi(x)+phi(y))/2), phi(x) = a sin(k . x + phase), on the
    sample, as a table built by a closure; a = 0 gives the norm itself."""
    def table_fn(pts):
        P = np.asarray(pts, dtype=float)
        gaps = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)
        phi = a * np.sin(P @ k + phase)
        return gaps * np.exp(0.5 * (phi[:, None] + phi[None, :]))

    return SampledDistanceFunction(sample=sample, table_fn=table_fn)


def reference_spaces(dim=3):
    """The six registered metrics with each point built on its own: the
    Euclidean, disk and Jacobian samplers make one sampler call a point,
    the cone and stretch samplers draw a block's parameters as the
    registered ones do and then build each point from its own; stretch
    points are ``SampledDistanceFunction`` tables built by closures,
    Jacobian points angle-form derivative closures (``sine_derivative``:
    a ``CircleMap`` reads the derivative off the circle's points, which
    rounds differently from the parameter rows), and every distance a loop over
    a scalar distance.  Keyed like
    :func:`horoflow.spaces.registered_spaces`, whose suites, points and
    distances must equal these bit for bit.  ``euclidean_dist`` and
    ``poincare_dist`` are one-pair calls of their spaces' kernels, so for
    those two metrics the loop checks only that batching does not change
    the bits; :func:`mp_poincare_dist` checks the disk's formula."""
    def euclidean(rng):
        return rng.normal(size=dim)

    def disk(rng):
        r = 0.95 * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        return r * cmath.exp(1j * theta)

    def spds(rng, m):
        factors = rng.normal(size=(m, dim, dim))
        scales = rng.uniform(-1.0, 1.0, size=m).tolist()
        return [math.exp(s) * (a @ a.T + 0.05 * np.eye(dim))
                for a, s in zip(factors, scales)]

    base_sample = _reference_stretch_sample()

    def distance_functions(rng, m):
        amplitudes = rng.uniform(-1.0, 1.0, size=m).tolist()
        ks = rng.normal(size=(m, 2))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=m).tolist()
        return [_reference_distance_function(base_sample, *row)
                for row in zip(amplitudes, ks, phases)]

    def sine_point(rng):
        amplitude = rng.uniform(-0.8, 0.8)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        rng.uniform(0.0, 2.0 * math.pi)     # the shift, which no derivative reads
        return sine_derivative(amplitude, phase)

    grid = 128
    return {
        "euclidean": WeakMetricSpace(name=f"euclidean{dim}",
                                     dist_many=pair_loop(euclidean_dist),
                                     sample_points=_one_at_a_time(euclidean)),
        "poincare": WeakMetricSpace(name="poincare", dist_many=pair_loop(poincare_dist),
                                    sample_points=_one_at_a_time(disk)),
        "thompson": WeakMetricSpace(name=f"thompson{dim}",
                                    dist_many=pair_loop(thompson_dist),
                                    sample_points=spds),
        "funk": WeakMetricSpace(name=f"funk{dim}", dist_many=pair_loop(funk_dist),
                                sample_points=spds),
        "stretch": WeakMetricSpace(name="stretch", dist_many=pair_loop(stretch_dist),
                                   sample_points=distance_functions),
        "jacobian": WeakMetricSpace(
            name="jacobian", dist_many=pair_loop(lambda f, g: jacobian_dist(f, g, grid)),
            sample_points=_one_at_a_time(sine_point)),
    }


def reference_basepoints(dim=3):
    """Basepoints of :func:`reference_spaces`, keyed like them: the points
    that the registered zero rows stand for, the ambient norm (amplitude 0,
    whose table is exactly the norm's) and the identity map (amplitude 0,
    whose derivative is exactly 1.0)."""
    return {"euclidean": np.zeros(dim), "poincare": 0j,
            "thompson": np.eye(dim), "funk": np.eye(dim),
            "stretch": _reference_distance_function(_reference_stretch_sample(),
                                                    0.0, np.zeros(2), 0.0),
            "jacobian": sine_derivative(0.0, 0.0)}


def _sample_triples(space, n, rng):
    """The n sampled triples of a property suite, one at a time, from blocks
    drawn from rng as :func:`horoflow.core.check_weak_metric_axioms` draws
    them: one ``sample_points`` call of up to ``_BLOCK`` triples a block."""
    for start in range(0, n, _BLOCK):
        block = space.sample_points(rng, 3 * min(_BLOCK, n - start))
        for t in range(0, len(block), 3):
            yield block[t:t + 3]


def loop_weak_metric_axioms(space, n_triples, rng):
    """The axiom suite one triple at a time, each distance through
    :func:`distance`; :func:`horoflow.core.check_weak_metric_axioms` must
    agree field for field."""
    max_id = 0.0
    max_tri = 0.0
    min_pair = math.inf
    for x, y, z in _sample_triples(space, n_triples, rng):
        max_id = max(max_id, abs(distance(space, x, x)))
        dxy = distance(space, x, y)
        dxz = distance(space, x, z)
        dzy = distance(space, z, y)
        scale = max(1.0, abs(dxy), abs(dxz), abs(dzy))
        max_tri = max(max_tri, (dxy - dxz - dzy) / scale)
        min_pair = min(min_pair, dxy + distance(space, y, x))
    return AxiomReport(max_identity_error=max_id,
                       max_triangle_violation=max_tri,
                       min_pair_symmetrization=min_pair)


def loop_functional_bounds(space, x0, n_samples, rng):
    """The functional-bound suite one sample at a time;
    :func:`horoflow.core.check_functional_bounds` must agree field for field."""
    low = up = cont = 0.0
    for anchor, y, z in _sample_triples(space, n_samples, rng):
        dxa = distance(space, x0, anchor)
        hy = distance(space, y, anchor) - dxa
        hz = distance(space, z, anchor) - dxa
        low = max(low, -distance(space, x0, y) - hy)
        up = max(up, hy - distance(space, y, x0))
        sym = max(distance(space, y, z), distance(space, z, y))
        cont = max(cont, abs(hy - hz) - sym)
    return FunctionalBoundReport(max_lower_violation=low,
                                 max_upper_violation=up,
                                 max_continuity_violation=cont)


def elements(driver, trial, n):
    """The first n maps g(omega), g(T omega), ... that trial draws from the
    driver (an :class:`horoflow.cocycle.ErgodicDriver` or a stand-in), in
    step order, deterministically."""
    maps, [idx] = driver.draw([trial], n)
    return [maps[i] for i in idx]


class FixedDraws:
    """A stand-in driver for kernel tests, which take their maps from
    ``draw`` alone: ``draw(trials, n)`` is ``rule(trials, n)``, a fixed
    ``(maps, idx)`` as :meth:`horoflow.cocycle.ErgodicDriver.draw` returns
    them."""

    def __init__(self, rule):
        self.draw = rule


def sampled_draws(seed, sampler):
    """Draws of a fresh map a step, ``sampler(rng)`` on each trial's own
    stream: the maps of the listed trials, trial after trial, with idx
    counting them."""
    def rule(trials, n):
        trials = list(trials)
        maps = [sampler(rng) for rng in (trial_rng(seed, t) for t in trials)
                for _ in range(n)]
        return maps, np.arange(len(trials) * n).reshape(len(trials), n)
    return FixedDraws(rule)


def rotation_draws(seed, maps, breakpoints=None):
    """Draws along an orbit of the circle rotation by the golden ratio's
    fractional part, from a start point on each trial's own stream: the
    unit interval is cut at the ascending ``breakpoints`` (the last 1.0;
    equal parts by default), and the orbit's interval i draws maps[i]."""
    bp = np.asarray(breakpoints or [(i + 1) / len(maps) for i in range(len(maps))])
    angle = (math.sqrt(5.0) - 1.0) / 2.0

    def rule(trials, n):
        trials = list(trials)
        turns = angle * np.arange(n)
        idx = [np.minimum(np.searchsorted(bp, (trial_rng(seed, t).random() + turns) % 1.0,
                                          side="right"), len(maps) - 1) for t in trials]
        return maps, np.array(idx, dtype=np.intp).reshape(len(trials), n)
    return FixedDraws(rule)


def loop_orbit_at(driver, x0, ks, trial=0):
    """Orbit points u(k)x0 of one trial, one point and one map at a time:
    each checkpoint k folds g_1(...g_k(x0)) on its own.  Returns a dict
    k -> point; the stacked fold in :func:`horoflow.cocycle._fold_orbits`
    must agree bit for bit."""
    def apply(g, x):
        return g(x) if callable(g) else np.asarray(g) @ x

    ks = sorted(set(int(k) for k in ks))
    gs = elements(driver, trial, ks[-1])
    out = {}
    for k in ks:
        y = x0
        for i in range(k - 1, -1, -1):
            y = apply(gs[i], y)
        out[k] = y
    return out


def loop_top_exponent(driver, space, x0, n, trials):
    """The top-exponent estimate one trial at a time through
    :func:`loop_orbit_at`, its per-trial values and mean tail summarized by
    :func:`horoflow.cocycle.summarize_trials`;
    :func:`horoflow.cocycle.estimate_top_exponent` must agree field for
    field."""
    tail_ks = geometric_checkpoints(n, count=8, start=max(1, n // 10))
    per_trial = []
    tail_sum = np.zeros(len(tail_ks))
    for t in range(trials):
        pts = loop_orbit_at(driver, x0, tail_ks, trial=t)
        ratios = np.array([distance(space, x0, pts[k]) / k for k in tail_ks])
        per_trial.append(ratios[-1])
        tail_sum += ratios
    return summarize_trials(np.asarray(per_trial), tail_ks, tail_sum / trials)


def mobius_disk(a: complex) -> Callable[[complex], complex]:
    """Disk automorphism z -> (z + a) / (1 + conj(a) z), of one point or of
    each point of an array."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise MetricDomainError("Mobius parameter must lie inside the disk")

    def f(z):
        # a stack of points goes one point at a time through Python's
        # complex arithmetic, which rounds differently from numpy's, so the
        # stacked orbit fold applies it as the one-point loop does
        if isinstance(z, np.ndarray):
            return np.array([f(w) for w in z.ravel().tolist()],
                            dtype=complex).reshape(z.shape)
        z = complex(z)
        return (z + a) / (1.0 + a.conjugate() * z)

    return f


def lapack_qr_spectrum(driver, dim, n, trial=0):
    """The QR accumulation :func:`horoflow.lyapunov.qr_spectrum` ran before
    it read exponent sums as exterior-power growth rates: LAPACK's
    ``geqrf``/``orgqr`` a step, the log of each step's R diagonal added to a
    running sum as it is factored, returned as one trial's row.  The
    reference that ``mp_qr_spectrum`` measures the kernel against.  A zero
    or non-finite R diagonal entry is a rescaling fault at its step."""
    mats = [np.asarray(a, dtype=float) for a in elements(driver, trial, n)]
    q = np.eye(dim)
    sums = np.zeros(dim)
    checkpoints = set(geometric_checkpoints(n, count=8, start=max(1, n // 10)))
    snapshots = []
    geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (q,))
    for k, a in enumerate(mats, start=1):
        packed, tau, _, _ = geqrf(a @ q, overwrite_a=True)
        rdiag = np.diagonal(packed).copy()
        if not all(math.isfinite(r) and r != 0.0 for r in rdiag.tolist()):
            raise FloatingPointError(f"rescaling fault at step {k}")
        qmat, _, _ = orgqr(packed, tau)
        q = np.where(rdiag < 0.0, -qmat, qmat)
        sums += np.log(np.abs(rdiag))
        if k in checkpoints:
            snapshots.append(sums / k)
    final = sums / n
    resid = np.max(np.abs(np.asarray(snapshots) - final), axis=0)
    order = np.argsort(-final)
    return SpectrumEstimate(exponents=final[order][None], resid=resid[order][None])


def mp_qr_spectrum(driver, dim, n, trial=0):
    """The exponents (1/n) sum_k log r_ii(k) of QR accumulation over the
    driver's first n steps, sorted descending, as 50-digit numbers: every
    step factors A_k q by modified Gram-Schmidt in mpmath.  Every double
    converts exactly."""
    maps, [idx] = driver.draw([trial], n)
    with mpmath.workdps(_MP_DPS):
        exact = {}
        q = [[mpmath.mpf(int(r == c)) for r in range(dim)] for c in range(dim)]  # columns
        sums = [mpmath.mpf(0)] * dim
        for i in idx.tolist():
            if i not in exact:
                exact[i] = [[mpmath.mpf(x) for x in row]
                            for row in np.asarray(maps[i], dtype=float).tolist()]
            ys = [[mpmath.fdot(row, col) for row in exact[i]] for col in q]
            for c in range(dim):
                r = mpmath.sqrt(mpmath.fdot(ys[c], ys[c]))
                sums[c] += mpmath.log(r)
                ys[c] = [y / r for y in ys[c]]
                for later in range(c + 1, dim):
                    h = mpmath.fdot(ys[c], ys[later])
                    ys[later] = [y - h * x for x, y in zip(ys[c], ys[later])]
            q = ys
        return sorted((s / n for s in sums), reverse=True)


def _pow2_rescale(w):
    """(w scaled by the power of two that puts its largest modulus in
    [0.5, 1), the exponent taken out)."""
    e = math.frexp(float(np.max(np.abs(w))))[1]
    return np.ldexp(w, -e), e


def kernel_widths(maps, invs=None):
    """The block width :func:`horoflow.lyapunov._log_norms` gives each of
    the maps, with inverses invs (by default ``np.linalg.inv``), once the
    two are balanced by a power of two as the kernel balances them
    (:func:`horoflow.lyapunov._block_widths`)."""
    mats = np.asarray(maps, dtype=float)
    a, inv, _ = _balanced(mats, np.linalg.inv(mats) if invs is None else invs)
    return _block_widths(a, inv)


def _block_product(mats):
    """(hi, lo, e): the product M_L ... M_1 of the list mats, L a power of
    two, as (hi + lo) 2^e, by recursive halving: each node is the later
    half's product times the earlier half's in double-double
    (:func:`batch_first_dd_matmul`), scaled by the power of two that puts
    the largest modulus of hi in [0.5, 1), as a leaf is.  On a block of a
    power-of-two width this is the tree of
    :func:`horoflow.cocycle.pairwise_product` with ``later_left``."""
    if len(mats) == 1:
        hi, e = _pow2_rescale(np.asarray(mats[0], dtype=float))
        return hi, np.zeros_like(hi), e
    half = len(mats) // 2
    (ah, al, ae), (bh, bl, be) = _block_product(mats[half:]), _block_product(mats[:half])
    hi, lo = batch_first_dd_matmul(ah, al, bh, bl)
    hi, e = _pow2_rescale(hi)
    return hi, np.ldexp(lo, -e), ae + be + e


def loop_log_norms(driver, v, ks, trial=0, widths=None):
    """[(log ||w||, E)] for each k, each from its own run of k steps from
    v that rescales w by a power of two after every block and sums the
    exponents as an integer E, so that log ||A(k) v|| = log ||w|| + E log 2.

    Without widths, the old per-step loop: every step is one matvec.  With
    widths, a function from the maps the run draws to each one's block
    width (:func:`kernel_widths`), the first k // ``_ROW_BLOCK`` aligned
    blocks of ``_ROW_BLOCK`` steps run one at a time, each cut into
    sub-blocks of the smallest width among its own steps.  A sub-block of
    width 1 is one matvec, any other hi @ w + lo @ w from its
    :func:`_block_product`; the rest of the k steps run one at a time.
    :func:`horoflow.lyapunov._log_norms`, which forms every block at once
    and reads one run, or a batch of runs, at every checkpoint, must agree
    bit for bit.  A zero or non-finite largest modulus after a step is a
    rescaling fault at that step."""
    out = []
    products = {}       # (start, width) -> the sub-block's product, shared by the runs
    for k in ks:
        maps, [idx] = driver.draw([trial], k)
        gs = [np.asarray(maps[i], dtype=float) for i in idx]
        w, total, step = np.asarray(v, dtype=float), 0, 0

        def matvec(a):
            nonlocal w, total
            w = a @ w
            top = float(np.max(np.abs(w)))
            if not (math.isfinite(top) and top > 0.0):
                raise FloatingPointError(f"rescaling fault at step {step}")
            w, e = _pow2_rescale(w)
            total += e

        if widths is not None:
            ws = np.asarray(widths(maps))[idx].tolist()
            for b in range(0, k // _ROW_BLOCK * _ROW_BLOCK, _ROW_BLOCK):
                width = min(ws[b:b + _ROW_BLOCK])
                for start in range(b, b + _ROW_BLOCK, width):
                    step = start + width
                    if width == 1:
                        matvec(gs[start])
                        continue
                    if (start, width) not in products:
                        products[start, width] = _block_product(gs[start:step])
                    hi, lo, e = products[start, width]
                    w, f = _pow2_rescale(hi @ w + lo @ w)
                    total += e + f
        for step, a in enumerate(gs[step:], start=step + 1):
            matvec(a)
        out.append((math.log(math.hypot(*w.tolist())), total))
    return out


def loop_growth_rates(driver, v, ks, trial=0, widths=None):
    """(1/k) log ||A(k) v|| for each k from :func:`loop_log_norms` with the
    given widths, started at v rescaled to w_0: the rate is
    (log ||w|| - log ||w_0|| + E log 2) / k.
    :func:`horoflow.lyapunov._growth_rates` must agree bit for bit with the
    kernel's widths (:func:`kernel_widths`); without widths this is the
    old per-step kernel."""
    w0, _ = _pow2_rescale(np.asarray(v, dtype=float))
    log0 = math.log(math.hypot(*w0.tolist()))
    return [(log_w - log0 + total * math.log(2.0)) / k
            for (log_w, total), k in zip(loop_log_norms(driver, w0, ks, trial, widths), ks)]


def sqrt_loop_growth_rates(driver, v, ks, trial=0):
    """The same rates from the older scheme, which divides w by its norm
    sqrt(w^T w) after every step and sums the logs of the norms; the
    reference that ``mp_growth_rates`` measures the kernel against."""
    rates = []
    for k in ks:
        w = np.asarray(v, dtype=float)
        w = w / np.linalg.norm(w)
        rate = 0.0
        for a in elements(driver, trial, k):
            w = np.asarray(a, dtype=float) @ w
            s = np.linalg.norm(w)
            rate += math.log(s)
            w = w / s
        rates.append(rate / k)
    return rates


def mp_growth_rates(driver, v, ks, trial=0):
    """{k: (1/k) log(||A(k) v|| / ||v||)} from one 50-digit product of the
    driver's first max(ks) steps; every double converts exactly."""
    want = set(ks)
    out = {}
    maps, [idx] = driver.draw([trial], max(ks))
    with mpmath.workdps(_MP_DPS):
        exact = [mpmath.matrix(np.asarray(m, dtype=float).tolist()) for m in maps]
        w = mpmath.matrix(np.asarray(v, dtype=float).tolist())
        log0 = mpmath.log(mpmath.norm(w))
        for k, i in enumerate(idx.tolist(), start=1):
            w = exact[i] * w
            if k in want:
                out[k] = (mpmath.log(mpmath.norm(w)) - log0) / k
    return out


def _symmetric(y, tol=1e-9):
    y = np.asarray(y, dtype=float)
    if np.max(np.abs(y - y.T)) > tol * max(1.0, float(np.max(np.abs(y)))):
        raise SymmetryError("input matrix is not symmetric")
    return 0.5 * (y + y.T)


def sweep_pairs(seed, pairs, dim, scale):
    """segal-sweep's first ``pairs`` pairs from the sweep's one stream: pair
    i is its i-th (2, dim, dim) draw, u then v, each symmetrized."""
    rng = trial_rng(seed, 0)
    for _ in range(pairs):
        u, v = rng.uniform(-scale, scale, size=(2, dim, dim))
        yield _symmetric(0.5 * (u + u.T)), _symmetric(0.5 * (v + v.T))


def _spec(m):
    return float(np.linalg.norm(m, 2))


def _eig_expm(a):
    """(eigenvalues, q exp(w) q^T) of one symmetric matrix."""
    w, q = np.linalg.eigh(_symmetric(a))
    return w, (q * np.exp(w)) @ q.T


def loop_expm_taylor(a):
    """exp of one matrix by the degree-18 Taylor polynomial at a 2^-s,
    s from the exponent of its 1-norm, squared s times in a Python loop;
    :func:`horoflow.operator_cone.expm_taylor` on a stack must agree bit for
    bit."""
    s = max(math.frexp(float(np.abs(a).sum(axis=0).max()))[1], 0)
    a = a * 2.0 ** -s
    eye = np.eye(len(a))
    e = eye + a / 18
    for k in range(17, 0, -1):
        e = eye + (a @ e) / k
    for _ in range(s):
        e = e @ e
    return e


def loop_segal_sweep(seed, pairs, dim, scale):
    """segal-sweep's rows (pair, lhs, rhs, slack, path_gap), one pair of
    matrices at a time: lhs = exp of the top eigenvalue of u+v, rhs = the top
    eigenvalue of exp(u/2) exp(v) exp(u/2) with each factor from its own
    eigendecomposition, and path_gap between exp(u+v) from that of u+v and
    :func:`loop_expm_taylor`.  The stacked sweep must agree bit for bit."""
    rows = []
    for i, (u, v) in enumerate(sweep_pairs(seed, pairs, dim, scale)):
        w, e_sum = _eig_expm(u + v)
        eu2, ev = _eig_expm(0.5 * u)[1], _eig_expm(v)[1]
        lhs = float(np.exp(w[-1]))
        rhs = float(np.linalg.eigvalsh(eu2 @ ev @ eu2)[-1])
        path_gap = _spec(e_sum - loop_expm_taylor(u + v))
        rows.append((i, lhs, rhs, rhs - lhs, path_gap))
    return rows


def scipy_segal_sweep(seed, pairs, dim, scale):
    """segal-sweep's rows as the sweep computed them before it dropped
    scipy, one pair at a time: both norms as SVD norms of
    ``scipy.linalg.expm`` results, and path_gap between ``expm(u+v)`` and
    the eigendecomposition path.  The error baseline of :func:`mp_segal`."""
    rows = []
    for i, (u, v) in enumerate(sweep_pairs(seed, pairs, dim, scale)):
        lhs = _spec(scipy.linalg.expm(u + v))
        eu2 = scipy.linalg.expm(0.5 * u)
        rhs = _spec(eu2 @ scipy.linalg.expm(v) @ eu2)
        path_gap = _spec(scipy.linalg.expm(u + v) - _eig_expm(u + v)[1])
        rows.append((i, lhs, rhs, rhs - lhs, path_gap))
    return rows


def mp_segal(u, v):
    """(||exp(u+v)||, ||exp(u/2) exp(v) exp(u/2)||, exp(u+v)) at 50 digits:
    the exponentials by ``mpmath.expm``, the norms as top eigenvalues by
    ``mpmath.eigsy``; exp(u+v) is an mpmath matrix."""
    with mpmath.workdps(50):
        a, b = mpmath.matrix(u.tolist()), mpmath.matrix(v.tolist())
        e_sum = mpmath.expm(a + b)
        eu2 = mpmath.expm(a / 2)
        p = eu2 * mpmath.expm(b) * eu2
        lhs = mpmath.exp(max(mpmath.eigsy(a + b, eigvals_only=True)))
        rhs = max(mpmath.eigsy((p + p.T) / 2, eigvals_only=True))
    return lhs, rhs, e_sum


def mp_distance(m, exact):
    """Spectral norm of the float matrix m minus an mpmath matrix, with the
    difference formed at 50 digits."""
    with mpmath.workdps(50):
        diff = mpmath.matrix(np.asarray(m).tolist()) - exact
        return _spec(np.array(diff.tolist(), dtype=float))
