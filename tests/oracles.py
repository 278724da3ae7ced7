"""Independent numerical oracles for the test suite.

Each oracle recomputes a quantity by a route different from the package
implementation: quadrature of the hyperbolic line element, radial limits
of anchored functionals, direct optimization of Rayleigh quotients, SVD
for operator norms, exact rational arithmetic for matrix products, and
one-trial, one-step-at-a-time loops for the kernels that step all trials
together (scaled operator products, disk walks, layer chains, orbit folds,
Segal pairs), one-sample-at-a-time loops for the metric property suites,
and step-at-a-time sums for the QR spectrum and the growth rates.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.integrate
import scipy.linalg

from horoflow.cocycle import (LEFT, EstimationError, LyapunovEstimate,
                              _dist_origin, _tail_slope, geometric_checkpoints)
from horoflow.core import (AxiomReport, DegenerateInputError,
                           FunctionalBoundReport, symmetrize)
from horoflow.deepnet import ACTIVATIONS, RESNET_ADJOINT
from horoflow.lyapunov import SpectrumEstimate
from horoflow.operator_cone import ScaledProduct, SymmetryError
from horoflow.seeding import trial_rng


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


def loop_walk_gaps(mats, ks):
    """gap(k) at each checkpoint k of one disk walk on the unit-determinant
    2x2 matrices ``mats``: the prefix products, then the suffix products,
    one matrix at a time, each divided by its largest entry modulus.

    The batched :func:`horoflow.cocycle.hyperbolic_walk_gap` must agree with
    this loop bit for bit.
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


def _chain(layers, X):
    """T1(T2(...Tn(X))) for the LayerMaps ``layers``, one layer at a time;
    X holds points as columns, or is one point."""
    for layer in reversed(layers):
        b = layer.b if X.ndim == 1 else layer.b[:, None]
        Z = ACTIVATIONS[layer.activation](layer.W @ X + b)
        X = layer.W.T @ Z if layer.form == RESNET_ADJOINT else Z
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


def loop_lipschitz_profile(layers, pair_sampler, n_pairs, seed):
    """The Lipschitz profile with each point of each pair sent through the
    chain on its own; the batched
    :func:`horoflow.deepnet.lipschitz_profile` must agree bit for bit."""
    rng = trial_rng(seed, 0)
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


def loop_weak_metric_axioms(space, n_triples, seed=0):
    """The axiom suite one triple at a time, each distance through
    ``space.distance``; :func:`horoflow.core.check_weak_metric_axioms` must
    agree field for field."""
    rng = trial_rng(seed, 0)
    max_id = 0.0
    max_tri = 0.0
    min_pair = math.inf
    for _ in range(n_triples):
        x = space.sample_point(rng)
        y = space.sample_point(rng)
        z = space.sample_point(rng)
        max_id = max(max_id, abs(space.distance(x, x)))
        dxy = space.distance(x, y)
        dxz = space.distance(x, z)
        dzy = space.distance(z, y)
        scale = max(1.0, abs(dxy), abs(dxz), abs(dzy))
        max_tri = max(max_tri, (dxy - dxz - dzy) / scale)
        min_pair = min(min_pair, dxy + space.distance(y, x))
    return AxiomReport(space=space.name, n_triples=n_triples,
                       max_identity_error=max_id,
                       max_triangle_violation=max_tri,
                       min_pair_symmetrization=min_pair)


def loop_functional_bounds(space, x0, n_samples, seed=0):
    """The functional-bound suite one sample at a time;
    :func:`horoflow.core.check_functional_bounds` must agree field for field."""
    rng = trial_rng(seed, 0)
    low = up = cont = 0.0
    for _ in range(n_samples):
        anchor = space.sample_point(rng)
        y = space.sample_point(rng)
        z = space.sample_point(rng)
        dxa = space.distance(x0, anchor)
        hy = space.distance(y, anchor) - dxa
        hz = space.distance(z, anchor) - dxa
        low = max(low, -space.distance(x0, y) - hy)
        up = max(up, hy - space.distance(y, x0))
        cont = max(cont, abs(hy - hz) - symmetrize(space, y, z))
    return FunctionalBoundReport(space=space.name, n_samples=n_samples,
                                 max_lower_violation=low,
                                 max_upper_violation=up,
                                 max_continuity_violation=cont)


def loop_orbit_at(driver, space, x0, ks, trial=0):
    """Orbit points u(k)x0 of one trial, one point and one map at a time:
    a right-increment checkpoint k folds g_1(...g_k(x0)) on its own, and a
    left-increment orbit checks the domain after every step.  Returns
    (dict k -> point, truncated_at or None); the stacked fold in
    :func:`horoflow.cocycle.orbit_at` must agree bit for bit."""
    def apply(g, x):
        return g(x) if callable(g) else np.asarray(g) @ x

    def inside(p):
        return space is None or space.in_domain is None or space.in_domain(p)

    ks = sorted(set(int(k) for k in ks))
    gs = driver.elements(trial, ks[-1])
    out = {}
    if driver.order == LEFT:
        y = x0
        for k, g in enumerate(gs, start=1):
            y = apply(g, y)
            if not inside(y):
                return out, k
            if k in ks:
                out[k] = y
        return out, None
    for k in ks:
        y = x0
        for i in range(k - 1, -1, -1):
            y = apply(gs[i], y)
        if not inside(y):
            return out, k
        out[k] = y
    return out, None


def loop_top_exponent(driver, space, x0, n, trials):
    """The top-exponent estimate one trial at a time through
    :func:`loop_orbit_at`; :func:`horoflow.cocycle.estimate_top_exponent`
    must agree field for field, and raise the same EstimationError."""
    tail_ks = geometric_checkpoints(n, count=8, start=max(1, n // 10))
    per_trial = []
    tail_sum = np.zeros(len(tail_ks))
    tail_cnt = 0
    truncated = 0
    for t in range(trials):
        pts, cut = loop_orbit_at(driver, space, x0, tail_ks, trial=t)
        if cut is not None:
            truncated += 1
            continue
        ratios = np.array([space.distance(x0, pts[k]) / k for k in tail_ks])
        per_trial.append(ratios[-1])
        tail_sum += ratios
        tail_cnt += 1
    if truncated > 0.1 * trials:
        raise EstimationError(f"{truncated}/{trials} trials truncated")
    per_trial = np.asarray(per_trial)
    lam = float(np.mean(per_trial))
    se = float(np.std(per_trial, ddof=1) / math.sqrt(len(per_trial))) \
        if len(per_trial) > 1 else 0.0
    slope = _tail_slope(np.asarray(tail_ks, dtype=float), tail_sum / max(tail_cnt, 1))
    return LyapunovEstimate(lambda_hat=lam, n=n, trials=trials,
                            per_trial=per_trial, std_error=se,
                            tail_slope=slope, truncated_trials=truncated)


def loop_qr_spectrum(driver, dim, n, trial=0):
    """QR accumulation with the log of each step's R diagonal added to a
    running sum as it is factored; :func:`horoflow.lyapunov.qr_spectrum`
    must agree bit for bit."""
    mats = [np.asarray(a, dtype=float) for a in driver.elements(trial, n)]
    q = np.eye(dim)
    sums = np.zeros(dim)
    checkpoints = set(geometric_checkpoints(n, count=8, start=max(1, n // 10)))
    snapshots = []
    geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (q,))
    for k, a in enumerate(mats, start=1):
        packed, tau, _, _ = geqrf(a @ q, overwrite_a=True)
        rdiag = np.diagonal(packed).copy()
        if np.any(np.abs(rdiag) < 1e-300):
            raise FloatingPointError(f"rescaling fault at step {k}")
        qmat, _, _ = orgqr(packed, tau)
        q = np.where(rdiag < 0.0, -qmat, qmat)
        sums += np.log(np.abs(rdiag))
        if k in checkpoints:
            snapshots.append(sums / k)
    final = sums / n
    resid = np.max(np.abs(np.asarray(snapshots) - final), axis=0)
    order = np.argsort(-final)
    return SpectrumEstimate(exponents=final[order], n=n, resid=resid[order])


def loop_growth_rates(driver, v, ks, trial=0):
    """(1/k) log ||A(k) v|| for each k, each from its own renormalized run
    of k steps; one run read at every checkpoint must agree bit for bit."""
    rates = []
    for k in ks:
        w = np.asarray(v, dtype=float)
        w = w / np.linalg.norm(w)
        rate = 0.0
        for a in driver.elements(trial, k):
            w = np.asarray(a, dtype=float) @ w
            s = np.linalg.norm(w)
            rate += math.log(s)
            w = w / s
        rates.append(rate / k)
    return rates


def _symmetric(y, tol=1e-9):
    y = np.asarray(y, dtype=float)
    if np.max(np.abs(y - y.T)) > tol * max(1.0, float(np.max(np.abs(y)))):
        raise SymmetryError("input matrix is not symmetric")
    return 0.5 * (y + y.T)


def loop_segal_sweep(seed, pairs, dim, scale):
    """segal-sweep's rows (pair, lhs, rhs, slack, path_gap), one pair of
    matrices at a time: each pair's exponentials, eigendecomposition and
    spectral norms on their own.  The stacked sweep must agree bit for bit."""
    def spec(m):
        return float(np.linalg.norm(m, 2))

    rows = []
    for i in range(pairs):
        rng = trial_rng(seed, i)
        u = rng.uniform(-scale, scale, size=(dim, dim))
        v = rng.uniform(-scale, scale, size=(dim, dim))
        u = _symmetric(0.5 * (u + u.T))
        v = _symmetric(0.5 * (v + v.T))
        lhs = spec(scipy.linalg.expm(u + v))
        eu2 = scipy.linalg.expm(0.5 * u)
        rhs = spec(eu2 @ scipy.linalg.expm(v) @ eu2)
        w, q = np.linalg.eigh(_symmetric(u + v))
        path_gap = spec(scipy.linalg.expm(u + v) - (q * np.exp(w)) @ q.T)
        rows.append((i, lhs, rhs, rhs - lhs, path_gap))
    return rows
