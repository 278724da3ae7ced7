"""Lyapunov spectra of finite-dimensional invertible matrix cocycles.

The sum of the top j exponents is the growth rate of the j-th exterior
power of the cocycle on e_1 ^ ... ^ e_j, the quantity QR accumulation's
r_11 ... r_jj measures step by step, so the full spectrum is read from
growth rates and determinants without re-orthonormalizing a frame.
Growth rates run every start vector and trial as a row on one leading
axis, rescaled by an exact power of two once a block of steps; filtration
structure is probed by clustering the growth rates of a probe set under a
constant matrix.
"""

from dataclasses import dataclass

import itertools
import math

import numpy as np

from .cocycle import (_PRODUCT_BLOCK, ErgodicDriver, _halves, _two_prod, _two_sum,
                      check_steps, screen_invertible, tail_checkpoints)
from .core import DegenerateInputError

_LOG2 = math.log(2.0)
# the largest dimension qr_spectrum runs: past it the middle compound's
# C(d, d // 2) rows a step, and its Laplace minors, cost more than a QR
# step of the d x d frame (fresh Gaussian steps, n 5000: d 5 about 9x,
# d 6 about 50x the old LAPACK loop's time, and 1 GB at d 6)
_MAX_DIM = 4
# the exponent _dd_det gives a zero: far below that of any nonzero product
_ZERO_EXP = -(1 << 40)


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
    """All dim exponents of the cocycle, the time averages of log |r_ii|
    of QR accumulation.

    The stream is consumed as left increments (new matrix outermost),
    matching the operator convention.  Exponent j after k steps is
    (S_j - S_(j-1)) / k, with S_j the log norm of the j-th exterior power
    of the product on e_1 ^ ... ^ e_j (see :func:`_exponent_sums`); the
    sums are carried exactly and each exponent is rounded once.  ``resid``
    is an exponent's largest drift over the tail checkpoints from its value
    at n.  A step that takes a growth-rate row out of the double range is
    a rescaling fault at that step.  dim must be at most 4 (``_MAX_DIM``).
    """
    if n < 10:
        raise DegenerateInputError("n must be >= 10")
    if dim > _MAX_DIM:
        raise DegenerateInputError(f"the spectrum runs up to dimension {_MAX_DIM}, not {dim}")
    maps, idx = driver.draw([trial], n)
    mats = np.asarray(maps, dtype=float)
    if mats.shape[1:] != (dim, dim):
        raise DegenerateInputError(f"step matrices must be {dim} x {dim}")
    ks = tail_checkpoints(n)
    sums = _exponent_sums(mats, idx, ks)
    rates = np.array([[float((s - r) / k) for s, r, k in zip(sums[j + 1], sums[j], ks)]
                      for j in range(dim)])
    final = rates[:, -1]
    resid = np.max(np.abs(rates - final[:, None]), axis=1)
    order = np.argsort(-final)
    return SpectrumEstimate(exponents=final[order], n=n, resid=resid[order])


def _exponent_sums(mats, idx, ks) -> list:
    """S[j][c], j = 0 .. d: log ||L^j A(k) (e_1 ^ ... ^ e_j)||, L^j the j-th
    exterior power, at checkpoint k = ks[c] as an exact Fraction of its
    rounded pieces, for the product A(k) = A_k ... A_1 of the steps the
    (1, n) row idx draws from the (m, d, d) stack mats.  QR accumulation's
    r_11 ... r_jj is this norm.

    - S_d is the sum of log |det| over the steps: each distinct matrix's
      determinant is formed once (:func:`_dd_det`) and weighted by its
      count.
    - For j <= d/2, S_j is a growth-rate row of the j-th compound of the
      steps (for j = 1 the step matrices) started at the first basis
      vector, e_1 ^ ... ^ e_j.
    - For j > d/2, Hodge duality, L^j A = det A L^(d-j)(A^-T), makes S_j
      S_d plus a row of the (d-j)-th compound of the inverse transposes
      started at the last basis vector, e_(j+1) ^ ... ^ e_d.

    Each row is run by :func:`_log_norms`, the compounds of one order in
    one run.  Up to d = 3 the rows multiply only the steps and their
    inverse transposes, both in range whenever the screen passes.  The
    middle compound of d = 4 has its minors scaled by a power of two per
    matrix, added back as an exact integer sum (:func:`_compound`); one
    whose scaled minors leave the double range is refused.
    """
    # at first use: no other kernel needs exact sums
    import decimal
    from fractions import Fraction
    # log 2 to 40 digits, rounded correctly by the decimal module in software
    ln2 = Fraction(decimal.Context(prec=40).ln(2))
    # the distinct drawn matrices, idx relabelled to count them
    drawn = np.bincount(idx[0], minlength=len(mats)) > 0
    mats, idx = mats[drawn], (np.cumsum(drawn) - 1)[idx]
    invs = screen_invertible(mats, idx)
    m, d = len(mats), mats.shape[-1]
    counts = np.array([np.bincount(idx[0, :k], minlength=m) for k in ks])
    sums = [[Fraction(0)] * len(ks) for _ in range(d + 1)]
    sums[d] = [Fraction(s) + Fraction(r) + e * ln2 for s, r, e in _log_det_sums(mats, counts)]
    # every stack is built, and screened, before the first step
    runs = []
    for j in range(1, d // 2 + 1):
        levels = [j, d - j] if 2 * j < d else [j]
        stacks = [mats, invs.transpose(0, 2, 1)][:len(levels)]
        if j == 1:
            inverses = [invs, mats.transpose(0, 2, 1)][:len(levels)]
            shifts = [np.zeros(m, dtype=np.int64)] * len(levels)
        else:
            stacks, shifts = zip(*(_compound(a, j) for a in stacks))
            try:
                inverses = [screen_invertible(a, idx) for a in stacks]
            except DegenerateInputError:
                raise DegenerateInputError(
                    f"exterior power {j} of a step matrix leaves the double range") from None
        runs.append((levels, stacks, inverses, shifts))
    for levels, stacks, inverses, shifts in runs:
        # level j starts at the first basis vector, its dual at the last
        w = np.zeros((len(levels), stacks[0].shape[-1], 1))
        w[0, 0] = w[1:, -1] = 1.0
        logs, exps = _log_norms(np.concatenate(stacks), np.concatenate(inverses),
                                idx + m * np.arange(len(levels))[:, None], w, ks)
        for r, level in enumerate(levels):
            exps[r] += counts @ shifts[r]
            base = sums[d] if level > d / 2 else sums[0]
            sums[level] = [b + Fraction(lg) + int(e) * ln2
                           for b, lg, e in zip(base, logs[r].tolist(), exps[r].tolist())]
    return sums


def _log_det_sums(mats, counts) -> list:
    """sum_m counts[c, m] log |det mats[m]| for each row c of counts, as
    (s, r, e): the sum is s + r + e log 2 to about 2^-106 of its size.

    log |det| is log f + lo/hi + e log 2 from :func:`_dd_det`'s (hi, lo, e),
    with f = |hi| or 2|hi|, whichever lies in [sqrt(1/2), sqrt(2)): a
    determinant of 1 has log 0 and a power of two an integer multiple of
    log 2.  The count-weighted sum of the logs is exact, since a count
    (below 2^27) times a Veltkamp half (26 bits) is, and is rounded to a
    pair of doubles by math.fsum; the exponents are summed as integers.
    """
    hi, lo, e = _dd_det(mats)
    if not np.all(hi != 0.0):
        raise DegenerateInputError("singular step matrix")
    small = np.abs(hi) < math.sqrt(0.5)
    f = np.where(small, 2.0, 1.0) * np.abs(hi)
    big, little = _halves(np.array([math.log(x) for x in f.tolist()]))
    rel, e = lo / hi, e - small
    out = []
    for c in counts:
        terms = np.concatenate([c * big, c * little, c * rel]).tolist()
        s = math.fsum(terms)
        out.append((s, math.fsum(terms + [-s]), int(c @ e)))
    return out


def _dd_det(a):
    """(hi, lo, e): the determinant of each matrix of the (..., k, k) stack
    a is (hi + lo) 2^e, with |hi| in [1/2, 1) and lo within half an ulp of
    hi, or hi = lo = 0 for a zero determinant.

    Laplace expansion along the rows in turn, each minor of the leading
    rows formed once from those of one row fewer, starting from the first
    row's entries.  Entries are split by np.frexp into fractions and
    exponents, and a minor is carried as a double-double fraction with an
    integer exponent, so no product or sum leaves the double range: a
    fraction times a minor is ``_two_prod`` plus the low part's product,
    and the terms of a minor are aligned to the largest exponent and added
    with ``_two_sum``.
    """
    frac, ex = np.frexp(a)
    ex = np.where(frac == 0.0, _ZERO_EXP, ex.astype(np.int64))
    k = a.shape[-1]
    # the first row's minors are its entries, already normalized
    minors = {(c,): (frac[..., 0, c], np.zeros(a.shape[:-2]), ex[..., 0, c])
              for c in range(k)}
    for r in range(1, k):
        new = {}
        for cols in itertools.combinations(range(k), r + 1):
            terms = []
            for pos, c in enumerate(cols):
                hi, lo, e = minors[cols[:pos] + cols[pos + 1:]]
                f = frac[..., r, c] if (r + pos) % 2 == 0 else -frac[..., r, c]
                p, q = _two_prod(f, hi)
                terms.append((p, q + f * lo, e + ex[..., r, c]))
            new[cols] = _dd_normalized_sum(terms)
        minors = new
    return minors[tuple(range(k))]


def _dd_normalized_sum(terms):
    """(hi, lo, e) of the sum of the terms (p, q, e), each (p + q) 2^e: the
    terms are scaled to the largest exponent (one 2^1100 below it
    vanishes), added with ``_two_sum``, and the sum is scaled so that |hi|
    lies in [1/2, 1); a zero sum gets exponent ``_ZERO_EXP``."""
    top = np.max([e for _, _, e in terms], axis=0)
    hi = lo = 0.0
    for p, q, e in terms:
        shift = np.maximum(e - top, -1100).astype(np.int32)
        hi, err = _two_sum(hi, np.ldexp(p, shift))
        lo = lo + (np.ldexp(q, shift) + err)
    s = hi + lo
    lo = lo - (s - hi)
    g = np.frexp(s)[1]
    return np.ldexp(s, -g), np.ldexp(lo, -g), np.where(s == 0.0, _ZERO_EXP, top + g)


def _balanced(a, inv):
    """(a 2^-s, inv 2^s, s): each matrix of the (m, d, d) stack a, and its
    inverse in inv, scaled by the power of two that brings their infinity
    norms together (s is half the difference of the norms' binary
    exponents), where every nonzero entry of a 2^-s stays a finite normal
    double, so that the scaling is exact; s = 0 otherwise.
    :func:`_log_norms`'s blocks shorten with the larger of the two norms,
    so a scaled identity runs in full-width blocks."""
    frac, e = np.frexp(a)
    nonzero = frac != 0.0
    top = np.max(np.where(nonzero, e, -(1 << 20)), axis=(1, 2))
    low = np.min(np.where(nonzero, e, 1 << 20), axis=(1, 2))
    with np.errstate(over="ignore"):
        ea, ei = (np.frexp(np.abs(x).sum(axis=-1).max(axis=-1))[1] for x in (a, inv))
        s = (ea - ei) // 2
        s = np.where((top - s <= 1024) & (low - s >= -1021), s, 0).astype(np.int64)
        return np.ldexp(a, -s[:, None, None]), np.ldexp(inv, s[:, None, None]), s


def _compound(a, j):
    """(M, s): the j-th compound of each matrix of the (m, d, d) stack a,
    its entries the j x j minors on the lexicographically ordered j-subsets
    of rows and columns, scaled by the power of two 2^-s (one per matrix)
    that puts its largest entry modulus in [1/2, 1).  A minor more than
    2^1100 below the largest is 0."""
    subsets = np.array(list(itertools.combinations(range(a.shape[-1]), j)))
    rows, cols = subsets[:, None, :, None], subsets[None, :, None, :]
    # a gather of at most 2^16 entries at a time bounds the temporaries
    chunk = max((1 << 16) // (len(subsets) * j) ** 2, 1)
    parts = [_dd_det(a[i:i + chunk][:, rows, cols])[::2] for i in range(0, len(a), chunk)]
    hi, e = (np.concatenate(c) for c in zip(*parts))
    s = np.max(e, axis=(1, 2))
    return np.ldexp(hi, np.maximum(e - s[:, None, None], -1100).astype(np.int32)), s


def _rescale(w):
    """Scale each row of the (rows, d, 1) stack w in place by the power of
    two that puts its largest modulus in [0.5, 1).  Returns the (rows,)
    largest moduli before the scaling and the exponents taken out; a row
    whose largest modulus is zero or not finite keeps its entries, with
    exponent 0."""
    top = np.abs(w).max(axis=(1, 2))
    exps = np.frexp(top)[1]
    np.ldexp(w, -exps[:, None, None], out=w)
    return top, exps


def _log_norms(mats, invs, idx, w, ks):
    """(logs, exps): run the rows of the (rows, d, 1) stack w to each
    ascending checkpoint k, and return, as (rows, len(ks)) arrays, the log
    of each rescaled row's 2-norm and the integer sum of the exponents
    taken out, so that log ||A(k) w|| = logs + exps log 2.

    Row r's step i applies mats[idx[r, i]]; idx may instead be a single
    row, whose step i then applies to every row.  invs holds the inverses
    of mats (nan where nothing is drawn).  w is overwritten.

    Each step is one stacked matmul.  The rows are rescaled only at the end
    of a block of steps, by the power of two that puts a row's largest
    modulus in [0.5, 1), and the exponents taken out are summed exactly as
    integers; power-of-two scaling is exact, so where a block ends moves no
    bit.  The matrices are first balanced against their inverses by exact
    powers of two (:func:`_balanced`), whose exponents count once a step.
    A block is short enough that no row can overflow or reach the
    subnormals inside it: its width times log2 of the largest infinity
    norm of a balanced drawn matrix or of its inverse is at most 960.
    Blocks also end at every checkpoint.  A gather stays within ``_PRODUCT_BLOCK``
    matrices.  A row whose largest modulus is zero or past the double range
    at a block end is a rescaling fault at the block's last step.  Only a
    block of one step can fault (a matrix whose norm, or whose inverse's,
    is past 2^960 makes every block one step long), so the step named is
    exact.
    """
    drawn = ~np.isnan(invs[:, 0, 0])    # an undrawn matrix's inverse is nan
    mats, invs, shifts = _balanced(mats, invs)
    # the exponents the balancing took out of the steps up to each
    # checkpoint: a gather and a cumsum over every step, about 10% of a
    # 100-trial run, so skipped where no matrix was scaled
    shift_sums = np.zeros((1, len(ks)), dtype=np.int64)
    if shifts.any():
        shift_sums = np.cumsum(shifts[np.asarray(idx)], axis=1)[:, np.asarray(ks) - 1]
    with np.errstate(over="ignore"):
        bound = max(float(np.abs(mats[drawn]).sum(axis=-1).max()),
                    float(np.abs(invs[drawn]).sum(axis=-1).max()), 2.0)
    steps = np.asarray(idx).T
    width = min(max(int(960 // math.log2(bound)), 1),
                max(_PRODUCT_BLOCK // steps.shape[1], 1))
    rows = len(w)
    total = np.zeros(rows, dtype=np.int64)
    logs = np.empty((rows, len(ks)))
    exps = np.empty((rows, len(ks)), dtype=np.int64)
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
                top, taken = _rescale(w)
                # a Python comparison a block; check_steps only to name a fault
                if not all(0.0 < t < math.inf for t in top.tolist()):
                    check_steps(top[None], stop)
                total += taken
                start = stop
            # math.log, not np.log: numpy's SIMD log can differ in the last bit
            logs[:, j] = [math.log(math.hypot(*row)) for row in w[:, :, 0].tolist()]
            exps[:, j] = total + shift_sums[:, j]
    return logs, exps


def _growth_rates(mats, idx, V, ks) -> np.ndarray:
    """(1/k) log ||A(k) v|| for each row at each ascending checkpoint k, all
    read off one run of ks[-1] steps per row (:func:`_log_norms`).

    Row r starts at V[r], and its step i applies mats[idx[r, i]]; the rows
    run together on a leading axis.  idx may instead be a single row, whose
    step i then applies to every row.  Returns a (rows, len(ks)) array.
    The rate is (log ||w|| - log ||w_0|| + E log 2) / k from the rescaled
    row w, the start w_0 rescaled the same way and the exponent sum E.
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
    logs0 = np.array([math.log(math.hypot(*row)) for row in w[:, :, 0].tolist()])
    logs, exps = _log_norms(mats, invs, idx, w, ks)
    return (logs - logs0[:, None] + exps * _LOG2) / np.asarray(ks)


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
