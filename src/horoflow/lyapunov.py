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

from ._exact import _aligned, _balanced, _dd_det, _halves, _pow2_normalize
from .cocycle import (ErgodicDriver, _drawn, check_steps, pairwise_product,
                      screen_invertible, tail_checkpoints)
from .core import DegenerateInputError

_LOG2 = math.log(2.0)
# the largest dimension qr_spectrum runs: past it the middle compound's
# C(d, d // 2) rows a step, and its Laplace minors, cost more than a QR
# step of the d x d frame (fresh Gaussian steps, n 5000: d 5 about 9x,
# d 6 about 50x the old LAPACK loop's time, and 1 GB at d 6)
_MAX_DIM = 4
# the steps of a growth-rate row's block product, a power of two: at 64 an
# sl2_pair spectrum of 20000 steps runs in 9 ms against 230 ms at one
# matmul a step, and wider blocks gain little (8.5 ms at 128 and 256)
_ROW_BLOCK = 64


@dataclass(frozen=True)
class SpectrumEstimate:
    exponents: np.ndarray   # (trials, d): each row sorted descending, with multiplicity
    resid: np.ndarray       # (trials, d): running-mean drift over the last decade


@dataclass(frozen=True)
class FiltrationProbeReport:
    rates: np.ndarray
    clusters: np.ndarray    # one label a probe, numbered by ascending rate


def qr_spectrum(driver: ErgodicDriver, n: int, trials=(0,)) -> SpectrumEstimate:
    """All d exponents of the cocycle of d x d matrices along each listed
    trial, the time averages of log |r_ii| of QR accumulation.

    The stream is consumed as left increments (new matrix outermost),
    matching the operator convention.  Exponent j after k steps is
    (S_j - S_(j-1)) / k, with S_j the log norm of the j-th exterior power
    of the product on e_1 ^ ... ^ e_j (see :func:`_exponent_sums`); the
    sums are carried exactly and each exponent is rounded once.  ``resid``
    is an exponent's largest drift over the tail checkpoints from its value
    at n.  Row t of both is trial trials[t]; the trials run together, as
    rows of one growth-rate run per compound order.  A step that takes a
    growth-rate row out of the double range is a rescaling fault at that
    step.  d is read from the drawn matrices and must be at most 4
    (``_MAX_DIM``).
    """
    if n < 10:
        raise DegenerateInputError("n must be >= 10")
    trials = list(trials)
    if not trials:
        raise DegenerateInputError("trials must be nonempty")
    maps, idx = driver.draw(trials, n)
    try:
        mats = np.asarray(maps, dtype=float)
    except ValueError:      # matrices of unequal shapes
        mats = np.empty(0)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise DegenerateInputError("step matrices must be square, of one size")
    d = mats.shape[-1]
    if d > _MAX_DIM:
        raise DegenerateInputError(f"the spectrum runs up to dimension {_MAX_DIM}, not {d}")
    ks = tail_checkpoints(n)
    exponents, resids = [], []
    for sums in _exponent_sums(mats, idx, ks):
        rates = np.array([[float((s - r) / k) for s, r, k in zip(sums[j + 1], sums[j], ks)]
                          for j in range(d)])
        final = rates[:, -1]
        order = np.argsort(-final)
        exponents.append(final[order])
        resids.append(np.max(np.abs(rates - final[:, None]), axis=1)[order])
    return SpectrumEstimate(exponents=np.array(exponents), resid=np.array(resids))


def _exponent_sums(mats, idx, ks) -> list:
    """S[t][j][c], j = 0 .. d: log ||L^j A(k) (e_1 ^ ... ^ e_j)||, L^j the
    j-th exterior power, at checkpoint k = ks[c] as an exact Fraction of
    its rounded pieces, for the product A(k) = A_k ... A_1 of the steps
    row t of the (trials, n) array idx draws from the (m, d, d) stack mats.
    QR accumulation's r_11 ... r_jj is this norm.

    - S_d is the sum of log |det| over the steps: each distinct matrix's
      determinant is formed once (:func:`_dd_det`) and weighted by how
      often each trial draws it.
    - For j <= d/2, S_j is a growth-rate row of the j-th compound of the
      steps (for j = 1 the step matrices) started at the first basis
      vector, e_1 ^ ... ^ e_j.
    - For j > d/2, Hodge duality, L^j A = det A L^(d-j)(A^-T), makes S_j
      S_d plus a row of the (d-j)-th compound of the inverse transposes
      started at the last basis vector, e_(j+1) ^ ... ^ e_d.

    Each row is run by :func:`_log_norms`, the compounds of one order in
    one run, with a row per (level, trial).  Up to d = 3 the rows multiply
    only the steps and their inverse transposes, both in range whenever
    the screen passes.  The middle compound of d = 4 has its minors scaled
    by a power of two per matrix, added back as an exact integer sum
    (:func:`_compound`); one whose scaled minors leave the double range is
    refused.
    """
    # at first use: no other kernel needs exact sums
    import decimal
    from fractions import Fraction
    # log 2 to 40 digits, rounded correctly by the decimal module in software
    ln2 = Fraction(decimal.Context(prec=40).ln(2))
    mats, invs, idx = _drawn(mats, idx)
    m, d, trials, c = len(mats), mats.shape[-1], len(idx), len(ks)
    # each trial's own distinct matrices, and counts[c, i]: how often the
    # trial draws its matrix i in its first ks[c] steps.  Counted over its
    # own matrices only: a fresh matrix a step gives m = trials * n, and
    # counts over all m would grow with trials^2
    own = []
    for row in idx:
        seen = np.bincount(row, minlength=m) > 0
        used = np.flatnonzero(seen)
        local = row if len(used) == m else (np.cumsum(seen) - 1)[row]
        segs = [np.bincount(local[a:b], minlength=len(used)) for a, b in zip([0] + ks, ks)]
        own.append((used, np.cumsum(segs, axis=0)))
    sums = [[[Fraction(0)] * c for _ in range(d + 1)] for _ in range(trials)]
    for t, det_sums in enumerate(_log_det_sums(mats, own)):
        sums[t][d] = [Fraction(s) + Fraction(r) + e * ln2 for s, r, e in det_sums]
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
                inverses = [screen_invertible(a) for a in stacks]
            except DegenerateInputError:
                raise DegenerateInputError(
                    f"exterior power {j} of a step matrix leaves the double range") from None
        runs.append((levels, stacks, inverses, shifts))
    for levels, stacks, inverses, shifts in runs:
        # a row per (level, trial): level j starts at the first basis
        # vector, its dual at the last
        w = np.zeros((len(levels), trials, stacks[0].shape[-1], 1))
        w[0, :, 0] = w[1:, :, -1] = 1.0
        rows = (idx + m * np.arange(len(levels))[:, None, None]).reshape(-1, idx.shape[1])
        logs, exps = (x.reshape(len(levels), trials, c) for x in _log_norms(
            np.concatenate(stacks), np.concatenate(inverses), rows, w.reshape(rows.shape[0], -1, 1),
            ks))
        for r, level in enumerate(levels):
            for t, (used, counts) in enumerate(own):
                base = sums[t][d] if level > d / 2 else sums[t][0]
                sums[t][level] = [b + Fraction(lg) + int(e) * ln2 for b, lg, e
                                  in zip(base, logs[r, t].tolist(),
                                         (exps[r, t] + counts @ shifts[r][used]).tolist())]
    return sums


def _log_det_sums(mats, own) -> list:
    """For each trial's (used, counts) of own, a list over the rows c of
    counts of sum_i counts[c, i] log |det mats[used[i]]|, as (s, r, e):
    the sum is s + r + e log 2 to about 2^-106 of its size.

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
    pieces, e = np.stack([big, little, lo / hi]), e - small
    out = []
    for used, counts in own:
        sums = []
        for c in counts:
            terms = (c * pieces[:, used]).ravel().tolist()
            s = math.fsum(terms)
            sums.append((s, math.fsum(terms + [-s]), int(c @ e[used])))
        out.append(sums)
    return out


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
    return np.ldexp(hi, _aligned(e, s[:, None, None])), s


def _block_widths(mats, invs):
    """The block width each matrix of the balanced (m, d, d) stack mats,
    with its inverse in invs, allows :func:`_log_norms`: the largest power
    of two w at most ``_ROW_BLOCK`` with w log2(bound) <= 480, bound the
    larger infinity norm of the matrix and of its inverse (at least 2), or
    1 where w = 2 breaks that.  Returns an (m,) integer array."""
    with np.errstate(over="ignore"):    # a norm past the double range is inf
        bound = np.maximum(np.abs(mats).sum(axis=-1).max(axis=-1),
                           np.abs(invs).sum(axis=-1).max(axis=-1))
    reach = np.clip(480.0 // np.log2(np.maximum(bound, 2.0)), 1, _ROW_BLOCK)
    # log2 of a power of two is exact, so the cast floors to its exponent
    return np.left_shift(1, np.log2(reach).astype(np.int64))


def _log_norms(mats, invs, idx, w, ks):
    """(logs, exps): run the rows of the (rows, d, 1) stack w to each
    ascending checkpoint k, and return, as (rows, len(ks)) arrays, the log
    of each rescaled row's 2-norm and the integer sum of the exponents
    taken out, so that log ||A(k) w|| = logs + exps log 2.

    Row r's step i applies mats[idx[r, i]]; idx may instead be a single
    row, whose step i then applies to every row.  invs holds the inverses
    of mats, every one of which idx draws (:func:`_drawn`).  w is
    overwritten.

    The matrices are first balanced against their inverses by exact powers
    of two (:func:`_balanced`), whose exponents count once a step.  The
    steps are then cut into blocks of ``_ROW_BLOCK`` steps, aligned to
    absolute step numbers.  Each idx row's block is cut again into aligned
    sub-blocks of the width its own matrices allow (the smallest
    :func:`_block_widths` among them), and every sub-block of width 2 or
    more of every idx row is multiplied at once in double-double
    (:func:`pairwise_product`, later steps on the left); rows that share
    an idx row share its products.  A block whose rows all have width 1 is
    stepped one matrix at a time, by its matrices with no lo part.  Any
    other block steps its rows one sub-block at a time, by the hi part and
    then the lo part (skipped where every lo part is zero), a sub-block of
    width 1 by its matrix; a row cut into fewer sub-blocks than another
    row of the run steps by the identity once it has taken its own.  The row is rescaled
    after each sub-block by the power of two that puts its largest
    modulus in [0.5, 1), and the exponents taken out are summed exactly
    as integers.
    A checkpoint inside a block is read from a copy of the row at the
    block's start, stepped one matrix at a time (:func:`_steps`).  So every value at k
    depends only on its own row's first k steps: one run read at many
    checkpoints equals separate runs, and a row of a batch equals its run
    alone, bit for bit.  (The rescalings are exact, so where they fall
    changes no bit unless an entry of a row is subnormal.)

    The width rule bounds a normalized sub-block product's condition
    number by 2^960, so no row can leave the double range or reach the
    subnormals in a sub-block of width 2 or more.  A row stepped one
    matrix at a time is rescaled once a span of steps as the width rule
    allows (span times log2 of the bound at most 480).  A row whose
    largest modulus is zero or past the double range after a rescaling is
    a rescaling fault at the last step it took.  Only a single step can
    fault (one whose matrix norm, or whose inverse's, is past 2^960, as
    spans shorten to one step), so the step named is exact.
    """
    mats, invs, shifts = _balanced(mats, invs)
    idx = np.asarray(idx)
    # the exponents the balancing took out of the steps up to each
    # checkpoint: a gather and a cumsum over every step, about 10% of a
    # 100-trial run, so skipped where no matrix was scaled
    shift_sums = np.zeros((1, len(ks)), dtype=np.int64)
    if shifts.any():
        shift_sums = np.cumsum(shifts[idx], axis=1)[:, np.asarray(ks) - 1]
    widths = _block_widths(mats, invs)
    rows, sets, d = len(w), len(idx), w.shape[1]
    size, blocks = _ROW_BLOCK, ks[-1] // _ROW_BLOCK
    # cut[s, b]: the sub-block width of idx row s in block b, from the
    # block's own matrices (a gather skipped where every matrix allows one
    # width)
    if widths.min() == widths.max():
        cut = np.full((sets, blocks), widths[0])
    else:
        cut = widths[idx[:, :blocks * size]].reshape(sets, blocks, size).min(axis=2)
    single = cut.min(axis=0, initial=size) == 1     # a width-1 sub-block may fault
    stepped = cut.max(axis=0, initial=0) == 1       # every row steps one matrix a step
    # the sub-blocks of the blocks not stepped, from offsets[b] to offsets[b + 1]
    offsets = np.concatenate([[0], np.cumsum(np.where(stepped, 0, size // cut.min(
        axis=0, initial=size)))])
    hi = np.empty((offsets[-1], sets, d, d))
    hi[:] = np.eye(d)
    lo = np.zeros_like(hi)
    e_block = np.zeros((blocks, sets), dtype=np.int64)
    for width in np.unique(cut[:, ~stepped]).tolist():
        s, b = np.nonzero((cut == width) & ~stepped)
        per = size // width
        segs = idx[s[:, None], (b * size)[:, None] + np.arange(size)].reshape(-1, width)
        at = (offsets[b][:, None] + np.arange(per), s[:, None])
        if width == 1:
            hi[at] = mats[segs].reshape(len(s), per, d, d)
            continue
        p_hi, p_lo, e = pairwise_product((mats, np.zeros(mats.shape)), segs, later_left=True)
        hi[at], lo[at] = (x.reshape(len(s), per, d, d) for x in (p_hi, p_lo))
        e_block[b, s] = e.reshape(len(s), per).sum(axis=1)
    lo = lo if lo.any() else None
    offsets, single, stepped = offsets.tolist(), single.tolist(), stepped.tolist()
    # e_sums[b]: the products' exponents over the first b blocks
    e_sums = np.concatenate([np.zeros((1, sets), dtype=np.int64), np.cumsum(e_block, axis=0)])
    steps = idx.T
    total = np.zeros(rows, dtype=np.int64)
    logs = np.empty((rows, len(ks)))
    exps = np.empty((rows, len(ks)), dtype=np.int64)
    # every step writes into the other buffer, then the two swap
    u, t = np.empty_like(w), np.empty_like(w)
    done = 0        # the full blocks the rows have taken
    with np.errstate(all="ignore"):
        for j, k in enumerate(ks):
            for b in range(done, k // size):
                # a single-step block reads its matrices from the stack by
                # one gather: gathered into hi with the product blocks, such
                # blocks raised peak RSS from 40 to 71 MB on diag
                # [1e-301, 1, 1e301] at n 100000
                if stepped[b]:
                    b_hi, b_lo = mats[steps[b * size:(b + 1) * size]], None
                else:
                    b_hi = hi[offsets[b]:offsets[b + 1]]
                    b_lo = None if lo is None else lo[offsets[b]:offsets[b + 1]]
                for i, a in enumerate(b_hi):
                    np.matmul(a, w, out=u)
                    if b_lo is not None:
                        u += np.matmul(b_lo[i], w, out=t)
                    w, u = u, w
                    w, taken = _pow2_normalize(w, (1, 2), out=w)
                    total += taken
                    # a row of width-1 sub-blocks steps one matrix a sub-block
                    if single[b] and not all(taken.tolist()):
                        check_steps(np.abs(w).max(axis=(1, 2))[None], b * size + i + 1)
            done = k // size
            row, side, pos = w, 0, done * size
            if pos < k:     # the checkpoint lies inside a block
                span = int(widths[steps[pos:k]].min())
                row, side = _steps(mats, steps[pos:k], w, span, pos)
            # math.log, not np.log: numpy's SIMD log can differ in the last bit
            logs[:, j] = [math.log(math.hypot(*r)) for r in row[:, :, 0].tolist()]
            exps[:, j] = total + side + e_sums[done] + shift_sums[:, j]
    return logs, exps


def _steps(mats, steps, w, span, done):
    """(w, taken): a copy of the rows w stepped through each row of steps,
    one stacked matmul a step, and rescaled by a power of two once every
    span steps and at the end; taken is the exponents taken out.  done is
    the steps taken before, for a fault's step number."""
    w, u, total = w.copy(), np.empty_like(w), 0
    for start in range(0, len(steps), span):
        stop = min(start + span, len(steps))
        for a in mats[steps[start:stop]]:
            np.matmul(a, w, out=u)
            w, u = u, w
        w, taken = _pow2_normalize(w, (1, 2), out=w)
        # only a row that took out no exponent can be zero or not finite
        # (a Python test a span, cheaper than numpy's on a few rows);
        # check_steps then names the fault
        if not all(taken.tolist()):
            check_steps(np.abs(w).max(axis=(1, 2))[None], done + stop)
        total = total + taken
    return w, total


def _growth_rates(mats, idx, V, ks) -> np.ndarray:
    """(1/k) log ||A(k) v|| for each row at each ascending checkpoint k, all
    read off one run of ks[-1] steps per row (:func:`_log_norms`) on the
    matrices idx draws (:func:`_drawn`).

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
    if not (np.isfinite(V).all() and (V != 0.0).any(axis=1).all()):
        raise DegenerateInputError("probe vectors must be finite and nonzero")
    w, _ = _pow2_normalize(V[:, :, None], (1, 2))
    mats, invs, idx = _drawn(mats, idx)
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
    # in rate order, a gap of at least cluster_tol starts the next cluster
    order = np.argsort(rates)
    clusters = np.empty(len(rates), dtype=np.intp)
    clusters[order] = np.concatenate([[0], np.cumsum(np.diff(rates[order]) >= cluster_tol)])
    return FiltrationProbeReport(rates=rates, clusters=clusters)
