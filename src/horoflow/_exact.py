"""Error-free transformations and exact power-of-two scaling.

The kernels whose bits must not depend on the CPU build on this module:
the double-double scaled products of :mod:`horoflow.cocycle`, the
determinants, balancing and growth-rate rows of :mod:`horoflow.lyapunov`,
and the disk and Euclidean distances of :mod:`horoflow.spaces`.  Knuth's
sum and Dekker's product carry a result as an unevaluated pair hi + lo
(Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005), and a scale
outside the double range is carried as an integer exponent, taken out or
put back by a power of two.

A CPU-independent kernel uses only these operations:

- elementwise ``+ - * /`` and ``sqrt``, each correctly rounded, in an
  order fixed by the code (not by a BLAS or a SIMD reduction);
- scaling by a power of two: ``np.frexp``, ``np.ldexp`` and products with
  an exact power of two, all exact where no result is subnormal.

``math.*`` per value (``log``, ``asinh``, ``exp``) is the platform
libm's: glibc's FMA variants round a few results differently, so a kernel
that calls it depends on a declared libm, not on this list alone.
"""

import itertools

import numpy as np
from numpy.lib.array_utils import normalize_axis_tuple

# Veltkamp's constant: splits a double into two halves of 26 bits
_SPLIT = 2.0 ** 27 + 1.0
# the exponent _dd_det gives a zero: far below that of any nonzero product
_ZERO_EXP = -(1 << 40)


def _two_sum(a, b):
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _halves(a):
    c = _SPLIT * a
    big = c - (c - a)
    return big, a - big


def _two_prod(a, b):
    """(p, q) with p + q == a * b exactly, for entries of modulus at most 1
    whose product is not subnormal (Dekker's product)."""
    a1, a2 = _halves(a)
    b1, b2 = _halves(b)
    p = a * b
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


def _dd_matmul(ah, al, bh, bl):
    """(hi, lo) of (ah + al) @ (bh + bl) for real stacks of one shape with
    entries of modulus at most 1.

    The stack axis is moved innermost, so every elementwise operation runs
    over the whole stack rather than over rows of length d; each product is
    still formed on its own, so the bits do not depend on the layout.  The
    results are views in that layout, which the next call takes without a
    copy when it chains them whole."""
    shape, d = ah.shape, ah.shape[-1]
    ah, al, bh, bl = (np.ascontiguousarray(x.reshape(-1, d, d).transpose(1, 2, 0))
                      for x in (ah, al, bh, bl))
    A, B = ah[:, :, None], bh[None]                 # (i, k, j, stack)
    # the broadcast views are split before they broadcast, d^2 entries each
    p, e = _two_prod(A, B)
    e += al[:, :, None] * B + A * bl[None]
    hi, lo = p[:, 0], e.sum(axis=1)
    for k in range(1, d):
        hi, q = _two_sum(hi, p[:, k])
        lo = lo + q
    s = hi + lo
    return tuple(x.transpose(2, 0, 1).reshape(shape) for x in (s, lo - (s - hi)))


def _top_modulus(x, axis):
    """The largest modulus of x over ``axis``, keeping its dimensions.

    Over the trailing two axes of a C-order stack of at least 32 slices per
    entry of a slice, an elementwise maximum over the entries, each a
    strided view, replaces numpy's reduction; the maximum, and so every
    bit, is the same.  Where each wins (timeit, one core of a 2-vCPU
    x86-64 host, numpy 2.4): on C order the reduction over short inner
    axes costs 14 µs against 4.8 for 256 2 x 2 slices, 40 against 30 for
    1024 4 x 4 and 206 against 18 for 4096 2 x 2, and the two are about
    even at 16 slices per entry of 2 x 1 and 2 x 2 rows and at 32 of 4 x 4
    ones.  Below that the reduction wins: a 2 x 2 matrix 1.7 against
    6.2 µs, a 4 x 4 1.7 against 18.5, three 2 x 1 rows (the rows of a
    growth-rate run) 1.8 against 3.0.  On the stack-innermost layout
    ``_dd_matmul`` leaves, it wins at every size measured (4096 2 x 2: 11
    against 15 µs).  The moduli are freed on return, so a caller's next
    array of their size reuses them.
    """
    mod = np.abs(x)
    entries = x.shape[-2] * x.shape[-1] if x.ndim > 2 else 0
    if not (entries and x.size >= 32 * entries ** 2 and x.flags.c_contiguous
            and normalize_axis_tuple(axis, x.ndim) == (x.ndim - 2, x.ndim - 1)):
        return mod.max(axis=axis, keepdims=True, initial=0.0)
    top = mod[..., 0, 0].copy()
    for i, j in itertools.product(range(x.shape[-2]), range(x.shape[-1])):
        np.maximum(top, mod[..., i, j], out=top)
    return top[..., None, None]


def _pow2_normalize(x, axis, out=None):
    """(x 2^-e, e): the real array x scaled by the power of two 2^-e that
    puts its largest modulus over ``axis`` (an int or a tuple) in [1/2, 1),
    and the integer exponents e, shaped like x without ``axis``.  A slice
    whose largest modulus is zero or not finite keeps its entries, with
    e = 0.  The result is written to ``out`` when given (x itself scales
    in place).

    The scaling is np.ldexp, exact wherever the result is not subnormal.
    """
    e = np.frexp(_top_modulus(x, axis))[1]
    return np.ldexp(x, -e, out=out), e.squeeze(axis)


def _rescaled(hi, lo, exps):
    """A scaled product (hi, lo, exps) with each matrix of hi normalized by
    :func:`_pow2_normalize`, lo scaled by the same power of two and its
    exponent added to exps."""
    hi, e = _pow2_normalize(hi, (-2, -1))
    return hi, np.ldexp(lo, -e[..., None, None]), exps + e


def _modulus(d: np.ndarray) -> np.ndarray:
    """|d| of each value of the complex array d, as sqrt(x^2 + y^2).

    x and y are first scaled by the power of two that brings the larger
    into [1/2, 1), so the squares neither underflow nor overflow.  The
    scaling is exact: wherever the unscaled squares are in range, the bits
    are those of the unscaled formula.
    """
    xy, e = _pow2_normalize(np.stack((d.real, d.imag), axis=-1), -1)
    x, y = xy[..., 0], xy[..., 1]
    return np.ldexp(np.sqrt(x * x + y * y), e)


def _aligned(e, top):
    """The int32 shifts e - top that align terms of exponent e to the
    largest exponent top, clipped at -1100: a term more than 2^1100 below
    the largest vanishes beside it."""
    return np.maximum(e - top, -1100).astype(np.int32)


def _dd_normalized_sum(terms):
    """(hi, lo, e) of the sum of the terms (p, q, e), each (p + q) 2^e: the
    terms are scaled to the largest exponent (:func:`_aligned`), added with
    ``_two_sum``, and the sum is scaled so that |hi| lies in [1/2, 1); a
    zero sum gets exponent ``_ZERO_EXP``."""
    top = np.max([e for _, _, e in terms], axis=0)
    hi = lo = 0.0
    for p, q, e in terms:
        shift = _aligned(e, top)
        hi, err = _two_sum(hi, np.ldexp(p, shift))
        lo = lo + (np.ldexp(q, shift) + err)
    s = hi + lo
    lo = lo - (s - hi)
    g = np.frexp(s)[1]
    return np.ldexp(s, -g), np.ldexp(lo, -g), np.where(s == 0.0, _ZERO_EXP, top + g)


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


def _balanced(a, inv):
    """(a 2^-s, inv 2^s, s): each matrix of the (m, d, d) stack a, and its
    inverse in inv, scaled by the power of two that brings their infinity
    norms together (s is half the difference of the norms' binary
    exponents), where every nonzero entry of a 2^-s stays a finite normal
    double, so that the scaling is exact; s = 0 otherwise.
    :func:`horoflow.lyapunov._log_norms`'s blocks shorten with the larger
    of the two norms, so a scaled identity runs in full-width blocks."""
    frac, e = np.frexp(a)
    nonzero = frac != 0.0
    top = np.max(np.where(nonzero, e, -(1 << 20)), axis=(1, 2))
    low = np.min(np.where(nonzero, e, 1 << 20), axis=(1, 2))
    with np.errstate(over="ignore"):
        ea, ei = (np.frexp(np.abs(x).sum(axis=-1).max(axis=-1))[1] for x in (a, inv))
        s = (ea - ei) // 2
        s = np.where((top - s <= 1024) & (low - s >= -1021), s, 0).astype(np.int64)
        return np.ldexp(a, -s[:, None, None]), np.ldexp(inv, s[:, None, None]), s
