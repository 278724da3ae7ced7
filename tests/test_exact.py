"""The power-of-two normalization of horoflow._exact, on its own: every
largest-modulus scaling in the package (scaled products, growth-rate
rows, Euclidean rows, disk moduli) goes through it, on real arrays."""

import numpy as np
import pytest

from horoflow._exact import _modulus, _pow2_normalize, _rescaled

# rows whose entries all stay exact when scaled: each is a power of two,
# or no smaller than 2^-1022 times the largest modulus of its row
_ROWS = {
    "real": np.array([[3.0, -0.25, 1e-300],
                      [-1.7e308, 1e300, 2.0],
                      [0.5, -0.75, -0.0]]),
    "subnormal": np.array([[1e-310, -5e-320, 0.0],
                           [5e-324, 0.0, -5e-324],
                           [2.2e-308, 1e-320, 3e-315]]),
}


@pytest.mark.parametrize("kind", sorted(_ROWS))
def test_normalization_is_exact_with_the_largest_modulus_in_the_top_octave(kind):
    x = _ROWS[kind]
    y, e = _pow2_normalize(x, 1)
    assert e.shape == (len(x),) and np.issubdtype(e.dtype, np.integer)
    top = np.abs(y).max(axis=1)
    assert np.all((0.5 <= top) & (top < 1.0))
    back = np.ldexp(y, e[:, None])
    assert np.array_equal(back, x)
    assert np.array_equal(np.signbit(back), np.signbit(x))
    # the exponents are those that put the largest modulus in [1/2, 1)
    assert np.array_equal(e, np.frexp(np.abs(x).max(axis=1))[1])


@pytest.mark.parametrize("dtype", [float])
def test_zero_and_nonfinite_rows_keep_their_entries(dtype):
    x = np.array([[0.0, -0.0, 0.0],
                  [np.inf, 1.0, 2e-310],
                  [3.0, np.nan, 0.5],
                  [-np.inf, np.inf, 0.0],
                  [4.0, 1.0, -0.0]], dtype=dtype)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        y, e = _pow2_normalize(x, 1)
    assert e.tolist() == [0, 0, 0, 0, 3]
    assert np.array_equal(y[:4], x[:4], equal_nan=True)
    assert np.array_equal(np.signbit(y[:4]), np.signbit(x[:4]))
    assert np.array_equal(y[4], x[4] / 8.0)


def test_in_place_normalization_over_several_axes():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(5, 2, 1)) * np.array([1e-300, 1.0, 1e300, 0.0, 3.0])[:, None, None]
    x = w.copy()
    y, e = _pow2_normalize(w, (1, 2), out=w)
    assert y is w and e.shape == (5,)
    assert np.array_equal(y, _pow2_normalize(x, (1, 2))[0])
    assert np.array_equal(np.ldexp(y, e[:, None, None]), x)


@pytest.mark.parametrize("dtype", [float])
def test_a_large_stack_normalizes_each_slice_as_alone(dtype):
    # 4096 2 x 2 slices in C order, reduced by elementwise maxima over the
    # entries, get the bits each slice gets alone, and so do the same
    # slices laid out stack innermost: zero, infinite, nan, subnormal and
    # underflowing slices included
    rng = np.random.default_rng(8)
    scale = 2.0 ** rng.integers(-1100, 1000, size=(4096, 1, 1))
    x = (rng.normal(size=(4096, 2, 2)) * scale).astype(dtype)
    x[0] = 0.0
    x[1, 0, 1] = np.inf
    x[2, 1, 1] = np.nan
    x[3] = [[5e-324, -1e-310], [0.0, 3e-320]]
    x[4, 1, 0] = -np.inf
    inner = np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        alone = [_pow2_normalize(s[None], (1, 2)) for s in x]
        for stack in (x, inner):
            y, e = _pow2_normalize(stack, (1, 2))
            assert e.tolist() == [int(f[0]) for _, f in alone]
            want = np.concatenate([s for s, _ in alone])
            assert np.array_equal(y, want, equal_nan=True)
            assert np.array_equal(np.signbit(y), np.signbit(want))
    top = np.abs(x).max(axis=(1, 2))
    assert np.array_equal(e, np.frexp(top)[1])
    assert e[:5].tolist() == [0, 0, 0, np.frexp(1e-310)[1], 0]
    # every finite nonzero slice scales into the octave, subnormal ones too
    scaled = np.abs(y).max(axis=(1, 2))[np.isfinite(top) & (top > 0.0)]
    assert np.all((0.5 <= scaled) & (scaled < 1.0))


def test_scaled_product_scales_lo_by_the_power_of_hi():
    hi = np.array([[[[3.0, 0.5], [-1.0, 2.0]], [[1e-200, 0.0], [0.0, 1e-200]]]])
    lo = hi * 2.0 ** -60
    exps = np.array([[7, -2]])
    h, l, x = _rescaled(hi, lo, exps)
    assert x.tolist() == [[7 + 2, -2 - 664]]
    assert np.array_equal(l, h * 2.0 ** -60)


def test_modulus_is_exact_scaling_of_the_unscaled_formula():
    d = np.array([3 + 4j, 3e-170 + 4e-170j, 3e200 - 4e200j, 0j, 1e-320 + 0j,
                  complex(np.inf, 1.0), complex(np.nan, 0.0)])
    with np.errstate(invalid="ignore"):
        m = _modulus(d)
    assert m[:5].tolist() == [5.0, pytest.approx(5e-170, rel=4e-16),
                              pytest.approx(5e200, rel=4e-16), 0.0, 1e-320]
    # where the squares stay in range the bits are the unscaled formula's
    assert m[0] == np.sqrt(3.0 * 3.0 + 4.0 * 4.0)
    assert m[5] == np.inf and np.isnan(m[6])
