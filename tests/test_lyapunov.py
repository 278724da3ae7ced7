"""QR spectra, single-direction growth rates, and filtration probing."""

import decimal
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from horoflow._exact import _balanced, _dd_det
from horoflow.cocycle import _PRODUCT_BLOCK, ErgodicDriver, constant_driver, tail_checkpoints
from horoflow.core import DegenerateInputError
from horoflow.lyapunov import (_compound, _exponent_sums, _growth_rates, filtration_probe,
                               qr_spectrum)
from horoflow.operator_cone import _fold
from horoflow.seeding import trial_rng

from oracles import (FixedDraws, elements, fraction_det, lapack_qr_spectrum, loop_growth_rates,
                     kernel_widths, loop_log_norms, mp_growth_rates, mp_qr_spectrum,
                     sampled_draws, sqrt_loop_growth_rates)


def test_diagonal_spectrum_is_exact():
    drv = constant_driver(np.diag([3.0, 1.0, 0.5]))
    est = qr_spectrum(drv, 100)
    assert np.allclose(est.exponents[0],
                       [math.log(3.0), 0.0, -math.log(2.0)], atol=1e-12)
    assert np.max(est.resid) <= 1e-12


def test_conjugated_spectrum_converges():
    rng = trial_rng(17, 0)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    m = q @ np.diag([3.0, 1.0, 0.5]) @ q.T
    est = qr_spectrum(constant_driver(m), 20000)
    assert np.allclose(est.exponents[0],
                       [math.log(3.0), 0.0, -math.log(2.0)], atol=1e-3)


def test_spectrum_sum_rule():
    # sum of exponents = mean log |det| for any invertible cocycle
    rng = trial_rng(18, 0)
    a = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    b = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    drv = ErgodicDriver(seed=4, maps=(a, b), weights=(0.5, 0.5))
    est = qr_spectrum(drv, 2000, trials=[0])
    gs = elements(drv, 0, 2000)
    mean_logdet = np.mean([math.log(abs(np.linalg.det(g))) for g in gs])
    assert float(np.sum(est.exponents)) == pytest.approx(mean_logdet, abs=1e-9)


def test_rotation_spectrum_is_null():
    th = 0.9
    m = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    est = qr_spectrum(constant_driver(m), 1000)
    assert np.max(np.abs(est.exponents)) <= 1e-12


def test_spectrum_rejects_bad_input():
    with pytest.raises(DegenerateInputError):
        qr_spectrum(constant_driver(np.diag([1.0, 0.0])), 100)
    with pytest.raises(DegenerateInputError):
        qr_spectrum(constant_driver(np.eye(2)), 5)
    # the dimension is read from the drawn matrices, which must be square
    # and of one size
    for maps in ((np.ones((2, 3)),), (np.eye(2), np.eye(3))):
        with pytest.raises(DegenerateInputError,
                           match="^step matrices must be square, of one size$"):
            qr_spectrum(ErgodicDriver(seed=1, maps=maps), 100)
    # past dim 4 the middle compound costs more than a QR step
    with pytest.raises(DegenerateInputError,
                       match="^the spectrum runs up to dimension 4, not 5$"):
        qr_spectrum(constant_driver(np.eye(5)), 100)


def test_vector_growth_rates_pick_filtration_layers():
    A = np.diag([2.0, 0.5])[None]

    def rate(v, n):
        return float(_growth_rates(A, np.zeros((1, n), dtype=np.intp), [v], [n])[0, 0])

    assert rate([1.0, 0.0], 500) == pytest.approx(math.log(2.0))
    assert rate([0.0, 1.0], 500) == pytest.approx(-math.log(2.0))
    # generic vectors leave the slow subspace (transient is O(1/n))
    assert rate([1.0, 1.0], 2000) == pytest.approx(math.log(2.0), abs=1e-3)
    with pytest.raises(DegenerateInputError):
        rate([0.0, 0.0], 100)


def test_filtration_probe_clusters_rates():
    A = np.diag([2.0, 0.5])
    probes = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    rep = filtration_probe(A, probes, 400)
    # one label a probe, by ascending rate: only e2 lives in the slow layer
    assert rep.clusters.tolist() == [1, 0, 1]
    assert rep.rates[1] == pytest.approx(-math.log(2.0))
    # the probes may come as the rows of one array
    assert filtration_probe(A, np.array(probes), 400).rates.tolist() == rep.rates.tolist()


def test_filtration_probe_single_cluster_for_conformal():
    rep = filtration_probe(2.0 * np.eye(3),
                           [np.eye(3)[i] for i in range(3)], 200)
    assert rep.clusters.tolist() == [0, 0, 0]


def test_filtration_probe_at_tolerance_zero_splits_tied_rates():
    # at cluster_tol 0 every probe is its own cluster, tied rates too: the
    # labels are 0..p-1 in rate order
    rep = filtration_probe(np.diag([2.0, 2.0, 0.5]), list(np.eye(3)), 400, cluster_tol=0.0)
    assert rep.rates[0] == rep.rates[1]
    assert sorted(rep.clusters.tolist()) == [0, 1, 2]
    assert rep.clusters[2] == 0
    assert np.all(np.diff(rep.rates[np.argsort(rep.clusters)]) >= 0.0)


def test_filtration_probe_validation():
    for empty in ([], np.empty((0, 2))):
        with pytest.raises(DegenerateInputError):
            filtration_probe(np.eye(2), empty, 200)
    with pytest.raises(DegenerateInputError):
        filtration_probe(np.eye(2), [np.array([1.0, 0.0])], 50)
    with pytest.raises(DegenerateInputError, match="singular"):
        filtration_probe(np.diag([0.0, 1.0]), [np.array([1.0, 1.0])], 200)
    for probes in ([np.ones(3)], [np.ones(2), np.ones(3)], [np.array([1.0, np.nan])],
                   [np.zeros(2)]):
        with pytest.raises(DegenerateInputError, match="probe vector"):
            filtration_probe(np.eye(2), probes, 200)
    # a probe whose squared norm overflows is still a probe
    assert filtration_probe(np.eye(2), [np.array([1e200, 1e200])], 200).rates.tolist() == [0.0]


def _random_pair(dim, seed):
    rng = trial_rng(seed, 0)
    a = rng.normal(size=(dim, dim)) + 2.0 * np.eye(dim)
    b = rng.normal(size=(dim, dim)) + 2.0 * np.eye(dim)
    return ErgodicDriver(seed=seed, maps=(a, b), weights=(0.5, 0.5))


_SL2_PAIR = ErgodicDriver(seed=5,
                          maps=(np.array([[2.0, 1.0], [1.0, 1.0]]),
                                np.array([[1.0, 1.0], [1.0, 2.0]])),
                          weights=(0.5, 0.5))
_PARAMETRIC = sampled_draws(2, lambda r: r.normal(size=(2, 2)) + 2.0 * np.eye(2))
# unshifted Gaussian steps: the R diagonal's signs change from step to step
# in mixed patterns, and dim 4 steps its second sum by a 6 x 6 compound
_GAUSSIAN_4 = sampled_draws(9, lambda r: r.normal(size=(4, 4)))
_COCYCLES = {
    "sl2_pair": (_SL2_PAIR, 2),
    "gaussian_4": (_GAUSSIAN_4, 4),
    "random_pair_3": (_random_pair(3, 18), 3),
    "parametric": (_PARAMETRIC, 2),
    "diag": (constant_driver(np.diag([3.0, 1.0, 0.5])), 3),
    "rotation": (constant_driver(np.array([[0.6, -0.8], [0.8, 0.6]])), 2),
}


# log 2 to 40 digits, the value the exponent sums carry
_LN2 = Fraction(decimal.Context(prec=40).ln(2))


def _loop_sums(drv, dim, n, trial, per_step=False):
    """(ks, sums, want): qr_spectrum's exponent sums S_0 .. S_dim at the
    tail checkpoints ks of n, and the same sums from the loop.  Each S_j of
    the loop is its log norm and exponent total on the j-th compound of
    the steps, started at the first basis vector; past dim/2 it is S_dim
    plus the loop on the (dim-j)-th compound of their inverse transposes,
    started at the last.  The compounds' power-of-two scales count once a
    step.  The loop steps by the stacks as they are: the kernel's
    balancing of them by powers of two is exact.  It runs at the widths
    the kernel gives the compound's steps against the inverses it pairs
    them with (:func:`kernel_widths`), or, with per_step, as the old
    per-step kernel."""
    maps, idx = drv.draw([trial], n)
    mats = np.asarray(maps, dtype=float)
    ks = tail_checkpoints(n)
    [sums] = _exponent_sums(mats, idx, ks)
    want = [[Fraction(0)] * len(ks)] + [None] * (dim - 1) + [sums[dim]]
    for j in range(1, dim):
        dual = 2 * j > dim
        order = dim - j if dual else j
        # C order, as the kernel's stack is: a transposed view's matvec
        # rounds differently
        steps = np.ascontiguousarray(np.linalg.inv(mats).transpose(0, 2, 1)) if dual else mats
        stack, shifts = ((steps, np.zeros(len(steps), dtype=np.int64)) if order == 1
                         else _compound(steps, order))
        start = np.eye(stack.shape[-1])[-1 if dual else 0]
        # the kernel inverts the dual steps by transposing the steps
        invs = mats.transpose(0, 2, 1) if dual else None
        pieces = loop_log_norms(FixedDraws(lambda trials, n: (stack, idx[:, :n])), start, ks,
                                widths=None if per_step else lambda maps: kernel_widths(maps, invs))
        want[j] = [Fraction(log_w) + (total + int(shifts[idx[0, :k]].sum())) * _LN2
                   + (sums[dim][c] if dual else 0)
                   for c, (k, (log_w, total)) in enumerate(zip(ks, pieces))]
    return ks, sums, want


def _spectrum(sums, ks):
    """(exponents, resid) from exponent sums, as qr_spectrum forms them."""
    rates = np.array([[float((s - r) / k) for s, r, k in zip(sums[j + 1], sums[j], ks)]
                      for j in range(len(sums) - 1)])
    resid = np.max(np.abs(rates - rates[:, -1:]), axis=1)
    order = np.argsort(-rates[:, -1])
    return rates[order, -1], resid[order]


def _assert_sums_equal_the_loop(drv, dim, n, trial):
    """Each exponent sum S_j of qr_spectrum is the block loop's at the
    kernel's widths (:func:`_loop_sums`), and qr_spectrum's exponents and
    resid, formed from the loop's sums with the same Fraction arithmetic,
    agree bit for bit."""
    ks, sums, want = _loop_sums(drv, dim, n, trial)
    for j in range(1, dim):
        assert sums[j] == want[j]
    exponents, resid = _spectrum(want, ks)
    got = qr_spectrum(drv, n, [trial])
    assert got.exponents.tolist() == [exponents.tolist()]
    assert got.resid.tolist() == [resid.tolist()]


@pytest.mark.parametrize("label", sorted(_COCYCLES))
def test_qr_spectrum_equals_the_running_sum_loop(label):
    drv, dim = _COCYCLES[label]
    for n, trial in ((10, 0), (2000, 0), (2000, 3), (20000, 1)):
        _assert_sums_equal_the_loop(drv, dim, n, trial)


@pytest.mark.parametrize("label", sorted(_COCYCLES))
def test_each_trial_of_a_spectrum_batch_equals_its_one_trial_call(label):
    # a block's width comes from its own steps, so a batch of trials gives
    # each its own call's bits, for a fresh matrix a step too; parametric
    # at n 20000 is a case where trial 1 draws steps that narrow its own
    # blocks (to 32 steps) and no other trial's
    drv, dim = _COCYCLES[label]
    for n, trials in ((10, [3, 0, 1]), (2000, [3, 0, 1]))[:None if label != "parametric" else 2] \
            + (((20000, [0, 1, 2]),) if label == "parametric" else ()):
        batch = qr_spectrum(drv, n, trials)
        for row, trial in enumerate(trials):
            one = qr_spectrum(drv, n, [trial])
            assert batch.exponents[row].tolist() == one.exponents[0].tolist()
            assert batch.resid[row].tolist() == one.resid[0].tolist()
    with pytest.raises(DegenerateInputError, match="^trials must be nonempty$"):
        qr_spectrum(drv, 100, [])


def test_a_fresh_matrix_spectrum_counts_each_trial_over_its_own_matrices():
    # 16 trials of the parametric cocycle at n 2000 draw 32000 distinct
    # matrices; counted over all of them for every trial, the step counts
    # and determinant sums grew with trials^2 and peaked at 71 MiB
    tracemalloc.start()
    try:
        qr_spectrum(_PARAMETRIC, 2000, range(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20


@pytest.mark.parametrize("diag", [[1e-7, 1e-7], [1e-301, 1e-301], [1e-301, 1e301]])
def test_qr_spectrum_equals_the_loop_at_tiny_and_huge_scales(diag):
    for n in (10, 2000):
        _assert_sums_equal_the_loop(constant_driver(np.diag(diag)), 2, n, 0)


@pytest.mark.parametrize("label", sorted(_COCYCLES) + ["diag_wide"])
def test_qr_spectrum_error_is_at_most_the_lapack_loops(label):
    # against 50-digit Gram-Schmidt QR of the same factors, the exponents
    # read from exact sums err no more than the LAPACK loop's running sums,
    # nor than the same sums from rows stepped one matmul a step (the block
    # loop at width 1, the kernel before it stepped by block products)
    drv, dim = ((constant_driver(np.diag([1e-301, 1e301])), 2) if label == "diag_wide"
                else _COCYCLES[label])
    n = 2000
    want = mp_qr_spectrum(drv, dim, n)

    def error(exponents):
        return max(abs(g - w) for g, w in zip(exponents.tolist(), want))

    new = error(qr_spectrum(drv, n).exponents[0])
    ks, _, per_step = _loop_sums(drv, dim, n, 0, per_step=True)
    assert new <= error(lapack_qr_spectrum(drv, dim, n).exponents[0])
    assert new <= error(_spectrum(per_step, ks)[0])


def test_diagonal_exponents_are_the_logs_of_the_entries():
    # log determinants and growth-rate rows, summed exactly and rounded
    # once: log 2, log 3 and log 0.5 to the last bit.  The middle exponent
    # of [3, 1, 0.5] carries the rounding of log 0.75 (det 1.5 is 0.75 * 2),
    # at most 2.8e-17, and of the 3^k row's steps, about 1e-18
    for n in (10, 1000, 100000):
        assert qr_spectrum(constant_driver(np.diag([2.0])), n).exponents.tolist() == \
            [[math.log(2.0)]]
        [[top, middle, low]] = qr_spectrum(constant_driver(np.diag([3.0, 1.0, 0.5])),
                                           n).exponents.tolist()
        assert (top, low) == (math.log(3.0), math.log(0.5))
        assert abs(middle) <= math.ulp(math.log(3.0)) / 4


def test_sl2_pair_exponents_sum_to_zero():
    # both steps have determinant 1, whose log is exactly 0, so the second
    # exponent is the first negated
    for n, trial in ((10, 0), (2000, 1), (20000, 2)):
        [[top, low]] = qr_spectrum(_SL2_PAIR, n, [trial]).exponents.tolist()
        assert top + low == 0.0


def _term_moduli(m):
    """The sum of the moduli of the terms of det m, exactly."""
    rows = [[abs(Fraction(x)) for x in row] for row in m.tolist()]
    return sum(math.prod(row[c] for row, c in zip(rows, perm))
               for perm in itertools.permutations(range(len(rows))))


def test_dd_determinant_is_the_exact_determinant():
    # entries over the whole double range, with exact zeros: (hi + lo) 2^e
    # is within 2^-100 of the sum of the moduli of the determinant's terms,
    # and a zero determinant is exactly 0
    rng = trial_rng(33, 0)
    cases = [np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[1e300, 0.0], [1e300, 1e-300]])]
    for k in (1, 2, 3, 4):
        a = rng.normal(size=(40, k, k)) * 2.0 ** rng.integers(-1000, 1000, size=(40, k, k))
        a[:10] *= rng.random(size=(10, k, k)) < 0.5
        cases += list(a)
    for m in cases:
        [hi], [lo], [e] = _dd_det(m[None])
        exact = fraction_det(m)
        assert (hi == 0.0) == (exact == 0)
        if exact:
            got = (Fraction(float(hi)) + Fraction(float(lo))) * Fraction(2) ** int(e)
            assert abs(got - exact) <= _term_moduli(m) * Fraction(2) ** -100


def test_balanced_scaling_is_exact():
    # a matrix and its inverse are scaled by a power of two and its
    # reciprocal that bring their infinity norms together, unless an entry
    # of the matrix would leave the normal doubles
    a = np.array([[[1e-301, 0.0], [0.0, 1e-301]], [[4.0, 0.0], [0.0, 1.0]],
                  [[2.0, 1.0], [1.0, 1.0]], [[1e301, 0.0], [0.0, 1e-301]],
                  [[2.0 ** 600, 2.0 ** -422], [0.0, 2.0 ** 600]],
                  [[2.0 ** 600, 2.0 ** -423], [0.0, 2.0 ** 600]]])
    inv = np.linalg.inv(a)
    M, N, s = _balanced(a, inv)
    assert s.tolist() == [-1000, 1, 0, 0, 600, 0]
    assert np.array_equal(np.ldexp(M, s[:, None, None]), a)
    assert np.array_equal(np.ldexp(N, -s[:, None, None]), inv)
    assert np.array_equal(M[[0, 1]], [np.eye(2) * 2.0 ** 1000 * 1e-301, np.diag([2.0, 0.5])])


def test_compound_entries_are_the_minors():
    # each entry, times 2^s, is its exact minor rounded once, to within
    # 2^-100 of the minor's term moduli; the largest lies in [1/2, 1)
    rng = trial_rng(34, 0)
    a = rng.normal(size=(5, 4, 4)) * 1e150
    M, s = _compound(a, 2)
    pairs = list(itertools.combinations(range(4), 2))
    for m, got, shift in zip(a, M, s):
        for r, row in zip(pairs, got.tolist()):
            for c, x in zip(pairs, row):
                minor = m[np.ix_(r, c)]
                exact = fraction_det(minor)
                err = abs(Fraction(x) * Fraction(2) ** int(shift) - exact)
                assert err <= abs(exact) * Fraction(2) ** -53 + \
                    _term_moduli(minor) * Fraction(2) ** -100
        assert 0.5 <= np.max(np.abs(got)) < 1.0


@pytest.mark.parametrize("step", [1, 1000, _PRODUCT_BLOCK, _PRODUCT_BLOCK + 1,
                                  _PRODUCT_BLOCK + 1000])
def test_a_rescaling_fault_ends_the_run_at_its_block(step):
    # the first entry of [[1e308, 1e308], [0, 1]] (0.99, 0.99) overflows at
    # the fault's step; a matrix of norm past 2^960 cuts its own block into
    # single steps, so the fault names its own step
    end = -(-step // _PRODUCT_BLOCK) * _PRODUCT_BLOCK
    idx = np.zeros((1, end + _PRODUCT_BLOCK), dtype=np.intp)
    idx[0, step - 1] = 1
    mats = [np.eye(2), np.array([[1e308, 1e308], [0.0, 1.0]])]
    with pytest.raises(FloatingPointError, match=f"^rescaling fault at step {step}$"):
        _growth_rates(mats, idx, [[0.99, 0.99]], [idx.shape[1]])
    # the QR spectrum's first row starts at e1, which a finite step maps to
    # its finite first column; so the fault needs the step before it to
    # turn e1 into (0.99, 0.99), and a first step cannot fault.  The old
    # fault case, whose first column's norm overflows, now runs
    turn = np.array([[0.99, 0.0], [0.99, 1.0]])
    big = np.array([[1.5e308, 0.0], [1.5e308, 1.0]])
    for bad in (big, mats[1]):
        draws = iter([turn if k == step - 1 else bad if k == step else np.eye(2)
                      for k in range(1, end + 1)])
        drv = sampled_draws(0, lambda r: next(draws))
        if bad is big or step == 1:
            assert np.all(np.isfinite(qr_spectrum(drv, end).exponents))
        else:
            with pytest.raises(FloatingPointError, match=f"^rescaling fault at step {step}$"):
                qr_spectrum(drv, end)


@pytest.mark.filterwarnings("error")
def test_singular_and_nan_draws_are_refused_up_front():
    # every drawn matrix is screened before the first step, a fresh
    # matrix a step too: a zero or a nan step is never reached
    singular = sampled_draws(0, lambda r: np.diag([1.0, float(r.random() > 0.2)]))
    with_nan = sampled_draws(0, lambda r: np.diag([1.0, math.nan
                                                  if r.random() < 0.2 else 1.0]))
    for driver in (singular, with_nan):
        with pytest.raises(DegenerateInputError, match="^singular step matrix$"):
            qr_spectrum(driver, 50)
        with pytest.raises(DegenerateInputError, match="^singular step matrix$"):
            _fold(driver, 50, [0], [50])


# steps near either end of the double range, which the kernel balances
# against their inverses by powers of two near 2^-997 and 2^997
_SCALED_PAIR = ErgodicDriver(seed=6, maps=(1e-300 * _SL2_PAIR.maps[0], 1e300 * _SL2_PAIR.maps[1]),
                             weights=(0.5, 0.5))


@pytest.mark.parametrize("label", sorted(_COCYCLES) + ["scaled_pair"])
def test_one_run_growth_rates_equal_separate_runs(label):
    # trials 0-5, two start vectors each, as the rows of one stacked run
    drv, dim = _COCYCLES[label] if label in _COCYCLES else (_SCALED_PAIR, 2)
    rng = trial_rng(30, 0)
    for ks in ([50, 100], [500], [1, 7, 600, 1000]):
        maps, idx = drv.draw(range(6), ks[-1])
        V = rng.normal(size=(12, dim))
        got = _growth_rates(maps, np.repeat(idx, 2, axis=0), V, ks)
        for r, v in enumerate(V):
            assert got[r].tolist() == loop_growth_rates(drv, v, ks, r // 2, kernel_widths)


def test_a_row_cut_to_single_steps_shares_its_block_with_wider_rows():
    # a matrix of norm 2^400 cuts its own row's block into single steps,
    # while the other rows of the run take their 64-step products and then
    # the identity: each row keeps the bits of its own loop, at checkpoints
    # inside such blocks too, and a fault in one names its step
    mats = [*_SL2_PAIR.maps, np.diag([2.0 ** 400, 2.0 ** -400])]
    idx = trial_rng(31, 0).integers(0, 2, size=(3, 1000))
    idx[1, 70] = idx[2, 500:520] = 2
    V = np.array([[1.0, 0.5], [0.3, -1.0], [1.0, 1.0]])
    ks = [100, 517, 1000]
    got = _growth_rates(mats, idx, V, ks)
    for r, v in enumerate(V):
        drv = FixedDraws(lambda trials, n, r=r: (mats, idx[r:r + 1, :n]))
        assert got[r].tolist() == loop_growth_rates(drv, v, ks, widths=kernel_widths)
    # one row whose block 1 is cut to single steps, in a run whose other
    # blocks are sl2_pair products with nonzero lo parts: the single steps
    # take no lo part, at checkpoints inside and after that block
    idx = trial_rng(31, 1).integers(0, 2, size=(1, 1000))
    idx[0, 90] = 2
    ks = [100, 128, 517, 1000]
    got = _growth_rates(mats, idx, [[1.0, 0.5]], ks)
    drv = FixedDraws(lambda trials, n: (mats, idx[:, :n]))
    assert got[0].tolist() == loop_growth_rates(drv, [1.0, 0.5], ks, widths=kernel_widths)
    idx = np.zeros((2, 256), dtype=np.intp)
    idx[1, 99] = 1
    with pytest.raises(FloatingPointError, match="^rescaling fault at step 100$"):
        _growth_rates([np.eye(2), np.array([[1e308, 1e308], [0.0, 1.0]])], idx,
                      [[0.99, 0.99]] * 2, [256])


def _loop_clusters(half, rates):
    """filtration_probe's labels at its default tolerance, in plain Python:
    a probe's label counts the gaps of at least tol below it in rate order."""
    tol = max(10.0 * max(abs(r - h) for r, h in zip(rates, half)), 1e-9)
    order = sorted(range(len(rates)), key=rates.__getitem__)
    labels = [0] * len(rates)
    for prev, i in zip(order, order[1:]):
        labels[i] = labels[prev] + (not rates[i] - rates[prev] < tol)
    return labels


def test_filtration_probe_rates_equal_the_two_run_loop():
    for A in (np.diag([2.0, 0.5]), np.diag([3.0, 1.0, 1.0]),
              np.array([[1.0, 2.0], [0.5, 3.0]]), np.diag([1.0, 1.0 + 1e-9])):
        dim = len(A)
        probes = [np.eye(dim)[i] for i in range(dim)] + [np.ones(dim)]
        rep = filtration_probe(A, probes, 1000)
        half, rates = zip(*(loop_growth_rates(constant_driver(A), p, [500, 1000],
                                              widths=kernel_widths)
                            for p in probes))
        assert rep.rates.tolist() == list(rates)
        assert rep.clusters.tolist() == _loop_clusters(half, rates)


def _errors(got, want):
    return [abs(g - float(want[k])) for g, k in zip(got, sorted(want))]


@pytest.mark.parametrize("label", sorted(_COCYCLES) + ["diag_2_half"])
def test_growth_rate_error_is_at_most_the_sqrt_loops(label):
    # against a 50-digit product, the power-of-two kernel errs no more than
    # the older loop that divides by sqrt(w^T w) every step and sums logs,
    # nor than the per-step loop (one matvec a step, the kernel before it
    # stepped by block products)
    if label == "diag_2_half":      # filtration-probe's benchmark call
        drv, dim, ks = constant_driver(np.diag([2.0, 0.5])), 2, [6250, 12500]
        V = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    else:
        (drv, dim), ks = _COCYCLES[label], [200, 1000, 2000]
        V = trial_rng(31, 0).normal(size=(2, dim)).tolist()
    maps, idx = drv.draw([0], ks[-1])
    got = _growth_rates(maps, idx, V, ks)
    new = old = step = 0.0
    for row, v in zip(got, V):
        want = mp_growth_rates(drv, v, ks)
        new = max(new, *_errors(row, want))
        old = max(old, *_errors(sqrt_loop_growth_rates(drv, v, ks), want))
        step = max(step, *_errors(loop_growth_rates(drv, v, ks), want))
    assert new <= old
    assert new <= step


def test_growth_rates_do_not_see_a_power_of_two_on_the_start():
    drv, dim = _COCYCLES["random_pair_3"]
    maps, idx = drv.draw([0], 1000)
    V = trial_rng(32, 0).normal(size=(4, dim))
    ks = [1, 10, 1000]
    got = _growth_rates(maps, idx, V, ks)
    assert _growth_rates(maps, idx, V * 2.0 ** 600, ks).tolist() == got.tolist()
    assert _growth_rates(maps, idx, V * 2.0 ** -600, ks).tolist() == got.tolist()


def test_growth_rates_of_a_diagonal_at_a_large_power_of_two():
    n = 5000
    idx = np.zeros((1, n), dtype=np.intp)
    got = _growth_rates(np.diag([2.0 ** 40, 2.0 ** -40])[None], idx,
                        [[1.0, 0.0], [0.0, 1.0]], [n // 2, n])
    want = 40.0 * math.log(2.0)
    assert got.ravel() == pytest.approx([want, want, -want, -want], rel=1e-15, abs=0.0)
