"""Concrete metrics against closed forms, quadrature oracles, and invariances."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg

from horoflow.core import MetricDomainError, DegenerateInputError
from horoflow.seeding import trial_rng
from horoflow.spaces import (CircleMap, NotDiffeomorphismError, NotSpdError,
                             mobius_circle_map, poincare_dist_many,
                             registered_basepoints, registered_spaces,
                             rotation_circle_map, sine_circle_map, sym_part,
                             _TWO_PI, _cone_log_eigs, _disk_rooms, _wrap_angle)

from oracles import (SampledDistanceFunction, busemann_disk, busemann_radial_limit,
                     distance, euclidean_dist, funk_dist, jacobian_dist,
                     jacobian_dist_many, mobius_disk, mp_cone_log_eigs, mp_poincare_dist,
                     poincare_dist, radial_poincare_length, random_spd, rayleigh_sup,
                     stretch_dist, stretch_dist_many, thompson_dist)


# ---------------------------------------------------------------------------
# Euclidean

@pytest.mark.filterwarnings("error")
def test_euclidean_keeps_the_double_range():
    # each difference row is scaled by a power of two before it is squared;
    # unscaled, 1e-170 squared underflows to 0 and 1e200 squared overflows
    assert euclidean_dist([0.0], [1e-170]) == 1e-170
    assert euclidean_dist([0.0], [1e200]) == 1e200
    assert euclidean_dist([0.0, 0.0], [3e-170, 4e-170]) == pytest.approx(5e-170, rel=4e-16)
    assert euclidean_dist([1e200, 0.0], [-2e200, 4e200]) == pytest.approx(5e200, rel=4e-16)


# ---------------------------------------------------------------------------
# Poincare disk

@pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 0.99])
def test_poincare_radial_matches_quadrature(r):
    assert poincare_dist(0j, r) == pytest.approx(radial_poincare_length(r), abs=1e-12)


def test_poincare_mobius_invariance():
    rng = trial_rng(3, 0)
    for _ in range(50):
        z = 0.9 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        w = 0.9 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        a = 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        g = mobius_disk(a)
        assert poincare_dist(g(z), g(w)) == pytest.approx(poincare_dist(z, w), abs=1e-9)


def test_poincare_symmetric_and_domain_checked():
    assert poincare_dist(0.3 + 0.2j, -0.5j) == pytest.approx(
        poincare_dist(-0.5j, 0.3 + 0.2j))
    # on the circle, just outside it, and not a point at all
    for z in (1.0, -1j, 1.0 + 1e-16j, complex("nan"), complex("inf")):
        with pytest.raises(MetricDomainError, match="not strictly inside"):
            poincare_dist(z, 0.0)
        with pytest.raises(MetricDomainError, match="not strictly inside"):
            poincare_dist_many([0.5, 0j, z], [0, 1], [1, 0])
    with pytest.raises(MetricDomainError):
        mobius_disk(1.5)


def _relative_error(got, want):
    with mpmath.workdps(50):
        return float(abs(got - want) / want)


# the kernel's largest error against mp_poincare_dist was 2.3e-16 on the
# radial pairs and 2.6e-16 on random pairs: within two ulps
_DISK_REL_TOL = 2.0 * np.finfo(float).eps


def test_poincare_against_the_mpmath_distance_out_to_the_circle():
    # three angles at each radius 1 - 10^-k, the origin, 0.5 and the largest
    # double below 1, every pair in one batch
    pts = [(1.0 - 10.0 ** -k) * cmath.exp(1j * t)
           for k in range(1, 16) for t in (0.3, 1.1, 2.0)]
    pts += [0j, 0.5, 1.0 - 2.0 ** -53]
    i, j = np.triu_indices(len(pts), 1)
    got = poincare_dist_many(pts, i, j)
    worst = max(_relative_error(d, mp_poincare_dist(pts[a], pts[b]))
                for d, a, b in zip(got.tolist(), i.tolist(), j.tolist()))
    assert worst <= _DISK_REL_TOL
    z, w = pts[24], pts[25]     # radius 1 - 1e-9, angles 0.3 and 1.1
    assert poincare_dist(z, w) == pytest.approx(40.946623899301, abs=1e-11)


def _near_circle(rng, count):
    """Points cos t + i sin t at random angles, each within about an ulp of
    the circle, with the exact 1 - x^2 - y^2 of each."""
    pts = [cmath.rect(1.0, t) for t in rng.uniform(0.0, _TWO_PI, size=count).tolist()]
    return pts, [1 - Fraction(z.real) ** 2 - Fraction(z.imag) ** 2 for z in pts]


def test_disk_room_is_the_exact_room_rounded_once():
    rng = trial_rng(9, 0)
    pts, rooms = _near_circle(rng, 2000)
    inside = [z for z, r in zip(pts, rooms) if r > 0]
    _, got = _disk_rooms(inside)
    assert got.tolist() == [float(r) for r in rooms if r > 0]
    for z, r in zip(pts, rooms):
        if r <= 0:
            with pytest.raises(MetricDomainError):
                _disk_rooms([0j, z])


def test_poincare_against_the_mpmath_distance_on_random_pairs():
    rng = trial_rng(8, 0)
    pts = [math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
           for _ in range(301)]
    # and points within an ulp of the circle, whose rooms are below 1e-16
    near, rooms = _near_circle(rng, 200)
    pts += [z for z, r in zip(near, rooms) if r > 0]
    got = poincare_dist_many(pts, np.arange(len(pts) - 1), np.arange(1, len(pts)))
    worst = max(_relative_error(d, mp_poincare_dist(pts[a], pts[a + 1]))
                for a, d in enumerate(got.tolist()))
    assert worst <= _DISK_REL_TOL


def test_poincare_keeps_the_distance_of_very_close_points():
    # |z - w| is scaled by a power of two before it is squared; unscaled,
    # these squares underflow and every distance reads 0
    assert poincare_dist(0j, 1e-170) == 2e-170
    pairs = [(0j, 1e-170j), (0.5, 0.5 + 1e-170j), (1e-300j, -1e-300j),
             (complex(0.9, 1e-200), complex(0.9, -1e-200)),
             (complex(1e-160, 1e-160), complex(-1e-160, -2e-160))]
    for z, w in pairs:
        assert _relative_error(poincare_dist(z, w), mp_poincare_dist(z, w)) <= _DISK_REL_TOL


def test_busemann_known_values():
    # along the axis toward xi = 1: log((1-t)/(1+t))
    assert busemann_disk(1.0, 0.5) == pytest.approx(-math.log(3.0))
    assert busemann_disk(1.0, -0.5) == pytest.approx(math.log(3.0))
    assert busemann_disk(1j, 0j) == 0.0
    with pytest.raises(MetricDomainError):
        busemann_disk(0.5, 0.0)


def test_busemann_is_radial_limit_of_functionals():
    rng = trial_rng(4, 0)
    for _ in range(20):
        xi = cmath.exp(2j * math.pi * rng.random())
        z = 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        # the anchor's truncation error is of order eps^2 (the first-order
        # terms of d(z, anchor) and d(0, anchor) cancel), and poincare_dist
        # keeps its relative accuracy out to the circle: the largest error
        # here is 2.1e-15
        approx = busemann_radial_limit(poincare_dist, xi, z, eps=1e-9)
        assert busemann_disk(xi, z) == pytest.approx(approx, abs=5e-15)


# ---------------------------------------------------------------------------
# Thompson and Funk on the positive-definite cone

def test_thompson_closed_forms():
    assert thompson_dist(np.eye(3), np.eye(3)) == 0.0
    d = np.diag([math.e ** 2, math.e ** -1])
    assert thompson_dist(np.eye(2), d) == pytest.approx(2.0)
    # scaling moves distance by |log c|
    p = np.diag([1.0, 2.0])
    assert thompson_dist(p, 3.0 * p) == pytest.approx(math.log(3.0))


def test_thompson_matches_rayleigh_sup_oracle():
    rng = trial_rng(5, 0)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        p = random_spd(rng, d)
        q = random_spd(rng, d)
        assert thompson_dist(p, q) == pytest.approx(
            rayleigh_sup(p, q, rng), abs=1e-8)


def test_thompson_congruence_invariance():
    rng = trial_rng(6, 0)
    for _ in range(30):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        a = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        assert thompson_dist(a.T @ p @ a, a.T @ q @ a) == pytest.approx(
            thompson_dist(p, q), abs=1e-9)


def test_funk_asymmetric_negative_and_symmetrizes_to_thompson():
    p = np.eye(2)
    q = 0.5 * np.eye(2)
    assert funk_dist(p, q) == pytest.approx(-math.log(2.0))
    assert funk_dist(q, p) == pytest.approx(math.log(2.0))
    rng = trial_rng(7, 0)
    for _ in range(30):
        a = random_spd(rng, 3)
        b = random_spd(rng, 3)
        assert max(funk_dist(a, b), funk_dist(b, a)) == pytest.approx(
            thompson_dist(a, b), abs=1e-12)


def test_spd_validation():
    with pytest.raises(NotSpdError):
        thompson_dist(np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotSpdError):
        funk_dist(-np.eye(2), np.eye(2))
    with pytest.raises(NotSpdError):
        thompson_dist(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(MetricDomainError):
        thompson_dist(np.eye(2), np.eye(3))
    # a one-pair distance refuses a non-finite result as distances does:
    # L_p^-1 L_q = 1e160 * 1e154 overflows, and so does 1e308 - (-1e308)
    with np.errstate(over="ignore"):
        for dist in (thompson_dist, funk_dist):
            with pytest.raises(MetricDomainError):
                dist(1e-320 * np.eye(2), 1e308 * np.eye(2))
        with pytest.raises(MetricDomainError):
            euclidean_dist([1e308], [-1e308])


@pytest.mark.filterwarnings("error")
def test_sym_part_keeps_a_symmetric_input_near_the_double_range():
    # (m + m^T) / 2 would overflow to inf on the diagonal
    m = 1e308 * np.eye(2)
    assert sym_part(m).tobytes() == m.tobytes()


def _pencils(kappa, d, count, rng):
    """count pencils (p, q) of size d: both random_spd points, or, given a
    condition number kappa, one of them (either side) of that condition,
    with random eigenvectors and eigenvalues spaced evenly in log from 1."""
    out = []
    for _ in range(count):
        p, q = random_spd(rng, d), random_spd(rng, d)
        if kappa is not None:
            u, _ = np.linalg.qr(rng.normal(size=(d, d)))
            p = (u * np.logspace(0.0, -math.log10(kappa), d)) @ u.T
            p = 0.5 * (p + p.T)
            if rng.random() < 0.5:
                p, q = q, p
        out.append((p, q))
    return out


# the kernel's largest error against mp_cone_log_eigs, over the 120 pencils
# of each family (sizes 2-5), in units of eps * max(1, |log eigenvalue|):
# 23.9 on the suite's random_spd pencils, 0.033 kappa at kappa 1e6 and
# 0.012 kappa at kappa 1e10 (at seeds 9-11 up to 38.6, 0.033 and 0.015
# kappa).  The bounds are 2.7x, 3x and 4x the errors measured here; sygvd's
# were 1930, 10 kappa and 0.91 kappa.
_CONE_TOL = {"suite": (None, 64.0), "kappa1e6": (1e6, 0.1 * 1e6),
             "kappa1e10": (1e10, 0.05 * 1e10)}


@pytest.mark.parametrize("family", list(_CONE_TOL))
def test_cone_log_eigs_against_the_mpmath_pencils(family):
    kappa, tol = _CONE_TOL[family]
    rng = trial_rng(8, 0)
    eps = np.finfo(float).eps
    worst = worst_sygvd = worst_scaled = 0.0
    for d in range(2, 6):
        pencils = _pencils(kappa, d, 30, rng)
        pts = [m for pencil in pencils for m in pencil]
        got = np.sort(_cone_log_eigs(pts, np.arange(0, len(pts), 2),
                                     np.arange(1, len(pts), 2)), axis=1)
        for logs, (p, q) in zip(got.tolist(), pencils):
            want = mp_cone_log_eigs(p, q)
            # LAPACK's sygvd, the kernel this one replaced, as the baseline
            old = np.log(scipy.linalg.eigh(q, p, eigvals_only=True))
            for a, b, w in zip(logs, old.tolist(), want):
                err = float(abs(a - w))
                worst = max(worst, err)
                worst_sygvd = max(worst_sygvd, float(abs(b - w)))
                worst_scaled = max(worst_scaled, err / (eps * max(1.0, abs(float(w)))))
    assert worst_scaled <= tol
    assert worst <= worst_sygvd


@pytest.mark.filterwarnings("error")
def test_cone_distances_keep_the_double_range():
    # 1e308 I (where p + p^T overflows) and the subnormal 1e-320 I against
    # I: the log eigenvalue is -log c for Funk(c I, I) and log c the other way
    for c in (1e308, 1e-320):
        want = -math.log(c)
        assert thompson_dist(c * np.eye(2), np.eye(2)) == pytest.approx(abs(want), rel=4e-16)
        assert funk_dist(c * np.eye(2), np.eye(2)) == pytest.approx(want, rel=4e-16)
        assert funk_dist(np.eye(2), c * np.eye(2)) == pytest.approx(-want, rel=4e-16)


# ---------------------------------------------------------------------------
# Stretch metric on sampled distance functions

def _square_sample():
    return (np.array([0.0, 0.0]), np.array([1.0, 0.0]),
            np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def _norm_sdf(sample, T=None):
    """The Euclidean distance function on the sample, or its pullback
    d(x, y) = ||Tx - Ty|| by the map T."""
    def table_fn(pts):
        P = np.array([p if T is None else T(p) for p in pts], dtype=float)
        return np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)

    return SampledDistanceFunction(sample=sample, table_fn=table_fn)


def test_stretch_of_scaled_metric_is_log_scale():
    base = _norm_sdf(_square_sample())
    scaled = SampledDistanceFunction(
        sample=base.sample,
        table_fn=lambda pts: [[3.0 * euclidean_dist(x, y) for y in pts] for x in pts])
    assert stretch_dist(base, scaled) == pytest.approx(math.log(3.0))
    assert stretch_dist(scaled, base) == pytest.approx(-math.log(3.0))


def test_stretch_pullback_by_isometry_is_zero():
    base = _norm_sdf(_square_sample())
    th = 0.7
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    moved = _norm_sdf(base.sample, lambda x: rot @ x)
    assert stretch_dist(base, moved) == pytest.approx(0.0, abs=1e-12)


def test_stretch_rejects_degenerate_tables():
    base = _norm_sdf(_square_sample())
    other = _norm_sdf(_square_sample()[:3])
    with pytest.raises(DegenerateInputError):
        stretch_dist(base, other)
    collapsed = _norm_sdf(base.sample, lambda x: 0.0 * x)
    with pytest.raises(DegenerateInputError):
        stretch_dist(base, collapsed)


# ---------------------------------------------------------------------------
# Circle maps and the sup-log-Jacobian metric

def test_jacobian_known_values():
    ident = sine_circle_map(0.0)
    assert jacobian_dist(ident, rotation_circle_map(1.3), grid=256) == 0.0
    # max |log(1 +- a)| is attained at cos = -1 for a > 0
    assert jacobian_dist(ident, sine_circle_map(0.5), grid=256) == pytest.approx(
        math.log(2.0))
    assert jacobian_dist(sine_circle_map(0.5), ident, grid=256) == pytest.approx(
        math.log(2.0))


def test_mobius_circle_map_derivative():
    g = mobius_circle_map(0.5)
    # multiplier (1+a)/(1-a) = 3 at the repelling fixed point theta = pi
    assert g.f_and_deriv(np.array([math.pi]))[1][0] == pytest.approx(3.0)


def test_wrap_angle_is_the_remainder_bit_for_bit():
    edges = [-0.0, 5e-324, -5e-324, -1e-300, _TWO_PI, np.nextafter(_TWO_PI, 0.0),
             math.pi, -math.pi, 7.0, -7.0, 1e300, math.inf, -math.inf]
    draws = trial_rng(41, 0).uniform(-4.0 * math.pi, 4.0 * math.pi, 10000)
    t = np.concatenate([edges, draws])
    with np.errstate(invalid="ignore"):     # inf % 2pi is nan, as a remainder
        got, want = _wrap_angle(t), t % _TWO_PI
        nan_got, nan_want = _wrap_angle(np.array([math.nan])), np.array([math.nan]) % _TWO_PI
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert math.isnan(nan_got[0]) and math.isnan(nan_want[0])
    assert t[0] == 0.0 and math.copysign(1.0, t[0]) == -1.0   # the input is kept


def test_jacobian_rejects_bad_maps():
    with pytest.raises(NotDiffeomorphismError):
        sine_circle_map(1.5)
    folding = CircleMap(lambda t: (np.cos(t), -np.sin(t)))
    with pytest.raises(NotDiffeomorphismError):
        jacobian_dist(sine_circle_map(0.0), folding, grid=64)
    with pytest.raises(DegenerateInputError):
        jacobian_dist(sine_circle_map(0.0), sine_circle_map(0.0), grid=4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_jacobian_refuses_a_non_finite_derivative(bad):
    # a derivative that is nan or inf past theta = 3 once ended in a nan
    # distance (MetricDomainError) or an invalid-value warning from inf / inf
    g = CircleMap(lambda t: (t + 0.5, np.where(t > 3.0, bad, 1.0)))
    sine = sine_circle_map(0.5)
    with pytest.raises(NotDiffeomorphismError, match="non-finite derivative"):
        jacobian_dist_many([g, g, sine], [0, 2], [1, 0])
    for f, h in ((g, g), (g, sine), (sine, g)):
        with pytest.raises(NotDiffeomorphismError, match="non-finite derivative"):
            jacobian_dist(f, h)


# ---------------------------------------------------------------------------
# Registry

def test_registered_spaces_and_basepoints_align():
    spaces = registered_spaces(3)
    assert sorted(spaces) == ["euclidean", "funk", "jacobian",
                              "poincare", "stretch", "thompson"]
    bps = registered_basepoints(3)
    assert sorted(bps) == sorted(spaces)
    for name, sp in spaces.items():
        assert distance(sp, bps[name], bps[name]) == pytest.approx(0.0, abs=1e-12)


def test_batched_distances_keep_the_error_types():
    spaces = registered_spaces(2)
    for name in ("thompson", "funk"):
        with pytest.raises(NotSpdError):
            spaces[name].distances([np.eye(2), np.diag([1.0, -1.0])], [0, 1], [1, 0])
        with pytest.raises(NotSpdError):
            spaces[name].distances([np.eye(2), np.diag([1.0, np.inf])], [0], [1])
        with pytest.raises(MetricDomainError):
            spaces[name].distances([np.eye(2), np.eye(3)], [0], [1])
        # far apart but in range: log 1e-600 is taken as 2 log 1e-300
        far = 600.0 * math.log(10.0)
        got = spaces[name].distances([1e300 * np.eye(2), 1e-300 * np.eye(2)], [1, 0], [0, 1])
        assert got == pytest.approx([far, far if name == "thompson" else -far], rel=4e-16)
        # L_p^-1 L_q = 1e160 * 1e154 overflows, and its SVD is nan
        with pytest.raises(MetricDomainError), np.errstate(over="ignore"):
            spaces[name].distances([1e-320 * np.eye(2), 1e308 * np.eye(2)], [0], [1])
    with pytest.raises(MetricDomainError):
        spaces["euclidean"].distances([np.zeros(2), np.zeros(3)], [0], [1])
    # stretch rows (a, k1, k2, phase): a table that overflows, one that
    # underflows to 0, a short row and a non-finite one
    zero = np.zeros(4)
    with pytest.raises(MetricDomainError):
        spaces["stretch"].distances([zero, [1e308, 1.0, 0.0, 0.0]], [0], [1])
    with pytest.raises(DegenerateInputError):
        spaces["stretch"].distances([zero, [2000.0, 0.0, 0.0, -0.5 * math.pi]], [0], [1])
    with pytest.raises(MetricDomainError):
        spaces["stretch"].distances([zero[:3], zero[:3]], [0], [1])
    with pytest.raises(MetricDomainError):
        spaces["stretch"].distances([zero, [math.nan, 0.0, 0.0, 0.0]], [0], [1])
    # Jacobian rows (amplitude, phase, shift) need |amplitude| < 1
    for amplitude in (1.0, -1.5):
        with pytest.raises(NotDiffeomorphismError):
            spaces["jacobian"].distances([np.zeros(3), [amplitude, 0.0, 0.0]], [0], [1])
    # the kernels of user-built points
    folding = CircleMap(lambda t: (np.cos(t), -np.sin(t)))
    with pytest.raises(NotDiffeomorphismError):
        jacobian_dist_many([sine_circle_map(0.0), folding], [0], [1])
    base = _norm_sdf(_square_sample())
    with pytest.raises(DegenerateInputError):
        stretch_dist_many([base, _norm_sdf(_square_sample()[:3])], [0], [1])
