"""Contracts of the weak-metric core: the distance kernel and the property suites."""

import math

import numpy as np
import pytest

from horoflow.core import (_BLOCK, DegenerateInputError, MetricDomainError,
                           WeakMetricSpace, _with_point, check_functional_bounds,
                           check_weak_metric_axioms)
from horoflow.seeding import trial_rng
from horoflow.spaces import euclidean_space, registered_basepoints, registered_spaces

from oracles import (loop_functional_bounds, loop_weak_metric_axioms, pair_loop,
                     reference_basepoints, reference_spaces)


def test_distance_rejects_nonfinite():
    sp = WeakMetricSpace(name="bad", dist_many=pair_loop(lambda x, y: float("inf")))
    with pytest.raises(MetricDomainError):
        sp.distance(0.0, 1.0)
    with pytest.raises(MetricDomainError):
        sp.distances([0.0, 1.0], [0], [1])
    batched = WeakMetricSpace(name="bad",
                              dist_many=lambda pts, i, j: np.array([0.0, math.nan]))
    with pytest.raises(MetricDomainError):
        batched.distances([0.0, 1.0], [0, 1], [1, 0])


def test_axiom_suite_euclidean_is_exact():
    rep = check_weak_metric_axioms(euclidean_space(3), 500, seed=0)
    assert rep.max_identity_error == 0.0
    assert rep.max_triangle_violation <= 0.0
    assert rep.min_pair_symmetrization >= 0.0


def test_axiom_suite_needs_sampler():
    sp = WeakMetricSpace(name="nosampler", dist_many=pair_loop(lambda x, y: 0.0))
    with pytest.raises(DegenerateInputError):
        check_weak_metric_axioms(sp, 10)
    with pytest.raises(DegenerateInputError):
        check_functional_bounds(sp, 0.0, 10)


def test_suites_reject_sample_count_below_one():
    sp = euclidean_space(2)
    for n in (0, -1):
        with pytest.raises(DegenerateInputError):
            check_weak_metric_axioms(sp, n)
        with pytest.raises(DegenerateInputError):
            check_functional_bounds(sp, np.zeros(2), n)


def test_functional_bounds_euclidean():
    rep = check_functional_bounds(euclidean_space(3), np.zeros(3), 500, seed=1)
    assert rep.max_lower_violation <= 1e-12
    assert rep.max_upper_violation <= 1e-12
    assert rep.max_continuity_violation <= 1e-12


@pytest.mark.parametrize("seed", [0, 5, 12])
@pytest.mark.parametrize("dim", [2, 3])
def test_suites_equal_the_sample_loop(dim, seed):
    spaces = registered_spaces(dim)
    bps = registered_basepoints(spaces)
    refs = reference_spaces(dim)
    ref_bps = reference_basepoints(dim)
    n = 2 * _BLOCK + 22   # three evaluation blocks, the last one partial
    for name, sp in spaces.items():
        ref = refs[name]
        for rep, want in ((check_weak_metric_axioms(sp, n, seed=seed),
                           loop_weak_metric_axioms(ref, n, seed=seed)),
                          (check_functional_bounds(sp, bps[name], n, seed=seed + 1),
                           loop_functional_bounds(ref, ref_bps[name], n, seed=seed + 1))):
            assert rep == want
            # repr tells -0.0 from 0.0, which == does not
            assert repr(rep) == repr(want)


def _suite_pairs(m):
    """The (i, j) patterns of the axiom suite and of the functional suite on
    a block of m samples; the functional suite's basepoint is point 3 * m."""
    a = np.arange(0, 3 * m, 3)
    b, c = a + 1, a + 2
    x = np.full(m, 3 * m)
    return ((np.concatenate([a, a, a, c, b]), np.concatenate([a, b, c, b, a])),
            (np.concatenate([x, b, c, x, b, b, c]), np.concatenate([a, a, a, b, x, c, b])))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_distances_equal_the_reference_element_for_element(dim, seed):
    # a suite keeps only maxima, which can stay put while most distances move
    spaces = registered_spaces(dim)
    bps = registered_basepoints(spaces)
    refs = reference_spaces(dim)
    ref_bps = reference_basepoints(dim)
    for name, sp in spaces.items():
        rng, ref_rng = trial_rng(seed, 0), trial_rng(seed, 0)
        for m in (_BLOCK, _BLOCK, 22):
            block = sp.sample_points(rng, 3 * m)
            ref_block = refs[name].sample_points(ref_rng, 3 * m)
            assert len(block) == len(ref_block) == 3 * m
            if name not in ("stretch", "jacobian"):   # the same point types
                assert np.asarray(block).tobytes() == np.asarray(ref_block).tobytes()
            points = _with_point(block, bps[name])
            ref_points = [*ref_block, ref_bps[name]]
            for i, j in _suite_pairs(m):
                got = sp.distances(points, i, j)
                assert got.tobytes() == refs[name].distances(ref_points, i, j).tobytes(), name
