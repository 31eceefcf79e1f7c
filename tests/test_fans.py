"""The m = 3 route: each region as pyramids from the origin over its far-face sections.

At m = 3 evaluate builds every region with region.fan_regions: the unit
square on each far face x_j = 1 clipped by the region's rows, fanned from
the origin, with no Qhull call past coni_facets' one hull. The pipeline it
replaced at m = 3 (build_region, which m >= 4 still takes) stays its
reference, and exact_ir3 gives the exact value of a full-rank matrix.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.spatial

from conirep.cone import cone_sub_elements, coni_facets
from conirep.errors import BudgetExceededError
from conirep.evaluator import evaluate, region_report
from conirep.integrate import region_integral
from conirep.region import build_region, fan_regions

from conftest import JUMP, TILTED
from reference import exact_ir3

# Largest |evaluate - exact| over the 186 full-rank draws of
# test_draws_match_the_exact_value was 2.8e-16 on ir and 3.3e-15 on the
# output volume, which is 1 minus the sum of the region volumes; these are
# those with a 10x margin.
TOL_IR = 3e-15
TOL_VOLUME = 4e-14
# Integer draws with every nonzero entry moved by up to 1e-9 put rays within
# the lattice tolerances of each other. Over the 96 full-rank draws of
# test_perturbed_draws_stay_near_the_exact_value the largest gaps were
# 9.6e-11 on ir and 5.8e-10 on the output volume (the pipeline this route
# replaced had the same largest gaps); these are those with a 10x margin.
TOL_PERTURBED_IR = 1e-9
TOL_PERTURBED_VOLUME = 6e-9


def _draws(rng, count):
    """Seeded 3 x n matrices: uniform, Poisson(1), columns scaled by 10^+-5, rank 2."""
    for i in range(count):
        n = int(rng.integers(3, 9))
        kind = i % 4
        if kind == 0:
            yield rng.uniform(0.0, 3.0, (3, n))
        elif kind == 1:
            yield rng.poisson(1.0, (3, n)).astype(float)
        elif kind == 2:
            yield rng.uniform(0.0, 3.0, (3, n)) * 10.0 ** rng.uniform(-5.0, 5.0, n)
        else:
            yield rng.uniform(0.0, 3.0, (3, 2)) @ rng.uniform(0.0, 3.0, (2, n))


def test_fans_match_the_pipeline():
    compared, ranks = 0, set()
    for C in _draws(np.random.default_rng(2903), 1300):
        cone = coni_facets(C) if C.any() else None
        if cone is None or cone.cone_rank < 2:
            continue
        table = cone_sub_elements(cone)
        volumes, integrals = region_integral(build_region(table), table.bases)
        rows = region_report(C)
        assert [r.element for r in rows] == [
            tuple(np.flatnonzero(mask) + 1) for mask in table.members]
        assert [r.dim for r in rows] == table.dims.tolist()
        assert np.abs([r.volume for r in rows] - volumes).max() <= 1e-12
        assert np.abs([r.integral for r in rows] - integrals).max() <= 1e-12
        ranks.add(cone.cone_rank)
        compared += 1
    assert compared >= 1000
    assert ranks == {2, 3}


def test_no_halfspace_intersection_in_the_region_stage(monkeypatch):
    # no conirep module holds the class under a name of its own, which the
    # patch below would miss
    assert not [name for name, module in sys.modules.items()
                if name.startswith("conirep") and hasattr(module, "HalfspaceIntersection")]
    calls, intersect = [], scipy.spatial.HalfspaceIntersection

    def counted(*args, **kwargs):
        calls.append(args)
        return intersect(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", counted)
    # TILTED has elements on a coordinate face, and every fourth m = 3 draw
    # has rank 2; JUMP's lattice is degenerate; then 4..6-row draws, some
    # with entries zeroed so that their rays lie on coordinate faces
    rng = np.random.default_rng(7)
    masked = [rng.uniform(0.0, 3.0, (m, m + 2)) * (rng.random((m, m + 2)) > 0.3 * (i % 2))
              for m in (4, 5, 6) for i in range(2)]
    for C in [TILTED, *_draws(rng, 40), JUMP, *masked]:
        evaluate(C)
        region_report(C)
    assert calls == []
    # the count sees a call made through scipy.spatial
    square = np.hstack([np.vstack([-np.eye(2), np.eye(2)]), [[0.0], [0.0], [-1.0], [-1.0]]])
    scipy.spatial.HalfspaceIntersection(square, np.array([0.5, 0.5]))
    assert len(calls) == 1


def test_tetrahedra_are_counted_before_any_is_built(monkeypatch):
    table = cone_sub_elements(coni_facets(TILTED))
    count = len(fan_regions(table).simplices)
    monkeypatch.setattr("conirep.region.MAX_SIMPLICES", count)
    assert len(fan_regions(table).simplices) == count
    monkeypatch.setattr("conirep.region.MAX_SIMPLICES", count - 1)
    with pytest.raises(BudgetExceededError, match=f"budget of {count - 1} simplices"):
        fan_regions(table)


def test_regions_list_the_origin_first():
    regions = fan_regions(cone_sub_elements(coni_facets(TILTED)))
    start = regions.vertex_start
    nonempty = start[1:] > start[:-1]
    assert (regions.vertices[start[:-1][nonempty]] == 0.0).all()
    # each simplex starts at its region's origin, region by region
    first = regions.simplices[:, 0]
    assert np.isin(first, start[:-1][nonempty]).all() and (np.diff(first) >= 0).all()
    # every other vertex lies on a far face
    rest = np.ones(len(regions.vertices), dtype=bool)
    rest[start[:-1][nonempty]] = False
    assert (regions.vertices[rest].max(axis=1) == 1.0).all()


def test_tilted_is_pinned_to_its_exact_value():
    ir, volume = exact_ir3(TILTED)
    assert float(ir) == 0.024869206044791328
    res = evaluate(TILTED)
    assert abs(Fraction(res.ir) - ir) <= TOL_IR
    assert abs(Fraction(res.output_volume) - volume) <= TOL_VOLUME


def _exact_draws():
    """Full-rank 3 x n integer draws, 0..3 and Poisson(1) alternately."""
    rng = np.random.default_rng(2029)
    for i in range(200):
        n = int(rng.integers(3, 9))
        C = rng.integers(0, 4, (3, n)) if i % 2 == 0 else rng.poisson(1.0, (3, n))
        try:
            yield C.astype(float), exact_ir3(C)
        except ValueError:  # rank below 3
            continue


def _misses(C, exact):
    ir, volume = exact
    res = evaluate(C)
    return abs(Fraction(res.ir) - ir) > TOL_IR or \
        abs(Fraction(res.output_volume) - volume) > TOL_VOLUME


def test_draws_match_the_exact_value():
    compared = 0
    for C, exact in _exact_draws():
        assert not _misses(C, exact), C
        compared += 1
    assert compared >= 150


def test_a_wrong_region_integral_is_caught(monkeypatch):
    # the largest region integral scaled by 1 + 1e-9
    def off(regions, bases):
        volumes, integrals = region_integral(regions, bases)
        integrals[integrals.argmax()] *= 1.0 + 1e-9
        return volumes, integrals

    monkeypatch.setattr("conirep.evaluator.region_integral", off)
    draws = [(C, exact) for (C, exact), _ in zip(_exact_draws(), range(20)) if exact[0] > 0]
    assert len(draws) >= 10
    assert all(_misses(C, exact) for C, exact in draws)


def test_perturbed_draws_stay_near_the_exact_value():
    rng = np.random.default_rng(2901)
    compared = 0
    for i in range(100):
        n = int(rng.integers(3, 9))
        C = (rng.integers(0, 3, (3, n)) if i % 2 else rng.poisson(1.0, (3, n))).astype(float)
        C = C + 1e-9 * rng.uniform(0.0, 1.0, C.shape) * (C > 0)
        try:
            ir, volume = exact_ir3(C)
        except ValueError:  # rank below 3
            continue
        res = evaluate(C)
        assert abs(Fraction(res.ir) - ir) <= TOL_PERTURBED_IR, C
        assert abs(Fraction(res.output_volume) - volume) <= TOL_PERTURBED_VOLUME, C
        compared += 1
    assert compared >= 90
