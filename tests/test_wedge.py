"""The m = 2 route: each ray region's area and integral in closed form.

At m = 2 evaluate takes the two ray regions, each a triangle or the unit
square less one, in closed form (evaluator._ray_regions), with no Regions,
region_integral call or Qhull call, and coni_facets turns each extreme ray
a right angle for its normal. The pipeline stages the route skips
(cone_halfspaces, cone_sub_elements, build_region, region_integral) stay
its reference, and exact_wedge_ir gives the exact value of any matrix.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from conirep import evaluator, region
from conirep.cone import cone_halfspaces, cone_sub_elements, coni_facets
from conirep.evaluator import evaluate, region_report
from conirep.integrate import region_integral
from conirep.region import build_region

from conftest import TILTED
from reference import exact_wedge_ir

# Largest |evaluate - exact| on ir and output volume was 9.8e-17 over the
# 300 integer draws below and 1.5e-16 over the 200 float draws; this is the
# larger with a 6x margin.
TOL_EXACT = 1e-15
# Integer draws with every nonzero entry moved by up to 1e-9 put rays within
# the collinear-merge tolerance of each other. Over the 200 draws of
# test_perturbed_draws_stay_near_the_exact_value the largest gaps were
# 7.1e-11 on ir and 4.3e-10 on the output volume, from the merge, not the
# closed form; these are those with a 10x margin.
TOL_PERTURBED_IR = 8e-10
TOL_PERTURBED_VOLUME = 5e-9


def _draws(rng, count):
    """Seeded 2 x n matrices: uniform, Poisson(1), columns scaled by 10^+-5, and
    uniform draws with a column on the diagonal and one on an axis."""
    for i in range(count):
        n = int(rng.integers(2, 9))
        kind = i % 4
        if kind == 0:
            yield rng.uniform(0.0, 3.0, (2, n))
        elif kind == 1:
            yield rng.poisson(1.0, (2, n)).astype(float)
        elif kind == 2:
            yield rng.uniform(0.0, 3.0, (2, n)) * 10.0 ** rng.uniform(-5.0, 5.0, n)
        else:
            C = rng.uniform(0.0, 3.0, (2, n))
            C[:, 0] = rng.uniform(0.5, 3.0)
            C[int(rng.integers(2)), 1] = 0.0
            yield C[:, rng.permutation(n)]


def test_regions_match_the_pipeline():
    compared = 0
    for C in _draws(np.random.default_rng(2402), 1200):
        cone = coni_facets(C) if C.any() else None
        if cone is None or cone.cone_rank < 2:
            continue
        # the hull the direct facets replaced
        extreme, facets, normals = cone_halfspaces(cone.rays)
        assert extreme == [0, 1]
        assert np.array_equal(cone.facets, facets)
        assert np.abs(cone.normals - normals).max() <= 1e-15
        # the pipeline on the hull's facets, against the forced regions
        table = cone_sub_elements(dataclasses.replace(cone, facets=facets, normals=normals))
        volumes, integrals = region_integral(build_region(table), table.bases)
        rows = region_report(C)
        assert [r.element for r in rows] == [
            tuple(np.flatnonzero(mask) + 1) for mask in table.members]
        assert [r.dim for r in rows] == table.dims.tolist()
        assert np.abs([r.volume for r in rows] - volumes).max() <= 1e-12
        assert np.abs([r.integral for r in rows] - integrals).max() <= 1e-12
        res = evaluate(C)
        if res.method == "analytical":
            assert res.regions == rows
            assert abs(res.ir - integrals.sum()) <= 1e-12
            assert abs(res.output_volume - max(1.0 - volumes.sum(), 0.0)) <= 1e-12
        compared += 1
    assert compared >= 1000


@pytest.mark.parametrize("C, ir, volume", [
    ([[1, 3, 1, 2], [1, 2, 0, 1]], Fraction(1, 24), Fraction(1, 2)),
    # the steeper ray leaves through the right edge: its region is two triangles
    ([[2, 3], [1, 1]], Fraction(23, 180), Fraction(1, 12)),
    ([[1, 2], [3, 1]], Fraction(1, 90), Fraction(7, 12)),
])
def test_pinned_exact_values(C, ir, volume):
    assert exact_wedge_ir(C) == (ir, volume)
    res = evaluate(C)
    assert abs(Fraction(res.ir) - ir) <= TOL_EXACT
    assert abs(Fraction(res.output_volume) - volume) <= TOL_EXACT


def test_integer_draws_match_the_exact_value():
    rng = np.random.default_rng(2028)
    for i in range(300):
        n = int(rng.integers(2, 9))
        C = rng.integers(0, 4, (2, n)) if i % 2 == 0 else rng.poisson(1.0, (2, n))
        ir, volume = exact_wedge_ir(C)
        res = evaluate(C.astype(float))
        assert abs(Fraction(res.ir) - ir) <= TOL_EXACT, C
        assert abs(Fraction(res.output_volume) - volume) <= TOL_EXACT, C


def test_float_draws_match_the_exact_value():
    rng = np.random.default_rng(2030)
    for i in range(200):
        n = int(rng.integers(2, 9))
        C = rng.uniform(0.0, 3.0, (2, n))
        if i % 2:
            C *= 10.0 ** rng.uniform(-5.0, 5.0, n)
        ir, volume = exact_wedge_ir(C)
        res = evaluate(C)
        assert abs(Fraction(res.ir) - ir) <= TOL_EXACT, C
        assert abs(Fraction(res.output_volume) - volume) <= TOL_EXACT, C


def test_perturbed_draws_stay_near_the_exact_value():
    rng = np.random.default_rng(3001)
    volumes = []
    for i in range(200):
        n = int(rng.integers(2, 9))
        C = (rng.integers(0, 3, (2, n)) if i % 2 else rng.poisson(1.0, (2, n))).astype(float)
        C = C + 1e-9 * rng.uniform(0.0, 1.0, C.shape) * (C > 0)
        ir, volume = exact_wedge_ir(C)
        res = evaluate(C)
        assert abs(Fraction(res.ir) - ir) <= TOL_PERTURBED_IR, C
        assert abs(Fraction(res.output_volume) - volume) <= TOL_PERTURBED_VOLUME, C
        volumes += [r.volume for r in res.regions]
    # columns on an axis give regions of zero area, and columns near the
    # diagonal both closed forms: a triangle, and the square less one
    volumes = np.array(volumes)
    assert (volumes == 0.0).any() and (volumes > 0.5).any() and \
        ((volumes > 0.0) & (volumes < 0.5)).any()


def test_no_region_machinery_at_m2(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the region machinery was called")

    for name in ("region_integral", "fan_regions", "build_region"):
        monkeypatch.setattr(evaluator, name, refuse)
    monkeypatch.setattr(region, "Regions", refuse)
    for C in _draws(np.random.default_rng(3002), 100):
        evaluate(C)
        region_report(C)
    # the patches are live: m = 3 takes the fans
    with pytest.raises(AssertionError, match="region machinery"):
        evaluate(TILTED)
