"""Tests for the top-level evaluation dispatch and its invariants."""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, HalfspaceIntersection

from conirep.cone import cone_sub_elements, coni_facets
from conirep.errors import BudgetExceededError
from conirep.evaluator import (INTEGRATE_BLOCK, MAX_DIM, RegionRecord, evaluate, output_volume,
                               region_report)
from conirep.integrate import region_integral
from conirep.oracle import ir_num

from conftest import SQUARE_PYRAMID, random_activity
from reference import facet_normal_outward, richardson


def test_zero_matrix_closed_form():
    for m in (1, 2, 3, 4):
        res = evaluate(np.zeros((m, 2)))
        assert res.ir == pytest.approx(m / 3.0, abs=1e-15)
        assert res.irn == 1.0
        assert res.output_volume == 0.0
        assert res.method == "closed-form"
        assert res.zero_columns == (1, 2)
        assert len(res.regions) == 1
        apex = res.regions[0]
        assert apex.element == () and apex.volume == 1.0
        assert apex.integral == pytest.approx(m / 3.0, abs=1e-15)


def test_single_state_closed_form():
    res = evaluate(np.array([[0.0, 2.0, 1.0]]))
    assert res.ir == 0.0
    assert res.output_volume == 1.0
    assert res.extreme_ray_columns == (2, 3)
    assert res.zero_columns == (1,)
    assert res.method == "closed-form"


def test_full_coverage_short_circuit():
    for m in (2, 3, 4):
        res = evaluate(np.eye(m))
        assert res.ir == 0.0
        assert res.irn == 0.0
        assert res.output_volume == 1.0
        assert res.method == "closed-form"
        assert res.regions == ()


def test_wedge_full_result(wedge):
    res = evaluate(wedge)
    assert res.ir == pytest.approx(1.0 / 24.0, abs=1e-12)
    assert res.irn == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert res.output_volume == pytest.approx(0.5, abs=1e-12)
    assert res.extreme_ray_columns == (1, 3)
    assert res.redundant_columns == (2, 4)
    assert res.zero_columns == ()
    assert res.method == "analytical"
    assert sum(r.volume for r in res.regions) == pytest.approx(0.5, abs=1e-12)


def test_tilted_partitions_the_cube(tilted):
    res = evaluate(tilted)
    assert res.method == "analytical"
    assert len(res.regions) == 6
    positive = [r for r in res.regions if r.volume > 1e-12]
    assert len(positive) == 5
    total = sum(r.volume for r in res.regions) + res.output_volume
    assert total == pytest.approx(1.0, abs=1e-9)
    assert all(r.integral >= 0.0 for r in res.regions)
    assert all(set(r.element) <= {1, 2, 3} for r in res.regions)
    assert res.ir == pytest.approx(sum(r.integral for r in res.regions), abs=1e-15)


def test_region_report_forces_pipeline():
    rows = region_report(np.eye(2))
    assert len(rows) == 2
    assert all(r.volume == 0.0 for r in rows)
    rows = region_report(np.zeros((3, 1)))
    assert len(rows) == 1 and rows[0].element == ()


def test_output_volume_helper(wedge):
    assert output_volume(wedge) == pytest.approx(0.5, abs=1e-12)
    assert output_volume(np.eye(3)) == 1.0
    assert output_volume(np.zeros((2, 1))) == 0.0


def _spans_the_cube(res):
    """A flat cone: no output volume, and regions that tile the whole cube."""
    assert res.output_volume == 0.0
    assert math.fsum(r.volume for r in res.regions) == pytest.approx(1.0, abs=1e-12)


def test_rank_deficient_plane_is_one_third():
    # the cone is the quadrant of the x-y plane: its region is the whole
    # cube, and the squared distance to the plane is x_3^2
    C = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    res = evaluate(C)
    assert res.method == "analytical"
    assert res.ir == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.extreme_ray_columns == (1, 2)
    assert res.redundant_columns == (3,)
    _spans_the_cube(res)
    assert res.regions[-1].element == (1, 2) and res.regions[-1].dim == 2
    assert abs(res.ir - richardson(C, 16, 32)) <= 1e-9


def test_rank_two_in_r3_is_23_over_60():
    # the wedge of (1,1,0) and (1,2,0) in the x-y plane, worked out by hand
    C = np.array([[1.0, 1.0], [1.0, 2.0], [0.0, 0.0]])
    res = evaluate(C)
    assert res.method == "analytical"
    assert res.ir == pytest.approx(23.0 / 60.0, abs=1e-12)
    _spans_the_cube(res)
    assert abs(res.ir - richardson(C, 32, 64)) <= 1e-9


def test_rank_one_is_the_closed_form():
    # two all-ones columns: m/3 - 1/12 - (sum u)^2/4 with sum u = sqrt(3)
    res = evaluate(np.ones((3, 2)))
    assert res.method == "closed-form"
    assert res.ir == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert res.extreme_ray_columns == (1, 2)
    assert res.regions == (RegionRecord((1,), 1, 1.0, res.ir),)
    _spans_the_cube(res)
    C = np.array([[0.0, 1.0], [0.0, 3.0], [0.0, 2.0], [0.0, 0.5]])
    res = evaluate(C)
    assert res.zero_columns == (1,)
    assert abs(res.ir - richardson(C, 12, 24)) <= 1e-9


@pytest.mark.parametrize("m, grids, tol", [
    (3, (24, 48), 2e-7), (4, (12, 24), 2e-6), (5, (8, 16), 2e-5),
])
def test_narrow_matrices_match_richardson(m, grids, tol):
    # n < m: cones of rank m-1 and less, through the lattice in their span.
    # Each tolerance is 10x the worst gap over 12 such draws.
    rng = np.random.default_rng([5, m])
    for _ in range(2):
        C = rng.uniform(0.0, 3.0, (m, int(rng.integers(1, m))))
        res = evaluate(C)
        assert res.method in ("analytical", "closed-form")
        _spans_the_cube(res)
        assert abs(res.ir - richardson(C, *grids)) <= tol


def test_rank_two_at_m10_raises_within_seconds():
    # the regions are nearly whole cubes: the triangulation passes the
    # simplex budget after about a second, long before it fills memory
    C = np.random.default_rng(1).uniform(0.0, 3.0, (10, 2))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="simplices"):
        evaluate(C)
    assert time.perf_counter() - start < 5.0


def test_dimension_and_element_budgets(tilted, monkeypatch):
    with pytest.raises(BudgetExceededError):
        evaluate(np.zeros((11, 1)))
    bases = []
    with monkeypatch.context() as mp:
        mp.setattr("conirep.cone.MAX_ELEMENTS", 1)
        mp.setattr("conirep.cone.gram_schmidt", lambda rays: bases.append(rays))
        with pytest.raises(BudgetExceededError, match="6 cone elements exceed the limit of 1"):
            evaluate(tilted)
    # refused after the facet closure, before any face's basis
    assert bases == []
    with monkeypatch.context() as mp:
        mp.setattr("conirep.evaluator.MAX_SIMPLICES", 1)
        with pytest.raises(BudgetExceededError, match="simplices"):
            evaluate(tilted)


def test_one_dimension_past_max_dim_raises_at_once():
    C = np.random.default_rng(3).uniform(0.0, 3.0, (MAX_DIM + 1, MAX_DIM + 2))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=f"maximum of {MAX_DIM}"):
        evaluate(C)
    assert time.perf_counter() - start < 1.0


def test_input_validation():
    with pytest.raises(ValueError):
        evaluate(np.array([[1.0, -1.0]]))
    with pytest.raises(ValueError):
        evaluate(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        evaluate(np.array([[np.inf, 1.0]]))


def test_deterministic(tilted):
    a = evaluate(tilted)
    b = evaluate(tilted)
    assert a.ir == b.ir
    assert a.regions == b.regions


def _check_invariances(C, base, rng):
    m, n = C.shape
    scaled = C @ np.diag(rng.uniform(0.25, 4.0, size=n))
    assert evaluate(scaled).ir == pytest.approx(base.ir, abs=1e-9)

    conic = np.hstack([C, (C @ rng.uniform(0.0, 1.0, size=(n, 1)))])
    assert evaluate(conic).ir == pytest.approx(base.ir, abs=1e-9)

    rp = rng.permutation(m)
    cp = rng.permutation(n)
    assert evaluate(C[rp][:, cp]).ir == pytest.approx(base.ir, abs=1e-9)

    extra = np.hstack([C, rng.uniform(0.0, 3.0, size=(m, 1))])
    assert evaluate(extra).ir <= base.ir + 1e-9


def test_invariances_spot_checks():
    rng = np.random.default_rng(101)
    done = 0
    while done < 10:
        C = random_activity(rng, 3, rng.integers(3, 6))
        base = evaluate(C)
        if base.method != "analytical":
            continue
        _check_invariances(C, base, rng)
        done += 1


@pytest.mark.parametrize("m", [4, 5])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_invariances_at_m4_and_m5(m, seed):
    rng = np.random.default_rng(seed)
    C = random_activity(rng, m, rng.integers(m + 1, m + 4))
    base = evaluate(C)
    assume(base.method == "analytical")
    _check_invariances(C, base, rng)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("scales", ["tiny", "huge", "spread"])
def test_column_scale_invariance_at_extreme_scales(m, scales):
    # unit rays of columns near 1e-200 or 1e200 must not under- or overflow
    rng = np.random.default_rng(40 + m)
    C = random_activity(rng, m, m + 2)
    d = {"tiny": np.full(m + 2, 1e-200), "huge": np.full(m + 2, 1e200),
         "spread": np.logspace(-200, 200, m + 2)}[scales]
    base, scaled = evaluate(C), evaluate(C * d)
    assert scaled.ir == pytest.approx(base.ir, rel=1e-12)
    assert scaled.output_volume == pytest.approx(base.output_volume, abs=1e-12)
    assert scaled.extreme_ray_columns == base.extreme_ray_columns
    assert scaled.redundant_columns == base.redundant_columns


def test_square_pyramid_with_a_four_ray_facet():
    C = SQUARE_PYRAMID
    facets = coni_facets(C).facets
    assert sorted(len(f) for f in facets) == [3, 3, 3, 3, 4]
    res = evaluate(C)
    assert res.method == "analytical"
    assert res.ir == pytest.approx(0.1634262091817647, abs=1e-12)
    assert res.output_volume == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert abs(res.ir - ir_num(C, 24).ir_num) <= 4 / (12.0 * 24 ** 2)


def roadmap_m6_matrix():
    """The 6 x 8 matrix that once raised 'expected m+1 vertices ... (6, 6)'."""
    rng = np.random.default_rng(7)
    for shape in [(2, 4), (3, 4), (3, 6), (4, 5), (4, 8), (5, 6), (5, 10)]:
        for _ in range(3):
            rng.uniform(0.0, 3.0, size=shape)
    return rng.uniform(0.0, 3.0, size=(6, 8))


@pytest.mark.parametrize("C, n_grid", [
    (np.random.default_rng(10).uniform(0.0, 3.0, (5, 6)), 16),
    (roadmap_m6_matrix(), 8),
], ids=["m5-seed10", "m6-seed7"])
def test_short_of_vertices_regressions(C, n_grid):
    # both crashed in the old recursive facet fan with a simplex short of
    # vertices; the midpoint rule is within m / (12 N^2) of the exact value
    res = evaluate(C)
    m = C.shape[0]
    assert res.method == "analytical"
    assert abs(res.ir - ir_num(C, n_grid).ir_num) <= m / (12.0 * n_grid ** 2)


def test_m6_value_across_many_integration_blocks(monkeypatch):
    # pinned from the region-at-a-time integration that the blocks replaced
    blocks = []

    def counting(regions, bases):
        blocks.append(sum(len(r.simplices) for r in regions))
        return region_integral(regions, bases)

    monkeypatch.setattr("conirep.evaluator.region_integral", counting)
    C = np.random.default_rng(11).uniform(0.0, 3.0, (6, 7))
    assert evaluate(C).ir == pytest.approx(0.22325700051586972, abs=1e-12)
    assert len(blocks) > 10
    assert min(blocks[:-1]) >= INTEGRATE_BLOCK


def cone_in_cube_volume(C):
    """vol(cone(C) in [0,1]^m) from the cone's own facet halfspaces.

    Independent of the region pipeline: cofactor facet normals, and Qhull's
    own volume of the intersection vertices.
    """
    cone = coni_facets(C)
    m = cone.dim
    normals = np.array([facet_normal_outward(f, cone) for f in cone.facets])
    eye = np.eye(m)
    halfspaces = np.vstack([
        np.hstack([normals, np.zeros((len(normals), 1))]),
        np.hstack([-eye, np.zeros((m, 1))]),
        np.hstack([eye, -np.ones((m, 1))]),
    ])
    # a positive combination of all rays is interior to the cone, and every
    # coordinate is positive because the rays are nonnegative and span R^m
    inner = cone.rays.sum(axis=0)
    hs = HalfspaceIntersection(halfspaces, inner / (2.0 * inner.max()))
    return ConvexHull(hs.intersections).volume


def on_a_coordinate_face(C):
    """True when some lattice element's ray sum has a zero coordinate."""
    cone = cone_sub_elements(coni_facets(C))
    return any((cone.rays[sorted(e)].sum(axis=0) == 0.0).any()
               for elems in cone.elements.values() for e in elems)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_partition_identity(m):
    # from m = 3 on, also matrices with entries zeroed at random: their rays
    # on coordinate faces give regions whose interior point comes from the
    # least-distance NNLS, not from the lattice. m = 6 takes one masked draw.
    # Then two cones of rank below m, whose regions tile the whole cube.
    rng = np.random.default_rng(900 + m)
    plain, masked_draws = {2: (4, 0), 5: (2, 2), 6: (0, 1)}.get(m, (4, 4))
    on_face = False
    for masked in [False] * plain + [True] * masked_draws:
        while True:
            C = random_activity(rng, m, int(rng.integers(m + 1, 2 * m + 1)))
            if masked:
                C[rng.random(C.shape) < 0.35] = 0.0
            res = evaluate(C)
            if res.method == "analytical":
                break
        inside = cone_in_cube_volume(C)
        covered = math.fsum(r.volume for r in res.regions)
        assert covered + inside == pytest.approx(1.0, abs=1e-12)
        assert res.output_volume == pytest.approx(inside, abs=1e-12)
        on_face |= masked and on_a_coordinate_face(C)
    assert on_face or m == 2
    # flat cones: fewer columns than states, or a state no column reaches
    for narrow in (True, False):
        C = random_activity(rng, m, m - 1 if narrow else m + 1)
        if not narrow:
            C[rng.integers(m)] = 0.0
        _spans_the_cube(evaluate(C))


def test_all_but_infeasible_region_on_a_coordinate_face():
    # the 47th zero-masked draw of seed 4242: the least-distance system of
    # the element of rays 2 and 3 (from 0) has an NNLS residual of 4.2e-7,
    # just above the emptiness threshold, and the point solved from its
    # active rows broke two of them; scaled into the cube it sat on x_5 = 0
    # and Qhull refused it
    rng = np.random.default_rng(4242)
    for _ in range(47):
        m = int(rng.integers(2, 6))
        C = rng.uniform(0.0, 3.0, (m, rng.integers(m + 1, 2 * m + 1)))
        C[rng.random(C.shape) < 0.35] = 0.0
    assert C.shape == (5, 7)
    res = evaluate(C)
    assert res.method == "analytical"
    inside = cone_in_cube_volume(C)
    covered = math.fsum(r.volume for r in res.regions)
    assert covered + inside == pytest.approx(1.0, abs=1e-12)
    assert abs(res.ir - ir_num(C, 16).ir_num) <= 5 / (12.0 * 16 ** 2)


def test_thin_region_of_a_wide_matrix():
    # the region of ray 10 is a wedge about 1e-8 thick; an interior point
    # read off the least-distance residual fell outside it and Qhull refused
    rng = np.random.default_rng([309, 2, 3, 300])
    C = [rng.uniform(0.0, 3.0, size=(3, 300)) for _ in range(6)][-1]
    res = evaluate(C)
    thin = [r for r in res.regions if r.element == (10,)]
    assert thin[0].volume == pytest.approx(9.0441752e-12, rel=1e-6)
    covered = math.fsum(r.volume for r in res.regions)
    assert covered + cone_in_cube_volume(C) == pytest.approx(1.0, abs=1e-12)
