"""Tests for the top-level evaluation dispatch and its invariants."""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, HalfspaceIntersection

from conirep.cone import cone_sub_elements, coni_facets
from conirep.errors import BudgetExceededError, DegenerateConeError
from conirep.evaluator import MAX_DIM, RegionRecord, evaluate, output_volume, region_report
from conirep.linalg import block_size, gram_schmidt, simplex_volumes
from conirep.oracle import ir_num

from conftest import JUMP, SQUARE_PYRAMID, TILTED, VERR, WEDGE, perturbed, random_activity
from reference import facet_normal_outward, facet_sets, richardson


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
    # m = 2 takes the closed form, m = 3 the fans: 3 rays and 3 two-ray faces
    for m, count in ((2, 2), (3, 6)):
        rows = region_report(np.eye(m))
        assert len(rows) == count
        # no region has volume, and the rows still carry floats, as JSON prints them
        assert all(type(r.volume) is type(r.integral) is float and r.volume == 0.0 for r in rows)
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


@pytest.mark.parametrize("m", range(1, 7))
def test_ranks_zero_and_one_match_the_corrected_midpoint_rule(m):
    # At rank r <= 1 the integrand is one quadratic, |x|^2 - r (u . x)^2,
    # over the whole cube, with Laplacian 2 (m - r). The midpoint rule on an
    # N^m grid then misses its integral by exactly (m - r) / (12 N^2).
    rng = np.random.default_rng([14, m])
    N = 5
    cases = [(np.zeros((m, 3)), 0)]
    for _ in range(3):
        u = rng.uniform(0.0, 3.0, m)
        cases.append((np.outer(u, rng.uniform(0.5, 2.0, 2)), 1))
        u[rng.random(m) < 0.35] = 0.0
        u[rng.integers(m)] = 1.0
        cases.append((np.column_stack([np.zeros(m), u, 3.0 * u]), 1))
    for C, r in cases:
        res = evaluate(C)
        assert res.method == "closed-form"
        assert res.diagnostics == (f"cone rank {r}: its region is the whole cube",)
        corrected = ir_num(C, N).ir_num + (m - r) / (12.0 * N * N)
        assert abs(res.ir - corrected) <= 1e-14


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
    # the regions are nearly whole cubes: the walk's count passes the
    # simplex budget in well under a second, before any simplex is built
    C = np.random.default_rng(1).uniform(0.0, 3.0, (10, 2))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="simplices"):
        evaluate(C)
    assert time.perf_counter() - start < 5.0


def test_dimension_and_element_budgets(tilted, monkeypatch):
    with pytest.raises(BudgetExceededError):
        evaluate(np.zeros((11, 1)))
    bases = []

    def recording_gram_schmidt(rays):
        bases.append(rays)
        return gram_schmidt(rays)

    with monkeypatch.context() as mp:
        mp.setattr("conirep.cone.MAX_ELEMENTS", 1)
        # _face_bases forms every face's basis through this one name
        mp.setattr("conirep.cone.gram_schmidt", recording_gram_schmidt)
        with pytest.raises(BudgetExceededError, match="6 cone elements exceed the limit of 1"):
            evaluate(tilted)
    # refused after the facet closure, before any face's basis
    assert bases == []
    with monkeypatch.context() as mp:
        mp.setattr("conirep.region.MAX_SIMPLICES", 1)
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


def test_invariances_on_spike_counts():
    # the paper's own input: Poisson spike counts, with zero entries, equal
    # and parallel columns, 15 draws at each m = 2..5 from one generator
    rng = np.random.default_rng(20261021)
    for m in range(2, 6):
        for _ in range(15):
            n = int(rng.integers(m, 2 * m + 4))
            C = rng.poisson(rng.choice([0.3, 1.0, 3.0]), (m, n))
            base = evaluate(C).ir
            scaled = C * rng.uniform(0.25, 4.0, n)
            permuted = C[rng.permutation(m)][:, rng.permutation(n)]
            conic = np.hstack([C, C @ rng.uniform(0.0, 1.0, (n, 1))])
            for variant in (scaled, permuted, conic):
                assert abs(evaluate(variant).ir - base) < 1e-9
            extra = np.hstack([C, rng.poisson(1.0, (m, 1))])
            assert evaluate(extra).ir <= base + 1e-12


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
    assert sorted(facets.sum(axis=1).tolist()) == [3, 3, 3, 3, 4]
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

    def counting(points):
        blocks.append(len(points))
        return simplex_volumes(points)

    monkeypatch.setattr("conirep.integrate.simplex_volumes", counting)
    C = np.random.default_rng(11).uniform(0.0, 3.0, (6, 7))
    assert evaluate(C).ir == pytest.approx(0.22325700051586972, abs=1e-12)
    assert len(blocks) > 10
    assert set(blocks[:-1]) == {block_size(7 * 6)}


def cone_in_cube_volume(C):
    """vol(cone(C) in [0,1]^m) from the cone's own facet halfspaces.

    Independent of the region pipeline: cofactor facet normals, and Qhull's
    own volume of the intersection vertices.
    """
    cone = coni_facets(C)
    m = cone.dim
    normals = np.array([facet_normal_outward(f, cone) for f in facet_sets(cone)])
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
    cone = coni_facets(C)
    return any((cone.rays[sorted(e)].sum(axis=0) == 0.0).any()
               for elems in cone_sub_elements(cone).elements.values() for e in elems)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_partition_identity(m):
    # from m = 3 on, also matrices with entries zeroed at random: their rays
    # on coordinate faces give regions that lie along the cube's faces. m = 6
    # takes one masked draw.
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


# Qhull split a nearly flat facet of these cones into several planes, and
# the rays on one plane formed a facet inside another's, so regions overlapped
# (the volumes summed to 1.30 or 1.37); JUMP's unperturbed ir is 0.0622424.
@pytest.mark.parametrize("eps, seed", [(1e-9, 0), (1e-9, 9), (3e-9, 1), (1e-8, 6), (1e-6, 24)])
def test_near_flat_facets_partition_the_cube(eps, seed):
    res = evaluate(perturbed(JUMP, eps, seed))
    covered = math.fsum(r.volume for r in res.regions)
    assert covered + res.output_volume == pytest.approx(1.0, abs=1e-9)
    assert res.ir == pytest.approx(0.0622424319858876, abs=1e-7)


# JUMP at 1e-6, seed 24: the batch solver once stopped at its iteration cap
# on 430 of these 4,096 grid points
def test_quadrature_answers_on_a_near_flat_facet():
    C = perturbed(JUMP, 1e-6, 24)
    assert abs(evaluate(C).ir - ir_num(C, 8).ir_num) <= 4 / (12.0 * 8 ** 2)


def _first_full_rank_5x6():
    rng = np.random.default_rng(5)
    while True:
        C = rng.integers(0, 3, (5, 6)).astype(float)
        if np.linalg.matrix_rank(C) == 5:
            return C


# exact values from a brute-force rational computation of every region
JUMP_IR, VERR_IR = 0.06224243198588766, 0.11633339151382505


# VERR at 1e-12, seed 36 has two vertices 1.9e-13 apart: Qhull's face lattice
# of one region made the walk cover 0.048177 of its 0.053385, and ir was
# 1.7e-4 off
@pytest.mark.parametrize("C, exact", [
    (JUMP, JUMP_IR), (VERR, VERR_IR), (perturbed(VERR, 1e-12, 36), 0.11633339151379839),
    (_first_full_rank_5x6(), 0.19991448878780851),
], ids=["JUMP", "VERR", "VERR-1e-12-seed-36", "first-full-rank-5x6"])
def test_pinned_to_the_exact_value(C, exact):
    assert abs(evaluate(C).ir - exact) <= 1e-12


# VERR's regions overlap at these (eps, seed): its lattice, not the region
# stage, is at fault, and the partition guard raises
VERR_OVERLAPS = {(3e-9, 15), (3e-9, 36), (1e-8, 10), (1e-8, 17), (1e-8, 32), (1e-8, 38)}


@pytest.mark.parametrize("name", ["JUMP", "VERR"])
def test_near_degenerate_grid(name):
    # nonzero entries moved by up to eps: every answer stays within 10 eps of
    # the unperturbed value (the largest gap measured was 0.92 eps), and the
    # only typed errors are VERR's overlaps, none from the walk's chain check
    C, exact = {"JUMP": (JUMP, JUMP_IR), "VERR": (VERR, VERR_IR)}[name]
    raised = set()
    for eps in (1e-12, 1e-11, 1e-10, 1e-9, 3e-9, 1e-8):
        for seed in range(40):
            try:
                res = evaluate(perturbed(C, eps, seed))
            except DegenerateConeError as exc:
                assert str(exc).startswith("region volumes sum to 1.3"), (eps, seed, exc)
                raised.add((eps, seed))
                continue
            assert abs(res.ir - exact) <= 10 * eps, (eps, seed, res.ir)
    assert raised == (VERR_OVERLAPS if name == "VERR" else set())


# regions of VERR at 3e-9, seed 15 still overlap; the volumes sum to 1.31
def test_overlapping_regions_raise():
    with pytest.raises(DegenerateConeError, match="^region volumes sum to 1.3"):
        evaluate(perturbed(VERR, 3e-9, 15))


# the region of rays 2, 3 and 4 has no interior (its Chebyshev radius is
# 1.1e-9 at seed 15 and 0 at seed 31): Qhull once rejected the lattice's
# point inside it (QH6023). The clip leaves a flat set, and the region is
# empty. VERR's unperturbed ir is 0.1163334.
@pytest.mark.parametrize("seed", [15, 31])
def test_region_without_interior_is_empty(seed):
    res = evaluate(perturbed(VERR, 1e-8, seed))
    assert [r.volume for r in res.regions if r.element == (2, 3, 4)] == [0.0]
    covered = math.fsum(r.volume for r in res.regions)
    assert covered + res.output_volume == pytest.approx(1.0, abs=1e-9)
    assert res.ir == pytest.approx(0.11633339151382503, abs=1e-8)


def test_evaluation_never_imports_scipy_optimize():
    # on-face elements (JUMP, m = 4; at m = 3 the regions are fans) and
    # regions without interior (VERR at 1e-8, seeds 15 and 31), then the
    # quadrature; in a fresh interpreter, so no other test's import counts
    matrices = [JUMP, perturbed(VERR, 1e-8, 15), perturbed(VERR, 1e-8, 31)]
    script = (
        "import sys\n"
        "from conirep import evaluate, ir_num\n"
        f"for rows in {[C.tolist() for C in matrices]!r}:\n"
        "    evaluate(rows)\n"
        "ir_num(rows, 4)\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_no_hull_imports_no_qhull(tmp_path):
    # scipy.spatial is imported at the first hull: m <= 2, ranks 0 and 1,
    # simplicial cones, the quadrature and the encode and numeric commands
    # build none. In a fresh interpreter, so no other test's import counts;
    # a 3x4 cone then needs one, so the check is not vacuous
    spikes, counts, wedge = tmp_path / "spikes.txt", tmp_path / "counts.csv", tmp_path / "wedge.csv"
    spikes.write_text("# neurons=2 duration=4.0\n1\t0.1\n1\t0.2\n2\t0.9\n1\t1.5\n2\t3.9\n")
    wedge.write_text("1,3,1,2\n1,2,0,1\n")
    full = np.random.default_rng(5).uniform(0.0, 3.0, (4, 4))
    matrices = [WEDGE, TILTED, full, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
                np.zeros((3, 2))]
    script = (
        "import sys\n"
        "import conirep\n"
        "from conirep import cli, evaluate, ir_num\n"
        f"assert cli.main(['encode', '--input', {str(spikes)!r}, '--slot-length', '1',"
        f" '--slots', '4', '--output', {str(counts)!r}]) == 0\n"
        f"assert cli.main(['numeric', '--input', {str(wedge)!r}, '--n', '16']) == 0\n"
        f"for rows in {[C.tolist() for C in matrices]!r}:\n"
        "    evaluate(rows)\n"
        f"ir_num({TILTED.tolist()!r}, 16)\n"
        "assert 'scipy.spatial' not in sys.modules, 'scipy.spatial was imported'\n"
        "evaluate([[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, 1]])\n"
        "assert 'scipy.spatial' in sys.modules, 'a 3x4 cone built no hull'\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
