"""Tests for clipping adjacent cones against the unit hypercube."""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull, HalfspaceIntersection

from conirep.cone import AdjacentCone, adjacent_cone, cone_sub_elements, coni_facets
from conirep.errors import BudgetExceededError
from conirep.linalg import simplex_volumes
from conirep.nnls import nnls_batch
from conirep.region import (
    _interior_point,
    build_region,
    hypercube_intersect,
    polytope_facets,
    triangulate_polytope,
)

from conftest import TILTED, WEDGE, random_activity
from reference import cone_contains, facet_masks

SQ2 = 1 / math.sqrt(2)

# {x : x1 <= x3, x2 <= x3} in R^3: with x1, x2 >= 0, four planes meet at the
# origin, and x3 >= 0, x1 <= 1 and x2 <= 1 are redundant. Clipped to the cube
# it is a square pyramid with its apex at the origin and its base on x3 = 1.
PYRAMID_NORMALS = np.array([[SQ2, 0.0, -SQ2], [0.0, SQ2, -SQ2]])


def wedge_adjacent(index):
    cone = cone_sub_elements(coni_facets(WEDGE))
    return adjacent_cone(frozenset({index}), cone)


def adjacent(facet_normals, interior):
    """An adjacent cone given only by its facet rows and an interior point."""
    m = facet_normals.shape[1]
    return AdjacentCone(frozenset(), np.zeros((0, m)), np.zeros((0, m)), np.zeros((m, 0)),
                        facet_normals, interior)


def mask_vertices(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def sorted_rows(a):
    return np.array(sorted(tuple(np.round(r, 9)) for r in a))


def test_wedge_diagonal_region_vertices():
    verts = hypercube_intersect(wedge_adjacent(0)).vertices
    np.testing.assert_allclose(
        sorted_rows(verts), [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]], atol=1e-9)


def test_wedge_axis_region_is_degenerate():
    # the cone below the x-axis meets the cube only in a segment: no
    # interior point, so no vertices are enumerated
    inter = hypercube_intersect(wedge_adjacent(1))
    assert inter.vertices.shape == (0, 2) and inter.incidence == []
    region = build_region(wedge_adjacent(1))
    assert region.volume == 0.0
    assert len(region.simplices) == 0


def test_wedge_diagonal_region_build():
    region = build_region(wedge_adjacent(0))
    assert region.volume == pytest.approx(0.5, abs=1e-12)
    assert len(region.simplices) == 1


def test_interior_point_least_distance():
    # x >= 1 componentwise: the least-norm solution is the all-ones corner
    np.testing.assert_allclose(_interior_point(np.eye(3)), np.ones(3), atol=1e-12)
    # x1 + x2 >= 1 alone: the closest point to the origin is (1/2, 1/2)
    np.testing.assert_allclose(_interior_point(np.array([[1.0, 1.0]])),
                               [0.5, 0.5], atol=1e-12)
    rng = np.random.default_rng(61)
    for _ in range(20):
        G = rng.standard_normal((6, 3))
        x = _interior_point(G)
        if x is not None:
            assert np.all(G @ x >= 1.0 - 1e-9)
    # x1 >= 1 and -x1 >= 1 cannot both hold
    assert _interior_point(np.array([[1.0, 0.0], [-1.0, 0.0]])) is None


def test_region_vertices_stay_in_cube_and_cone():
    rng = np.random.default_rng(67)
    for _ in range(10):
        cone = coni_facets(random_activity(rng, 3, 4))
        if cone.cone_rank < 3:
            continue
        cone = cone_sub_elements(cone)
        for elems in cone.elements.values():
            for e in elems:
                adj = adjacent_cone(e, cone)
                for v in hypercube_intersect(adj).vertices:
                    assert v.min() > -1e-9 and v.max() < 1 + 1e-9
                    assert cone_contains(v, adj.generators, tol_member=1e-7)


def test_polytope_facets_square_triangle_cube():
    # the whole cube as a region: no facet rows, every point inside
    for m, count in ((2, 4), (3, 6)):
        inter = hypercube_intersect(adjacent(np.zeros((0, m)), np.ones(m)))
        verts = inter.vertices
        assert verts.shape == (2 ** m, m)
        assert np.all(verts[0] == 0.0)
        facets = polytope_facets(inter.incidence)
        # each facet holds the 2^(m-1) vertices of one face x_axis = side
        assert len(facets) == count
        faces = set()
        for mask in facets:
            on = verts[mask_vertices(mask)]
            assert len(on) == 2 ** (m - 1)
            axis = int(np.flatnonzero(np.ptp(on, axis=0) == 0.0)[0])
            faces.add((axis, on[0, axis]))
        assert len(faces) == count

    # the wedge's diagonal region is the triangle (0,0), (0,1), (1,1)
    facets = polytope_facets(hypercube_intersect(wedge_adjacent(0)).incidence)
    assert sorted(bin(mask).count("1") for mask in facets) == [2, 2, 2]


def test_polytope_facets_degenerate():
    # an empty region has no facets and no simplices
    inter = hypercube_intersect(wedge_adjacent(1))
    assert polytope_facets(inter.incidence) == []
    assert triangulate_polytope([], inter.vertices).shape == (0, 3)

    # the pyramid's apex lies on four facets: one vertex, four masks
    inter = hypercube_intersect(adjacent(PYRAMID_NORMALS, np.array([0.25, 0.25, 1.0])))
    verts = inter.vertices
    np.testing.assert_allclose(sorted_rows(verts), [[0, 0, 0], [0, 0, 1], [0, 1, 1],
                                                    [1, 0, 1], [1, 1, 1]], atol=1e-12)
    assert np.all(verts[0] == 0.0)
    facets = polytope_facets(inter.incidence)
    assert sorted(bin(mask).count("1") for mask in facets) == [3, 3, 3, 3, 4]
    assert sum(mask & 1 for mask in facets) == 4
    simplices = triangulate_polytope(facets, verts)
    # the base is the one facet that misses the apex: two triangles, two tetrahedra
    assert len(simplices) == 2 and all(s[0] == 0 for s in simplices)
    assert simplex_volumes(verts[simplices]).sum() == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_triangulation_stops_at_its_budget():
    cube = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    facets = facet_masks(cube)
    simplices = triangulate_polytope(facets, cube)
    assert len(simplices) == 6
    np.testing.assert_array_equal(triangulate_polytope(facets, cube, 100), simplices)
    # the memo also holds the faces' own rows, so the simplex count alone passes it
    with pytest.raises(BudgetExceededError, match="budget of 6 simplices"):
        triangulate_polytope(facets, cube, 6)


def test_dual_facets_list_a_degenerate_vertex_once_with_all_its_planes():
    # hypercube_intersect relies on this: the origin is found as the vertex
    # whose planes all pass through 0, and the facet masks come from these
    # lists, so a degenerate vertex must arrive once and name every plane
    eye = np.eye(3)
    halfspaces = np.vstack([
        np.hstack([PYRAMID_NORMALS, np.zeros((2, 1))]),  # 0, 1: x1 <= x3, x2 <= x3
        np.hstack([-eye, np.zeros((3, 1))]),  # 2, 3, 4: x >= 0
        np.hstack([eye, -np.ones((3, 1))]),  # 5, 6, 7: x <= 1
    ])
    hs = HalfspaceIntersection(halfspaces, np.array([0.125, 0.125, 0.5]))
    at_origin = np.flatnonzero(np.abs(hs.intersections).max(axis=1) < 1e-12)
    assert len(hs.intersections) == 5 and len(at_origin) == 1
    assert sorted(hs.dual_facets[at_origin[0]]) == [0, 1, 2, 3]
    # the redundant planes x3 >= 0, x1 <= 1 and x2 <= 1 touch the pyramid
    # but bound no facet, so no vertex lists them
    assert {4, 5, 6}.isdisjoint(i for planes in hs.dual_facets for i in planes)


def test_triangulation_volumes():
    rect = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    simplices = triangulate_polytope(facet_masks(rect), rect)
    vols = simplex_volumes(rect[simplices])
    assert len(vols) == 2
    assert sum(vols) == pytest.approx(2.0, abs=1e-12)

    cube = np.array([[x, y, z] for x in (0.0, 1.0)
                     for y in (0.0, 1.0) for z in (0.0, 1.0)])
    simplices = triangulate_polytope(facet_masks(cube), cube)
    # pulled from the origin: only the faces x_j = 1 miss it, two triangles each
    assert len(simplices) == 6
    assert all(s[0] == 0 for s in simplices)
    total = simplex_volumes(cube[simplices]).sum()
    assert total == pytest.approx(1.0, abs=1e-12)


def test_triangulation_matches_qhull_volume():
    rng = np.random.default_rng(71)
    for m in (2, 3, 4):
        for _ in range(8):
            pts = rng.uniform(0.0, 1.0, size=(rng.integers(m + 2, 16), m))
            hull = ConvexHull(pts)
            verts = pts[hull.vertices]
            simplices = triangulate_polytope(facet_masks(verts), verts)
            total = simplex_volumes(verts[simplices]).sum()
            assert total == pytest.approx(hull.volume, abs=1e-9)


def region_volume_total(C):
    cone = cone_sub_elements(coni_facets(C))
    total = 0.0
    for elems in cone.elements.values():
        for e in elems:
            total += build_region(adjacent_cone(e, cone)).volume
    return total


def test_region_volumes_match_monte_carlo_coverage():
    rng = np.random.default_rng(73)
    matrices = [WEDGE, TILTED] + [random_activity(rng, 3, 4) for _ in range(4)]
    for C in matrices:
        C = np.asarray(C, dtype=float)
        cone = coni_facets(C)
        if cone.cone_rank < C.shape[0]:
            continue
        total = region_volume_total(C)
        pts = rng.uniform(0.0, 1.0, size=(C.shape[0], 200_000))
        _, rsq = nnls_batch(C, pts)
        outside = float(np.mean(rsq > 1e-16))
        assert total == pytest.approx(outside, abs=5e-3)


def test_wedge_region_total_is_half():
    assert region_volume_total(WEDGE) == pytest.approx(0.5, abs=1e-12)


def test_fan_volume_matches_hull_volume():
    # regions with many degenerate vertices: a fan over Qhull's default
    # triangulation (Qt) of the hull once missed a region of seed 15 by
    # 6.8e-5; the pulling triangulation must tile each region exactly
    for seed in (10, 15, 17, 34):
        C = np.random.default_rng(seed).uniform(0.0, 3.0, (5, 6))
        cone = cone_sub_elements(coni_facets(C))
        for elems in cone.elements.values():
            for e in elems:
                region = build_region(adjacent_cone(e, cone))
                if not len(region.vertices):
                    assert region.volume == 0.0
                    continue
                fan = simplex_volumes(region.vertices[region.simplices]).sum()
                assert fan == pytest.approx(region.volume, abs=1e-15)
                assert fan == pytest.approx(ConvexHull(region.vertices).volume, abs=1e-12)
