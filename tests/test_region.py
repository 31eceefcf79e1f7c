"""Tests for clipping adjacent cones against the unit hypercube."""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from conirep.cone import adjacent_cone, cone_contains, cone_sub_elements, coni_facets
from conirep.linalg import simplex_volume, simplex_volumes
from conirep.nnls import nnls_batch
from conirep.region import (
    _interior_point,
    build_region,
    hypercube_intersect,
    polytope_facets,
    triangulate_polytope,
)

from conftest import TILTED, WEDGE, random_activity

SQ2 = 1 / math.sqrt(2)


def wedge_adjacent(index):
    cone = cone_sub_elements(coni_facets(WEDGE))
    return adjacent_cone(frozenset({index}), cone)


def sorted_rows(a):
    return np.array(sorted(tuple(np.round(r, 9)) for r in a))


def test_wedge_diagonal_region_vertices():
    verts = hypercube_intersect(wedge_adjacent(0))
    np.testing.assert_allclose(
        sorted_rows(verts), [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]], atol=1e-9)


def test_wedge_axis_region_is_degenerate():
    # the cone below the x-axis meets the cube only in a segment: no
    # interior point, so no vertices are enumerated
    verts = hypercube_intersect(wedge_adjacent(1))
    assert verts.shape == (0, 2)
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
                for v in hypercube_intersect(adj):
                    assert v.min() > -1e-9 and v.max() < 1 + 1e-9
                    assert cone_contains(v, adj.generators, tol_member=1e-7)


def test_polytope_facets_square_triangle_cube():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    facets, planes = polytope_facets(square)
    assert facets.shape == (4, 2)
    assert planes.shape == (4, 3)

    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert len(polytope_facets(triangle)[0]) == 3

    cube = np.array([[x, y, z] for x in (0.0, 1.0)
                     for y in (0.0, 1.0) for z in (0.0, 1.0)])
    facets, planes = polytope_facets(cube)
    # the joggled hull splits each square face into two triangles, each
    # lying in its face, with the face's unit outward normal
    assert facets.shape == (12, 3)
    faces = []
    for f, plane in zip(facets, planes):
        axis = int(np.argmax(np.abs(plane[:3])))
        side = cube[f[0], axis]
        assert np.all(cube[f, axis] == side)
        np.testing.assert_allclose(plane[:3], np.eye(3)[axis] * (1 if side else -1),
                                   atol=1e-9)
        faces.append((axis, side))
    assert len(set(faces)) == 6
    assert all(faces.count(face) == 2 for face in set(faces))


def test_polytope_facets_degenerate():
    segment = np.array([[0.0, 0.0], [1.0, 0.0]])
    facets, planes = polytope_facets(segment)
    assert len(facets) == 0 and len(planes) == 0
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    assert len(polytope_facets(flat)[0]) == 0


def test_triangulation_volumes():
    rect = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    simplices = triangulate_polytope(polytope_facets(rect), rect)
    vols = [simplex_volume(rect[list(s)]) for s in simplices]
    assert len(vols) == 2
    assert sum(vols) == pytest.approx(2.0, abs=1e-12)

    cube = np.array([[x, y, z] for x in (0.0, 1.0)
                     for y in (0.0, 1.0) for z in (0.0, 1.0)])
    simplices = triangulate_polytope(polytope_facets(cube), cube)
    # fanned from the origin: only the six triangles of the faces x_j = 1
    assert len(simplices) == 6
    assert all(s[0] == 0 for s in simplices)
    total = sum(simplex_volume(cube[list(s)]) for s in simplices)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_triangulation_matches_qhull_volume():
    rng = np.random.default_rng(71)
    for m in (2, 3, 4):
        for _ in range(8):
            pts = rng.uniform(0.0, 1.0, size=(rng.integers(m + 2, 16), m))
            hull = ConvexHull(pts)
            verts = pts[hull.vertices]
            simplices = triangulate_polytope(polytope_facets(verts), verts)
            total = sum(simplex_volume(verts[list(s)]) for s in simplices)
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
    # Qhull's default triangulation (Qt) can overlap simplices on a merged
    # facet; fanned from the origin it misses one region of seed 15 by 6.8e-5
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
