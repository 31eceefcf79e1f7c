"""Tests for clipping adjacent cones against the unit hypercube."""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

import conirep.region
from conirep.cone import (AdjacentCone, AdjacentCones, adjacent_cone, cone_sub_elements,
                          coni_facets)
from conirep.errors import BudgetExceededError, DegenerateConeError
from conirep.linalg import simplex_volumes
from conirep.nnls import nnls_batch
from conirep.region import (
    Intersection,
    _interior_point,
    build_region,
    hypercube_intersect,
    polytope_facets,
    triangulate_polytope,
)

from conftest import TILTED, WEDGE, random_activity
from reference import (cone_contains, facet_masks, origin_first, packed_facets,
                       triangulate_by_recursion)

SQ2 = 1 / math.sqrt(2)

# {x : x1 <= x3, x2 <= x3} in R^3: with x1, x2 >= 0, four planes meet at the
# origin, and x3 >= 0, x1 <= 1 and x2 <= 1 are redundant. Clipped to the cube
# it is a square pyramid with its apex at the origin and its base on x3 = 1.
PYRAMID_NORMALS = np.array([[SQ2, 0.0, -SQ2], [0.0, SQ2, -SQ2]])


def wedge_adjacent(index):
    cone = coni_facets(WEDGE)
    return adjacent_cone(frozenset({index}), cone, cone_sub_elements(cone))


def adjacent(facet_normals, interior):
    """An adjacent cone given only by its facet rows and an interior point."""
    m = facet_normals.shape[1]
    return AdjacentCone(frozenset(), np.zeros((0, m)), np.zeros((0, m)), np.zeros((m, 0)),
                        facet_normals, interior)


def stacked(adjs):
    """A table of the given adjacent cones, in order, as cone_sub_elements stacks them."""
    m = adjs[0].facet_normals.shape[1]
    members = np.zeros((len(adjs), 1 + max(max(a.element, default=0) for a in adjs)), dtype=bool)
    bases = np.zeros((len(adjs), m, m))
    for i, a in enumerate(adjs):
        members[i, sorted(a.element)] = True
        bases[i, :, :a.basis.shape[1]] = a.basis
    return AdjacentCones(
        members=members, dims=np.array([a.basis.shape[1] for a in adjs]), bases=bases,
        rows=np.vstack([a.facet_normals for a in adjs]),
        row_start=np.cumsum([0] + [len(a.facet_normals) for a in adjs]),
        interior=np.array([np.ones(m) if a.interior is None else a.interior for a in adjs]),
        on_face=np.array([a.interior is None for a in adjs]))


def intersections(table):
    """Each region's Qhull intersection as build_region makes it; empty for a region it skips."""
    made = []

    def keep(*args):
        made.append(hypercube_intersect(*args))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conirep.region, "hypercube_intersect", keep)
        sizes = np.diff(build_region(table).vertex_start)
    assert len(made) == np.count_nonzero(sizes)
    made.reverse()
    m = table.rows.shape[1]
    return [made.pop() if size else Intersection(np.zeros((0, m)), []) for size in sizes]


def mask_vertices(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def int_facets(packed):
    """polytope_facets' packed columns back to each polytope's list of int bitmasks."""
    masks, counts = packed
    ints = [sum(int(w) << 64 * i for i, w in enumerate(col)) for col in masks.T]
    ends = np.cumsum(counts).tolist()
    return [ints[end - c:end] for end, c in zip(ends, counts.tolist())]


def incidence_masks(incidence):
    """Each plane's vertex bitmask, read off the incidence lists one vertex at a time."""
    masks = {}
    for j, planes in enumerate(incidence):
        for i in planes:
            masks[i] = masks.get(i, 0) | 1 << j
    return sorted(masks.values())


def sorted_rows(a):
    return np.array(sorted(tuple(np.round(r, 9)) for r in a))


def test_wedge_diagonal_region_vertices():
    [inter] = intersections(stacked([wedge_adjacent(0)]))
    verts = inter.vertices
    np.testing.assert_allclose(
        sorted_rows(verts), [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]], atol=1e-9)


def test_wedge_axis_region_is_degenerate():
    # the cone below the x-axis meets the cube only in a segment: no
    # interior point, so no vertices are enumerated
    [inter] = intersections(stacked([wedge_adjacent(1)]))
    assert inter.vertices.shape == (0, 2) and inter.incidence == []
    region = build_region(stacked([wedge_adjacent(1)]))
    assert region.volume == 0.0
    assert len(region.simplices) == 0


def test_wedge_diagonal_region_build():
    region = build_region(stacked([wedge_adjacent(0)]))
    assert region.volume == pytest.approx(0.5, abs=1e-12)
    assert len(region.simplices) == 1


@pytest.mark.parametrize("point", [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
                         ids=["outside", "on-a-facet"])
def test_rejected_point_falls_back_to_the_least_distance_point(point):
    # Qhull refuses a point outside the square pyramid or on its facet
    # x1 = x3; the region's own halfspaces still give one intersection
    table = stacked([adjacent(PYRAMID_NORMALS, np.array(point))])
    [inter] = intersections(table)
    assert len(inter) == 5
    assert build_region(table).volume == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_second_qhull_failure_names_the_element(monkeypatch):
    # Qhull refuses the lattice's point and then the least-distance point;
    # element [0] lies on a coordinate face with an empty region, so it
    # never reaches Qhull, and [1] is the first that does
    def refuse(*args, **kwargs):
        raise QhullError("forced refusal")

    table = cone_sub_elements(coni_facets(TILTED))
    monkeypatch.setattr(conirep.region, "hypercube_intersect", refuse)
    with pytest.raises(DegenerateConeError, match=r"^region of element \[1\]: forced refusal"):
        build_region(table)


@pytest.mark.parametrize("point", [None, np.array([1.0, 1.0])], ids=["on-face", "rejected"])
def test_region_without_interior_has_no_vertices(point):
    # x1 <= 0 meets the square only in the segment x1 = 0: no point is
    # strictly inside, whether the lattice offers one or not
    table = stacked([adjacent(np.array([[1.0, 0.0]]), point)])
    [inter] = intersections(table)
    assert len(inter) == 0 and inter.incidence == []
    region = build_region(table)
    assert region.vertex_start.tolist() == [0, 0]
    assert region.volume == 0.0


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
        table = cone_sub_elements(cone)
        adjs = [adjacent_cone(e, cone, table) for elems in table.elements.values() for e in elems]
        for adj, inter in zip(adjs, intersections(table)):
            for v in inter.vertices:
                assert v.min() > -1e-9 and v.max() < 1 + 1e-9
                assert cone_contains(v, adj.generators, tol_member=1e-7)


def test_polytope_facets_square_triangle_cube():
    # the whole cube as a region: no facet rows, every point inside
    for m, count in ((2, 4), (3, 6)):
        verts, packed = polytope_facets(intersections(stacked([adjacent(np.zeros((0, m)),
                                                                         np.ones(m))])))
        assert verts.shape == (2 ** m, m)
        assert np.all(verts[0] == 0.0)
        [facets] = int_facets(packed)
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
    [facets] = int_facets(polytope_facets(intersections(stacked([wedge_adjacent(0)])))[1])
    assert sorted(bin(mask).count("1") for mask in facets) == [2, 2, 2]


def test_polytope_facets_degenerate():
    # an empty region has no facets and no simplices
    inters = intersections(stacked([wedge_adjacent(1)]))
    verts, facets = polytope_facets(inters)
    assert verts.shape == (0, 2)
    assert facets[0].shape[1] == 0 and facets[1].tolist() == [0]
    simplices, counts = triangulate_polytope(facets, [inters[0].vertices])
    assert simplices.shape == (0, 3) and counts.tolist() == [0]

    # the pyramid's apex lies on four facets: one vertex, four masks
    verts, packed = polytope_facets(intersections(stacked([
        adjacent(PYRAMID_NORMALS, np.array([0.25, 0.25, 1.0]))])))
    np.testing.assert_allclose(sorted_rows(verts), [[0, 0, 0], [0, 0, 1], [0, 1, 1],
                                                    [1, 0, 1], [1, 1, 1]], atol=1e-12)
    assert np.all(verts[0] == 0.0)
    [facets] = int_facets(packed)
    assert sorted(bin(mask).count("1") for mask in facets) == [3, 3, 3, 3, 4]
    assert sum(mask & 1 for mask in facets) == 4
    simplices, _ = triangulate_polytope(packed, [verts])
    # the base is the one facet that misses the apex: two triangles, two tetrahedra
    assert len(simplices) == 2 and all(s[0] == 0 for s in simplices)
    assert simplex_volumes(verts[simplices]).sum() == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_triangulation_stops_at_its_budget():
    cube = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    facets = packed_facets([facet_masks(cube)], [cube])
    simplices, _ = triangulate_polytope(facets, [cube])
    assert len(simplices) == 6
    # the simplices are counted before any is built: exactly 6 fit a budget of 6
    np.testing.assert_array_equal(triangulate_polytope(facets, [cube], 6)[0], simplices)
    with pytest.raises(BudgetExceededError, match="budget of 5 simplices"):
        triangulate_polytope(facets, [cube], 5)
    # the budget covers every polytope of the call together
    with pytest.raises(BudgetExceededError, match="budget of 11 simplices"):
        triangulate_polytope(packed_facets([facet_masks(cube)] * 2, [cube, cube]),
                             [cube, cube], 11)
    # at m = 2 the one level walked is the last: the square's 2 edges off
    # vertex 0 close its 2 simplices
    square = cube[:4, 1:]
    facets = packed_facets([facet_masks(square)], [square])
    assert len(triangulate_polytope(facets, [square], 2)[0]) == 2
    with pytest.raises(BudgetExceededError, match="budget of 1 simplices"):
        triangulate_polytope(facets, [square], 1)


def test_triangulation_stops_inside_a_level_at_its_budget():
    # the octahedron passes the bound before its first level (6 - 3 = 3
    # simplices at least), but the 4 facets off vertex 0 already start 4 chains
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    facets = packed_facets([facet_masks(octahedron)], [octahedron])
    assert len(triangulate_polytope(facets, [octahedron])[0]) == 4
    with pytest.raises(BudgetExceededError, match="budget of 3 simplices"):
        triangulate_polytope(facets, [octahedron], 3)


def test_walk_ignores_repeated_and_full_masks_at_the_top():
    # the walk starts at the square itself: a facet listed twice, and a mask
    # of every vertex, are no facets of it
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    facets = facet_masks(square) + [0b0110, 0b1111]
    simplices, counts = triangulate_polytope(packed_facets([facets], [square]), [square])
    assert sorted(map(tuple, simplices.tolist())) == [(0, 1, 2), (0, 2, 3)]
    assert counts.tolist() == [2]


def test_dual_facets_list_a_degenerate_vertex_once_with_all_its_planes():
    # polytope_facets relies on this, and the test reference origin_first
    # finds the origin as the vertex whose planes all pass through 0: the
    # facet masks come from these lists, so a degenerate vertex must arrive
    # once and name every plane
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
    simplices, _ = triangulate_polytope(packed_facets([facet_masks(rect)], [rect]), [rect])
    vols = simplex_volumes(rect[simplices])
    assert len(vols) == 2
    assert sum(vols) == pytest.approx(2.0, abs=1e-12)

    cube = np.array([[x, y, z] for x in (0.0, 1.0)
                     for y in (0.0, 1.0) for z in (0.0, 1.0)])
    simplices, _ = triangulate_polytope(packed_facets([facet_masks(cube)], [cube]), [cube])
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
            simplices, _ = triangulate_polytope(packed_facets([facet_masks(verts)], [verts]),
                                                [verts])
            total = simplex_volumes(verts[simplices]).sum()
            assert total == pytest.approx(hull.volume, abs=1e-9)


def same_simplex_sets(facets, vertices):
    """The walk over all polytopes at once against the recursion over each alone."""
    simplices, counts = triangulate_polytope(packed_facets(facets, vertices), vertices)
    starts = np.concatenate([[0], np.cumsum(counts)])
    for i, (f, v) in enumerate(zip(facets, vertices)):
        ref = triangulate_by_recursion(f, v)
        assert sorted(map(tuple, simplices[starts[i]:starts[i + 1]].tolist())) == \
            sorted(map(tuple, ref.tolist()))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_walk_matches_recursion_on_hull_polytopes(m):
    rng = np.random.default_rng([79, m])
    polytopes = []
    for _ in range(12):
        pts = rng.uniform(0.0, 1.0, size=(rng.integers(m + 2, 40), m))
        polytopes.append(pts[ConvexHull(pts).vertices])
    same_simplex_sets([facet_masks(v) for v in polytopes], polytopes)


def region_lattices(C):
    table = cone_sub_elements(coni_facets(C))
    inters = intersections(table)
    vertices, packed = polytope_facets(inters)
    facets = int_facets(packed)
    # stacked and packed all at once, each region's vertices and masks are
    # those of its own incidence, with its origin, the vertex on none of the
    # planes x_j = 1, put first on its own
    through_origin = (table.row_start[1:] - table.row_start[:-1] + C.shape[0]).tolist()
    regions = [origin_first(inter, t) for inter, t in zip(inters, through_origin)]
    assert vertices.tobytes() == np.concatenate([v for v, _ in regions]).tobytes()
    assert [sorted(f) for f in facets] == [incidence_masks(incidence) for _, incidence in regions]
    return facets, [v for v, _ in regions]


@pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (4, 5), (5, 6)])
def test_walk_matches_recursion_on_every_region(m, n):
    for seed in range(3):
        C = np.random.default_rng([83, seed]).uniform(0.0, 3.0, (m, n))
        same_simplex_sets(*region_lattices(C))


def test_walk_matches_recursion_past_one_mask_word():
    # regions of 69 to 169 vertices: each face is two or three uint64 words
    facets, vertices = region_lattices(np.random.default_rng(11).uniform(0.0, 3.0, (6, 7)))
    assert max(len(v) for v in vertices) > 128
    same_simplex_sets(facets, vertices)


def test_walk_does_not_depend_on_chunks(monkeypatch):
    # one face per chunk
    facets, vertices = region_lattices(np.random.default_rng([83, 0]).uniform(0.0, 3.0, (5, 6)))
    monkeypatch.setattr("conirep.linalg.BLOCK_WORDS", 1)
    same_simplex_sets(facets, vertices)


def test_walk_rejects_masks_that_are_not_a_face_lattice():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    # a "facet" of three vertices in the plane: its chain is too long
    with pytest.raises(DegenerateConeError, match="does not have 3 vertices"):
        triangulate_polytope(packed_facets([[0b1110, 0b1001, 0b0011]], [square]), [square])
    tetra = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    # {1, 2, 3} meets the second mask in vertex 2 alone: its chain is too short
    with pytest.raises(DegenerateConeError, match="does not have 4 vertices"):
        triangulate_polytope(packed_facets([[0b1110, 0b0101]], [tetra]), [tetra])
    # the one "facet" is vertex 1 alone: a face of one vertex above the last level
    with pytest.raises(DegenerateConeError, match="does not have 4 vertices"):
        triangulate_polytope(packed_facets([[0b0010]], [tetra]), [tetra])


def test_walk_reads_both_ends_of_an_edge_across_words():
    # a triangle on vertices 0, 3 and 70 of 71: pulled from 0, its one
    # last-level edge has its low end in the first word, its high end in the second
    verts = np.zeros((71, 2))
    masks = [1 | 1 << 3, 1 << 3 | 1 << 70, 1 | 1 << 70]
    simplices, counts = triangulate_polytope(packed_facets([masks], [verts]), [verts])
    assert simplices.tolist() == [[0, 3, 70]]
    assert counts.tolist() == [1]


def test_walk_rejects_a_last_level_face_of_three_vertices_across_words():
    # the face that misses vertex 0 holds 3 in the first word, 69 and 70 in the second
    verts = np.zeros((71, 2))
    masks = [1 | 1 << 3, 1 << 3 | 1 << 69 | 1 << 70, 1 | 1 << 70]
    with pytest.raises(DegenerateConeError, match="does not have 3 vertices"):
        triangulate_polytope(packed_facets([masks], [verts]), [verts])


def all_regions(C):
    return build_region(cone_sub_elements(coni_facets(C)))


def region_volume_total(C):
    return all_regions(C).volume


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
        regions = all_regions(np.random.default_rng(seed).uniform(0.0, 3.0, (5, 6)))
        v, s = regions.vertex_start, regions.simplex_start
        for i in range(len(regions)):
            fan = simplex_volumes(regions.vertices[regions.simplices[s[i]:s[i + 1]]]).sum()
            if v[i] == v[i + 1]:
                assert fan == 0.0
                continue
            # the origin is each region's first vertex, exactly, and pulled first
            assert np.all(regions.vertices[v[i]] == 0.0)
            assert np.all(regions.simplices[s[i]:s[i + 1], 0] == v[i])
            assert fan == pytest.approx(ConvexHull(regions.vertices[v[i]:v[i + 1]]).volume,
                                        abs=1e-12)
