"""Tests for clipping adjacent cones against the unit hypercube."""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from conirep.cone import (AdjacentCone, AdjacentCones, adjacent_cone, cone_sub_elements,
                          coni_facets)
from conirep.errors import BudgetExceededError, DegenerateConeError
from conirep.linalg import simplex_volumes
from conirep.nnls import nnls_batch
from conirep.region import (
    build_region,
    hypercube_intersect,
    polytope_facets,
    triangulate_polytope,
)

from conftest import JUMP, TILTED, WEDGE, random_activity
from reference import (cone_contains, facet_masks, packed_facets, stack_vertices,
                       triangulate_by_recursion)

SQ2 = 1 / math.sqrt(2)

# {x : x1 <= x3, x2 <= x3} in R^3: with x1, x2 >= 0, four planes meet at the
# origin, and x3 >= 0, x1 <= 1 and x2 <= 1 are redundant. Clipped to the cube
# it is a square pyramid with its apex at the origin and its base on x3 = 1.
PYRAMID_NORMALS = np.array([[SQ2, 0.0, -SQ2], [0.0, SQ2, -SQ2]])


def wedge_adjacent(index):
    cone = coni_facets(WEDGE)
    return adjacent_cone(frozenset({index}), cone, cone_sub_elements(cone))


def adjacent(facet_normals):
    """An adjacent cone given only by its facet rows."""
    m = facet_normals.shape[1]
    return AdjacentCone(frozenset(), np.zeros((0, m)), np.zeros((0, m)), np.zeros((m, 0)),
                        facet_normals)


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
        row_start=np.cumsum([0] + [len(a.facet_normals) for a in adjs]))


def mask_vertices(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def int_masks(masks):
    """Packed (n_words, k) mask columns back to a list of ints."""
    return [sum(int(w) << 64 * i for i, w in enumerate(col)) for col in masks.T]


def int_facets(packed):
    """polytope_facets' packed columns back to each polytope's list of int bitmasks."""
    masks, counts = packed
    ints = int_masks(masks)
    ends = np.cumsum(counts).tolist()
    return [ints[end - c:end] for end, c in zip(ends, counts.tolist())]


def owned(simplices, vertex_start, i):
    """Polytope i's simplices, those whose first vertex is one of its, in its own indices."""
    first = simplices[:, 0]
    return simplices[(vertex_start[i] <= first) & (first < vertex_start[i + 1])] - vertex_start[i]


def maximal(masks):
    """The inclusion-maximal masks, each once, sorted."""
    return sorted({f for f in masks if not any(f & g == f != g for g in masks)})


def sorted_rows(a):
    return np.array(sorted(tuple(np.round(r, 9)) for r in a))


def test_wedge_diagonal_region_vertices():
    clip = hypercube_intersect(stacked([wedge_adjacent(0)]))
    np.testing.assert_allclose(
        sorted_rows(clip.vertices), [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]], atol=1e-9)


def test_wedge_axis_region_is_degenerate():
    # the cone below the x-axis meets the cube only in a segment: the clip
    # leaves a flat set, so the region keeps no vertices
    clip = hypercube_intersect(stacked([wedge_adjacent(1)]))
    assert len(clip) == 0 and clip.vertex_start.tolist() == [0, 0]
    region = build_region(stacked([wedge_adjacent(1)]))
    assert region.volume == 0.0
    assert len(region.simplices) == 0


def test_wedge_diagonal_region_build():
    region = build_region(stacked([wedge_adjacent(0)]))
    assert region.volume == pytest.approx(0.5, abs=1e-12)
    assert len(region.simplices) == 1


@pytest.mark.parametrize("m", [3, 4])
def test_cube_cut_by_one_row(m):
    # x1 <= x2 passes through the cube vertices with x1 = x2, and no edge
    # crosses it: the region keeps the 3 2^(m-2) vertices with x1 <= x2, and
    # those with x1 = x2 gain the row's bit 2m
    row = np.zeros(m)
    row[:2] = SQ2, -SQ2
    clip = hypercube_intersect(stacked([adjacent(row[None])]))
    corners = np.array([[j >> i & 1 for i in range(m)] for j in range(2 ** m)], dtype=float)
    kept = corners[corners[:, 0] <= corners[:, 1]]
    assert len(clip) == 3 * 2 ** (m - 2)
    np.testing.assert_array_equal(sorted_rows(clip.vertices), sorted_rows(kept))
    assert np.all(clip.vertices[0] == 0.0)
    for v, mask in zip(clip.vertices, int_masks(clip.masks)):
        bits = sum(1 << (m * int(x) + j) for j, x in enumerate(v)) | int(v[0] == v[1]) << 2 * m
        assert mask == bits
    # the vertices go by descending count of row facets: those on the row first
    on = clip.vertices[:, 0] == clip.vertices[:, 1]
    assert on[:2 ** (m - 1)].all() and not on[2 ** (m - 1):].any()
    assert clip.facets.tolist() == [2 * m + 1]
    assert build_region(stacked([adjacent(row[None])])).volume == pytest.approx(0.5, abs=1e-15)

    # 2 x1 <= x2 crosses the 2^(m-2) edges from (0, 1, z) to (1, 1, z) at
    # (1/2, 1, z), each on x2 = 1, z's faces and the row
    row[:2] = np.array([2.0, -1.0]) / math.sqrt(5.0)
    clip = hypercube_intersect(stacked([adjacent(row[None])]))
    made = [(v, mask) for v, mask in zip(clip.vertices, int_masks(clip.masks)) if v[0] == 0.5]
    assert len(clip) == 2 ** (m - 1) + 2 ** (m - 2) and len(made) == 2 ** (m - 2)
    for v, mask in made:
        assert v[1] == 1.0
        assert mask == 1 << m + 1 | sum(1 << (m * int(x) + j) for j, x in enumerate(v) if j > 1) \
            | 1 << 2 * m
    assert build_region(stacked([adjacent(row[None])])).volume == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("rows", [
    np.array([[1.0, 0.0]]),
    np.array([[SQ2, -SQ2, 0.0], [-SQ2, SQ2, 0.0]]),
], ids=["on-face", "between-two-rows"])
def test_region_without_interior_has_no_vertices(rows):
    # x1 <= 0 meets the square only in the segment x1 = 0, and x1 <= x2
    # with x2 <= x1 the cube only in the plane x1 = x2: every vertex left
    # lies on a common facet, so the region is flat and keeps none
    table = stacked([adjacent(rows)])
    assert len(hypercube_intersect(table)) == 0
    region = build_region(table)
    assert region.vertex_start.tolist() == [0, 0]
    assert region.volume == 0.0


def test_masks_past_one_word():
    # every element's rows of JUMP behind 66 rows that hold on the whole cube
    # and pass through the origin alone: at m = 4 the real rows' bits start at
    # 74, in the second word, and the regions are those of the rows alone
    table = cone_sub_elements(coni_facets(JUMP))
    rng = np.random.default_rng(5)
    count = np.diff(table.row_start)
    pad = -rng.uniform(0.5, 1.0, (len(count), 66, 4))
    rows = np.concatenate([np.concatenate([p, table.rows[a:a + c]])
                           for p, a, c in zip(pad, table.row_start, count)])
    padded = AdjacentCones(table.members, table.dims, table.bases, rows,
                           np.concatenate([[0], (count + 66).cumsum()]))
    wide, narrow = hypercube_intersect(padded), hypercube_intersect(table)
    assert wide.masks.shape[0] == 2 and narrow.masks.shape[0] == 1
    assert wide.vertex_start.tolist() == narrow.vertex_start.tolist()
    np.testing.assert_array_equal(wide.vertices, narrow.vertices)
    # the same masks, the padded rows' bits (set on each origin alone) cleared
    start = wide.vertex_start[:-1][np.diff(wide.vertex_start) > 0]
    for i, (w, n) in enumerate(zip(int_masks(wide.masks), int_masks(narrow.masks))):
        low = (1 << 8) - 1
        if i in start:
            w &= ~(((1 << 66) - 1) << 8)
        assert w & low == n & low and w >> 74 == n >> 8
    a, b = build_region(padded), build_region(table)
    np.testing.assert_array_equal(a.simplices, b.simplices)
    assert a.volume == b.volume


def test_clip_does_not_depend_on_blocks(monkeypatch):
    # one (in, out) pair, and one vertex of a common-facet check, per block
    table = cone_sub_elements(coni_facets(np.random.default_rng([83, 0]).uniform(0.0, 3.0, (4, 5))))
    whole = hypercube_intersect(table)
    monkeypatch.setattr("conirep.linalg.BLOCK_WORDS", 1)
    blocked = hypercube_intersect(table)
    for name in ("vertices", "masks", "vertex_start", "facets"):
        assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes(), name


def test_region_vertices_stay_in_cube_and_cone():
    rng = np.random.default_rng(67)
    for m in [3] * 10 + [4] * 10:
        cone = coni_facets(random_activity(rng, m, m + 1))
        if cone.cone_rank < m:
            continue
        table = cone_sub_elements(cone)
        adjs = [adjacent_cone(e, cone, table) for elems in table.elements.values() for e in elems]
        clip = hypercube_intersect(table)
        for i, adj in enumerate(adjs):
            for v in clip.vertices[clip.vertex_start[i]:clip.vertex_start[i + 1]]:
                assert v.min() > -1e-9 and v.max() < 1 + 1e-9
                assert cone_contains(v, adj.generators, tol_member=1e-7)


def test_polytope_facets_square_triangle_cube():
    # the whole cube as a region: no facet rows, every point inside
    for m, count in ((2, 4), (3, 6)):
        clip = hypercube_intersect(stacked([adjacent(np.zeros((0, m)))]))
        verts, packed = clip.vertices, polytope_facets(clip)
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

    # the wedge's diagonal region is the triangle (0,0), (0,1), (1,1): x2 = 0
    # holds the origin alone, and x1 = 1 the corner (1, 1) alone
    [facets] = int_facets(polytope_facets(hypercube_intersect(stacked([wedge_adjacent(0)]))))
    assert sorted(bin(mask).count("1") for mask in facets) == [2, 2, 2]


def test_polytope_facets_degenerate():
    # an empty region has no facets and no simplices
    clip = hypercube_intersect(stacked([wedge_adjacent(1)]))
    facets = polytope_facets(clip)
    assert clip.vertices.shape == (0, 2)
    assert facets[0].shape[1] == 0 and facets[1].tolist() == [0]
    simplices = triangulate_polytope(facets, clip.vertices, clip.vertex_start)
    assert simplices.shape == (0, 3) and owned(simplices, clip.vertex_start, 0).shape == (0, 3)

    # the pyramid's apex lies on four facets: one vertex, four masks; x3 = 0
    # holds the apex alone, and x1 = 1 and x2 = 1 an edge of the base each, so
    # those three masks go
    clip = hypercube_intersect(stacked([adjacent(PYRAMID_NORMALS)]))
    verts, packed = clip.vertices, polytope_facets(clip)
    np.testing.assert_allclose(sorted_rows(verts), [[0, 0, 0], [0, 0, 1], [0, 1, 1],
                                                    [1, 0, 1], [1, 1, 1]], atol=1e-12)
    assert np.all(verts[0] == 0.0)
    [facets] = int_facets(packed)
    assert sorted(bin(mask).count("1") for mask in facets) == [3, 3, 3, 3, 4]
    assert sum(mask & 1 for mask in facets) == 4
    simplices = triangulate_polytope(packed, verts, clip.vertex_start)
    # the base is the one facet that misses the apex: two triangles, two tetrahedra
    assert len(simplices) == 2 and all(s[0] == 0 for s in simplices)
    assert simplex_volumes(verts[simplices]).sum() == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_triangulation_stops_at_its_budget(monkeypatch):
    cube = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    facets = packed_facets([facet_masks(cube)], [cube])
    simplices = triangulate_polytope(facets, *stack_vertices([cube]))
    assert len(simplices) == 6
    # the simplices are counted before any is built: exactly 6 fit a budget of 6
    monkeypatch.setattr("conirep.region.MAX_SIMPLICES", 6)
    np.testing.assert_array_equal(triangulate_polytope(facets, *stack_vertices([cube])), simplices)
    monkeypatch.setattr("conirep.region.MAX_SIMPLICES", 5)
    with pytest.raises(BudgetExceededError, match="budget of 5 simplices"):
        triangulate_polytope(facets, *stack_vertices([cube]))
    # the budget covers every polytope of the call together
    monkeypatch.setattr("conirep.region.MAX_SIMPLICES", 11)
    with pytest.raises(BudgetExceededError, match="budget of 11 simplices"):
        triangulate_polytope(packed_facets([facet_masks(cube)] * 2, [cube, cube]),
                             *stack_vertices([cube, cube]))
    # at m = 2 the one level walked is the last: the square's 2 edges off
    # vertex 0 close its 2 simplices
    square = cube[:4, 1:]
    facets = packed_facets([facet_masks(square)], [square])
    monkeypatch.setattr("conirep.region.MAX_SIMPLICES", 2)
    assert len(triangulate_polytope(facets, *stack_vertices([square]))) == 2
    monkeypatch.setattr("conirep.region.MAX_SIMPLICES", 1)
    with pytest.raises(BudgetExceededError, match="budget of 1 simplices"):
        triangulate_polytope(facets, *stack_vertices([square]))


def test_triangulation_stops_inside_a_level_at_its_budget(monkeypatch):
    # the octahedron passes the bound before its first level (6 - 3 = 3
    # simplices at least), but the 4 facets off vertex 0 already start 4 chains
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    facets = packed_facets([facet_masks(octahedron)], [octahedron])
    assert len(triangulate_polytope(facets, *stack_vertices([octahedron]))) == 4
    monkeypatch.setattr("conirep.region.MAX_SIMPLICES", 3)
    with pytest.raises(BudgetExceededError, match="budget of 3 simplices"):
        triangulate_polytope(facets, *stack_vertices([octahedron]))


def test_walk_ignores_repeated_and_full_masks_at_the_top():
    # the walk starts at the square itself: a facet listed twice, and a mask
    # of every vertex, are no facets of it
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    facets = facet_masks(square) + [0b0110, 0b1111]
    simplices = triangulate_polytope(packed_facets([facets], [square]), *stack_vertices([square]))
    assert sorted(map(tuple, simplices.tolist())) == [(0, 1, 2), (0, 2, 3)]


def test_triangulation_volumes():
    rect = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    simplices = triangulate_polytope(packed_facets([facet_masks(rect)], [rect]),
                                     *stack_vertices([rect]))
    vols = simplex_volumes(rect[simplices])
    assert len(vols) == 2
    assert sum(vols) == pytest.approx(2.0, abs=1e-12)

    cube = np.array([[x, y, z] for x in (0.0, 1.0)
                     for y in (0.0, 1.0) for z in (0.0, 1.0)])
    simplices = triangulate_polytope(packed_facets([facet_masks(cube)], [cube]),
                                     *stack_vertices([cube]))
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
            simplices = triangulate_polytope(packed_facets([facet_masks(verts)], [verts]),
                                             *stack_vertices([verts]))
            total = simplex_volumes(verts[simplices]).sum()
            assert total == pytest.approx(hull.volume, abs=1e-9)


def same_simplex_sets(facets, vertices):
    """The walk over all polytopes at once against the recursion over each alone."""
    stack, start = stack_vertices(vertices)
    simplices = triangulate_polytope(packed_facets(facets, vertices), stack, start)
    for i, (f, v) in enumerate(zip(facets, vertices)):
        ref = triangulate_by_recursion(f, v)
        assert sorted(map(tuple, owned(simplices, start, i).tolist())) == \
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
    clip = hypercube_intersect(cone_sub_elements(coni_facets(C)))
    return int_facets(polytope_facets(clip)), np.split(clip.vertices, clip.vertex_start[1:-1])


@pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (4, 5), (5, 6)])
def test_walk_matches_recursion_on_every_region(m, n):
    for seed in range(3):
        C = np.random.default_rng([83, seed]).uniform(0.0, 3.0, (m, n))
        same_simplex_sets(*region_lattices(C))


@pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (4, 5), (5, 6)])
def test_clip_facets_are_the_hull_facets(m, n):
    # each region's inclusion-maximal masks, against the facets Qhull finds
    # on the hull of its vertices
    for seed in range(3):
        C = np.random.default_rng([83, seed]).uniform(0.0, 3.0, (m, n))
        for facets, vertices in zip(*region_lattices(C)):
            if len(vertices):
                assert maximal(facets) == facet_masks(vertices)


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
        triangulate_polytope(packed_facets([[0b1110, 0b1001, 0b0011]], [square]),
                             *stack_vertices([square]))
    tetra = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    # {1, 2, 3} meets the second mask in vertex 2 alone: its chain is too short
    with pytest.raises(DegenerateConeError, match="does not have 4 vertices"):
        triangulate_polytope(packed_facets([[0b1110, 0b0101]], [tetra]), *stack_vertices([tetra]))
    # the one "facet" is vertex 1 alone: a face of one vertex above the last level
    with pytest.raises(DegenerateConeError, match="does not have 4 vertices"):
        triangulate_polytope(packed_facets([[0b0010]], [tetra]), *stack_vertices([tetra]))


def test_walk_reads_both_ends_of_an_edge_across_words():
    # a triangle on vertices 0, 3 and 70 of 71: pulled from 0, its one
    # last-level edge has its low end in the first word, its high end in the second
    verts = np.zeros((71, 2))
    masks = [1 | 1 << 3, 1 << 3 | 1 << 70, 1 | 1 << 70]
    simplices = triangulate_polytope(packed_facets([masks], [verts]), *stack_vertices([verts]))
    assert simplices.tolist() == [[0, 3, 70]]


def test_walk_rejects_a_last_level_face_of_three_vertices_across_words():
    # the face that misses vertex 0 holds 3 in the first word, 69 and 70 in the second
    verts = np.zeros((71, 2))
    masks = [1 | 1 << 3, 1 << 3 | 1 << 69 | 1 << 70, 1 | 1 << 70]
    with pytest.raises(DegenerateConeError, match="does not have 3 vertices"):
        triangulate_polytope(packed_facets([masks], [verts]), *stack_vertices([verts]))


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
        v = regions.vertex_start
        for i in range(len(regions)):
            own = owned(regions.simplices, v, i)
            fan = simplex_volumes(regions.vertices[v[i]:v[i + 1]][own]).sum()
            if v[i] == v[i + 1]:
                assert fan == 0.0
                continue
            # the origin is each region's first vertex, exactly, and pulled first
            assert np.all(regions.vertices[v[i]] == 0.0)
            assert np.all(own[:, 0] == 0)
            assert fan == pytest.approx(ConvexHull(regions.vertices[v[i]:v[i + 1]]).volume,
                                        abs=1e-12)
