"""Tests for extreme-ray extraction, the facet lattice, and adjacent cones."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.spatial
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import lsq_linear
from scipy.spatial import ConvexHull

import conirep.cone
from conirep.cone import (
    _unit_dedup,
    adjacent_cone,
    as_state_matrix,
    cone_halfspaces,
    cone_sub_elements,
    coni_facets,
)
from conirep.errors import AllZeroMatrixError, DegenerateConeError
from conirep.evaluator import evaluate
from conirep.linalg import TOL_GEOM
from conirep.nnls import nnls

from conftest import JUMP, SQUARE_PYRAMID, TILTED, WEDGE, perturbed, random_activity
from reference import (adjacent_cone_by_element, cone_contains, facet_normal_outward,
                       facet_sets, generators, lattice_by_element_scan,
                       origins_by_fitting_every_unit, simplicial_halfspaces_by_hull,
                       unit_dedup_by_loop)

SQ2 = 1 / math.sqrt(2)


def test_state_matrix_validation():
    with pytest.raises(ValueError):
        as_state_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_state_matrix(np.array([[1.0, -0.5]]))
    with pytest.raises(ValueError):
        as_state_matrix(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError, match="at least one row and one column"):
        as_state_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="at least one row and one column"):
        as_state_matrix(np.zeros((3, 0)))
    sm = as_state_matrix(np.array([[1, 2], [3, 4], [5, 6]]))
    assert sm.shape == (3, 2) and sm.dtype == float


def test_zero_matrix_rejected():
    with pytest.raises(AllZeroMatrixError):
        coni_facets(np.zeros((2, 3)))


def test_wedge_rays_and_facets(wedge):
    cone = coni_facets(wedge)
    np.testing.assert_allclose(cone.rays, [[SQ2, SQ2], [1.0, 0.0]], atol=1e-12)
    assert cone.ray_origins == ((0,), (2,))
    assert set(facet_sets(cone)) == {frozenset({0}), frozenset({1})}
    assert cone.cone_rank == 2


def test_orthant_rays_and_facets():
    cone = coni_facets(np.eye(3))
    np.testing.assert_allclose(cone.rays, np.eye(3)[::-1], atol=1e-12)
    assert cone.ray_origins == ((2,), (1,), (0,))
    assert set(facet_sets(cone)) == {frozenset({0, 1}), frozenset({0, 2}),
                                     frozenset({1, 2})}


def test_halfspaces_of_a_flat_or_unpointed_ray_set_are_refused():
    # three rays in the plane z = 0: Qhull finds no full-dimensional hull
    with pytest.raises(DegenerateConeError, match="facet enumeration failed"):
        cone_halfspaces(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))
    # the rays span the whole plane, so no hull facet passes through the origin
    with pytest.raises(DegenerateConeError, match="not pointed"):
        cone_halfspaces(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))


def _simplicial_draws():
    # seeded full-rank m x m and m x (m - 1) draws at m = 3..6: uniform,
    # Poisson(1) counts, and uniform with columns scaled by 10^-5..10^5
    rng = np.random.default_rng(3501)
    for m in range(3, 7):
        for n in (m, m - 1):
            for kind in ("uniform", "poisson", "scaled"):
                for _ in range(3 if m < 6 else 1):
                    C = np.zeros((m, n))
                    while np.linalg.matrix_rank(C) < n:
                        C = (rng.poisson(1.0, (m, n)).astype(float) if kind == "poisson"
                             else rng.uniform(0.0, 3.0, (m, n)))
                        if kind == "scaled":
                            C *= 10.0 ** rng.uniform(-5.0, 5.0, n)
                    yield C


def test_simplicial_cone_planes_match_the_hull(monkeypatch):
    # a simplicial cone takes its planes from the inverse of its rays, with
    # no hull; Qhull's hull of the same slice points gives the same extreme
    # rays and facets, and evaluate the same elements. Over 1,800 such draws
    # the largest gap in ir or a region's volume or integral was 9.0e-14
    # (a 6x6 draw), and most were not bit-identical
    def no_hull(points):
        raise AssertionError("a simplicial cone built a hull")

    def spy(points, simplicial):
        seen.append((points, simplicial, real(points, simplicial)))
        return seen[-1][2]

    real = cone_halfspaces
    monkeypatch.setattr(scipy.spatial, "ConvexHull", no_hull)
    for C in _simplicial_draws():
        seen = []
        monkeypatch.setattr(conirep.cone, "cone_halfspaces", spy)
        got = evaluate(C)
        [(points, simplicial, (extreme, facets, normals))] = seen
        assert simplicial
        want_extreme, want_facets, want_normals = simplicial_halfspaces_by_hull(points)
        assert extreme == want_extreme
        np.testing.assert_array_equal(facets, want_facets)
        np.testing.assert_allclose(normals, want_normals, rtol=0.0, atol=1e-12)
        monkeypatch.setattr(conirep.cone, "cone_halfspaces",
                            lambda points, simplicial: simplicial_halfspaces_by_hull(points))
        want = evaluate(C)
        assert [r.element for r in got.regions] == [r.element for r in want.regions]
        np.testing.assert_allclose(
            [got.ir, got.output_volume, *(v for r in got.regions for v in (r.volume, r.integral))],
            [want.ir, want.output_volume, *(v for r in want.regions for v in (r.volume, r.integral))],
            rtol=0.0, atol=1e-12)


def test_rank_one_cone_has_no_lattice():
    cone = coni_facets(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert cone.cone_rank == 1 and cone.facets.shape == (0, 1)
    with pytest.raises(DegenerateConeError, match="cone has no facets"):
        cone_sub_elements(cone)


def test_collinear_columns_merge():
    cone = coni_facets(np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert cone.rays.shape == (1, 2)
    assert cone.ray_origins == ((0, 1),)


def test_zero_columns_dropped():
    cone = coni_facets(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert cone.ray_origins == ((1,),)


def test_tilted_lattice(tilted):
    cone = coni_facets(tilted)
    elements = cone_sub_elements(cone).elements
    assert cone.rays.shape == (3, 3)
    assert len(cone.facets) == 3
    assert len(elements[1]) == 3
    assert len(elements[2]) == 3
    assert set(elements[2]) == set(facet_sets(cone))


def test_lattice_closed_under_intersection():
    rng = np.random.default_rng(43)
    for _ in range(20):
        cone = coni_facets(random_activity(rng, 3, 5))
        if cone.cone_rank < 3:
            continue
        facets = facet_sets(cone)
        members = {e for elems in cone_sub_elements(cone).elements.values() for e in elems}
        assert set(facets) <= members
        for a in members:
            for b in facets:
                inter = a & b
                if inter:
                    assert inter in members


# Qhull splits a nearly flat facet of this cone into planes holding rays
# {0,1,3,4} and {0,3,4}; the smaller set is no facet
def test_no_facet_inside_another_on_a_near_flat_facet():
    facets = facet_sets(coni_facets(perturbed(JUMP, 1e-9, 0)))
    assert frozenset({0, 1, 3, 4}) in facets
    assert not any(f < g for f in facets for g in facets)
    # the masks come in the order of their sorted ray indices
    assert [sorted(f) for f in facets] == sorted(sorted(f) for f in facets)


@pytest.mark.parametrize("eps", [0.0, 1e-12])
def test_equal_facet_sets_keep_the_first_planes_normal(eps):
    # the cone over the cube in R^4, rays (+-1, +-1, +-1, 1): Qhull splits
    # each square facet into 2 or 3 planes through the origin, 15 in all.
    # They give the 6 square facets, 4 rays each, each with its first plane's
    # normal. Perturbed by 1e-12, the planes of one facet differ in their
    # last bits, so keeping a later plane's normal would show
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3, indexing="ij")).reshape(3, -1).T
    rays = np.column_stack([corners, np.ones(8)])
    rays[:, :3] += eps * np.random.default_rng(36).uniform(-1.0, 1.0, (8, 3))
    equations = ConvexHull(np.vstack([np.zeros(4), rays])).equations
    planes = equations[np.abs(equations[:, -1]) < TOL_GEOM, :-1]
    assert eps or len(planes) == 15
    extreme, facets, normals = cone_halfspaces(rays)
    assert extreme == list(range(8))
    assert sorted(map(tuple, facets.astype(int))) == sorted(
        tuple((corners[:, i] == s).astype(int)) for i in range(3) for s in (-1.0, 1.0))
    on = np.abs(planes @ rays.T) < TOL_GEOM * np.linalg.norm(rays, axis=1)
    first = [int((on == f).all(axis=1).argmax()) for f in facets]
    assert normals.tobytes() == planes[first].tobytes()


def test_extremality_matches_bounded_least_squares():
    # independent re-derivation of each keep/drop decision
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 60:
        C = rng.integers(0, 3, size=(3, rng.integers(2, 5))).astype(float)
        norms = np.linalg.norm(C, axis=0)
        if not norms.all():
            continue
        units = {}
        for j in range(C.shape[1]):
            units[tuple(np.round(C[:, j] / norms[j], 9))] = C[:, j] / norms[j]
        units = list(units.values())
        if len(units) < 2:
            continue
        kept = {tuple(np.round(r, 9)) for r in coni_facets(C).rays}
        for i, u in enumerate(units):
            others = np.stack([v for k, v in enumerate(units) if k != i], axis=1)
            fit = lsq_linear(others, u, bounds=(0.0, np.inf), tol=1e-14)
            resid = math.sqrt(((others @ fit.x - u) ** 2).sum())
            # integer geometry leaves a wide gap between fit and no-fit
            if resid > 1e-6:
                assert tuple(np.round(u, 9)) in kept
            elif resid < 1e-10:
                assert tuple(np.round(u, 9)) not in kept
        checked += 1


def test_column_scaling_keeps_the_cone():
    rng = np.random.default_rng(53)
    for _ in range(20):
        C = random_activity(rng, 3, 4)
        D = np.diag(rng.uniform(0.5, 3.0, size=4))
        a = coni_facets(C)
        b = coni_facets(C @ D)
        np.testing.assert_allclose(a.rays, b.rays, atol=1e-9)
        np.testing.assert_array_equal(a.facets, b.facets)
        assert a.ray_origins == b.ray_origins


def test_adjacent_facets_lookup(tilted):
    cone = coni_facets(tilted)
    table = cone_sub_elements(cone)
    for i, facet in enumerate(facet_sets(cone)):
        np.testing.assert_array_equal(adjacent_cone(facet, cone, table).normals,
                                      cone.normals[[i]])
    for edge in table.elements[1]:
        incident = [i for i, f in enumerate(facet_sets(cone)) if edge <= f]
        assert len(incident) == 2
        np.testing.assert_array_equal(adjacent_cone(edge, cone, table).normals,
                                      cone.normals[incident])


def test_wedge_outward_normals(wedge):
    cone = coni_facets(wedge)
    n0 = facet_normal_outward(frozenset({0}), cone)
    np.testing.assert_allclose(n0, [-SQ2, SQ2], atol=1e-12)
    n1 = facet_normal_outward(frozenset({1}), cone)
    np.testing.assert_allclose(n1, [0.0, -1.0], atol=1e-12)


def test_orthant_outward_normal():
    cone = coni_facets(np.eye(3))
    # rays are lex-sorted (e3, e2, e1); {1, 2} spans the z = 0 facet
    n = facet_normal_outward(frozenset({1, 2}), cone)
    np.testing.assert_allclose(n, [0.0, 0.0, -1.0], atol=1e-12)


def test_outward_normal_properties():
    rng = np.random.default_rng(59)
    for _ in range(20):
        cone = coni_facets(random_activity(rng, 3, 5))
        if cone.cone_rank < 3:
            continue
        for facet in facet_sets(cone):
            n = facet_normal_outward(facet, cone)
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12
            assert np.abs(cone.rays[sorted(facet)] @ n).max() < 1e-9
            assert (cone.rays @ n).max() < 1e-9


def test_orthant_edge_adjacent_cone():
    cone = coni_facets(np.eye(3))
    adj = adjacent_cone(frozenset({0}), cone, cone_sub_elements(cone))  # ray 0 is e3
    np.testing.assert_allclose(adj.element_rays, [[0.0, 0.0, 1.0]], atol=1e-12)
    gens = sorted(tuple(np.round(g, 9)) for g in adj.normals)
    assert gens == [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    assert generators(adj).shape == (3, 3)


ROWS_CASES = [pytest.param(random_activity(np.random.default_rng([71, m, i]), m, m + 2),
                           id=f"m{m}-{i}")
              for m in (2, 3, 4, 5) for i in range(3)] + [
    pytest.param(SQUARE_PYRAMID, id="square-pyramid"),
    pytest.param(np.array([[0.0, 1.0, 2.0, 1.0],
                           [1.0, 0.0, 1.0, 2.0],
                           [2.0, 1.5, 0.0, 0.0]]), id="zeroed"),
    # a pyramid over a 12-gon: faces of 1, 2, 3 and 12 rays in one basis stack
    pytest.param(np.hstack([np.vstack([np.zeros(12), 2.0 + np.cos(np.arange(12) * np.pi / 6),
                                       2.0 + np.sin(np.arange(12) * np.pi / 6), np.full(12, 2.0)]),
                            np.ones((4, 1))]), id="pyramid-12gon"),
]


@pytest.mark.parametrize("C", ROWS_CASES)
def test_adjacent_cone_rows_match_its_hull(C):
    # the lattice rows are the adjacent cone's own facets, none missing and
    # none redundant: the unit normals of a hull of its generators
    cone = coni_facets(C)
    table = cone_sub_elements(cone)
    for elems in table.elements.values():
        for e in elems:
            adj = adjacent_cone(e, cone, table)
            rows = adj.facet_normals
            gens = generators(adj)
            extreme, _, hull = cone_halfspaces(gens)
            assert extreme == list(range(len(gens)))
            assert rows.shape == hull.shape
            gap = np.abs(rows[:, None, :] - hull[None, :, :]).max(axis=2)
            assert gap.min(axis=1).max() < 1e-9
            assert gap.min(axis=0).max() < 1e-9


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_against_element_scan(C):
    cone = coni_facets(C)
    # the table, bit for bit, against the lattice pass one element at a time
    table, ref = cone_sub_elements(cone), lattice_by_element_scan(cone)
    assert [frozenset(np.flatnonzero(row).tolist()) for row in table.members] == \
        [adj.element for adj in ref]
    assert [e for elems in table.elements.values() for e in elems] == [adj.element for adj in ref]
    assert table.dims.tolist() == [adj.basis.shape[1] for adj in ref]
    # each element's rows, then exact zeros up to the largest row count
    count = [len(adj.facet_normals) for adj in ref]
    w, m = max(count), cone.dim
    assert table.rows.shape == (len(ref), w, m)
    for i, adj in enumerate(ref):
        d = adj.basis.shape[1]
        assert _same_bits(table.rows[i, :count[i]], adj.facet_normals)
        assert _same_bits(table.rows[i, count[i]:], np.zeros((w - count[i], m)))
        assert _same_bits(np.ascontiguousarray(table.bases[i, :, :d]), adj.basis)
        assert not table.bases[i, :, d:].any()
    for elems in table.elements.values():
        for e in elems:
            got, ref = adjacent_cone(e, cone, table), adjacent_cone_by_element(e, cone, table)
            assert got.element == e
            assert got.facet_normals.shape == ref.facet_normals.shape
            np.testing.assert_allclose(got.facet_normals, ref.facet_normals, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(got.normals, ref.normals)
            np.testing.assert_array_equal(got.element_rays, ref.element_rays)
            np.testing.assert_allclose(got.basis @ got.basis.T, ref.basis @ ref.basis.T,
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("C", ROWS_CASES)
def test_lattice_pass_matches_element_scan(C):
    _check_against_element_scan(C)


@pytest.mark.parametrize("C", ROWS_CASES)
def test_table_does_not_depend_on_the_element_limit(C, monkeypatch):
    # the limit at its least, the lattice's own size: the Hasse edges are
    # found one element at a time, and the summed leaving normals in blocks
    # of elements // facets edges, fewer than the edges (at least one per
    # element), so in more than one block
    bare = coni_facets(C)
    table = cone_sub_elements(bare)
    assert len(bare.facets) >= 2
    monkeypatch.setattr("conirep.cone.MAX_ELEMENTS", len(table.dims))
    small = cone_sub_elements(bare)
    for name in ("members", "dims", "bases", "rows"):
        assert _same_bits(getattr(small, name), getattr(table, name)), name


@st.composite
def _full_rank_matrices(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(m, 2 * m + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        C = rng.integers(0, 4, size=(m, n)).astype(float)
    else:
        C = rng.uniform(0.0, 3.0, size=(m, n))
        C[rng.random(C.shape) < draw(st.sampled_from([0.0, 0.2, 0.4]))] = 0.0
    return C


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_full_rank_matrices())
def test_lattice_pass_matches_element_scan_on_draws(C):
    assume(C.any() and coni_facets(C).cone_rank == C.shape[0])
    _check_against_element_scan(C)


@pytest.mark.parametrize("m, r", [(3, 2), (4, 2), (4, 3), (5, 3), (5, 4)])
def test_lattice_in_the_span_of_a_flat_cone(m, r):
    # rank r < m: faces of dims 1..r-1, then the whole cone at dim r, and
    # every row in the span, so each adjacent cone holds its complement
    rng = np.random.default_rng([83, m, r])
    for zeroed in (False, True):
        C = rng.uniform(0.0, 3.0, (m, r)) @ rng.uniform(0.0, 1.0, (r, r + 3))
        if zeroed:
            C[rng.integers(m)] = 0.0
        cone = coni_facets(C)
        table = cone_sub_elements(cone)
        assert cone.cone_rank == r
        assert sorted(table.elements) == list(range(1, r + 1))
        whole = frozenset(range(len(cone.rays)))
        assert table.elements[r] == (whole,)
        span = np.linalg.svd(cone.rays)[2][:r]
        off_span = np.eye(m) - span.T @ span
        assert np.abs(cone.normals @ off_span).max() < 1e-12
        adj = adjacent_cone(whole, cone, table)
        np.testing.assert_array_equal(adj.facet_normals, cone.normals)
        assert adj.basis.shape == (m, r)
        for elems in table.elements.values():
            for e in elems:
                assert np.abs(adjacent_cone(e, cone, table).facet_normals @ off_span).max() < 1e-12
        _check_against_element_scan(C)


def test_adjacent_cone_outside_the_lattice(tilted):
    cone = coni_facets(tilted)
    table = cone_sub_elements(cone)
    assert adjacent_cone(frozenset({0}), cone, table).element == frozenset({0})
    with pytest.raises(ValueError, match=r"element \[0, 1, 2\] is not in the cone's lattice"):
        adjacent_cone(frozenset({0, 1, 2}), cone, table)
    with pytest.raises(ValueError, match=r"element \[\] is not in the cone's lattice"):
        adjacent_cone(frozenset(), cone, table)
    # a ray index past the cone's rays is in no element, even beside one that is
    with pytest.raises(ValueError, match=r"element \[0, 7\] is not in the cone's lattice"):
        adjacent_cone(frozenset({0, 7}), cone, table)


def test_cone_contains_examples():
    gens = np.eye(2)
    assert cone_contains([0.3, 0.7], gens)
    assert cone_contains([0.0, 0.0], gens)
    assert not cone_contains([-0.1, 0.5], gens)
    wedge_gens = np.array([[1.0, 1.0], [1.0, 0.0]])
    assert cone_contains([2.0, 1.0], wedge_gens)
    assert not cone_contains([0.0, 1.0], wedge_gens)


def test_adjacent_cones_tile_the_complement():
    # a point off the cone projects into exactly one boundary element
    rng = np.random.default_rng(61)
    matrices = [WEDGE, TILTED] + [random_activity(rng, 3, 4) for _ in range(4)]
    for C in matrices:
        cone = coni_facets(C)
        if cone.cone_rank < cone.dim:
            continue
        table = cone_sub_elements(cone)
        adjs = [adjacent_cone(e, cone, table)
                for elems in table.elements.values() for e in elems]
        pts = rng.uniform(0.0, 1.0, size=(200, cone.dim))
        for p in pts:
            hits = sum(cone_contains(p, generators(a)) for a in adjs)
            if cone_contains(p, cone.rays):
                assert hits == 0
            else:
                assert hits == 1


def _rotated(u, w, angle):
    """Unit vector at `angle` from unit u, turned towards the unit w orthogonal to it."""
    return math.cos(angle) * u + math.sin(angle) * w


def _same_as_loop(C):
    units, origins = _unit_dedup(C)
    ref_units, ref_origins = unit_dedup_by_loop(C)
    assert origins == ref_origins
    assert units.tobytes() == np.array(ref_units).tobytes()
    return origins


def test_unit_dedup_matches_greedy_loop():
    rng = np.random.default_rng(67)
    u = np.ones(3) / math.sqrt(3)
    w = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    # DEDUP_DOT = cos(angle) at angle = sqrt(2e-12), about 1.41e-6
    near = [_rotated(u, w, a) for a in (0.0, 1.0e-6, 1.8e-6, 2.0e-6, 2.4e-6, 3.0e-6)]
    for trial in range(10):
        dirs = rng.uniform(0.0, 1.0, size=(3, 5))
        cols = [d * rng.uniform(0.1, 10.0) for d in dirs.T for _ in range(rng.integers(1, 4))]
        cols += [v * rng.uniform(0.5, 2.0) for v in near]
        cols += [np.zeros(3)] * 3
        C = np.stack(cols, axis=1)[:, rng.permutation(len(cols))]
        _same_as_loop(C)
        assert sorted(coni_facets(C).ray_origins) == origins_by_fitting_every_unit(C)
    # a chain of twins: b merges into a, c is too far from a to join it, and
    # b is no representative, so c starts its own ray
    C = np.stack([_rotated(u, w, a) for a in (0.0, 1.0e-6, 2.0e-6)], axis=1)
    assert _same_as_loop(C) == [[0, 1], [2]]
    # at recording width: repeated directions, zero columns, and column
    # scales from 1e-200 to 1e200
    dirs = rng.uniform(0.0, 1.0, size=(4, 240))
    C = np.hstack([dirs, dirs[:, rng.integers(0, 240, size=40)], np.zeros((4, 20))])
    C = (C * 10.0 ** rng.uniform(-200.0, 200.0, size=300))[:, rng.permutation(300)]
    _same_as_loop(C)
    # binned spike counts: few distinct directions, so most columns are
    # identical units
    _same_as_loop(np.random.default_rng(1).poisson(1.0, (4, 1200)).astype(float))


def _equal_key_twin(u, rng):
    """A direction far from u whose unit has u's dedup key bit for bit: u
    turned about the dedup's key weights w = cos(1..3)."""
    w = np.cos(np.arange(1.0, 4.0))
    d = w / np.linalg.norm(w)
    along, e = (u @ d) * d, u - (u @ d) * d
    for phi in rng.uniform(0.1, 0.4, size=200):
        v = along + math.cos(phi) * e + math.sin(phi) * np.cross(d, e)
        units = _unit_dedup(np.stack([u, v], axis=1))[0]
        if v.min() > 0 and len(units) == 2 and np.equal(*(units @ w)):
            return v
    raise AssertionError("no direction with an equal key")


def test_unit_dedup_twins_far_apart_and_within_one_run():
    rng = np.random.default_rng(89)
    u = np.ones(3) / math.sqrt(3)
    w = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    # a twin 10,000 columns after its representative, past columns of six
    # other directions at random scales (near-identical units, twins of
    # twins, in one run each); the twin lies 1.4e-6 rad from u towards the
    # key weights, so their keys differ by 1.5e-6, near the widest gap that
    # twins can leave
    key = np.cos(np.arange(1.0, 4.0))
    t = key - (key @ u) * u
    others = rng.uniform(0.1, 1.0, size=(3, 6))[:, rng.integers(0, 6, size=10_000)]
    C = np.hstack([u[:, None], others * rng.uniform(0.1, 10.0, size=10_000),
                   _rotated(u, t / np.linalg.norm(t), 1.4e-6)[:, None], 4.0 * u[:, None]])
    origins = _same_as_loop(C)
    assert origins[0] == [0, 10_001, 10_002]
    assert len(origins) < 100
    # exact duplicates mixed into a chain 0, 1e-6, 2e-6 rad from u: the
    # 2e-6 unit is too far from u's, so it starts a ray, and its duplicates
    # join it, while the 1e-6 units join u
    chain = np.stack([_rotated(u, w, a) for a in (0.0, 2.0e-6, 1.0e-6)], axis=1)
    C = np.hstack([chain, 2.0 * chain, 0.5 * chain[:, ::-1]])
    assert _same_as_loop(C) == [[0, 2, 3, 5, 6, 8], [1, 4, 7]]
    # two distinct directions with equal keys, interleaved, so that exact
    # duplicates are not neighbours in the sort
    a = rng.uniform(0.3, 1.0, size=3)
    b = _equal_key_twin(a, rng)
    C = np.stack([a, b, 2.0 * a, 0.5 * b, a], axis=1)
    assert _same_as_loop(C) == [[0, 2, 4], [1, 3]]


def _chain(u, angles):
    """Units at `angles` (rad) from unit u, along one great circle through it."""
    w = np.array([u[1], -u[0], 0.0]) / math.hypot(u[0], u[1])
    return np.stack([_rotated(u, w, a) for a in angles], axis=1)


def test_unit_dedup_runs_of_every_length():
    # runs of 2, 3 and 12 classes of possible twins, far apart in key, in one
    # matrix with exact duplicates and its columns shuffled; then a chain 0,
    # 2e-6, 1e-6 rad in both orders of its far units: 2e-6 is no twin of 0,
    # and the middle unit joins whichever far unit comes first
    rng = np.random.default_rng(97)
    two = _chain(np.array([0.2, 0.5, 0.8]), [0.0, 1.0e-6])
    three = _chain(np.array([0.9, 0.3, 0.4]), [0.0, 1.0e-6, 2.0e-6])
    twelve = _chain(np.array([0.4, 0.8, 0.2]), 0.7e-6 * np.arange(12))
    C = np.hstack([two, three, twelve, 2.0 * three, 0.5 * twelve[:, ::2]])
    _same_as_loop(C[:, rng.permutation(C.shape[1])])
    u = np.array([0.3, 0.6, 0.7])
    assert _same_as_loop(_chain(u, [0.0, 2.0e-6, 1.0e-6])) == [[0, 2], [1]]
    assert _same_as_loop(_chain(u, [2.0e-6, 0.0, 1.0e-6])) == [[0, 2], [1]]
    # twin of a twin, in column order: 2e-6 matches only 1e-6, which joined 0
    assert _same_as_loop(_chain(u, [0.0, 1.0e-6, 2.0e-6])) == [[0, 1], [2]]


def test_unit_dedup_near_twin_run_in_bounded_memory():
    # 10,000 columns of 5 directions 0.5e-6 rad apart, each entry moved by up
    # to 1e-9: one run of 10,000 classes. The merge compares each class with
    # its run's representatives only, so it forms no array over all pairs of
    # the run; it peaks at about 2 MB here
    u = np.ones(3) / math.sqrt(3)
    rng = np.random.default_rng(37)
    C = _chain(u, 0.5e-6 * np.arange(5))[:, rng.integers(0, 5, size=10_000)]
    C = C + 1e-9 * rng.uniform(0.0, 1.0, C.shape)
    tracemalloc.start()
    try:
        _unit_dedup(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert len(_same_as_loop(C)) == 2


@st.composite
def _activity_matrices(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 40))
    small_ints = st.integers(0, 3).map(float)
    kind = draw(st.sampled_from(["integer", "uniform", "zero-masked", "rank-deficient"]))
    if kind == "integer":
        # duplicate and coplanar columns: redundant rays on the cone's faces
        C = draw(arrays(float, (m, n), elements=small_ints))
    elif kind in ("uniform", "zero-masked"):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        C = rng.uniform(0.0, 3.0, size=(m, n))
        if kind == "zero-masked":
            # rays on coordinate faces, and faces shared with the orthant
            C[rng.random(C.shape) < 0.35] = 0.0
    else:
        r = draw(st.integers(1, m - 1))
        C = (draw(arrays(float, (m, r), elements=small_ints))
             @ draw(arrays(float, (r, n), elements=small_ints)))
    if not C.any():
        C[0, 0] = 1.0
    return C


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_activity_matrices())
@example(SQUARE_PYRAMID)
def test_extreme_filter_matches_fitting_every_unit(C):
    assert sorted(coni_facets(C).ray_origins) == origins_by_fitting_every_unit(C)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_cone_builds_one_hull_and_fits_nothing(seed, monkeypatch):
    C = np.random.default_rng([71, seed]).uniform(0.0, 3.0, size=(3, 300))
    expected = origins_by_fitting_every_unit(C)
    fits, hulls = [], []

    def counting_nnls(A, b):
        fits.append(1)
        return nnls(A, b)

    def counting_hull(points):
        hulls.append(ConvexHull(points))
        return hulls[-1]

    monkeypatch.setattr(conirep.cone, "nnls", counting_nnls)
    # cone_halfspaces imports the name from scipy.spatial at call time
    monkeypatch.setattr(scipy.spatial, "ConvexHull", counting_hull)
    assert sorted(coni_facets(C).ray_origins) == expected
    assert fits == []
    assert len(hulls) == 1
    # only the extreme rays are hull vertices: a hull of all 300 unit rays
    # has about 600 facets
    assert len(hulls[0].simplices) < 100


def test_wide_cone_stays_in_bounded_memory():
    # 50,000 columns: the dedup sorts them once and the incidence step keeps
    # only the rays on some plane, where a blocked Gram matrix of the units
    # and a full plane-ray product peaked at 198 MB
    C = np.random.default_rng(1).uniform(0.0, 3.0, size=(4, 50_000))
    tracemalloc.start()
    try:
        cone = coni_facets(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cone.cone_rank == 4
    assert peak < 40e6


@pytest.mark.parametrize("kind", ["uniform", "integer", "zero-masked"])
def test_hull_is_invariant_to_ray_scale(kind):
    rng = np.random.default_rng([73, len(kind)])
    done = 0
    while done < 20:
        m = int(rng.integers(3, 6))
        n = int(rng.integers(m, 4 * m))
        if kind == "integer":
            C = rng.integers(0, 4, size=(m, n)).astype(float)
        else:
            C = rng.uniform(0.0, 3.0, size=(m, n))
            if kind == "zero-masked":
                C[rng.random(C.shape) < 0.35] = 0.0
        units, _ = _unit_dedup(C)
        if units.shape[0] < m or np.linalg.matrix_rank(units) < m:
            continue
        extreme, facets, normals = cone_halfspaces(units)
        factors = 10.0 ** rng.uniform(-3.0, 3.0, size=len(units))
        sliced = units / (units @ units.sum(axis=0))[:, None]
        # Qhull forms a plane from differences of its vertices: with scales
        # six orders apart a normal moves by up to about 1e-10, while on the
        # slice coni_facets uses the scales lie within [1/k, 1]
        for points, tol in ((units * factors[:, None], TOL_GEOM), (sliced, 1e-12)):
            got_extreme, got_facets, got_normals = cone_halfspaces(points)
            assert got_extreme == extreme
            np.testing.assert_array_equal(got_facets, facets)
            np.testing.assert_allclose(got_normals, normals, rtol=0, atol=tol)
        done += 1
