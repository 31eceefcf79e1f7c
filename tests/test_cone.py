"""Tests for extreme-ray extraction, the facet lattice, and adjacent cones."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import lsq_linear
from scipy.spatial import ConvexHull

import conirep.cone
from conirep.cone import (
    StateMatrix,
    _unit_dedup,
    adjacent_cone,
    cone_halfspaces,
    cone_sub_elements,
    coni_facets,
)
from conirep.errors import AllZeroMatrixError
from conirep.nnls import nnls

from conftest import SQUARE_PYRAMID, TILTED, WEDGE, random_activity
from reference import (adjacent_cone_by_element, cone_contains, facet_normal_outward,
                       origins_by_fitting_every_unit, unit_dedup_by_loop)

SQ2 = 1 / math.sqrt(2)


def test_state_matrix_validation():
    with pytest.raises(ValueError):
        StateMatrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        StateMatrix(np.array([[1.0, -0.5]]))
    with pytest.raises(ValueError):
        StateMatrix(np.array([[np.nan, 1.0]]))
    sm = StateMatrix(np.array([[1, 2], [3, 4], [5, 6]]))
    assert (sm.m, sm.n) == (3, 2)


def test_zero_matrix_rejected():
    with pytest.raises(AllZeroMatrixError):
        coni_facets(np.zeros((2, 3)))


def test_wedge_rays_and_facets(wedge):
    cone = coni_facets(wedge)
    np.testing.assert_allclose(cone.rays, [[SQ2, SQ2], [1.0, 0.0]], atol=1e-12)
    assert cone.ray_origins == ((0,), (2,))
    assert set(cone.facets) == {frozenset({0}), frozenset({1})}
    assert cone.cone_rank == 2


def test_orthant_rays_and_facets():
    cone = coni_facets(np.eye(3))
    np.testing.assert_allclose(cone.rays, np.eye(3)[::-1], atol=1e-12)
    assert cone.ray_origins == ((2,), (1,), (0,))
    assert set(cone.facets) == {frozenset({0, 1}), frozenset({0, 2}),
                                frozenset({1, 2})}


def test_collinear_columns_merge():
    cone = coni_facets(np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert cone.rays.shape == (1, 2)
    assert cone.ray_origins == ((0, 1),)


def test_zero_columns_dropped():
    cone = coni_facets(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert cone.ray_origins == ((1,),)


def test_tilted_lattice(tilted):
    cone = cone_sub_elements(coni_facets(tilted))
    assert cone.rays.shape == (3, 3)
    assert len(cone.facets) == 3
    assert len(cone.elements[1]) == 3
    assert len(cone.elements[2]) == 3
    assert set(cone.elements[2]) == set(cone.facets)


def test_lattice_closed_under_intersection():
    rng = np.random.default_rng(43)
    for _ in range(20):
        cone = coni_facets(random_activity(rng, 3, 5))
        if cone.cone_rank < 3:
            continue
        cone = cone_sub_elements(cone)
        members = {e for elems in cone.elements.values() for e in elems}
        assert set(cone.facets) <= members
        for a in members:
            for b in cone.facets:
                inter = a & b
                if inter:
                    assert inter in members


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
        assert a.facets == b.facets
        assert a.ray_origins == b.ray_origins


def test_adjacent_facets_lookup(tilted):
    cone = cone_sub_elements(coni_facets(tilted))
    for i, facet in enumerate(cone.facets):
        np.testing.assert_array_equal(adjacent_cone(facet, cone).normals,
                                      cone.normals[[i]])
    for edge in cone.elements[1]:
        incident = [i for i, f in enumerate(cone.facets) if edge <= f]
        assert len(incident) == 2
        np.testing.assert_array_equal(adjacent_cone(edge, cone).normals,
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
        for facet in cone.facets:
            n = facet_normal_outward(facet, cone)
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12
            assert np.abs(cone.rays[sorted(facet)] @ n).max() < 1e-9
            assert (cone.rays @ n).max() < 1e-9


def test_orthant_edge_adjacent_cone():
    cone = cone_sub_elements(coni_facets(np.eye(3)))
    adj = adjacent_cone(frozenset({0}), cone)  # ray 0 is e3
    np.testing.assert_allclose(adj.element_rays, [[0.0, 0.0, 1.0]], atol=1e-12)
    gens = sorted(tuple(np.round(g, 9)) for g in adj.normals)
    assert gens == [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    assert adj.generators.shape == (3, 3)


ROWS_CASES = [pytest.param(random_activity(np.random.default_rng([71, m, i]), m, m + 2),
                           id=f"m{m}-{i}")
              for m in (2, 3, 4, 5) for i in range(3)] + [
    pytest.param(SQUARE_PYRAMID, id="square-pyramid"),
    pytest.param(np.array([[0.0, 1.0, 2.0, 1.0],
                           [1.0, 0.0, 1.0, 2.0],
                           [2.0, 1.5, 0.0, 0.0]]), id="zeroed"),
]


@pytest.mark.parametrize("C", ROWS_CASES)
def test_adjacent_cone_rows_match_its_hull(C):
    # the lattice rows are the adjacent cone's own facets, none missing and
    # none redundant: the unit normals of a hull of its generators
    cone = cone_sub_elements(coni_facets(C))
    points = 0
    for elems in cone.elements.values():
        for e in elems:
            adj = adjacent_cone(e, cone)
            rows = adj.facet_normals
            extreme, _, hull = cone_halfspaces(adj.generators)
            assert extreme == list(range(len(adj.generators)))
            assert rows.shape == hull.shape
            gap = np.abs(rows[:, None, :] - hull[None, :, :]).max(axis=2)
            assert gap.min(axis=1).max() < 1e-9
            assert gap.min(axis=0).max() < 1e-9
            if adj.interior is None:
                continue
            points += 1
            assert (rows @ adj.interior).max() < 0.0
            x = adj.interior / (2.0 * adj.interior.max())
            assert x.min() > 0.0 and x.max() < 1.0
    total = sum(len(v) for v in cone.elements.values())
    if np.all(C > 0):
        assert points == total
    else:
        # elements on coordinate faces get no closed-form point
        assert 0 < points < total


def _check_against_element_scan(C):
    cone = cone_sub_elements(coni_facets(C))
    for elems in cone.elements.values():
        for e in elems:
            got, ref = adjacent_cone(e, cone), adjacent_cone_by_element(e, cone)
            assert got.element == e
            assert got.facet_normals.shape == ref.facet_normals.shape
            np.testing.assert_allclose(got.facet_normals, ref.facet_normals, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(got.normals, ref.normals)
            np.testing.assert_array_equal(got.element_rays, ref.element_rays)
            assert (got.interior is None) == (ref.interior is None)
            if ref.interior is not None:
                np.testing.assert_allclose(got.interior, ref.interior, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.basis @ got.basis.T, ref.basis @ ref.basis.T,
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("C", ROWS_CASES)
def test_lattice_pass_matches_element_scan(C):
    _check_against_element_scan(C)


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
        cone = cone_sub_elements(coni_facets(C))
        assert cone.cone_rank == r
        assert sorted(cone.elements) == list(range(1, r + 1))
        whole = frozenset(range(len(cone.rays)))
        assert cone.elements[r] == (whole,)
        span = np.linalg.svd(cone.rays)[2][:r]
        off_span = np.eye(m) - span.T @ span
        assert np.abs(cone.normals @ off_span).max() < 1e-12
        adj = adjacent_cone(whole, cone)
        np.testing.assert_array_equal(adj.facet_normals, cone.normals)
        assert adj.basis.shape == (m, r)
        for elems in cone.elements.values():
            for e in elems:
                assert np.abs(adjacent_cone(e, cone).facet_normals @ off_span).max() < 1e-12
        _check_against_element_scan(C)


def test_adjacent_cone_outside_the_lattice(tilted):
    bare = coni_facets(tilted)
    with pytest.raises(ValueError, match=r"element \[0\] is not in the cone's lattice"):
        adjacent_cone(frozenset({0}), bare)
    cone = cone_sub_elements(bare)
    assert adjacent_cone(frozenset({0}), cone).element == frozenset({0})
    with pytest.raises(ValueError, match=r"element \[0, 1, 2\] is not in the cone's lattice"):
        adjacent_cone(frozenset({0, 1, 2}), cone)
    with pytest.raises(ValueError, match=r"element \[\] is not in the cone's lattice"):
        adjacent_cone(frozenset(), cone)


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
        cone = cone_sub_elements(cone)
        adjs = [adjacent_cone(e, cone)
                for elems in cone.elements.values() for e in elems]
        pts = rng.uniform(0.0, 1.0, size=(200, cone.dim))
        for p in pts:
            hits = sum(cone_contains(p, a.generators) for a in adjs)
            if cone_contains(p, cone.rays):
                assert hits == 0
            else:
                assert hits == 1


def _rotated(u, w, angle):
    """Unit vector at `angle` from unit u, turned towards the unit w orthogonal to it."""
    return math.cos(angle) * u + math.sin(angle) * w


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
        units, origins = _unit_dedup(C)
        ref_units, ref_origins = unit_dedup_by_loop(C)
        assert origins == ref_origins
        np.testing.assert_array_equal(units, np.array(ref_units))
        assert sorted(coni_facets(C).ray_origins) == origins_by_fitting_every_unit(C)
    # a chain of twins: b merges into a, c is too far from a to join it, and
    # b is no representative, so c starts its own ray
    C = np.stack([_rotated(u, w, a) for a in (0.0, 1.0e-6, 2.0e-6)], axis=1)
    assert _unit_dedup(C)[1] == unit_dedup_by_loop(C)[1] == [[0, 1], [2]]


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
        hulls.append(1)
        return ConvexHull(points)

    monkeypatch.setattr(conirep.cone, "nnls", counting_nnls)
    monkeypatch.setattr(conirep.cone, "ConvexHull", counting_hull)
    assert sorted(coni_facets(C).ray_origins) == expected
    assert fits == []
    assert hulls == [1]
