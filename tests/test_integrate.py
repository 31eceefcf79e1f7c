"""Tests for the exact simplex integration of squared subspace distance."""

import math

import numpy as np
import pytest
import sympy as sp

from conirep.cone import adjacent_cone, cone_sub_elements, coni_facets
from conirep.integrate import region_integral, simplex_integral
from conirep.linalg import gram_schmidt, simplex_volumes
from conirep.region import Regions, build_region, triangulate_polytope

from conftest import JUMP, SQUARE_PYRAMID, TILTED, WEDGE
from reference import facet_masks, packed_facets, simplex_integrals, stack_vertices

SQ2 = 1 / math.sqrt(2)
EMPTY2 = np.zeros((2, 0))


def symbolic_integral(verts, basis):
    """Slow exact oracle: expand the quadratic and integrate with sympy."""
    verts = np.asarray(verts, dtype=float)
    m = verts.shape[1]
    us = sp.symbols(f"u1:{m + 1}")
    J = (verts[1:] - verts[0]).T
    x = [sp.Float(verts[0][i], 20)
         + sum(sp.Float(J[i, k], 20) * us[k] for k in range(m))
         for i in range(m)]
    M = np.eye(m) - basis @ basis.T
    expr = sp.expand(sum(sp.Float(M[i, j], 20) * x[i] * x[j]
                         for i in range(m) for j in range(m)))
    for k in range(m - 1, -1, -1):
        expr = sp.integrate(expr, (us[k], 0, sp.Integer(1) - sum(us[:k])))
    return float(expr) * abs(float(np.linalg.det(verts[1:] - verts[0])))


def test_corner_triangle_against_origin():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert simplex_integral(tri, EMPTY2) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_wedge_triangle_against_diagonal():
    tri = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    basis = np.array([[SQ2], [SQ2]])
    assert simplex_integral(tri, basis) == pytest.approx(1.0 / 24.0, abs=1e-15)


def test_degenerate_simplex_is_zero():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert simplex_integral(flat, EMPTY2) == 0.0


def test_full_span_basis_clamps_to_zero():
    tet = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    val = simplex_integral(tet, np.eye(3))
    assert val == pytest.approx(0.0, abs=1e-14)
    assert val >= 0.0


def test_matches_symbolic_integration():
    rng = np.random.default_rng(79)
    cases = [(2, 0), (2, 1), (2, 1), (2, 0), (3, 0), (3, 1), (3, 2)]
    for m, k in cases:
        verts = rng.uniform(-1.0, 1.0, size=(m + 1, m))
        basis = (gram_schmidt(rng.standard_normal((k, m)))
                 if k else np.zeros((m, 0)))
        got = simplex_integral(verts, basis)
        assert got == pytest.approx(symbolic_integral(verts, basis), abs=1e-12)


def test_matches_monte_carlo():
    rng = np.random.default_rng(83)
    for _ in range(30):
        m = rng.integers(2, 5)
        k = rng.integers(0, m)
        verts = rng.uniform(0.0, 1.0, size=(m + 1, m))
        basis = (gram_schmidt(rng.standard_normal((k, m)))
                 if k else np.zeros((m, 0)))
        val = simplex_integral(verts, basis)
        weights = rng.dirichlet(np.ones(m + 1), size=100_000)
        x = weights @ verts
        q = (x * x).sum(axis=1) - ((x @ basis) ** 2).sum(axis=1)
        vol = abs(np.linalg.det(verts[1:] - verts[0])) / math.factorial(m)
        mc = vol * q.mean()
        assert val == pytest.approx(mc, abs=6 * vol * m / math.sqrt(100_000) + 1e-12)


def test_additive_under_centroid_split():
    rng = np.random.default_rng(89)
    for _ in range(20):
        m = rng.integers(2, 5)
        verts = rng.uniform(-1.0, 1.0, size=(m + 1, m))
        k = rng.integers(0, m)
        basis = (gram_schmidt(rng.standard_normal((k, m)))
                 if k else np.zeros((m, 0)))
        whole = simplex_integral(verts, basis)
        centroid = verts.mean(axis=0)
        parts = 0.0
        for i in range(m + 1):
            sub = verts.copy()
            sub[i] = centroid
            parts += simplex_integral(sub, basis)
        assert parts == pytest.approx(whole, rel=1e-10, abs=1e-13)


def test_region_integral_unit_cube_against_origin():
    cube = np.array([[x, y, z] for x in (0.0, 1.0)
                     for y in (0.0, 1.0) for z in (0.0, 1.0)])
    simplices = triangulate_polytope(packed_facets([facet_masks(cube)], [cube]),
                                     *stack_vertices([cube]))
    region = Regions(cube, simplices, np.array([0, len(cube)]))
    assert region.volume == pytest.approx(1.0, abs=1e-15)
    volume, value = region_integral(region, np.zeros((1, 3, 3)))
    assert volume[0] == pytest.approx(1.0, abs=1e-15)
    # integral of |x|^2 over the unit cube is m/3
    assert value[0] == pytest.approx(1.0, abs=1e-12)


def test_region_integral_empty_region():
    region = Regions(np.zeros((0, 2)), np.zeros((0, 3), dtype=int), np.array([0, 0]))
    volume, value = region_integral(region, np.array([[[1.0, 0.0], [0.0, 0.0]]]))
    assert volume.tolist() == value.tolist() == [0.0]


@pytest.mark.parametrize("C, empty", [
    (WEDGE, 1), (TILTED, 1), (SQUARE_PYRAMID, 6),
    (np.random.default_rng(97).uniform(0.0, 3.0, (4, 6)), 0),
], ids=["wedge", "tilted", "square-pyramid", "m4"])
def test_blocked_integral_matches_each_region_on_its_own(C, empty, monkeypatch):
    # one call over all of a matrix's regions, empty ones among them (the
    # wedge's is its axis region), in blocks of 3 simplices that cut across
    # regions, against one stack of simplices per region
    m = C.shape[0]
    monkeypatch.setattr("conirep.linalg.BLOCK_WORDS", 3 * (m + 1) * m)
    cone = coni_facets(C)
    table = cone_sub_elements(cone)
    adjs = [adjacent_cone(e, cone, table) for elems in table.elements.values() for e in elems]
    regions = build_region(table)
    # a simplex belongs to the region whose vertex range holds its first vertex
    start, first = regions.vertex_start, regions.simplices[:, 0]
    owned = [regions.simplices[(start[i] <= first) & (first < start[i + 1])]
             for i in range(len(regions))]
    assert sum(map(len, owned)) == len(regions.simplices)
    assert sum(len(s) == 0 for s in owned) == empty
    volumes, got = region_integral(regions, table.bases)
    assert volumes.shape == got.shape == (len(regions),)
    for volume, value, adj, simplices in zip(volumes, got, adjs, owned):
        points = regions.vertices[simplices]
        if not len(points):
            assert volume == value == 0.0
            continue
        vols = simplex_volumes(points)
        assert volume == pytest.approx(vols.sum(), abs=1e-15)
        assert value == pytest.approx(simplex_integrals(points, vols, adj.basis).sum(), abs=1e-14)


def test_region_integral_does_not_depend_on_simplex_order():
    # a simplex belongs to the region of its first vertex, wherever its row is
    table = cone_sub_elements(coni_facets(JUMP))
    regions = build_region(table)
    shuffled = Regions(regions.vertices,
                       np.random.default_rng(3).permutation(regions.simplices),
                       regions.vertex_start)
    for a, b in zip(region_integral(regions, table.bases), region_integral(shuffled, table.bases)):
        np.testing.assert_allclose(b, a, rtol=0.0, atol=1e-15)
