"""Regions: adjacent cone clipped to the unit hypercube, then triangulated.

A region is the polytope {x : n . x <= 0 for each outward facet normal n of
the adjacent cone, 0 <= x <= 1}. The adjacent cone brings its facet normals
and, unless its element lies on a coordinate face, an interior point, both
read off the cone lattice; for the rest, least-distance programming finds an
interior point or shows that the region has none. Qhull intersects the
halfspaces around that point. The origin, the apex of every adjacent cone,
is a vertex of every region, so coning the facets of the region's hull to
the origin triangulates it; only facets on the cube's far faces x_j = 1 miss
the origin, so only they give simplices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError, cKDTree

from .cone import AdjacentCone
from .errors import DegenerateConeError
# gram_schmidt is not used here; bench/tracer.py counts calls through this name
from .linalg import TOL_GEOM, gram_schmidt, simplex_volumes  # noqa: F401
from .nnls import nnls

# Coordinate dedup tolerance for region vertices (absolute, unit box scale).
TOL_DEDUP = 1e-9


@dataclass(frozen=True)
class RegionPolytope:
    """V-representation of one region plus its triangulation.

    vertices: (k, m), the origin first. simplices: (s, m+1) vertex indices.
    volumes: (s,) simplex volumes, kept for the integration.
    """

    element: frozenset[int]
    vertices: np.ndarray
    simplices: np.ndarray
    volumes: np.ndarray

    @property
    def volume(self) -> float:
        return float(self.volumes.sum())


def _interior_point(G: np.ndarray):
    """A point x with G @ x >= 1 row-wise, or None when the rows admit none.

    Least-distance programming by NNLS (Lawson & Hanson 1974, ch. 23): the
    residual of min ||E u - f||, u >= 0, with E = [G^T; 1^T] and f = e_{m+1},
    is zero exactly when the system is infeasible. Otherwise the rows with
    u > 0 hold with equality at the least-norm solution, which is the
    least-norm solution of those equations. Solving them directly keeps the
    point of a thin region accurate; reading it off the residual, as
    -r[:m] / r[m], cancels digits and can miss the region altogether.
    """
    m = G.shape[1]
    E = np.vstack([G.T, np.ones(G.shape[0])])
    f = np.zeros(m + 1)
    f[m] = 1.0
    u, rnorm = nnls(E, f)
    if rnorm <= TOL_GEOM:
        return None
    active = u > 0.0
    return np.linalg.lstsq(G[active], np.ones(int(active.sum())), rcond=None)[0]


def hypercube_intersect(adj: AdjacentCone) -> np.ndarray:
    """Vertices of (adjacent cone) intersect [0,1]^m, deduplicated, origin first.

    The halfspaces are adj.facet_normals and the cube. The interior point is
    adj.interior, or for an element on a coordinate face the least-distance
    point strictly inside the cone and the orthant; either is scaled into
    the cube. Returns an empty (0, m) array when the cone meets the positive
    orthant only on its boundary. Qhull failures propagate as QhullError.
    """
    normals = adj.facet_normals
    m = normals.shape[1]
    eye = np.eye(m)
    x = adj.interior
    if x is None:
        # x >= 1 row-wise, so it is strictly inside the cone and the orthant
        x = _interior_point(np.vstack([-normals, eye]))
        if x is None:
            return np.zeros((0, m))
    halfspaces = np.vstack([
        np.hstack([normals, np.zeros((len(normals), 1))]),  # n . x <= 0
        np.hstack([-eye, np.zeros((m, 1))]),  # x >= 0
        np.hstack([eye, -np.ones((m, 1))]),  # x <= 1
    ])
    hs = HalfspaceIntersection(halfspaces, x / (2.0 * x.max()))
    pts = np.vstack([np.zeros(m), np.clip(hs.intersections, 0.0, 1.0)])
    pairs = cKDTree(pts).query_pairs(TOL_DEDUP, p=np.inf, output_type="ndarray")
    keep = np.ones(len(pts), dtype=bool)
    keep[pairs[:, 1]] = False  # pairs are (i, j) with i < j: the first copy wins
    return pts[keep]


def polytope_facets(vertices: np.ndarray):
    """Simplicial facets of the joggled convex hull of a vertex set.

    Returns (facets, planes): an (f, m) array of vertex indices and the
    facets' (f, m+1) hyperplanes n . x + b = 0 with unit outward n. Qhull's
    default triangulation (option Qt) can overlap simplices on merged
    facets; joggling (QJ) gives simplicial facets that tile the boundary.
    Both arrays are empty for fewer than m+1 points or a rank-deficient span.
    """
    V = np.asarray(vertices, dtype=float)
    m = V.shape[1]
    if V.shape[0] < m + 1 or np.linalg.matrix_rank(V - V[0], tol=TOL_GEOM) < m:
        return np.zeros((0, m), dtype=int), np.zeros((0, m + 1))
    hull = ConvexHull(V, qhull_options="QJ")
    return hull.simplices, hull.equations


def triangulate_polytope(facets, vertices: np.ndarray) -> np.ndarray:
    """Fan triangulation from vertex 0 over the facets that miss it.

    `facets` is the (facets, planes) pair from polytope_facets. Facets whose
    plane passes through vertex 0 would give flat simplices and are left
    out; the rest, each joined to vertex 0, tile the polytope. Returns an
    (s, m+1) array of vertex indices, each row starting with 0.
    """
    indices, planes = facets
    apex = np.asarray(vertices, dtype=float)[0]
    away = planes[:, :-1] @ apex + planes[:, -1] < -TOL_GEOM
    return np.column_stack([np.zeros(int(away.sum()), dtype=int), indices[away]])


def build_region(adj: AdjacentCone) -> RegionPolytope:
    """Intersect, hull, and triangulate one adjacent cone against the cube."""
    try:
        verts = hypercube_intersect(adj)
        facets = polytope_facets(verts)
    except QhullError as exc:
        raise DegenerateConeError(
            f"region of element {sorted(adj.element)}: {exc}") from exc
    if not len(facets[0]):
        empty = np.zeros((0, verts.shape[1] + 1), dtype=int)
        return RegionPolytope(adj.element, verts, empty, np.zeros(0))
    simplices = triangulate_polytope(facets, verts)
    return RegionPolytope(adj.element, verts, simplices, simplex_volumes(verts[simplices]))
