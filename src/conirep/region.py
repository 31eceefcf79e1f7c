"""Regions: adjacent cone clipped to the unit hypercube, then triangulated.

A region is the polytope {x : n . x <= 0 for each outward facet normal n of
the adjacent cone, 0 <= x <= 1}. The adjacent cone brings its facet normals
and, unless its element lies on a coordinate face, an interior point, both
read off the cone lattice; for the rest, least-distance programming finds an
interior point or shows that the region has none. One Qhull halfspace
intersection around that point gives the vertices and, for each vertex, the
halfspaces through it; that incidence is the whole face lattice, one vertex
bitmask per facet. A pulling triangulation walks it from the origin, the
apex of every adjacent cone and vertex 0 of every region. The origin lies on
every facet but the cube's far faces x_j = 1, so only those give simplices
at the top level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.spatial import HalfspaceIntersection, QhullError

from .cone import AdjacentCone
from .errors import BudgetExceededError, DegenerateConeError
# gram_schmidt is not used here; bench/tracer.py counts calls through this name
from .linalg import TOL_GEOM, gram_schmidt, simplex_volumes  # noqa: F401
from .nnls import nnls


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
    x = np.linalg.lstsq(G[active], np.ones(int(active.sum())), rcond=None)[0]
    # a residual just above TOL_GEOM can leave a point that breaks the rows
    # it must meet: the system is all but infeasible, the region negligible
    return x if (G @ x).min() >= 0.5 else None


@dataclass(frozen=True)
class Intersection:
    """Vertices of one region, the origin first, and the halfspaces through each.

    vertices: (k, m). incidence: for each vertex, the indices of the
    non-redundant halfspaces through it, as Qhull's dual_facets lists them;
    a degenerate vertex appears once, with all of its planes. len() is k.
    """

    vertices: np.ndarray
    incidence: list[list[int]]

    def __len__(self) -> int:
        return len(self.vertices)


@cache
def _cube_halfspaces(m: int) -> np.ndarray:
    """Rows [a, b] of a . x + b <= 0 for x >= 0, then x <= 1; read-only."""
    block = np.hstack([np.vstack([-np.eye(m), np.eye(m)]), np.repeat([[0.0], [-1.0]], m, axis=0)])
    block.flags.writeable = False
    return block


def hypercube_intersect(adj: AdjacentCone) -> Intersection:
    """Vertices of (adjacent cone) intersect [0,1]^m and their halfspaces.

    The halfspaces are adj.facet_normals, then x >= 0, then x <= 1; all but
    the last m pass through the origin, so the origin is the one vertex on
    none of the last m. The interior point is adj.interior, or for an element
    on a coordinate face the least-distance point strictly inside the cone
    and the orthant; either is scaled into the cube. Returns no vertices when
    the cone meets the positive orthant only on its boundary. Qhull failures
    propagate as QhullError.
    """
    normals = adj.facet_normals
    k, m = normals.shape
    x = adj.interior
    if x is None:
        # x >= 1 row-wise, so it is strictly inside the cone and the orthant
        x = _interior_point(np.vstack([-normals, np.eye(m)]))
        if x is None:
            return Intersection(np.zeros((0, m)), [])
    halfspaces = np.empty((k + 2 * m, m + 1))
    halfspaces[:k, :m] = normals  # n . x <= 0
    halfspaces[:k, m] = 0.0
    halfspaces[k:] = _cube_halfspaces(m)
    hs = HalfspaceIntersection(halfspaces, x / (2.0 * x.max()))
    incidence = hs.dual_facets
    through_origin = k + m
    o = next(j for j, planes in enumerate(incidence) if max(planes) < through_origin)
    pts = hs.intersections
    if o:
        order = [o, *range(o), *range(o + 1, len(incidence))]
        pts, incidence = pts[order], [incidence[j] for j in order]
    np.clip(pts, 0.0, 1.0, out=pts)
    pts[0] = 0.0
    return Intersection(pts, incidence)


def polytope_facets(incidence: list[list[int]]) -> list[int]:
    """Vertex bitmask of each non-redundant halfspace: bit j for vertex j on it.

    An intersection around a strictly interior point is full-dimensional, so
    these are exactly the facets of the polytope.
    """
    masks: dict[int, int] = {}
    for j, planes in enumerate(incidence):
        for i in planes:
            masks[i] = masks.get(i, 0) | 1 << j
    return list(masks.values())


def triangulate_polytope(facets: list[int], vertices: np.ndarray,
                         budget: float = math.inf) -> np.ndarray:
    """Pulling triangulation of a polytope from its facet masks.

    Each face F, a vertex bitmask, is triangulated by joining its lowest
    vertex v to the triangulations of the facets of F that miss v (De Loera,
    Rambau & Santos, Triangulations, 2010). The facets of F are
    the inclusion-maximal nonempty proper sets F & S over the facet masks S;
    each face is triangulated once. Returns an (s, m+1) array of vertex
    indices, each row starting with 0. Raises BudgetExceededError as soon as
    the rows the memo holds, the polytope's simplices among them, pass
    `budget`, before the walk can fill memory.
    """
    m = np.shape(vertices)[1]
    memo: dict[int, list[tuple[int, ...]]] = {}
    held = 0

    def pull(face: int) -> list[tuple[int, ...]]:
        nonlocal held
        rows = memo.get(face)
        if rows is None:
            low = face & -face
            v = low.bit_length() - 1
            if face == low:
                rows = [(v,)]
            else:
                subs = {face & s for s in facets} - {0, face}
                rows = []
                for g in subs:
                    if g & low:
                        continue
                    for h in subs:
                        if g & h == g != h:
                            break  # inside a larger candidate: not a facet
                    else:
                        rows += [(v,) + r for r in pull(g)]
            memo[face] = rows
            held += len(rows)
            if held > budget:
                raise BudgetExceededError(
                    f"triangulation passes its budget of {budget} simplices")
        return rows

    rows = pull((1 << len(vertices)) - 1) if facets else []
    return np.array(rows, dtype=int).reshape(-1, m + 1)


def build_region(adj: AdjacentCone, budget: float = math.inf) -> RegionPolytope:
    """Intersect one adjacent cone with the cube and triangulate the result.

    `budget` caps the triangulation (see triangulate_polytope).
    """
    try:
        inter = hypercube_intersect(adj)
    except QhullError as exc:
        raise DegenerateConeError(
            f"region of element {sorted(adj.element)}: {exc}") from exc
    verts = inter.vertices
    simplices = triangulate_polytope(polytope_facets(inter.incidence), verts, budget)
    return RegionPolytope(adj.element, verts, simplices, simplex_volumes(verts[simplices]))
