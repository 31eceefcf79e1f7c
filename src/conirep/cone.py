"""Conical hull geometry: extreme rays, facet lattice, adjacent cones.

Every nonzero column of a nonnegative matrix lies in the positive orthant,
so its unit ray u has a positive coordinate sum, and p = u / sum(u) lies on
the slice {sum(x) = 1} of the orthant. A ray is extreme exactly when its p
is a vertex of the convex hull of all the p's, so one hull of that slice
names the candidate extreme rays, and an NNLS fit against all the other
rays confirms each one. (Vertex status on {0} together with the unit rays
says nothing: every unit ray lies on the sphere, so all of them are
vertices.) The cone is pointed, so its facets are exactly the facets
through the origin of the convex hull of the origin and the extreme rays.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import AllZeroMatrixError, DegenerateConeError
# gram_schmidt is not used here; bench/tracer.py counts calls through this name
from .linalg import TOL_GEOM, gram_schmidt  # noqa: F401
from .nnls import nnls

# Margin below which a point counts as inside a cone.
TOL_MEMBER = 1e-8
# Unit rays with a mutual dot product above this merge into one ray.
DEDUP_DOT = 1.0 - 1e-12
# Gram-matrix columns formed at a time by the dedup, so memory stays O(n).
DEDUP_BLOCK = 256


@dataclass(frozen=True)
class StateMatrix:
    """Validated m x n activity matrix: rows are states, columns neurons."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("matrix needs at least one row and one column")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        if np.any(arr < 0):
            raise ValueError("matrix entries must be nonnegative")
        object.__setattr__(self, "entries", arr)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


def as_state_matrix(obj) -> StateMatrix:
    return obj if isinstance(obj, StateMatrix) else StateMatrix(np.asarray(obj))


@dataclass(frozen=True)
class Cone:
    """Extreme-ray description of a conical hull plus its boundary lattice.

    rays: (k, m) unit rows, lexicographically sorted.
    ray_origins: per ray, the 0-based input columns pointing along it.
    facets: ray-index sets of the (m-1)-dimensional boundary elements.
    normals: (len(facets), m) outward unit facet normals, in facet order.
    elements: dim -> ray-index sets, for dims 1..m-1 (filled by
        cone_sub_elements; facets appear again under dim m-1).
    cone_rank: rank of the ray span; the analytical pipeline needs rank m.
    """

    rays: np.ndarray
    ray_origins: tuple[tuple[int, ...], ...]
    facets: tuple[frozenset[int], ...]
    normals: np.ndarray
    elements: dict[int, tuple[frozenset[int], ...]] = field(default_factory=dict)
    cone_rank: int = 0

    @property
    def dim(self) -> int:
        return self.rays.shape[1]


@dataclass(frozen=True)
class AdjacentCone:
    """Cone of points whose nearest point on the parent cone lies in `element`.

    Generated by the element's own rays plus the outward normals of every
    facet containing the element.
    """

    element: frozenset[int]
    element_rays: np.ndarray
    normals: np.ndarray

    @property
    def generators(self) -> np.ndarray:
        return np.vstack([self.element_rays, self.normals])


def _unit_dedup(columns: np.ndarray):
    """Unit directions of the nonzero columns, merged when collinear.

    Each column joins the first earlier representative whose unit has a dot
    product above DEDUP_DOT with its own, read from a Gram matrix formed
    DEDUP_BLOCK columns at a time; only columns with such an earlier twin go
    through the greedy pass. Returns (units, origins): units is a (k, m)
    array of unit rows, origins the 0-based column indices behind each one.
    """
    nonzero = np.flatnonzero(columns.any(axis=0))
    # scaled to a largest entry of 1 first, so the norm's squares neither
    # underflow nor overflow
    scaled = columns[:, nonzero]
    scaled = scaled / scaled.max(axis=0)
    # per column: norm(axis=0) rounds differently in the last bit
    units = np.array([col / np.linalg.norm(col) for col in scaled.T])
    k = nonzero.size
    rep = np.ones(k, dtype=bool)
    origins = [[j] for j in nonzero.tolist()]
    for s in range(0, k, DEDUP_BLOCK):
        cols = np.arange(s, min(s + DEDUP_BLOCK, k))
        # close[i, c]: column i comes before cols[c] and is within DEDUP_DOT of it
        close = (units @ units[cols].T > DEDUP_DOT) & (np.arange(k)[:, None] < cols)
        for c in np.flatnonzero(close.any(axis=0)):
            hits = np.flatnonzero(close[:, c] & rep)
            if hits.size:
                rep[cols[c]] = False
                origins[hits[0]] += origins[cols[c]]
    return units[rep], [o for o, r in zip(origins, rep) if r]


def _extreme_filter(units: np.ndarray):
    """Indices of the unit rows not expressible as conical combinations of the rest.

    A ray is extreme exactly when its point p = u / sum(u) on the slice
    {sum(x) = 1} is a vertex of the hull of all the p's, so the hull names
    the candidates: at m = 2 the two ends of the segment, at m >= 3 Qhull's
    vertices of the slice (dropping the last coordinate is affine on it).
    Every ray is a candidate when there are too few to span the slice or
    Qhull finds it flat, as for a rank-deficient cone. A candidate is kept
    when an NNLS fit by all the other rays leaves a residual of at least
    TOL_GEOM; the rest are inside the hull and are dropped without a fit.
    """
    k, m = units.shape
    if k == 1:
        return [0]
    U = units.T
    P = U / U.sum(axis=0)
    if m == 2:
        candidates = {int(np.argmin(P[0])), int(np.argmax(P[0]))}
    elif k > m:
        try:
            candidates = ConvexHull(P[:-1].T).vertices
        except QhullError:
            candidates = range(k)
    else:
        candidates = range(k)
    return [i for i in sorted(candidates)
            if nnls(np.delete(U, i, axis=1), U[:, i])[1] >= TOL_GEOM]


def cone_halfspaces(rays: np.ndarray):
    """Facets and outward unit normals of the full-dimensional pointed cone over `rays`.

    Works on any extreme ray set (entries of any sign); used both for the
    input cone and for adjacent cones. The hull of {0} union rays is built;
    each of its equations through the origin is the plane of a facet, and
    the facet is the set of rays on that plane. The first equation for a
    ray set gives its normal. Returns (facets, normals): ray-index sets
    sorted by their indices, and a matching (facets, m) array, so the cone
    is {x : normals @ x <= 0}.
    """
    m = rays.shape[1]
    try:
        hull = ConvexHull(np.vstack([np.zeros(m), rays]))
    except QhullError as exc:
        raise DegenerateConeError(f"facet enumeration failed: {exc}") from exc
    planes = hull.equations[np.abs(hull.equations[:, -1]) < TOL_GEOM, :-1]
    found: dict[tuple[int, ...], np.ndarray] = {}
    for normal, on in zip(planes, np.abs(planes @ rays.T) < TOL_GEOM):
        found.setdefault(tuple(np.flatnonzero(on).tolist()), normal)
    if not found:
        raise DegenerateConeError("no origin-incident facets; ray set is not pointed")
    facets = sorted(found)
    return tuple(frozenset(f) for f in facets), np.array([found[f] for f in facets])


def sub_elements_of(facets, rays: np.ndarray):
    """Boundary elements of dims 1..m-1: closure of facets under intersection.

    Every proper face of a pointed cone is an intersection of facets, and the
    ray set of an intersection of faces is the intersection of their ray
    sets, so closing the facet list under pairwise intersection enumerates
    the whole lattice. Dimension = rank of the element's rays.
    """
    m = rays.shape[1]
    all_faces = set(facets)
    frontier = set(facets)
    while frontier:
        new = set()
        for f in facets:
            for e in frontier:
                inter = e & f
                if inter and inter not in all_faces and inter not in new:
                    new.add(inter)
        all_faces |= new
        frontier = new
    by_dim: dict[int, list[frozenset[int]]] = {}
    for face in all_faces:
        r = np.linalg.matrix_rank(rays[sorted(face)], tol=TOL_GEOM)
        if 1 <= r <= m - 1:
            by_dim.setdefault(int(r), []).append(face)
    return {d: tuple(sorted(faces, key=sorted)) for d, faces in sorted(by_dim.items())}


def coni_facets(C) -> Cone:
    """Extreme rays and facets of the conical hull of C's columns.

    Zero columns are dropped, collinear columns merged, and non-extreme
    directions discarded (they add nothing to the hull; see _extreme_filter).
    Rays come back unit-normalized and lexicographically sorted for
    deterministic downstream iteration.
    """
    sm = as_state_matrix(C)
    units, origins = _unit_dedup(sm.entries)
    if not origins:
        raise AllZeroMatrixError("matrix has no nonzero column")
    keep = _extreme_filter(units)
    rays = units[keep]
    ray_origins = [tuple(origins[i]) for i in keep]
    order = np.lexsort(rays.T[::-1])
    rays = rays[order]
    ray_origins = tuple(ray_origins[i] for i in order)
    rank = int(np.linalg.matrix_rank(rays, tol=TOL_GEOM))
    facets: tuple[frozenset[int], ...] = ()
    normals = np.zeros((0, sm.m))
    if rank == sm.m and sm.m >= 2:
        facets, normals = cone_halfspaces(rays)
    return Cone(rays=rays, ray_origins=ray_origins, facets=facets, normals=normals,
                cone_rank=rank)


def cone_sub_elements(cone: Cone) -> Cone:
    """Return the cone with its element lattice (dims 1..m-1) populated."""
    if not cone.facets:
        raise DegenerateConeError("cone has no facets; build with coni_facets first")
    elements = sub_elements_of(cone.facets, cone.rays)
    return replace(cone, elements=elements)


def adjacent_cone(element: frozenset, cone: Cone) -> AdjacentCone:
    """Element rays plus the outward normals of the element's incident facets."""
    element = frozenset(element)
    return AdjacentCone(
        element=element,
        element_rays=cone.rays[sorted(element)],
        normals=cone.normals[[element <= f for f in cone.facets]],
    )
