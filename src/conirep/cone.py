"""Conical hull geometry: extreme rays, facet lattice, adjacent cones.

The cone over nonnegative columns is pointed, so its facets are exactly the
facets through the origin of the convex hull of the origin and the unit
rays, and one Qhull hull gives them all. A ray is extreme exactly when the
facets through it meet in that ray alone; a redundant ray lies inside a
larger face or on no facet at all. The same hull therefore names the
extreme rays and the facets, with no fit of one ray against the others.
(Vertex status on that hull says nothing: every unit ray lies on the
sphere, so all of them are vertices.)

The boundary elements are the facets closed under intersection. Each
element's adjacent cone has one facet per Hasse-diagram edge at the element,
so cone_sub_elements builds all of them in one batched pass over the edges.
A cone whose rays span only a subspace takes the same steps inside it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import AllZeroMatrixError, BudgetExceededError, DegenerateConeError
from .linalg import TOL_GEOM, gram_schmidt
from .nnls import nnls  # noqa: F401

# Margin below which a point counts as inside a cone.
TOL_MEMBER = 1e-8
# Unit rays with a mutual dot product above this merge into one ray.
DEDUP_DOT = 1.0 - 1e-12
# Gram-matrix columns formed at a time by the dedup, so memory stays O(n).
DEDUP_BLOCK = 256
# Cap on the boundary elements (faces of dims 1..r-1) of one cone of rank r.
MAX_ELEMENTS = 100_000


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
    facets: ray-index sets of the (r-1)-dimensional boundary elements.
    normals: (len(facets), m) outward unit facet normals, in facet order,
        each in the span of the rays.
    elements: dim -> ray-index sets, for dims 1..r-1, plus the whole cone
        at dim r when r < m (filled by cone_sub_elements; facets appear
        again under dim r-1).
    cone_rank: r, the rank of the ray span. At r < m the cone has measure
        zero, and its lattice and regions are those within its span.
    adjacent: element -> its AdjacentCone (filled by cone_sub_elements).
    """

    rays: np.ndarray
    ray_origins: tuple[tuple[int, ...], ...]
    facets: tuple[frozenset[int], ...]
    normals: np.ndarray
    elements: dict[int, tuple[frozenset[int], ...]] = field(default_factory=dict)
    cone_rank: int = 0
    adjacent: dict[frozenset[int], AdjacentCone] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.rays.shape[1]


@dataclass(frozen=True)
class AdjacentCone:
    """Cone of points whose nearest point on the parent cone lies in `element`.

    It is cone(E) + N(E): the element's own rays plus the normal cone N(E),
    generated by the outward normals of every facet containing the element.
    basis: (m, d) orthonormal basis of span(E). facet_normals: (f, m) outward
    unit normals, one per facet of the adjacent cone itself, so the cone is
    {x : facet_normals @ x <= 0}. interior: a point inside the adjacent cone
    and the open positive orthant, or None when the element lies on a
    coordinate face and the region may not reach into the orthant.
    """

    element: frozenset[int]
    element_rays: np.ndarray
    normals: np.ndarray
    basis: np.ndarray
    facet_normals: np.ndarray
    interior: np.ndarray | None

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


def cone_halfspaces(rays: np.ndarray):
    """Extreme rays, facets and outward unit normals of the cone over `rays`.

    The cone must be pointed and full-dimensional; the rays may include
    redundant ones and have entries of any sign, at unit scale. The hull of
    {0} union rays is built; each of its equations through the origin is the
    plane of a facet. A ray is extreme exactly when the facets through it
    meet in that ray alone (Ziegler, Lectures on Polytopes, 1995, ch. 2): a
    redundant ray on the boundary lies inside a face of dimension at least
    2, which every facet through it contains, and one off the boundary is on
    no facet. A facet is the set of extreme rays on its plane, and the first
    equation for a set gives its normal. Returns (extreme, facets, normals):
    the sorted indices of the extreme rays, index sets into rays[extreme]
    sorted by their indices, and a matching (facets, m) array, so the cone
    is {x : normals @ x <= 0}.
    """
    m = rays.shape[1]
    try:
        hull = ConvexHull(np.vstack([np.zeros(m), rays]))
    except QhullError as exc:
        raise DegenerateConeError(f"facet enumeration failed: {exc}") from exc
    planes = hull.equations[np.abs(hull.equations[:, -1]) < TOL_GEOM, :-1]
    on = np.abs(planes @ rays.T) < TOL_GEOM
    bound = np.flatnonzero(on.any(axis=0))
    # common[i, j]: ray bound[j] lies on every facet through ray bound[i]
    common = ~(on[:, bound].T @ ~on[:, bound])
    extreme = bound[common.sum(axis=1) == 1]
    found: dict[tuple[int, ...], np.ndarray] = {}
    for normal, row in zip(planes, on[:, extreme]):
        found.setdefault(tuple(np.flatnonzero(row).tolist()), normal)
    if not found:
        raise DegenerateConeError("no origin-incident facets; ray set is not pointed")
    facets = sorted(found)
    return (extreme.tolist(), tuple(frozenset(f) for f in facets),
            np.array([found[f] for f in facets]))


def coni_facets(C) -> Cone:
    """Extreme rays and facets of the conical hull of C's columns.

    Zero columns are dropped and collinear columns merged. One SVD of the
    unit rays gives the cone's rank and its span. At m >= 3 the extreme rays
    and the facets come off one hull (cone_halfspaces); a cone of rank
    1 < r < m is full-dimensional in the coordinates of its span, so the same
    hull there gives its extreme rays and its r-1 dimensional facets, whose
    normals are lifted back into R^m and so lie in the span. At m = 2 the
    extreme rays are the two ends of the segment the rays cut on the slice
    {sum(x) = 1}. Distinct unit rays are at least acos(DEDUP_DOT) apart, so
    rank 1 means one ray, and no facets. Rays come back unit-normalized and
    lexicographically sorted for deterministic downstream iteration.
    """
    sm = as_state_matrix(C)
    units, origins = _unit_dedup(sm.entries)
    if not origins:
        raise AllZeroMatrixError("matrix has no nonzero column")
    order = np.lexsort(units.T[::-1])
    units = units[order]
    _, sing, span = np.linalg.svd(units, full_matrices=False)
    rank = int(np.count_nonzero(sing > TOL_GEOM))
    facets: tuple[frozenset[int], ...] = ()
    normals = np.zeros((0, sm.m))
    if rank == 1:
        keep = [0]
    elif sm.m == 2:
        p = units[:, 0] / units.sum(axis=1)
        keep = sorted({int(np.argmin(p)), int(np.argmax(p))})
        _, facets, normals = cone_halfspaces(units[keep])
    elif rank < sm.m:
        keep, facets, normals = cone_halfspaces(units @ span[:rank].T)
        normals = normals @ span[:rank]
    else:
        keep, facets, normals = cone_halfspaces(units)
    return Cone(rays=units[keep], ray_origins=tuple(tuple(origins[order[i]]) for i in keep),
                facets=facets, normals=normals, cone_rank=rank)


def _face_bases(facets, rays: np.ndarray, rank: int) -> dict[frozenset[int], np.ndarray]:
    """Faces of dims 1..rank-1, each with an orthonormal basis of its span.

    Every proper face of a pointed cone is an intersection of facets, and the
    ray set of an intersection of faces is the intersection of their ray
    sets, so closing the facet list under pairwise intersection enumerates
    the whole lattice. A lattice of more than MAX_ELEMENTS faces is refused
    before any basis is formed. One gram_schmidt per face gives its basis,
    and the number of columns its dimension.
    """
    all_faces = set(facets)
    frontier = set(facets)
    while frontier:
        frontier = {e & f for f in facets for e in frontier} - all_faces - {frozenset()}
        all_faces |= frontier
    if len(all_faces) > MAX_ELEMENTS:
        raise BudgetExceededError(
            f"{len(all_faces)} cone elements exceed the limit of {MAX_ELEMENTS}")
    bases = {face: gram_schmidt(rays[sorted(face)]) for face in all_faces}
    return {face: b for face, b in bases.items() if 1 <= b.shape[1] < rank}


def _project(vectors: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Each row of `vectors` projected onto the span of its zero-padded (m, m) basis."""
    return ((vectors[:, None, :] @ bases) @ bases.transpose(0, 2, 1))[:, 0]


def cone_sub_elements(cone: Cone) -> Cone:
    """Return the cone with its element lattice (dims 1..r-1) and adjacent cones.

    For an element E with basis B, cone(E) + N(E) has exactly one facet per
    edge E' < E or E < G of the lattice's Hasse diagram (faces whose dims
    differ by one), so no row is redundant. Every edge E' < E is E & F for a
    facet F not containing E (Ziegler, Lectures on Polytopes, 1995, ch. 2);
    the apex lies below each ray and the whole cone above each facet. With
    P = B B^T, each edge E' < E gives E the row P_E of the summed outward
    normals of the facets containing E' but not E, and gives E' the row
    (I - P_E') of the summed rays of E outside E'. All rows are formed and
    normalized at once; each element's come from its faces below, then
    above, each in lattice order.

    With e the sum of E's rays and v the sum of its incident normals, e + s v
    lies inside the adjacent cone for every s > 0, and inside the open
    orthant for s = min(e_i / -v_i over v_i < 0) / 2 when e > 0. An element
    with a coordinate of e at most TOL_GEOM lies on a coordinate face (up to
    roundoff) and gets no point.

    At rank r < m the lattice is that of the cone within its span L, and
    every row lies in L, so each adjacent cone also holds L's orthogonal
    complement (Moreau's decomposition; Rockafellar, Convex Analysis, 1970,
    sections 14-15). The whole cone is then an element too: its region is
    the cone plus that complement, cut by the facet normals alone, and its
    interior point is the ray sum.
    """
    if not cone.facets:
        raise DegenerateConeError("cone has no facets; build with coni_facets first")
    rays, facets, normals, m, r = cone.rays, cone.facets, cone.normals, cone.dim, cone.cone_rank
    bases = _face_bases(facets, rays, r)
    flat = sorted(bases, key=lambda e: (bases[e].shape[1], sorted(e)))
    dims = [bases[e].shape[1] for e in flat]
    index = {e: i for i, e in enumerate(flat)}
    apex, whole = len(flat), len(flat) + 1

    def ray_mask(sets):
        mask = np.zeros((len(sets), len(rays)), dtype=bool)
        for i, s in enumerate(sets):
            mask[i, sorted(s)] = True
        return mask

    # nodes: the elements, then the apex (no rays) and the whole cone
    member = ray_mask(flat + [frozenset(), frozenset(range(len(rays)))])
    incident = ~(member @ ~ray_mask(facets).T)  # node i lies in facet j
    lo, hi = [], []  # Hasse edges lo < hi, by hi then lo
    for i, e in enumerate(flat):
        subs = {index.get(e & facets[j]) for j in np.flatnonzero(~incident[i])}
        subs = ([apex] if dims[i] == 1 else
                sorted(s for s in subs if s is not None and dims[s] == dims[i] - 1))
        tops = [whole] if dims[i] == r - 1 else []
        lo += subs + [i] * len(tops)
        hi += [i] * len(subs) + tops
    lo, hi = np.array(lo), np.array(hi)

    B = np.zeros((len(flat), m, m))
    for i, e in enumerate(flat):
        B[i, :, :dims[i]] = bases[e]
    up, down = hi != whole, lo != apex
    leaving = (incident[lo[up]] & ~incident[hi[up]]) @ normals
    outer = (member[hi[down]] & ~member[lo[down]]) @ rays
    rows = np.vstack([_project(leaving, B[hi[up]]), outer - _project(outer, B[lo[down]])])
    owner = np.concatenate([hi[up], lo[down]])
    rows = rows[np.argsort(owner, kind="stable")]
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows = np.split(rows, np.cumsum(np.bincount(owner, minlength=len(flat)))[:-1])

    e_sum = member[:apex] @ rays
    v_sum = incident[:apex] @ normals
    with np.errstate(divide="ignore", invalid="ignore"):
        step = 0.5 * np.where(v_sum < 0.0, e_sum / -v_sum, np.inf).min(axis=1)
        interior = e_sum + step[:, None] * v_sum
    adjacent = {e: AdjacentCone(element=e, element_rays=rays[sorted(e)],
                                normals=normals[incident[i]], basis=bases[e],
                                facet_normals=rows[i],
                                interior=interior[i] if e_sum[i].min() > TOL_GEOM else None)
                for i, e in enumerate(flat)}
    elements = {}
    for e, d in zip(flat, dims):
        elements.setdefault(d, []).append(e)
    if r < m:
        cone_set, e = frozenset(range(len(rays))), rays.sum(axis=0)
        adjacent[cone_set] = AdjacentCone(
            element=cone_set, element_rays=rays, normals=np.zeros((0, m)),
            basis=gram_schmidt(rays), facet_normals=normals,
            interior=e if e.min() > TOL_GEOM else None)
        elements[r] = [cone_set]
    return replace(cone, elements={d: tuple(f) for d, f in elements.items()}, adjacent=adjacent)


def adjacent_cone(element: frozenset, cone: Cone) -> AdjacentCone:
    """Adjacent cone of a lattice element, as cone_sub_elements built it.

    Raises ValueError when the element is not in the cone's lattice, or the
    lattice was never built.
    """
    adj = cone.adjacent.get(frozenset(element))
    if adj is None:
        raise ValueError(f"element {sorted(element)} is not in the cone's lattice"
                         " (build it with cone_sub_elements)")
    return adj
