"""Conical hull geometry: extreme rays, facet lattice, adjacent cones.

Collinear columns merge first, by one sort of the unit columns' keys cut
into runs of possible twins, so the cost follows the column count. The cone
over nonnegative columns is pointed, so its facets are exactly the
facets through the origin of the convex hull of the origin and one point
on each ray, and at m >= 3 one Qhull hull gives them all (at m = 2 the
two extreme rays, those of least and greatest x, are the facets, and
neither a hull nor an SVD is needed; a simplicial cone takes its planes
from the inverse of its rays, and scipy.spatial is imported only at the
first hull). Each ray enters
as its point on the slice {x : x . s = 1}, s the sum of the unit rays, so
only the extreme rays' points are hull vertices and the hull stays small
at any width. A ray is extreme exactly when the facets through it meet in
that ray alone; a redundant ray lies inside a larger face or on no facet
at all. The same hull therefore names the extreme rays and the facets,
with no fit of one ray against the others.

The facets come as boolean ray masks, and the boundary elements are those
masks closed under intersection; one batched Gram-Schmidt of them all
gives every face's basis. Each element's adjacent cone has one facet per
Hasse-diagram edge at the element, so cone_sub_elements returns all of them
as one AdjacentCones table. Every step works in the rays' span coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZeroMatrixError, BudgetExceededError, DegenerateConeError
from .linalg import TOL_GEOM, _runs, block_size, gram_schmidt, row_dots, row_norms
from .nnls import nnls  # noqa: F401

# Margin below which a point counts as inside a cone.
TOL_MEMBER = 1e-8
# Unit rays with a mutual dot product above this merge into one ray.
DEDUP_DOT = 1.0 - 1e-12
# Cap on the boundary elements (faces of dims 1..r-1) of one cone of rank r.
MAX_ELEMENTS = 100_000


def as_state_matrix(obj) -> np.ndarray:
    """The validated m x n activity matrix as a float array: rows are states, columns neurons."""
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("matrix needs at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    if np.any(arr < 0):
        raise ValueError("matrix entries must be nonnegative")
    return arr


@dataclass(frozen=True)
class Cone:
    """Extreme-ray description of a conical hull.

    rays: (k, m) unit rows, lexicographically sorted.
    ray_origins: per ray, the 0-based input columns pointing along it.
    facets: (f, k) boolean ray masks of the (r-1)-dimensional boundary
        elements, ordered by their sorted ray indices.
    normals: (f, m) outward unit facet normals, in facet order, each in the
        span of the rays.
    cone_rank: r, the rank of the ray span. At r < m the cone has measure
        zero, and its lattice and regions are those within its span.
    """

    rays: np.ndarray
    ray_origins: tuple[tuple[int, ...], ...]
    facets: np.ndarray
    normals: np.ndarray
    cone_rank: int = 0

    @property
    def dim(self) -> int:
        return self.rays.shape[1]


@dataclass(frozen=True)
class AdjacentCones:
    """cone_sub_elements' table: every element's adjacent cone (see AdjacentCone).

    Row i is element i, by dimension, then sorted rays: members (E, k) ray masks,
    dims, bases (E, m, m) zero-padded after dims[i] columns, and rows (E, w, m):
    its adjacent cone's unit facet normals, then zero rows, w the largest
    count. Both region routes read the rows as stored: a zero row cuts nothing.
    """

    members: np.ndarray
    dims: np.ndarray
    bases: np.ndarray
    rows: np.ndarray

    @property
    def elements(self) -> dict[int, tuple[frozenset[int], ...]]:
        """dim -> ray-index sets of the elements, in table order."""
        sets = [frozenset(np.flatnonzero(row).tolist()) for row in self.members]
        dims = self.dims.tolist()
        return {d: tuple(e for e, de in zip(sets, dims) if de == d) for d in dict.fromkeys(dims)}


@dataclass(frozen=True)
class AdjacentCone:
    """Cone of points whose nearest point on the parent cone lies in `element`.

    It is cone(E) + N(E): the element's own rays plus the normal cone N(E),
    generated by the outward normals of every facet containing the element.
    basis: (m, d) orthonormal basis of span(E). facet_normals: (f, m) outward
    unit normals, one per facet of the adjacent cone itself, so the cone is
    {x : facet_normals @ x <= 0}.
    """

    element: frozenset[int]
    element_rays: np.ndarray
    normals: np.ndarray
    basis: np.ndarray
    facet_normals: np.ndarray


def _unit_dedup(columns: np.ndarray):
    """Unit directions of the nonzero columns, merged when collinear.

    Each column joins the first earlier representative whose unit has a dot
    product above DEDUP_DOT with its own. Such twins lie less than
    sqrt(2 (1 - DEDUP_DOT)), about 1.414e-6, apart, so their keys (dot
    products with weights of unequal size) lie less than that times the
    weights' norm apart. The units are sorted by key and cut into runs
    wherever neighbouring keys lie further apart, plus 1% for roundoff;
    every twin then shares its representative's run, and the greedy pass
    runs within each run, in column order. Identical units next to each
    other in the sort form one class, decided by its first column. One step
    per rank i serves every run at once, comparing the class of rank i, in
    first-column order, with its run's lower-rank representatives only, so
    no Gram matrix and no list of twin pairs is formed.
    Returns (units, origins): units is a (k, m) array of unit rows, origins
    the 0-based column indices behind each one.
    """
    nonzero = np.flatnonzero(columns.any(axis=0))
    if not nonzero.size:
        raise AllZeroMatrixError("matrix has no nonzero column")
    # scaled to a largest entry of 1 first, so the norm's squares neither
    # underflow nor overflow; the scaled columns become contiguous rows for
    # row_norms, whose one stacked product matches np.linalg.norm bit for bit
    scaled = columns[:, nonzero]
    scaled = np.ascontiguousarray((scaled / scaled.max(axis=0)).T)
    units = scaled / row_norms(scaled)[:, None]
    k, m = units.shape
    # cos(1), ..., cos(m) obey no linear relation with small integer
    # coefficients, so distinct directions of spike counts seldom share a key
    weights = np.cos(np.arange(1.0, m + 1.0))
    key = units @ weights
    order = np.argsort(key)
    # |key(u) - key(v)| <= |weights| |u - v|, and 1% more covers the roundoff
    near = np.diff(key[order]) <= 1.01 * np.sqrt(2.0 * (1.0 - DEDUP_DOT) * (weights @ weights))
    if not near.any():
        return units, nonzero[:, None].tolist()
    ranked = units[order]
    new = np.ones(k, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    start = np.flatnonzero(new)
    first = np.minimum.reduceat(order, start)  # each class's first unit, in column order
    runs = np.flatnonzero(np.append(True, ~near[start[1:] - 1]))
    sizes = np.diff(np.append(runs, len(start)))
    rep = np.arange(len(start))  # each class's representative class
    # run j of two or more classes lists them in first-column order in
    # classes[begin[j]:][:sizes[j]], and the positions there of its
    # representatives in held[begin[j]:][:count[j]]; the class of rank i
    # joins the first of these it is a twin of, or becomes one itself
    runs, sizes = runs[sizes > 1], sizes[sizes > 1]
    classes, run = _runs(runs, sizes)
    classes = classes[np.lexsort((first[classes], run))]
    rows, begin = units[first[classes]], sizes.cumsum() - sizes
    held, count, live = np.arange(len(classes)), np.ones_like(sizes), np.arange(len(sizes))
    for i in range(1, sizes.max(initial=1)):
        live = live[sizes[live] > i]
        at = begin[live] + i
        slot, owner = _runs(begin[live], count[live])
        hit = np.flatnonzero(row_dots(rows[held[slot]], rows[at[owner]]) > DEDUP_DOT)
        hit = hit[owner[hit] != np.append(-1, owner[hit][:-1])]  # each run's first twin
        rep[classes[at[owner[hit]]]] = classes[held[slot[hit]]]
        fresh = np.delete(live, owner[hit])
        held[begin[fresh] + count[fresh]] = begin[fresh] + i
        count[fresh] += 1
    label = np.empty(k, dtype=np.intp)  # each unit's representative unit
    label[order] = first[rep[np.cumsum(new) - 1]]
    is_rep = label == np.arange(k)
    grouped = nonzero[np.argsort(label, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(label, minlength=k)[is_rep]).tolist()
    return units[is_rep], [grouped[i:j] for i, j in zip([0, *ends], ends)]


def cone_halfspaces(rays: np.ndarray, simplicial: bool = False):
    """Extreme rays, facets and outward unit normals of the cone over `rays`.

    The cone must be pointed and full-dimensional; the rays may include
    redundant ones, have entries of any sign, and come at any positive
    scale. A caller that knows the cone simplicial, m independent rays,
    says so (coni_facets does when the rays number the rank it found): the
    facet opposite ray i then has the outward normal -(R^-1)^T_i, R the rays
    as rows, and no hull is built. Otherwise the hull of {0} union rays is
    built, importing scipy.spatial at the first call; each of its equations
    through the origin is the plane of a facet, and a ray p lies on a plane
    when |normal . p| < TOL_GEOM |p|, so incidence is judged at unit scale.
    A ray is extreme exactly when the facets through it meet in that ray
    alone (Ziegler, Lectures on Polytopes, 1995, ch. 2): a redundant ray on
    the boundary lies inside a face of dimension at least 2, which every
    facet through it contains, and one off the boundary is on no facet. A
    facet is the set of extreme rays on its plane, unless another plane's
    set holds it strictly: no facet lies inside another, but a nearly flat
    facet that Qhull splits into planes can leave such a set. The first
    equation for a set gives its normal. Returns (extreme, facets,
    normals): the sorted indices of the extreme rays, (f, len(extreme))
    boolean masks over rays[extreme] ordered by their sorted ray indices,
    and a matching (f, m) array, so the cone is {x : normals @ x <= 0}.

    The scale picks the hull's size: unit rays all lie on the sphere, so
    each is a hull vertex, while rays cut to one hyperplane make only the
    extreme ones vertices (coni_facets passes such slice points). Qhull
    forms each plane from differences of its vertices, so a normal is exact
    to about machine precision times the ratio of the largest ray to the
    smallest.
    """
    m = rays.shape[1]
    if simplicial:
        planes = -np.linalg.inv(rays).T
        planes /= row_norms(planes)[:, None]
    else:
        from scipy.spatial import ConvexHull, QhullError
        try:
            hull = ConvexHull(np.vstack([np.zeros(m), rays]))
        except QhullError as exc:
            raise DegenerateConeError(f"facet enumeration failed: {exc}") from exc
        planes = hull.equations[np.abs(hull.equations[:, -1]) < TOL_GEOM, :-1]
    # on[i, j]: ray bound[j] lies on plane i; formed block_size rays at a
    # time, keeping only the rays on some plane, so memory stays O(k)
    scale, step, on, bound = TOL_GEOM * row_norms(rays), block_size(len(planes)), [], []
    for a in range(0, len(rays), step):
        block = np.abs(planes @ rays[a:a + step].T) < scale[a:a + step]
        hit = np.flatnonzero(block.any(axis=0))
        on.append(block[:, hit])
        bound.append(hit + a)
    on, bound = np.hstack(on), np.concatenate(bound)
    # common[i, j]: ray bound[j] lies on every facet through ray bound[i]
    common = ~(on.T @ ~on)
    is_extreme = common.sum(axis=1) == 1
    extreme, rows = bound[is_extreme], on[:, is_extreme]
    # within[i, j]: plane i's rays all lie on plane j; keep the maximal rows,
    # and of equal rows the first plane's
    within = ~(rows @ ~rows.T)
    keep = ~(within & (~within.T | np.tri(len(rows), k=-1, dtype=bool))).any(axis=1)
    if not keep.any():
        raise DegenerateConeError("no origin-incident facets; ray set is not pointed")
    # no kept row holds another, so the inverted masks sort as the index sets do
    rows, planes = rows[keep], planes[keep]
    order = np.lexsort((~rows).T[::-1])
    return extreme.tolist(), rows[order], planes[order]


def coni_facets(C) -> Cone:
    """Extreme rays and facets of the conical hull of C's columns.

    C is a validated state matrix (as_state_matrix). Zero columns are
    dropped and collinear columns merged. At m >= 3 one SVD of the unit
    rays gives the cone's rank r and its span, and one hull
    (cone_halfspaces), in span coordinates, of the origin and the rays'
    points on the slice {x : x . s = 1}, s the sum of the unit rays, gives
    the extreme rays (the only rays whose points are hull vertices) and the
    r-1 dimensional facets, whose normals are lifted back into R^m and so
    lie in the span; when the rays number r, the SVD has found them
    independent, the cone is simplicial, and the planes come from the
    inverse of the r slice points instead. At m = 2
    neither an SVD nor a hull is needed: distinct unit rays are at least
    acos(DEDUP_DOT) apart, so two of them have a singular value near 1e-6,
    far above TOL_GEOM, and the rank is min(k, 2). The extreme rays
    are then the rays of least and greatest x, in that (lexicographic)
    order; each is a facet, and its normal is the ray turned a right angle
    away from the other, (-y, x) for the steeper and (y, -x) for the
    flatter. Rank 1 means one ray and no facets. Rays come back
    unit-normalized and lexicographically sorted.
    """
    m = C.shape[0]
    units, origins = _unit_dedup(C)
    if m == 2:
        order = [int(np.argmin(units[:, 0])), int(np.argmax(units[:, 0]))][:len(units)]
        units, rank = units[order], len(order)
    else:
        order = np.lexsort(units.T[::-1])
        units = units[order]
        _, sing, span = np.linalg.svd(units, full_matrices=False)
        rank = int(np.count_nonzero(sing > TOL_GEOM))
    if rank == 1:
        keep, facets, normals = [0], np.zeros((0, 1), dtype=bool), np.zeros((0, m))
    elif m == 2:
        # each ray is a facet, its normal the ray turned a right angle away
        # from the other: the first ray, of smaller x, is the steeper
        keep, ((x0, y0), (x1, y1)) = [0, 1], units
        facets, normals = np.eye(2, dtype=bool), np.array([[-y0, x0], [y1, -x1]])
    else:
        coords = units @ span[:rank].T
        # each ray's point on the slice {x : x . s = 1}; x . s >= 1 for unit
        # rays of nonnegative columns, and span coordinates keep dot products
        keep, facets, normals = cone_halfspaces(coords / (coords @ coords.sum(axis=0))[:, None],
                                                simplicial=len(units) == rank)
        normals = normals @ span[:rank]
    return Cone(rays=units[keep], ray_origins=tuple(tuple(origins[order[i]]) for i in keep),
                facets=facets, normals=normals, cone_rank=rank)


def _closure(facets: np.ndarray) -> np.ndarray:
    """Every face's ray mask: the (F, k) boolean facet masks closed under intersection.

    Each round meets the faces new in the last round with every facet, at
    most MAX_ELEMENTS pairs at a time so that memory stays bounded; a
    lattice past MAX_ELEMENTS faces is refused as soon as a round finds it.
    """
    n, k = facets.shape
    found = facets
    step = max(1, MAX_ELEMENTS // n)
    # a face of one ray meets a facet in itself or in nothing
    frontier = found[found.sum(axis=1) > 1]
    while len(frontier):
        known = len(found)
        for a in range(0, len(frontier), step):
            meet = (frontier[a:a + step, None] & facets).reshape(-1, k)
            every = np.concatenate([found, meet[meet.any(axis=1)]])
            order = np.lexsort(every.T[::-1])
            first = np.ones(len(order), dtype=bool)
            first[1:] = (every[order[1:]] != every[order[:-1]]).any(axis=1)
            found = every[np.sort(order[first])]
        frontier = found[known:]
        frontier = frontier[frontier.sum(axis=1) > 1]
        if len(found) > MAX_ELEMENTS:
            raise BudgetExceededError(
                f"{len(found)} cone elements exceed the limit of {MAX_ELEMENTS}")
    return found


def _project(vectors: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Each row of `vectors` projected onto the span of its zero-padded (m, m) basis."""
    return ((vectors[:, None, :] @ bases) @ bases.transpose(0, 2, 1))[:, 0]


def cone_sub_elements(cone: Cone) -> AdjacentCones:
    """The AdjacentCones table of every lattice element, read off the cone's facet masks.

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

    No step runs per element: one stacked gram_schmidt gives every face's
    basis and dimension, and one containment product the Hasse edges.

    At rank r < m the lattice is that of the cone within its span L, and
    every row lies in L, so each adjacent cone also holds L's orthogonal
    complement (Moreau's decomposition; Rockafellar, Convex Analysis, 1970,
    sections 14-15). The whole cone is then the last element: its region is
    the cone plus that complement, cut by the facet normals alone.
    """
    if not len(cone.facets):
        raise DegenerateConeError("cone has no facets; build with coni_facets first")
    rays, facets, normals, m, r = cone.rays, cone.facets, cone.normals, cone.dim, cone.cone_rank
    k = len(rays)
    member = _closure(facets)
    # each face's rays in ascending order, then -1s, which pick a zero ray: it adds no column
    count = member.sum(axis=1)
    index = np.where(np.arange(k) < count[:, None], (~member).argsort(axis=1, kind="stable"), -1)
    bases = gram_schmidt(np.vstack([rays, np.zeros(m)])[index[:, :count.max()]])
    dims = (bases != 0.0).any(axis=1).sum(axis=1)
    # by dimension, then by ray indices as tuples compare: a prefix first
    order = np.lexsort((*index.T[::-1], dims))
    order = order[dims[order] < r]
    member, dims, bases = member[order], dims[order], bases[order]
    apex, whole = len(order), len(order) + 1

    # nodes: the elements, then the apex (no rays) and the whole cone
    nodes = np.concatenate([member, np.zeros((1, k), dtype=bool), np.ones((1, k), dtype=bool)])
    incident = ~(nodes @ ~facets.T)  # node i lies in facet j
    # Hasse edges, element by element, at most MAX_ELEMENTS pairs at a time:
    # its faces one dimension down (the apex below a ray), then the whole cone
    level = np.concatenate([dims, [0, r]])
    chunk = max(1, MAX_ELEMENTS // len(nodes))
    pairs = []
    for a in range(0, apex, chunk):
        # edge[i, j]: node j holds no ray outside element a + i, one dimension down
        edge = ~(~member[a:a + chunk] @ nodes.T) & (level + 1 == dims[a:a + chunk, None])
        edge[:, whole] = dims[a:a + chunk] == r - 1
        i, j = edge.nonzero()
        pairs.append((i + a, j))
    i, j = (np.concatenate(p) for p in zip(*pairs))
    top = j == whole
    lo, hi = np.where(top, i, j), np.where(top, whole, i)

    up, down = ~top, lo != apex
    lo_up, hi_up, chunk = lo[up], hi[up], max(1, MAX_ELEMENTS // len(normals))
    leaving = np.empty((len(lo_up), m))
    for a in range(0, len(lo_up), chunk):  # at most MAX_ELEMENTS (edge, facet) pairs at a time
        leaving[a:a + chunk] = (incident[lo_up[a:a + chunk]] & ~incident[hi_up[a:a + chunk]]) @ normals
    outer = (nodes[hi[down]] & ~nodes[lo[down]]) @ rays
    rows = np.concatenate([_project(leaving, bases[hi[up]]),
                           outer - _project(outer, bases[lo[down]])])
    owner = np.concatenate([hi[up], lo[down]])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    if r < m:
        member, dims, bases = (np.vstack([member, nodes[-1]]), np.append(dims, r),
                               np.concatenate([bases, gram_schmidt(rays[None])]))
        rows, owner = np.vstack([rows, normals]), np.append(owner, [apex] * len(normals))
    # each element's rows in their order above, then zero rows
    count = np.bincount(owner, minlength=len(member))
    slot, element = _runs(np.zeros_like(count), count)
    padded = np.zeros((len(member), count.max(), m))
    padded[element, slot] = rows[owner.argsort(kind="stable")]
    return AdjacentCones(member, dims, bases, padded)


def adjacent_cone(element: frozenset, cone: Cone, table: AdjacentCones) -> AdjacentCone:
    """One element's adjacent cone, read off cone_sub_elements' table; ValueError if not in it."""
    element = frozenset(element)
    mask = np.isin(np.arange(len(cone.rays)), list(element))
    hits = np.flatnonzero((table.members == mask).all(axis=1))
    if not hits.size or np.count_nonzero(mask) != len(element):
        raise ValueError(f"element {sorted(element)} is not in the cone's lattice")
    i = hits[0]
    return AdjacentCone(
        element=element, element_rays=cone.rays[mask],
        normals=cone.normals[(cone.facets | ~mask).all(axis=1)],
        basis=np.ascontiguousarray(table.bases[i, :, :table.dims[i]]),
        facet_normals=table.rows[i][table.rows[i].any(axis=1)])
