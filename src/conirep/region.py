"""Regions: adjacent cone clipped to the unit hypercube, then triangulated.

A region is the polytope {x : n . x <= 0 for each outward facet normal n of
the adjacent cone, 0 <= x <= 1}. The adjacent cone brings its facet normals
and, unless its element lies on a coordinate face, an interior point, both
read off the cone lattice; where it has none or Qhull rejects it, the
least-distance point of the region's halfspaces through the origin stands in.
One Qhull halfspace intersection around that point gives the vertices and,
for each vertex, the halfspaces through it; that incidence is the whole face
lattice, one vertex bitmask per facet. build_region takes every region of an
AdjacentCones table at once: one pass that forms every region's halfspaces,
one intersection per region, one pass that stacks their vertices, origin
first, and packs all their facet masks, one pulling triangulation of all
their face lattices, level by level in arrays of packed bitmasks, whose
simplices are counted before any is built, and the regions stacked in one
Regions. The walk starts at the regions themselves and pulls the origin
first, the apex of every adjacent cone and vertex 0 of every region: it
lies on every facet but the cube's far faces x_j = 1, so only those reach
the second level.

Each region is therefore the union of the pyramids from the origin over its
sections with the far faces, and at m = 3, where a section is a polygon,
fan_regions builds them directly: the unit square on each far face clipped
by the region's rows, every (region, face) pair at once, fanned from the
origin, with no interior point, Qhull call or walk. build_region serves
m >= 4, and evaluate takes m = 2 in closed form: this module serves m >= 3.
"""
from __future__ import annotations

import itertools
import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.spatial import HalfspaceIntersection, QhullError

from .cone import AdjacentCones
from .errors import BudgetExceededError, DegenerateConeError
# gram_schmidt is not used here; bench/tracer.py counts calls through this name
from .linalg import TOL_GEOM, block_size, gram_schmidt, simplex_volumes  # noqa: F401
from .nnls import nnls

# set bits of each byte value: np.bitwise_count needs numpy 2.0
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class Regions:
    """Regions of some adjacent cones, stacked, each with its triangulation.

    Region i owns the rows vertex_start[i]:vertex_start[i+1] of vertices
    (k, m), its origin first, and the rows simplex_start[i]:simplex_start[i+1]
    of simplices (s, m+1), indices into `vertices`.
    """

    vertices: np.ndarray
    simplices: np.ndarray
    vertex_start: np.ndarray
    simplex_start: np.ndarray

    def __len__(self) -> int:
        return len(self.vertex_start) - 1

    @property
    def volume(self) -> float:
        """Volume of all the regions together, from every simplex at once.

        region_integral takes each region's volume in bounded blocks.
        """
        return float(simplex_volumes(self.vertices[self.simplices]).sum())

    def totals(self, values: np.ndarray) -> np.ndarray:
        """A value per simplex summed over each region, as floats even with no simplices."""
        start = self.simplex_start
        owner = np.arange(len(start) - 1).repeat(start[1:] - start[:-1])
        return np.bincount(owner, values, minlength=len(self)).astype(float, copy=False)


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
    """Vertices of one region, in Qhull's order, and the halfspaces through each.

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


def hypercube_intersect(halfspaces: np.ndarray, point: np.ndarray) -> Intersection:
    """One Qhull intersection of halfspaces [a, b] (a . x + b <= 0) around a point inside them."""
    hs = HalfspaceIntersection(halfspaces, point)
    return Intersection(hs.intersections, hs.dual_facets)


def _region_intersection(halfspaces: np.ndarray, point, members: np.ndarray) -> Intersection:
    """A region's intersection around `point`, scaled into the cube, when Qhull accepts it.

    Otherwise around the least-distance x with a . x <= -1 for each of its
    halfspaces [a, 0] through the origin, likewise scaled (no x <= 1 binds
    it); with no such x the region is empty. A second Qhull failure raises.
    """
    m = halfspaces.shape[1] - 1
    try:
        if point is not None:
            with suppress(QhullError):
                return hypercube_intersect(halfspaces, point / (2.0 * point.max()))
        point = _interior_point(-halfspaces[:-m, :m])
        return Intersection(np.zeros((0, m)), []) if point is None else \
            hypercube_intersect(halfspaces, point / (2.0 * point.max()))
    except QhullError as exc:
        element = np.flatnonzero(members).tolist()
        raise DegenerateConeError(f"region of element {element}: {exc}") from exc


def _packed(on: np.ndarray) -> np.ndarray:
    """Rows of booleans, 64 per word, as the columns of an (n_words, n) uint64 array.

    Bit j of column i is on[i, j], low word first. Each word is one
    contiguous row, so an operation across a mask's words is a reduction
    over axis 0, vectorized across the masks.
    """
    words = np.packbits(on, axis=1, bitorder="little").view("<u8")
    return np.ascontiguousarray(words.T, dtype=np.uint64)


def polytope_facets(inters: list[Intersection]):
    """Every region's vertices, stacked, clipped and origin first, and its facet masks, packed.

    A facet is a non-redundant halfspace: an intersection around a strictly
    interior point is full-dimensional. Bit j of its mask is set for vertex
    j of its region on it. The masks are the columns of an (n_words, F)
    uint64 array, region by region, with the words the largest region needs;
    the number of each region's comes with them.
    """
    lists = [planes for inter in inters for planes in inter.incidence]
    sizes = np.array([len(inter) for inter in inters], dtype=np.intp)
    per_vertex = np.array([len(planes) for planes in lists], dtype=np.intp)
    planes = np.fromiter(itertools.chain.from_iterable(lists), np.intp, int(per_vertex.sum()))
    qhull = np.concatenate([inter.vertices for inter in inters])
    region = np.arange(len(inters)).repeat(sizes)
    # each region's origin, its one vertex with every coordinate below 1/2
    # (each other lies on a face x_j = 1), goes first; the rest keep their order
    order = np.lexsort((qhull.max(axis=1) >= 0.5, region))
    vertices = qhull[order].clip(0.0, 1.0)
    start = sizes.cumsum() - sizes
    vertices[start[sizes > 0]] = 0.0
    # each listed plane's vertex, its place in the new order, and its (region, plane) key
    vertex = (order.argsort() - start[region]).repeat(per_vertex)
    n_planes = int(planes.max(initial=-1)) + 1
    key = (region * n_planes).repeat(per_vertex) + planes
    # a (region, plane) pair that some vertex lists is a facet
    present = np.zeros(len(inters) * n_planes, dtype=bool)
    present[key] = True
    n_words = max(1, -(-int(sizes.max(initial=0)) // 64))
    on = np.zeros((int(present.sum()), 64 * n_words), dtype=bool)
    on[(present.cumsum() - 1)[key], vertex] = True
    return vertices, (_packed(on), present.reshape(len(inters), n_planes).sum(axis=1))


def _bit_counts(masks: np.ndarray) -> np.ndarray:
    """Number of set bits in each mask column."""
    n_words, n = masks.shape
    return np.add.reduce(_BYTE_BITS[masks.view(np.uint8)].reshape(n_words, n, 8), axis=(0, 2),
                         dtype=np.intp)


def _lowest_bit(masks: np.ndarray):
    """Index of each nonzero mask's lowest set bit, its word, and that word's bit alone."""
    word = (masks != 0).argmax(axis=0)
    w = masks[word, np.arange(masks.shape[1])]
    bit = w & -w
    # a power of two converts to float exactly, and frexp reads off its exponent
    return np.frexp(bit.astype(np.float64))[1] + (word * 64 - 1), word, bit


def _runs(starts: np.ndarray, counts: np.ndarray):
    """Indices starts[j] .. starts[j] + counts[j] - 1 for each j, and the j of each."""
    run = np.arange(len(counts)).repeat(counts)
    return (starts + counts - counts.cumsum())[run] + np.arange(len(run)), run


def _distinct(groups: np.ndarray, masks: np.ndarray):
    """An order that puts equal (group, mask) pairs together, and which entries start a pair."""
    order = np.lexsort((*masks[::-1], groups))
    g, r = groups[order], masks.take(order, axis=1)
    first = np.ones(len(order), dtype=bool)
    first[1:] = (g[1:] != g[:-1]) | (r[:, 1:] != r[:, :-1]).any(axis=0)
    return order, first


def _budget_error(budget: float) -> BudgetExceededError:
    return BudgetExceededError(f"triangulation passes its budget of {budget} simplices")


def _chain_error(m: int) -> DegenerateConeError:
    return DegenerateConeError(
        f"a pulled chain does not have {m + 1} vertices: the facets are not a face lattice")


def _next_level(faces: np.ndarray, tag: np.ndarray, paths: np.ndarray, lattice,
                budget: float, merge: bool):
    """One level of the pulling walk: the facets of each face that miss its lowest vertex.

    faces: (n_words, n) masks, each of polytope tag[i] and the end of
    paths[i] chain prefixes. lattice: every polytope's facet masks as
    columns, with the first column and the number of each polytope's, and
    the number of faces per chunk. Returns the pulled vertex of each face;
    for each (face, facet) edge, the face and the index of the facet among
    the next level's faces; and those faces, their polytopes and their
    prefix counts. With `merge` false each edge keeps a face of its own:
    merging finds nothing at the first level, where each face is a whole
    polytope with distinct facets, and saves nothing at the last, where
    every face is one chain.
    """
    masks, start, count, step = lattice
    low, word, bit = _lowest_bit(faces)
    edge_masks, edge_faces = [faces[:, :0]], [tag[:0]]
    reached = 0.0
    for a in range(0, len(tag), step):
        part = tag[a:a + step]
        src, face = _runs(start[part], count[part])
        face += a
        whole = faces.take(face, axis=1)
        cand = whole & masks.take(src, axis=1)
        proper = (cand.any(axis=0) & (cand != whole).any(axis=0)).nonzero()[0]
        face, cand = face[proper], cand.take(proper, axis=1)
        # each candidate g that misses the pulled vertex, against every
        # candidate h of its face: g is no facet of the face when it lies
        # strictly inside h, and only the first of equal candidates is kept
        per_face = np.bincount(face - a, minlength=len(part))
        is_facet = (cand[word[face], np.arange(len(face))] & bit[face]) == 0
        g = is_facet.nonzero()[0]
        h, run = _runs((per_face.cumsum() - per_face)[face[g] - a], per_face[face[g] - a])
        g = g[run]
        cg, ch = cand.take(g, axis=1), cand.take(h, axis=1)
        wider = (ch & ~cg).any(axis=0)
        is_facet[g[~(cg & ~ch).any(axis=0) & (wider | (h < g))]] = False
        kept = is_facet.nonzero()[0]
        edge_masks.append(cand.take(kept, axis=1))
        edge_faces.append(face[kept])
        reached += paths[face[kept]].sum()
        if reached > budget:
            raise _budget_error(budget)
    found, parent = np.concatenate(edge_masks, axis=1), np.concatenate(edge_faces)
    if not merge:
        return (low, parent, np.arange(len(parent))), found, tag[parent], paths[parent]
    order, first = _distinct(tag[parent], found)
    child = np.empty(len(order), dtype=np.intp)
    child[order] = first.cumsum() - 1
    faces = found.take(order[first], axis=1)
    return (low, parent, child), faces, tag[parent[order[first]]], \
        np.bincount(child, paths[parent], minlength=faces.shape[1])


def triangulate_polytope(facets: tuple[np.ndarray, np.ndarray], vertices: list[np.ndarray],
                         budget: float = math.inf):
    """Pulling triangulations of polytopes from their facet masks, all at once.

    facets: every polytope's facet masks, packed as polytope_facets returns
    them, and the number of each polytope's; vertices[i] holds polytope i's
    (k_i, m) vertices. Each face F is triangulated by joining its lowest
    vertex v to the triangulations of the facets of F that miss v (De Loera,
    Rambau & Santos, Triangulations, 2010); the facets of F are the
    inclusion-maximal nonempty proper sets F & S over its polytope's facet
    masks S. A simplex is then a chain of faces, from the polytope itself
    down to an edge, that pulls one vertex per face and both ends of the edge.

    The walk goes level by level over every polytope at once, starting from
    one face per nonempty polytope that holds all of its vertices. Each face
    is a column of uint64 words tagged by its polytope, matched against its
    polytope's masks in chunks sized by linalg.block_size, and found
    once per level however many faces share it. Each chain prefix reaching
    a d-face of k vertices ends in at least k - d simplices, the fewest that
    triangulate it, so BudgetExceededError is raised as soon as that sum
    passes `budget` on a level, or the prefixes themselves do while one is
    matched, before any chain is built; the prefixes reaching the last level
    are the simplices. The chains are then counted bottom-up and written
    top-down, one column per level. A face of one vertex above the last
    level, or a last-level face that is not an edge, raises
    DegenerateConeError: the masks are not a face lattice.

    Returns an (s, m+1) array of vertex indices, each row starting with 0,
    polytope by polytope, and the number of rows of each polytope.
    """
    masks, count = facets
    m = vertices[0].shape[1]
    sizes = np.array([len(v) for v in vertices], dtype=np.intp)
    n_words = masks.shape[0]
    tag = sizes.nonzero()[0]
    faces, paths = _packed(np.arange(64 * n_words) < sizes[tag, None]), np.ones(len(tag))
    lattice = (masks, count.cumsum() - count, count,
               block_size(n_words * int(count.max(initial=0))))
    levels = []  # per level: pulled vertex of each face, each edge's face and child
    for dim in range(m, 1, -1):
        bits = _bit_counts(faces)
        if (bits < 2).any():
            raise _chain_error(m)
        # a triangulation of a d-polytope with k vertices has k - d simplices or more
        if paths @ np.maximum(bits - dim, 1) > budget:
            raise _budget_error(budget)
        level, faces, tag, paths = _next_level(faces, tag, paths, lattice, budget, 2 < dim < m)
        levels.append(level)
    # the last level's faces are edges, one chain each, already counted in
    # their level: clear the lowest bit of each, then the next lowest, and
    # both must be there with nothing else set
    cols = np.arange(len(tag))
    low, word, bit = _lowest_bit(faces)
    faces[word, cols] ^= bit
    high, word, rest = _lowest_bit(faces)
    faces[word, cols] ^= rest
    if faces.any() or not (bit.all() and rest.all()):
        raise _chain_error(m)
    # chains below each face, bottom-up, then each level's column top-down:
    # a prefix's pulled vertex once per chain below its face
    below = [np.ones(len(tag), dtype=np.intp)]
    for pulled, parent, child in reversed(levels):
        below.append(np.bincount(parent, below[-1][child], minlength=len(pulled)).astype(np.intp))
    simplices = np.empty((int(paths.sum()), m + 1), dtype=np.int32)
    cur = np.arange(len(below[-1]))
    for j, (pulled, parent, child) in enumerate(levels):
        simplices[:, j] = pulled[cur].repeat(below[m - 1 - j][cur])
        deg = np.bincount(parent, minlength=len(pulled))
        cur = child[_runs((deg.cumsum() - deg)[cur], deg[cur])[0]]
    simplices[:, m - 1], simplices[:, m] = low[cur], high[cur]
    return simplices, np.bincount(tag[cur], minlength=len(sizes))


def build_region(table: AdjacentCones, budget: float = math.inf) -> Regions:
    """Intersect every adjacent cone of the table with the cube and triangulate them together.

    Region i's halfspaces, rows first[i]:first[i+1] of one stacked array, are
    its table rows (n . x <= 0), then x >= 0, then x <= 1; each is intersected
    around the lattice's interior point or, failing that, the least-distance
    point of its cone and orthant rows (_region_intersection). `budget` caps the
    simplices of all the regions (triangulate_polytope).
    """
    rows, start = table.rows, table.row_start
    n, m = len(start) - 1, rows.shape[1]
    first = start + 2 * m * np.arange(n + 1)
    halfspaces = np.insert(np.hstack([rows, np.zeros((len(rows), 1))]), start[1:].repeat(2 * m),
                           np.tile(_cube_halfspaces(m), (n, 1)), axis=0)
    inters = [_region_intersection(halfspaces[first[i]:first[i + 1]],
                                   None if table.on_face[i] else table.interior[i],
                                   table.members[i]) for i in range(n)]
    vertices, facets = polytope_facets(inters)
    simplices, counts = triangulate_polytope(facets, [inter.vertices for inter in inters], budget)
    vertex_start = np.add.accumulate([0] + [len(inter) for inter in inters])
    simplices += vertex_start[:-1].repeat(counts)[:, None]
    return Regions(vertices, simplices, vertex_start,
                   np.add.accumulate([0, *counts.tolist()]))


# the unit square on each far face x_j = 1 of the 3-cube, corners in cyclic
# order, closed by its first corner again
_FAR_SQUARES = np.array([[np.roll([1.0, a, b], j) for a, b in
                          ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))] for j in range(3)])


def _clip(polygons: np.ndarray, size: np.ndarray, normals: np.ndarray):
    """One Sutherland-Hodgman step on each polygon at once: its part where normal . x <= 0.

    polygons: (P, w, 3) convex polygons, polygon p's size[p] corners in
    cyclic order and then its first corner again. Each edge p -> q keeps p
    when p is inside, then adds the point where it crosses the line when p
    and q lie strictly on opposite sides (Sutherland & Hodgman, "Reentrant
    polygon clipping", 1974), so a corner on the line is kept once. A zero
    normal clips nothing. Returns the clipped polygons, closed the same
    way, and their sizes.
    """
    h = np.einsum("pwk,pk->pw", polygons, normals)
    hp, hq = h[:, :-1], h[:, 1:]
    edge = np.arange(hp.shape[1]) < size[:, None]
    keep = edge & (hp <= 0.0)
    cross = edge & (hp * hq < 0.0)
    # each edge writes its start, if kept, then its crossing, if any
    emit = keep.astype(np.intp) + cross
    slot = emit.cumsum(axis=1) - emit
    size = emit.sum(axis=1)
    clipped = np.zeros((len(h), int(size.max(initial=0)) + 1, 3))
    i, e = keep.nonzero()
    clipped[i, slot[i, e]] = polygons[i, e]
    i, e = cross.nonzero()
    p, q = polygons[i, e], polygons[i, e + 1]
    t = hp[i, e] / (hp[i, e] - hq[i, e])
    clipped[i, slot[i, e] + keep[i, e]] = p + t[:, None] * (q - p)
    clipped[np.arange(len(h)), size] = clipped[:, 0]
    return clipped, size


def fan_regions(table: AdjacentCones, budget: float = math.inf) -> Regions:
    """Every region of a 3-dimensional AdjacentCones table as fans from the origin, without Qhull.

    Every table row passes through the origin, so region R is the union of
    the pyramids from the origin over its sections R & {x_j = 1}: the cube
    faces through the origin bound no pyramid. Each section is the unit
    square on that face clipped by R's rows, one Sutherland-Hodgman step
    (_clip) per row index over every (region, face) pair at once, a region
    with fewer rows padded with zero rows. Each polygon is fanned from its
    first corner into triangles, each joined to the origin; the tetrahedra
    are counted against `budget` before any is built. Region i's vertices
    are its origin, then its polygons' corners, face by face.
    """
    rows, start = table.rows, table.row_start
    n = len(start) - 1
    count = np.diff(start)
    padded = np.zeros((n, int(count.max(initial=0)), 3))
    padded[np.arange(n).repeat(count), np.arange(len(rows)) - start[:-1].repeat(count)] = rows
    normals = padded.repeat(3, axis=0)
    polygons, size = np.tile(_FAR_SQUARES, (n, 1, 1)), np.full(3 * n, 4)
    for j in range(padded.shape[1]):
        polygons, size = _clip(polygons, size, normals[:, j])
    tets = np.maximum(size - 2, 0)
    if tets.sum() > budget:
        raise _budget_error(budget)
    # region i's origin, then its polygons' corners, face by face
    before = size.cumsum() - size
    region = np.arange(n).repeat(3)
    first = before + region + 1
    vertex_start = np.append(first[::3] - 1, n + size.sum())
    corners = polygons[np.arange(polygons.shape[1]) < size[:, None]]
    vertices = np.insert(corners, before[::3], 0.0, axis=0)
    corner, pair = _runs(first + 1, tets)
    simplices = np.column_stack([vertex_start[region[pair]], first[pair], corner, corner + 1])
    return Regions(vertices, simplices, vertex_start,
                   np.add.accumulate([0, *tets.reshape(n, 3).sum(axis=1).tolist()]))

