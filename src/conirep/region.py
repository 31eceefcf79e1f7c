"""Regions: adjacent cone clipped to the unit hypercube, then triangulated.

A region is the polytope {x : n . x <= 0 for each facet row n of the
adjacent cone, 0 <= x <= 1}. hypercube_intersect clips every region of an
AdjacentCones table out of the cube at once, one double-description step
per row index (Motzkin, Raiffa, Thompson & Thrall 1953): each region starts
as the cube's 2^m vertices, origin first, each with a bitmask of the facets
through it, and each row drops the vertices outside it, marks those on it
and adds the point where each (in, out) edge crosses it: no interior point
or Qhull call is needed. polytope_facets turns the masks into one vertex
bitmask per facet, and one pulling triangulation walks every region's face
lattice, level by level in arrays of packed bitmasks, counting simplices
before any is built; the regions come stacked in one Regions. The walk
pulls the origin first, the apex of every adjacent cone and vertex 0 of
every region: it lies on every facet but the cube's far faces x_j = 1, so
only those reach the second level.

Each region is therefore the union of the pyramids from the origin over its
sections with the far faces, and at m = 3, where a section is a polygon,
fan_regions builds them directly: the unit square on each far face clipped
by the region's rows, every (region, face) pair at once, fanned from the
origin, with no walk; there it is faster than the clip. build_region serves
m >= 4, and evaluate takes m = 2 in closed form: this module serves m >= 3.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import TOL_MEMBER, AdjacentCones
from .errors import BudgetExceededError, DegenerateConeError
# gram_schmidt is not used here; bench/tracer.py counts calls through this name
from .linalg import _runs, block_size, gram_schmidt, simplex_volumes  # noqa: F401
# not used here; bench/tracer.py wraps conirep.region.nnls
from .nnls import nnls  # noqa: F401

# Simplices all the regions of one call may hold, counted before any is built.
MAX_SIMPLICES = 1_000_000


@dataclass(frozen=True)
class Regions:
    """Regions of some adjacent cones, stacked, each with its triangulation.

    Region i owns the rows vertex_start[i]:vertex_start[i+1] of vertices
    (k, m), its origin first. simplices (s, m+1) holds indices into
    `vertices`, and each simplex belongs to the region of its first vertex.
    """

    vertices: np.ndarray
    simplices: np.ndarray
    vertex_start: np.ndarray

    def __len__(self) -> int:
        return len(self.vertex_start) - 1

    @property
    def volume(self) -> float:
        """Volume of all the regions together, from every simplex at once.

        region_integral takes each region's volume in bounded blocks.
        """
        return float(simplex_volumes(self.vertices[self.simplices]).sum())


def _packed(on: np.ndarray) -> np.ndarray:
    """Rows of booleans, 64 per word, as the columns of an (n_words, n) uint64 array.

    Bit j of column i is on[i, j], low word first. Each word is one
    contiguous row, so an operation across a mask's words is a reduction
    over axis 0, vectorized across the masks.
    """
    words = np.packbits(on, axis=1, bitorder="little").view("<u8")
    return np.ascontiguousarray(words.T, dtype=np.uint64)


def _bit_counts(masks: np.ndarray) -> np.ndarray:
    """Number of set bits in each mask column."""
    return np.bitwise_count(masks).sum(axis=0, dtype=np.intp)


def _lowest_bit(masks: np.ndarray):
    """Index of each nonzero mask's lowest set bit, its word, and that word's bit alone."""
    word = (masks != 0).argmax(axis=0)
    w = masks[word, np.arange(masks.shape[1])]
    bit = w & -w
    # bit - 1 sets exactly the bits below the lowest, so their count is its index
    return np.bitwise_count(bit - np.uint64(1)) + 64 * word, word, bit


def _blocks(weights: np.ndarray, words: int):
    """Consecutive slices (a, b) of items, each weighing block_size(words) at most or one item."""
    ends, limit, a = weights.cumsum(), block_size(words), 0
    while a < len(weights):
        b = max(a + 1, int(np.searchsorted(ends, (ends[a - 1] if a else 0) + limit, "right")))
        yield a, b
        a = b


@dataclass(frozen=True)
class Clip:
    """Every region of an AdjacentCones table clipped out of the cube, stacked.

    Region i owns vertices[vertex_start[i]:vertex_start[i+1]], origin first,
    and their columns of masks, (n_words, k) uint64: a vertex's bits j, m + j
    and 2m + r are set when it lies on x_j = 0, on x_j = 1 and on the
    region's row r. facets: each region's 2m + (nonzero rows) facet bits.
    len() is k.
    """

    vertices: np.ndarray
    masks: np.ndarray
    vertex_start: np.ndarray
    facets: np.ndarray

    def __len__(self) -> int:
        return len(self.vertices)


def _cut(vertices: np.ndarray, masks: np.ndarray, size: np.ndarray, normals: np.ndarray,
         facet: int):
    """One double-description step on each region at once: its part where normal . x <= 0.

    Region i holds the next size[i] vertices and their mask columns, and is
    cut by normals[i], facet bit `facet`; a zero normal cuts and marks
    nothing. A vertex with h = normal . x above TOL_MEMBER is out and goes;
    one within it of 0 is on and gains the bit. Each (in, out) pair of a
    region that is an edge adds its crossing point, on the pair's common
    facets and this one. A pair is an edge when it shares m - 1 facets or
    more and either end is on exactly m, or else when no third vertex of the
    region holds all its common facets (the combinatorial test: Fukuda &
    Prodon, "Double description method revisited", 1996). Pairs are screened
    in blocks sized by linalg.block_size. Returns the new vertices, masks and
    sizes, each region's kept vertices in their order, then its new ones.
    """
    m = vertices.shape[1]
    region = np.arange(len(size)).repeat(size)
    h = np.einsum("ij,ij->i", vertices, normals[region])
    word, bit = facet // 64, np.uint64(1 << facet % 64)
    out = h > TOL_MEMBER
    masks[word, ~out & (h >= -TOL_MEMBER) & normals.any(axis=1)[region]] |= bit
    inner, outer = (h < -TOL_MEMBER).nonzero()[0], out.nonzero()[0]
    n_out = np.bincount(region[outer], minlength=len(size))
    per_in = n_out[region[inner]]
    bits, first = _bit_counts(masks), size.cumsum() - size
    made_vertices, made_masks, made_region = [vertices[~out]], [masks[:, ~out]], [region[~out]]
    for a, b in _blocks(per_in, masks.shape[0]):
        q, run = _runs((n_out.cumsum() - n_out)[region[inner[a:b]]], per_in[a:b])
        p, q = inner[a:b][run], outer[q]
        common = masks.take(p, axis=1) & masks.take(q, axis=1)
        pair = (_bit_counts(common) >= m - 1).nonzero()[0]
        p, q, common = p[pair], q[pair], common.take(pair, axis=1)
        # the other pairs are edges when only their two ends hold all their common facets
        check, edge = ((bits[p] != m) & (bits[q] != m)).nonzero()[0], np.ones(len(p), dtype=bool)
        for c, d in _blocks(size[region[p[check]]], masks.shape[0]):
            owner = region[p[check[c:d]]]
            vertex, run = _runs(first[owner], size[owner])
            held = ~(common[:, check[c:d]].take(run, axis=1) & ~masks.take(vertex, axis=1)).any(0)
            edge[check[c:d]] = np.bincount(run, held, minlength=d - c) == 2
        p, q, common = p[edge], q[edge], common.take(edge.nonzero()[0], axis=1)
        t = h[p] / (h[p] - h[q])
        made_vertices.append(vertices[p] + t[:, None] * (vertices[q] - vertices[p]))
        common[word] |= bit
        made_masks.append(common)
        made_region.append(region[p])
    region = np.concatenate(made_region)
    order = region.argsort(kind="stable")
    return np.concatenate(made_vertices)[order], \
        np.concatenate(made_masks, axis=1).take(order, axis=1), \
        np.bincount(region, minlength=len(size))


def hypercube_intersect(table: AdjacentCones) -> Clip:
    """Every region of the table clipped out of the unit cube, one _cut per row index.

    Each region starts as the cube's 2^m vertices, origin first, and row j
    of every region cuts all of them at once, the rows read as the table
    stores them: a region with fewer rows is padded with zero rows, which
    cut nothing. Every row passes through the origin, which is never cut. A
    region with m vertices or fewer, or whose vertices share a facet, is
    flat or empty and keeps none. Each region's vertices then go by
    descending count of row facets, which keeps the origin, on every row,
    first.
    """
    n, k, m = table.rows.shape
    corner = (np.arange(2 ** m)[:, None] >> np.arange(m) & 1).astype(bool)
    on = np.zeros((2 ** m, 64 * -(-(2 * m + k) // 64)), dtype=bool)
    on[:, :m], on[:, m:2 * m] = ~corner, corner
    vertices, size = np.tile(corner.astype(float), (n, 1)), np.full(n, 2 ** m)
    masks = np.tile(_packed(on), n)
    for j in range(k):
        vertices, masks, size = _cut(vertices, masks, size, table.rows[:, j], 2 * m + j)
    first = size.cumsum() - size
    size[np.bitwise_and.reduceat(masks, first, axis=1).any(axis=0) | (size <= m)] = 0
    index, run = _runs(first, size)
    row_bits = _bit_counts(masks.take(index, axis=1) & ~_packed(on[:1] | on[-1:]))
    index = index[np.lexsort((-row_bits, run))]
    return Clip(vertices[index], masks.take(index, axis=1), np.concatenate([[0], size.cumsum()]),
                2 * m + table.rows.any(axis=2).sum(axis=1))


def polytope_facets(clip: Clip):
    """Each region's facet masks, packed for the walk, and the number of each region's.

    Facet bit b of a region becomes the mask of its vertices on it, bit j
    for its vertex j. A mask of fewer than m vertices is no facet and goes;
    one inside another stays, as the walk keeps each face's inclusion-maximal
    masks. The masks are the columns of an (n_words, F) uint64 array, region
    by region, with the words the largest region needs.
    """
    start, facets = clip.vertex_start, clip.facets
    sizes = np.diff(start)
    region = np.arange(len(sizes)).repeat(sizes)
    vertex, bit = np.unpackbits(np.ascontiguousarray(clip.masks.T).view(np.uint8), axis=1,
                                bitorder="little").nonzero()
    on = np.zeros((int(facets.sum()), 64 * max(1, -(-int(sizes.max(initial=0)) // 64))), bool)
    on[(facets.cumsum() - facets)[region[vertex]] + bit, vertex - start[region[vertex]]] = True
    wide = on.sum(axis=1) >= clip.vertices.shape[1]
    owner = np.arange(len(facets)).repeat(facets)[wide]
    return _packed(on[wide]), np.bincount(owner, minlength=len(facets))


def _distinct(groups: np.ndarray, masks: np.ndarray):
    """An order that puts equal (group, mask) pairs together, and which entries start a pair."""
    order = np.lexsort((*masks[::-1], groups))
    g, r = groups[order], masks.take(order, axis=1)
    first = np.ones(len(order), dtype=bool)
    first[1:] = (g[1:] != g[:-1]) | (r[:, 1:] != r[:, :-1]).any(axis=0)
    return order, first


def _budget_error() -> BudgetExceededError:
    return BudgetExceededError(f"triangulation passes its budget of {MAX_SIMPLICES} simplices")


def _chain_error(m: int) -> DegenerateConeError:
    return DegenerateConeError(
        f"a pulled chain does not have {m + 1} vertices: the facets are not a face lattice")


def _next_level(faces: np.ndarray, tag: np.ndarray, paths: np.ndarray, lattice, merge: bool):
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
        if reached > MAX_SIMPLICES:
            raise _budget_error()
    found, parent = np.concatenate(edge_masks, axis=1), np.concatenate(edge_faces)
    if not merge:
        return (low, parent, np.arange(len(parent))), found, tag[parent], paths[parent]
    order, first = _distinct(tag[parent], found)
    child = np.empty(len(order), dtype=np.intp)
    child[order] = first.cumsum() - 1
    faces = found.take(order[first], axis=1)
    return (low, parent, child), faces, tag[parent[order[first]]], \
        np.bincount(child, paths[parent], minlength=faces.shape[1])


def triangulate_polytope(facets: tuple[np.ndarray, np.ndarray], vertices: np.ndarray,
                         vertex_start: np.ndarray) -> np.ndarray:
    """Pulling triangulations of polytopes from their facet masks, all at once.

    facets: every polytope's facet masks, packed as polytope_facets returns
    them, and the number of each polytope's; polytope i's vertices are the
    rows vertex_start[i]:vertex_start[i+1] of the (k, m) `vertices`, of
    which only the counts and m are read. Each face F is triangulated by
    joining its lowest vertex v to the triangulations of the facets of F
    that miss v (De Loera, Rambau & Santos, Triangulations, 2010); the
    facets of F are the inclusion-maximal nonempty proper sets F & S over
    its polytope's facet masks S. A simplex is then a chain of faces, from
    the polytope itself down to an edge, that pulls one vertex per face and
    both ends of the edge.

    The walk goes level by level over every polytope at once, starting from
    one face per nonempty polytope that holds all of its vertices. Each face
    is a column of uint64 words tagged by its polytope, matched against its
    polytope's masks in chunks sized by linalg.block_size, and found
    once per level however many faces share it. Each chain prefix reaching
    a d-face of k vertices ends in at least k - d simplices, the fewest that
    triangulate it, so BudgetExceededError is raised as soon as that sum
    passes MAX_SIMPLICES on a level, or the prefixes themselves do while one is
    matched, before any chain is built; the prefixes reaching the last level
    are the simplices. The chains are then counted bottom-up and written
    top-down, one column per level. A face of one vertex above the last
    level, or a last-level face that is not an edge, raises
    DegenerateConeError: the masks are not a face lattice.

    Returns an (s, m+1) array of rows of `vertices`, polytope by polytope,
    each row starting with its polytope's first vertex: a simplex belongs to
    the polytope of its first vertex.
    """
    masks, count = facets
    m = vertices.shape[1]
    sizes = np.diff(vertex_start)
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
        if paths @ np.maximum(bits - dim, 1) > MAX_SIMPLICES:
            raise _budget_error()
        level, faces, tag, paths = _next_level(faces, tag, paths, lattice, 2 < dim < m)
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
    simplices += vertex_start[tag[cur], None]
    return simplices


def build_region(table: AdjacentCones) -> Regions:
    """Clip every adjacent cone of the table out of the cube and triangulate them together.

    Each simplex starts at its region's origin. MAX_SIMPLICES caps the
    simplices of all the regions (triangulate_polytope).
    """
    clip = hypercube_intersect(table)
    return Regions(clip.vertices,
                   triangulate_polytope(polytope_facets(clip), clip.vertices, clip.vertex_start),
                   clip.vertex_start)


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


def fan_regions(table: AdjacentCones) -> Regions:
    """Every region of a 3-dimensional AdjacentCones table as fans from the origin, without Qhull.

    Every table row passes through the origin, so region R is the union of
    the pyramids from the origin over its sections R & {x_j = 1}: the cube
    faces through the origin bound no pyramid. Each section is the unit
    square on that face clipped by R's rows, one Sutherland-Hodgman step
    (_clip) per row index over every (region, face) pair at once, the rows
    read as the table stores them: a region with fewer rows is padded with
    zero rows, which clip nothing. Each polygon is fanned from its first
    corner into triangles, each joined to the origin; the tetrahedra are
    counted against MAX_SIMPLICES before any is built. Region i's vertices
    are its origin, then its polygons' corners, face by face.
    """
    n, k, _ = table.rows.shape
    normals = table.rows.repeat(3, axis=0)
    polygons, size = np.tile(_FAR_SQUARES, (n, 1, 1)), np.full(3 * n, 4)
    for j in range(k):
        polygons, size = _clip(polygons, size, normals[:, j])
    tets = np.maximum(size - 2, 0)
    if tets.sum() > MAX_SIMPLICES:
        raise _budget_error()
    # region i's origin, then its polygons' corners, face by face
    before = size.cumsum() - size
    region = np.arange(n).repeat(3)
    first = before + region + 1
    vertex_start = np.append(first[::3] - 1, n + size.sum())
    corners = polygons[np.arange(polygons.shape[1]) < size[:, None]]
    vertices = np.insert(corners, before[::3], 0.0, axis=0)
    corner, pair = _runs(first + 1, tets)
    simplices = np.column_stack([vertex_start[region[pair]], first[pair], corner, corner + 1])
    return Regions(vertices, simplices, vertex_start)

