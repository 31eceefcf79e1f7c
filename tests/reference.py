"""Independent geometry the tests check the pipeline against.

The pipeline takes facet normals from Qhull's hull equations, or from the
inverse of a simplicial cone's rays, never asks
whether a point lies in a cone, reads a region's vertex-facet incidence off
Qhull's halfspace intersection, puts every region's origin first in one
pass over all their vertices, triangulates every region of a call in one
level-by-level walk over packed masks, builds every adjacent cone into one
stacked table with no step per element, integrates whole blocks of regions
at once, merges collinear columns from one Gram matrix, reads the extreme
rays off one hull, and forms the face bases in stacks by ray count. These
references compute each of them another way: facet normals by cofactor
expansion over the facet's rays, a simplicial cone's planes from a Qhull
hull, cone membership by an NNLS fit against
the generators, incidence by a distance test against the facets of a
convex hull, each region's origin by a scan of its own incidence, the
triangulation of one polytope at a time by a memoized recursion on its
faces, one adjacent cone at a time by scanning the lattice, and the whole
lattice by the pass the table replaced (a set closure, a Hasse scan per
element and one object per element), the integral over one stack of
simplices with one basis, the dedup by a greedy loop over the columns, the
extreme rays by an NNLS fit of each unit ray against all the others, and
one basis at a time by a loop of Gram-Schmidt steps. The quadrature grid
decodes its flat indices as float64 digits; the reference decodes them in
int64 arithmetic. For `ir` itself, the Richardson extrapolation of two
midpoint-quadrature grids needs no geometry at all, and at m = 2 the exact
value of any matrix comes in rational arithmetic from the square
clipped by each extreme ray's half-plane, and at m = 3 that of any
full-rank matrix from each region's simplicial cone, clipped on the cube's
far faces and fanned from the origin.
"""

from fractions import Fraction
from math import comb

import numpy as np
from scipy.spatial import ConvexHull

from conirep.cone import DEDUP_DOT, TOL_MEMBER, AdjacentCone, AdjacentCones, Cone
from conirep.errors import DegenerateConeError
from conirep.linalg import TOL_GEOM, gram_schmidt
from conirep.nnls import nnls
from conirep.oracle import ir_num


def normal_vector(vectors) -> np.ndarray:
    """Unit vector orthogonal to m-1 independent vectors in dimension m.

    Computed by cofactor expansion of the determinant along the missing row,
    so it generalizes the cross product. The orientation is arbitrary;
    callers fix the sign. Raises ValueError when the inputs do not span an
    (m-1)-dimensional subspace.
    """
    A = np.asarray(vectors, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] - 1:
        raise ValueError(f"expected m-1 vectors of dimension m, got shape {A.shape}")
    m = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("normal_vector input contains a zero vector")
    A = A / norms[:, None]
    n = np.empty(m)
    sign = 1.0
    for i in range(m):
        n[i] = sign * np.linalg.det(np.delete(A, i, axis=1))
        sign = -sign
    nrm = np.linalg.norm(n)
    # for unit inputs the cofactor norm equals the spanned (m-1)-volume
    if nrm <= TOL_GEOM:
        raise ValueError("normal_vector inputs are rank-deficient")
    return n / nrm


def simplicial_halfspaces_by_hull(points):
    """cone_halfspaces of r independent points in R^r, read off a Qhull hull.

    The hull of the origin and the points is a simplex: every point is
    extreme, and each equation through the origin is the facet of every
    point but the one farthest from its plane. Returns (extreme, facets,
    normals) in cone_halfspaces' order, where the facet leaving out the last
    point comes first.
    """
    r = len(points)
    eq = ConvexHull(np.vstack([np.zeros(r), points])).equations
    planes = eq[np.abs(eq[:, -1]) < TOL_GEOM, :-1]
    left_out = np.abs(planes @ points.T).argmax(axis=1)
    order = np.argsort(-left_out)
    return list(range(r)), ~np.eye(r, dtype=bool)[left_out[order]], planes[order]


def facet_sets(cone: Cone) -> tuple[frozenset, ...]:
    """The cone's facets as ray-index sets, in facet order."""
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in cone.facets)


def facet_normal_outward(facet: frozenset, cone: Cone) -> np.ndarray:
    """Unit normal of a facet, oriented away from the cone.

    Orthogonal to every facet ray; nonpositive dot product with every other
    ray. If no ray leaves the facet's span the orientation is undecidable,
    which means the cone is rank-deficient.
    """
    idx = sorted(facet)
    basis = gram_schmidt(cone.rays[idx])
    m = cone.dim
    if basis.shape[1] != m - 1:
        raise DegenerateConeError(f"facet {idx} does not span dimension {m - 1}")
    n = normal_vector(basis.T)
    dots = cone.rays @ n
    pivot = int(np.argmax(np.abs(dots)))
    if abs(dots[pivot]) <= TOL_GEOM:
        raise DegenerateConeError("all rays lie in the facet span; cone is rank-deficient")
    if dots[pivot] > 0:
        n = -n
        dots = -dots
    if np.any(dots > TOL_GEOM):
        raise DegenerateConeError("facet normal cannot be oriented away from all rays")
    return n


def cone_contains(point, generators, tol_member: float = TOL_MEMBER) -> bool:
    """True when the point is a conical combination of the generator rows."""
    G = np.asarray(generators, dtype=float)
    _, rnorm = nnls(G.T, np.asarray(point, dtype=float))
    return rnorm < tol_member


def facet_masks(vertices) -> list[int]:
    """One vertex bitmask per facet of the convex hull of `vertices`.

    Every input point must be a vertex of the hull; bit j is set when
    vertex j lies within TOL_GEOM of the facet's plane. The triangles Qhull
    splits a non-simplicial facet into share one plane, so they give one mask.
    """
    V = np.asarray(vertices, dtype=float)
    eq = ConvexHull(V).equations
    on = np.packbits(np.abs(eq[:, :-1] @ V.T + eq[:, -1:]) < TOL_GEOM, axis=1, bitorder="little")
    return sorted({int.from_bytes(row.tobytes(), "little") for row in on})


def packed_facets(facets: list[list[int]], vertices):
    """Lists of facet bitmasks, one per polytope, packed as polytope_facets packs them.

    The masks become the columns of an (n_words, F) uint64 array, low word
    first, with as many words as the polytope of most vertices needs; then
    the number of facets of each polytope.
    """
    n_words = max(1, -(-max(len(v) for v in vertices) // 64))
    words = [[g >> s & (1 << 64) - 1 for s in range(0, 64 * n_words, 64)]
             for masks in facets for g in masks]
    return np.array(words, dtype=np.uint64).reshape(-1, n_words).T.copy(), \
        np.array([len(masks) for masks in facets])


def stack_vertices(sets):
    """Vertex sets stacked as triangulate_polytope takes them: (vertices, vertex_start)."""
    return np.concatenate(sets), np.cumsum([0] + [len(v) for v in sets])


def triangulate_by_recursion(facets: list[int], vertices) -> np.ndarray:
    """Pulling triangulation of one polytope by a memoized recursion on its faces.

    Each face F, a vertex bitmask, is triangulated by joining its lowest
    vertex v to the triangulations of the facets of F that miss v; the
    facets of F are the inclusion-maximal nonempty proper sets F & S over the
    facet masks S. Returns an (s, m+1) array of vertex indices, or raises
    DegenerateConeError when a chain does not have m + 1 vertices.
    """
    m = np.shape(vertices)[1]
    memo: dict[int, list[tuple[int, ...]]] = {}

    def pull(face: int) -> list[tuple[int, ...]]:
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
        return rows

    rows = pull((1 << len(vertices)) - 1) if facets else []
    if any(len(r) != m + 1 for r in rows):
        raise DegenerateConeError(f"a pulled chain does not have {m + 1} vertices")
    return np.array(rows, dtype=int).reshape(-1, m + 1)


def adjacent_cone_by_element(element: frozenset, cone: Cone,
                             table: AdjacentCones) -> AdjacentCone:
    """Adjacent cone of one lattice element, its faces found by scanning the lattice.

    The rows are those cone_sub_elements writes, one element at a time: for
    each (d-1)-face E' of the element E (the apex when d = 1), Q Q^T of the
    summed outward normals of the facets containing E' but not E; for each
    (d+1)-face G containing E (the whole cone when d = r-1 at rank r = m),
    the part orthogonal to span(E) of the summed rays of G outside E. The
    lattice's elements by dimension come from `table`.
    """
    element = frozenset(element)
    rays = cone.rays[sorted(element)]
    basis = gram_schmidt(rays)
    elements, facets = table.elements, facet_sets(cone)
    d = next(k for k, faces in elements.items() if element in faces)
    m, k = cone.dim, len(cone.rays)
    incident = np.array([element <= f for f in facets])
    below = ([f for f in elements[d - 1] if f < element] if d > 1
             else [frozenset()])
    above = [f for f in elements.get(d + 1, [frozenset(range(k))]) if element < f]
    leaving = np.array([[sub <= f for f in facets] for sub in below]) & ~incident
    outer = np.array([[i in sup and i not in element for i in range(k)]
                      for sup in above], dtype=bool).reshape(-1, k)
    rows = np.vstack([leaving @ cone.normals @ basis @ basis.T,
                      (outer @ cone.rays) @ (np.eye(m) - basis @ basis.T)])
    return AdjacentCone(
        element=element,
        element_rays=rays,
        normals=cone.normals[incident],
        basis=basis,
        facet_normals=rows / np.linalg.norm(rows, axis=1, keepdims=True),
    )


def lattice_by_element_scan(cone: Cone) -> list[AdjacentCone]:
    """Every element's adjacent cone, one object each, in lattice order.

    The lattice pass the stacked table replaced: the facets closed under
    intersection as Python sets, each face's basis from gram_schmidt on its
    rays alone, the elements sorted by (dimension, sorted rays), and each
    element's faces one dimension below found by scanning E & F over the
    facets F not containing it. The rows are formed, over all the Hasse
    edges at once, by the same products as cone_sub_elements, so they and
    the bases must match the table bit for bit. At rank
    r < m the whole cone comes last.
    """
    rays, normals, m, r = cone.rays, cone.normals, cone.dim, cone.cone_rank
    facets = facet_sets(cone)
    all_faces, frontier = set(facets), set(facets)
    while frontier:
        frontier = {e & f for f in facets for e in frontier} - all_faces - {frozenset()}
        all_faces |= frontier
    bases = {e: gram_schmidt(rays[sorted(e)]) for e in all_faces}
    flat = sorted((e for e in all_faces if 1 <= bases[e].shape[1] < r),
                  key=lambda e: (bases[e].shape[1], sorted(e)))
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

    def project(vectors, stack):
        return ((vectors[:, None, :] @ stack) @ stack.transpose(0, 2, 1))[:, 0]

    up, down = hi != whole, lo != apex
    leaving = (incident[lo[up]] & ~incident[hi[up]]) @ normals
    outer = (member[hi[down]] & ~member[lo[down]]) @ rays
    rows = np.vstack([project(leaving, B[hi[up]]), outer - project(outer, B[lo[down]])])
    owner = np.concatenate([hi[up], lo[down]])
    rows = rows[np.argsort(owner, kind="stable")]
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows = np.split(rows, np.cumsum(np.bincount(owner, minlength=len(flat)))[:-1])
    adjs = [AdjacentCone(element=e, element_rays=rays[sorted(e)], normals=normals[incident[i]],
                         basis=bases[e], facet_normals=rows[i])
            for i, e in enumerate(flat)]
    if r < m:
        adjs.append(AdjacentCone(
            element=frozenset(range(len(rays))), element_rays=rays, normals=np.zeros((0, m)),
            basis=gram_schmidt(rays), facet_normals=normals))
    return adjs


def simplex_integrals(points, vol: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Integrals of the squared distance to span(basis) over a stack of simplices.

    `points` is (s, m+1, m) and `vol` their (s,) volumes. Over a simplex S,
    the integral of a quadratic q is vol(S) / C(m+2, 2) times the sum over
    vertex pairs l1 <= l2 of its bilinear form, which is (q(sum of the
    vertices) + sum of q(vertex)) / 2. Zero-volume simplices give 0, and
    each value is clamped at 0.
    """
    P = np.asarray(points, dtype=float)
    m = P.shape[2]

    def q(X):
        val = np.einsum("...k,...k->...", X, X)
        if basis.size:
            c = X @ basis
            val -= np.einsum("...k,...k->...", c, c)
        return val

    pair_sum = (q(P.sum(axis=1)) + q(P).sum(axis=1)) / 2.0
    return np.where(vol == 0.0, 0.0, np.maximum(vol / comb(m + 2, 2) * pair_sum, 0.0))


def gram_schmidt_by_loop(rays) -> np.ndarray:
    """Reference Gram-Schmidt for one ray set: one Python step per ray pair.

    Two projection passes per ray over the columns kept so far; a ray whose
    residual is below TOL_GEOM relative to its own norm adds no column.
    """
    rays = np.asarray(rays, dtype=float)
    cols = []
    for r in rays:
        v = r.copy()
        scale = np.sqrt(v @ v)
        for _ in range(2):
            for q in cols:
                v -= (q @ v) * q
        norm = np.sqrt(v @ v)
        if norm > TOL_GEOM * max(scale, 1.0):
            cols.append(v / norm)
    return np.stack(cols, axis=1) if cols else np.zeros((rays.shape[1], 0))


def unit_dedup_by_loop(columns):
    """Reference dedup: one dot product per (column, representative) pair."""
    units, origins = [], []
    for j in range(columns.shape[1]):
        col = columns[:, j]
        if not col.any():
            continue
        u = col / col.max()
        u = u / np.linalg.norm(u)
        for k, v in enumerate(units):
            if u @ v > DEDUP_DOT:
                origins[k].append(j)
                break
        else:
            units.append(u)
            origins.append([j])
    return units, origins


def origins_by_fitting_every_unit(C):
    """Reference extreme rays: the origins of each unit ray not fitted by the others.

    A unit ray is extreme when an NNLS fit by all the other unit rays leaves
    a residual of at least TOL_GEOM. Returns the sorted origin tuples.
    """
    units, origins = unit_dedup_by_loop(np.asarray(C, dtype=float))
    U = np.stack(units, axis=1)
    keep = [i for i in range(len(units))
            if len(units) == 1 or nnls(np.delete(U, i, axis=1), U[:, i])[1] >= TOL_GEOM]
    return sorted(tuple(origins[i]) for i in keep)


def grid_chunk_by_int_digits(m: int, n: int, start: int, stop: int) -> np.ndarray:
    """Midpoints for flat grid indices [start, stop), first coordinate slowest,
    decoded one int64 digit at a time."""
    idx = np.arange(start, stop, dtype=np.int64)
    pts = np.empty((m, stop - start))
    for axis in range(m - 1, -1, -1):
        pts[axis] = ((idx % n) + 0.5) / n
        idx //= n
    return pts


def richardson(C, n1: int, n2: int) -> float:
    """ir by Richardson extrapolation of the midpoint rule on N1^m and N2^m grids.

    The integrand dist^2(x, K) has a Lipschitz gradient, so the midpoint rule
    at h = 1/N errs by c h^2 + o(h^2) (the Euler-Maclaurin expansion of the
    product midpoint rule; Davis & Rabinowitz, Methods of Numerical
    Integration, 1984). (N2^2 q2 - N1^2 q1) / (N2^2 - N1^2) cancels the h^2
    term.
    """
    q1, q2 = ir_num(C, n1).ir_num, ir_num(C, n2).ir_num
    return (n2 ** 2 * q2 - n1 ** 2 * q1) / (n2 ** 2 - n1 ** 2)


def _clip(polygon, a):
    """The part of a convex polygon where a . x >= 0: one Sutherland-Hodgman step."""
    out = []
    for p, q in zip(polygon, polygon[1:] + polygon[:1]):
        hp, hq = _dot(a, p), _dot(a, q)
        if hp >= 0:
            out.append(p)
        if hp * hq < 0:
            t = hp / (hp - hq)
            out.append(tuple(x + t * (y - x) for x, y in zip(p, q)))
    return out


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def exact_wedge_ir(C):
    """ir and output volume of a 2 x n matrix, exactly, as two Fractions.

    The cone of the nonzero columns lies between its steepest column s and
    its flattest f (the same column at rank 1). With l_c(x) = c⊥ . x, where
    c⊥ = (-c_y, c_x), the points of the unit square nearest to ray s, off
    the cone, are those with l_s(x) >= 0, and those nearest to f are those
    with l_f(x) <= 0; on either the squared distance is l_c(x)^2 / |c|^2.
    Each region is the square clipped by that half-plane, and l^2 integrates
    over a triangle (0, v, w) to its signed area det(v, w) / 2 times
    (l(v)^2 + l(v) l(w) + l(w)^2) / 6, summed over the region's edges.
    Each entry is read as a Fraction, exact for an integer or any float, so
    every clipped vertex, area and value is rational. An all-zero matrix has
    ir = 2/3 and no output volume.
    """
    cols = [(Fraction(x), Fraction(y)) for x, y in np.asarray(C).T.tolist() if x or y]
    if not cols:
        return Fraction(2, 3), Fraction(0)
    share = [x / (x + y) for x, y in cols]
    steep, flat = cols[share.index(min(share))], cols[share.index(max(share))]
    square = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
              (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))]
    ir = covered = Fraction(0)
    for (cx, cy), side in ((steep, 1), (flat, -1)):
        region = _clip(square, (-side * cy, side * cx))
        for v, w in zip(region, region[1:] + region[:1]):
            area = (v[0] * w[1] - v[1] * w[0]) / 2
            lv, lw = cx * v[1] - cy * v[0], cx * w[1] - cy * w[0]
            covered += area
            ir += area * (lv * lv + lv * lw + lw * lw) / 6 / (cx * cx + cy * cy)
    return ir, 1 - covered


def _pyramids(halfspaces, qb):
    """Volume and integral of a quadratic over a cone's part of the unit cube, exactly.

    The cone {x : h . x >= 0 for h in halfspaces} meets the cube in the
    pyramids from the origin over its sections x_j = 1, each the face's
    unit square clipped by every halfspace and fanned into triangles. A
    quadratic q with bilinear form qb integrates over a tetrahedron with a
    vertex at the origin to its volume / 10 times the sum of qb over the
    pairs of its other vertices, each vertex paired with itself too.
    """
    square = [tuple(map(Fraction, p)) for p in ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1))]
    volume = value = Fraction(0)
    for j in range(3):
        polygon = [p[3 - j:] + p[:3 - j] for p in square]
        for h in halfspaces:
            polygon = _clip(polygon, h)
        for b, c in zip(polygon[1:-1], polygon[2:]):
            a = polygon[0]
            tet = abs(_dot(a, _cross(b, c))) / 6
            volume += tet
            value += tet / 10 * sum(qb(x, y) for x, y in
                                    ((a, a), (b, b), (c, c), (a, b), (a, c), (b, c)))
    return volume, value


def exact_ir3(C):
    """ir and output volume of a full-rank 3 x n matrix, exactly, as two Fractions.

    A float is a dyadic rational, so every step is exact. The extreme rays
    r_1..r_k are the hull of the nonzero columns' points on the slice
    {sum(x) = 1}, in cyclic order (Andrew's monotone chain, by exact cross
    products), and facet i, between r_i and r_i+1, has the outward normal
    n_i = r_i x r_i+1, turned away from the other rays. The points nearest
    to facet i are cone(r_i, r_i+1, n_i), at squared distance
    (n_i . x)^2 / |n_i|^2, and those nearest to ray r_i are
    cone(r_i, n_i-1, n_i), at |x|^2 - (r_i . x)^2 / |r_i|^2 (Moreau's
    decomposition); the apex's region meets the cube in the origin alone.
    Each region is integrated by _pyramids, and so is the cone itself, whose
    part of the cube is the output volume; the regions and the cone must
    fill the cube exactly. A matrix of rank below 3 raises ValueError.
    """
    cols = [tuple(map(Fraction, c)) for c in np.asarray(C, dtype=float).T.tolist() if any(c)]
    points = sorted({(c[0] / sum(c), c[1] / sum(c)) for c in cols})

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = []
    for seq in (points, points[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    if len(hull) < 3:
        raise ValueError("exact_ir3 needs a matrix of rank 3")
    rays = [(x, y, 1 - x - y) for x, y in hull]
    k = len(rays)
    normals = []
    for i in range(k):
        n = _cross(rays[i], rays[(i + 1) % k])
        normals.append(tuple(-v for v in n) if _dot(n, rays[(i + 2) % k]) > 0 else n)

    def simplicial(g):
        """The halfspaces h . x >= 0 of cone(g[0], g[1], g[2])."""
        h = [_cross(g[1], g[2]), _cross(g[2], g[0]), _cross(g[0], g[1])]
        return [c if _dot(c, gi) > 0 else tuple(-v for v in c) for c, gi in zip(h, g)]

    ir = covered = Fraction(0)
    for i, (r, n) in enumerate(zip(rays, normals)):
        rr, nn = _dot(r, r), _dot(n, n)
        for g, qb in (((r, normals[i - 1], n),
                       lambda x, y, r=r, rr=rr: _dot(x, y) - _dot(r, x) * _dot(r, y) / rr),
                      ((r, rays[(i + 1) % k], n),
                       lambda x, y, n=n, nn=nn: _dot(n, x) * _dot(n, y) / nn)):
            volume, value = _pyramids(simplicial(g), qb)
            covered += volume
            ir += value
    inside = _pyramids([tuple(-v for v in n) for n in normals], lambda x, y: 0)[0]
    assert covered + inside == 1, "the regions and the cone do not fill the cube"
    return ir, inside
