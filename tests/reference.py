"""Independent geometry the tests check the pipeline against.

The pipeline takes facet normals from Qhull's hull equations, never asks
whether a point lies in a cone, reads a region's vertex-facet incidence off
Qhull's halfspace intersection, builds every adjacent cone in one batched
pass over the lattice's Hasse edges, integrates whole blocks of regions at
once, merges collinear columns from one Gram matrix, and reads the extreme
rays off one hull. These references compute each of them another way:
facet normals by cofactor expansion over the facet's rays, cone membership
by an NNLS fit against the generators, incidence by a distance test against
the facets of a convex hull, one adjacent cone at a time by scanning the
lattice, the integral over one stack of simplices with one basis, the dedup
by a greedy loop over the columns, and the extreme rays by an NNLS fit of
each unit ray against all the others. For `ir` itself, the Richardson
extrapolation of two midpoint-quadrature grids needs no geometry at all.
"""

from math import comb

import numpy as np
from scipy.spatial import ConvexHull

from conirep.cone import DEDUP_DOT, TOL_MEMBER, AdjacentCone, Cone
from conirep.errors import DegenerateConeError
from conirep.linalg import TOL_GEOM, TOL_RANK, gram_schmidt
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
    if nrm <= TOL_RANK:
        raise ValueError("normal_vector inputs are rank-deficient")
    return n / nrm


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
    on = np.abs(eq[:, :-1] @ V.T + eq[:, -1:]) < TOL_GEOM
    return sorted({sum(1 << int(j) for j in np.flatnonzero(row)) for row in on})


def adjacent_cone_by_element(element: frozenset, cone: Cone) -> AdjacentCone:
    """Adjacent cone of one lattice element, its faces found by scanning the lattice.

    The rows are those cone_sub_elements writes, one element at a time: for
    each (d-1)-face E' of the element E (the apex when d = 1), Q Q^T of the
    summed outward normals of the facets containing E' but not E; for each
    (d+1)-face G containing E (the whole cone when d = r-1 at rank r = m),
    the part orthogonal to span(E) of the summed rays of G outside E. The
    interior point is e + s v by the same formula, and e for the whole cone,
    which is an element at r < m and lies in no facet.
    """
    element = frozenset(element)
    rays = cone.rays[sorted(element)]
    basis = gram_schmidt(rays)
    d = next(k for k, faces in cone.elements.items() if element in faces)
    m, k = cone.dim, len(cone.rays)
    incident = np.array([element <= f for f in cone.facets])
    below = ([f for f in cone.elements[d - 1] if f < element] if d > 1
             else [frozenset()])
    above = [f for f in cone.elements.get(d + 1, [frozenset(range(k))]) if element < f]
    leaving = np.array([[sub <= f for f in cone.facets] for sub in below]) & ~incident
    outer = np.array([[i in sup and i not in element for i in range(k)]
                      for sup in above], dtype=bool).reshape(-1, k)
    rows = np.vstack([leaving @ cone.normals @ basis @ basis.T,
                      (outer @ cone.rays) @ (np.eye(m) - basis @ basis.T)])
    normals = cone.normals[incident]
    e, v = rays.sum(axis=0), normals.sum(axis=0)
    interior = None
    if e.min() > TOL_GEOM:
        down = v < 0.0
        interior = e + 0.5 * np.min(e[down] / -v[down]) * v if down.any() else e
    return AdjacentCone(
        element=element,
        element_rays=rays,
        normals=normals,
        basis=basis,
        facet_normals=rows / np.linalg.norm(rows, axis=1, keepdims=True),
        interior=interior,
    )


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
