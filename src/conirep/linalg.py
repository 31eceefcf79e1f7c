"""Dense linear-algebra kernels for small ambient dimensions.

Everything here operates on plain float arrays. Vectors are rows unless a
function says otherwise; orthonormal bases are returned as column matrices
so that ``basis.T @ point`` gives coordinates in the basis.
"""
from __future__ import annotations

from math import factorial

import numpy as np

# Relative threshold below which a vector counts as linearly dependent.
TOL_RANK = 1e-9
# Generic geometric comparison tolerance (dot products, signs, coordinates).
TOL_GEOM = 1e-9


def gram_schmidt(rays) -> np.ndarray:
    """Orthonormal basis of span(rays) as an (m, k) column matrix.

    Linearly dependent inputs are dropped: a ray whose residual after
    projection onto the earlier columns has norm below ``TOL_RANK`` (relative
    to the ray's own norm) contributes no column. The result has exactly
    rank-many columns. Re-orthogonalization keeps the columns orthonormal to
    near machine precision.
    """
    rays = [np.asarray(r, dtype=float) for r in rays]
    if not rays:
        raise ValueError("gram_schmidt needs at least one input vector")
    m = rays[0].shape[0]
    if any(r.shape != (m,) for r in rays):
        raise ValueError("gram_schmidt inputs must share one dimension")
    cols: list[np.ndarray] = []
    for r in rays:
        v = r.copy()
        scale = np.linalg.norm(v)
        # two projection passes: the second pass removes the rounding error
        # the first one leaves behind
        for _ in range(2):
            for q in cols:
                v -= (q @ v) * q
        if np.linalg.norm(v) > TOL_RANK * max(scale, 1.0):
            cols.append(v / np.linalg.norm(v))
    if not cols:
        return np.zeros((m, 0))
    return np.stack(cols, axis=1)


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


def simplex_volumes(points) -> np.ndarray:
    """Volumes of a stack of simplices, (s, m+1, m) vertices to (s,) volumes.

    |det(v_2 - v_1, ..., v_{m+1} - v_1)| / m! each; degenerate simplices give 0.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 3 or P.shape[1] != P.shape[2] + 1:
        raise ValueError(f"expected simplices of m+1 vertices in dimension m, got shape {P.shape}")
    m = P.shape[2]
    return np.abs(np.linalg.det(P[:, 1:] - P[:, :1])) / factorial(m)


def simplex_volume(vertices) -> float:
    """Volume of the simplex on m+1 vertices in dimension m."""
    return float(simplex_volumes(np.asarray(vertices, dtype=float)[None])[0])
