"""Dense linear-algebra kernels for small ambient dimensions.

Everything here operates on plain float arrays. Vectors are rows unless a
function says otherwise; orthonormal bases are returned as column matrices
so that ``basis.T @ point`` gives coordinates in the basis.
"""
from __future__ import annotations

from math import factorial, sqrt

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
        scale = sqrt(v @ v)  # np.linalg.norm's value, without its overhead
        # two projection passes: the second pass removes the rounding error
        # the first one leaves behind
        for _ in range(2):
            for q in cols:
                v -= (q @ v) * q
        norm = sqrt(v @ v)
        if norm > TOL_RANK * max(scale, 1.0):
            cols.append(v / norm)
    if not cols:
        return np.zeros((m, 0))
    return np.stack(cols, axis=1)


def simplex_volumes(points) -> np.ndarray:
    """Volumes of a stack of simplices, (s, m+1, m) vertices to (s,) volumes.

    |det(v_2 - v_1, ..., v_{m+1} - v_1)| / m! each; degenerate simplices give 0.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 3 or P.shape[1] != P.shape[2] + 1:
        raise ValueError(f"expected simplices of m+1 vertices in dimension m, got shape {P.shape}")
    m = P.shape[2]
    return np.abs(np.linalg.det(P[:, 1:] - P[:, :1])) / factorial(m)
