"""Dense linear-algebra kernels for small ambient dimensions, and the block bound.

Everything here operates on plain float arrays. Vectors are rows unless a
function says otherwise; orthonormal bases are returned as column matrices
so that ``basis.T @ point`` gives coordinates in the basis.

The quadrature's solve blocks, the walk's chunks and the integral's blocks
are all sized by block_size from one bound, BLOCK_WORDS.
"""
from __future__ import annotations

from math import factorial

import numpy as np

# Geometric comparison tolerance (dot products, signs, coordinates), and the
# relative size below which a singular value or Gram-Schmidt residual is zero.
TOL_GEOM = 1e-9
# Words (float64 or uint64 entries) of the largest array one block of a loop
# forms: it bounds each block's memory and keeps per-block overhead small.
# Whether freed blocks are reused or faulted in afresh is glibc's choice: it
# keeps them only once the process has freed a larger array.
BLOCK_WORDS = 1 << 16


def block_size(words_per_item: int) -> int:
    """Items per block, at least 1, when each takes `words_per_item` words of the largest array.

    Reads BLOCK_WORDS at call time, so one patch of it reaches every blocked loop.
    """
    return max(1, BLOCK_WORDS // max(1, words_per_item))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of `a` with the matching row of `b` (2-D, broadcast).

    One stacked matmul forms every product through the same dot kernel as
    ``a[i] @ b[i]`` of that pair alone, so each equals it bit for bit. A
    matrix product, ``einsum`` and ``sum(axis=1)`` add the terms in other
    ways and can differ in the last bit.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, bit for bit ``np.linalg.norm`` of that row.

    ``norm(axis=1)`` sums the squares in another way and differs in the last bit.
    """
    return np.sqrt(row_dots(rows, rows))


def gram_schmidt(rays):
    """Orthonormal basis of span(rays) as an (m, r) column matrix.

    `rays` is one (k, m) set, or a (b, k, m) stack of b sets, each
    orthonormalized on its own and all in one pass; a stack gives a (b, m, m)
    array, each set's basis in its first rank-many columns and zeros after.
    Linearly dependent inputs are dropped: a ray whose residual after
    projection onto the earlier columns has norm below ``TOL_GEOM`` (relative
    to the ray's own norm) contributes no column, so each basis has exactly
    rank-many columns. Re-orthogonalization keeps the columns orthonormal to
    near machine precision. Every dot product is one stacked matmul and every
    update skips the sets that dropped that ray, so each basis is bit for bit
    the one its set gives alone.
    """
    R = np.asarray(rays, dtype=float)
    if R.ndim not in (2, 3) or R.shape[-2] == 0:
        raise ValueError(f"gram_schmidt needs (k, m) or (b, k, m) rays with k >= 1, "
                         f"got shape {R.shape}")
    stack = R if R.ndim == 3 else R[None]
    k = stack.shape[1]
    Q = np.zeros_like(stack)  # Q[:, i]: ray i's column, zero where it was dropped
    kept = np.zeros(stack.shape[:2], dtype=bool)
    for i in range(k):
        v = stack[:, i].copy()
        scale = row_norms(v)
        # two projection passes: the second pass removes the rounding error
        # the first one leaves behind
        for _ in range(2):
            for j in range(i):
                dots = Q[:, j, None, :] @ v[:, :, None]
                np.subtract(v, dots[:, 0] * Q[:, j], out=v, where=kept[:, j, None])
        norm = row_norms(v) if i else scale
        kept[:, i] = norm > TOL_GEOM * np.maximum(scale, 1.0)
        np.divide(v, norm[:, None], out=Q[:, i], where=kept[:, i, None])
    # each kept column goes to the next free column of its set's basis
    s, i = kept.nonzero()
    bases = np.zeros((len(stack), stack.shape[2], stack.shape[2]))
    bases[s, :, (kept.cumsum(axis=1) - 1)[s, i]] = Q[s, i]
    return bases if R.ndim == 3 else np.ascontiguousarray(bases[0, :, :kept.sum()])


def simplex_volumes(points) -> np.ndarray:
    """Volumes of a stack of simplices, (s, m+1, m) vertices to (s,) volumes.

    |det(v_2 - v_1, ..., v_{m+1} - v_1)| / m! each; degenerate simplices give 0.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 3 or P.shape[1] != P.shape[2] + 1:
        raise ValueError(f"expected simplices of m+1 vertices in dimension m, got shape {P.shape}")
    m = P.shape[2]
    return np.abs(np.linalg.det(P[:, 1:] - P[:, :1])) / factorial(m)
