"""Exact integration of squared distance-to-subspace over simplices.

The integrand is the quadratic q(x) = |x|^2 - |B^T x|^2, the squared
distance from x to the span of the orthonormal columns B. A polynomial of
degree 2 integrates exactly over a simplex from its values on vertex pairs:

    integral over S of q = vol(S) / C(m+2, 2) * sum_{l1 <= l2} qb(v_l1, v_l2)

where qb(x, y) = x.y - (B^T x).(B^T y) is the symmetric bilinear form of q.
Both reference values used in the tests (1/6 for the unit corner triangle
against the origin, 1/24 for the triangle {(0,0),(1,1),(0,1)} against the
diagonal line) were derived symbolically and pin this formula down.
"""
from __future__ import annotations

from math import comb

import numpy as np

# gram_schmidt is not used here; bench/tracer.py counts calls through this name
from .linalg import block_size, gram_schmidt, simplex_volumes  # noqa: F401
from .region import Regions


def region_integral(regions: Regions, bases: np.ndarray):
    """Volume of each region, and integral of the squared distance to span(basis) over it.

    `bases` is an (E, m, d) stack, one per region, each the orthonormal
    basis of the element span the region projects onto, zero-padded to d
    columns (AdjacentCones.bases); with none the distance is measured to
    the origin. Returns two arrays of one float per region, both 0 for a
    region without simplices. Each simplex counts toward the region of its
    first vertex.

    All regions are integrated together, in blocks of block_size((m + 1) m)
    simplices whatever regions they belong to, so that the (s, m+1, m)
    vertex gather stays within linalg.BLOCK_WORDS words however many
    simplices one region has. Each vertex v gets a row
    [v, B^T v, q(v)] in one array, every B^T v from one batched product;
    summing those rows over each simplex's vertices then gives both the
    vertex sum, whose q is |sum v|^2 - |sum B^T v|^2, and the sum of the q
    values. Zero-volume simplices give 0, and each simplex's value is
    clamped at 0: roundoff can otherwise produce a tiny negative for
    simplices lying in the span.
    """
    m = regions.vertices.shape[1]
    rows = np.zeros((len(regions.vertices), 2 * m + 1))
    rows[:, :m] = regions.vertices
    start = regions.vertex_start
    owner = np.arange(len(regions)).repeat(start[1:] - start[:-1])
    rows[:, m:m + bases.shape[2]] = (regions.vertices[:, None, :] @ bases[owner])[:, 0]

    def q(X):
        x, z = X[:, :m], X[:, m:2 * m]
        return np.einsum("ij,ij->i", x, x) - np.einsum("ij,ij->i", z, z)

    rows[:, 2 * m] = q(rows)
    simplices = regions.simplices
    volumes, values = np.empty(len(simplices)), np.empty(len(simplices))
    step = block_size((m + 1) * m)
    for a in range(0, len(simplices), step):
        block = simplices[a:a + step]
        vol = volumes[a:a + len(block)] = simplex_volumes(regions.vertices[block])
        # one vertex position at a time: an (s, m+1, 2m+1) gather takes MBs at m = 6
        sums = rows[block[:, 0]]
        for col in block.T[1:]:
            sums += rows[col]
        # sum over l1 <= l2 of qb(v_l1, v_l2) = (q(sum of v_l) + sum of q(v_l)) / 2
        pair_sum = (q(sums) + sums[:, 2 * m]) / 2.0
        values[a:a + len(block)] = np.where(
            vol == 0.0, 0.0, np.maximum(vol / comb(m + 2, 2) * pair_sum, 0.0))
    region = owner[simplices[:, 0]]
    return tuple(np.bincount(region, w, minlength=len(regions)).astype(float, copy=False)
                 for w in (volumes, values))


def simplex_integral(vertices, basis: np.ndarray) -> float:
    """Integral of the squared distance to span(basis) over one simplex, exactly."""
    P = np.asarray(vertices, dtype=float)
    simplex = Regions(P, np.arange(len(P))[None], np.array([0, len(P)]))
    return float(region_integral(simplex, np.asarray(basis)[None])[1][0])
