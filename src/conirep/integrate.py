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
from .linalg import gram_schmidt, simplex_volumes  # noqa: F401
from .region import RegionPolytope


def region_integral(regions, bases) -> np.ndarray:
    """Integral of the squared distance to span(basis) over each region.

    `regions` are RegionPolytopes and `bases` the matching (m, d) orthonormal
    bases of the element spans they project onto (AdjacentCone.basis); with
    d = 0 the element is the apex and the distance is measured to the
    origin. Returns one value per region, 0 for a region without simplices.

    All regions are integrated together. Each vertex v gets a row
    [v, B^T v padded to m, q(v)] in one array; summing those rows over each
    simplex's vertices then gives both the vertex sum, whose q is
    |sum v|^2 - |sum B^T v|^2, and the sum of the q values. Zero-volume
    simplices give 0, and each simplex's value is clamped at 0: roundoff can
    otherwise produce a tiny negative for simplices lying in the span.
    """
    live = [i for i, r in enumerate(regions) if len(r.simplices)]
    if not live:
        return np.zeros(len(regions))
    m = regions[live[0]].vertices.shape[1]
    rows = np.zeros((sum(len(regions[i].vertices) for i in live), 2 * m + 1))
    simplices = []
    offset = 0
    for i in live:
        V, B = regions[i].vertices, bases[i]
        rows[offset:offset + len(V), :m] = V
        rows[offset:offset + len(V), m:m + B.shape[1]] = V @ B
        simplices.append(regions[i].simplices + offset)
        offset += len(V)

    def q(X):
        x, z = X[:, :m], X[:, m:2 * m]
        return np.einsum("ij,ij->i", x, x) - np.einsum("ij,ij->i", z, z)

    rows[:, 2 * m] = q(rows)
    # one vertex position at a time: an (s, m+1, 2m+1) gather takes MBs at m = 6
    simplices = np.concatenate(simplices)
    sums = rows[simplices[:, 0]]
    for col in simplices.T[1:]:
        sums += rows[col]
    # sum over l1 <= l2 of qb(v_l1, v_l2) = (q(sum of v_l) + sum of q(v_l)) / 2
    pair_sum = (q(sums) + sums[:, 2 * m]) / 2.0
    vol = np.concatenate([regions[i].volumes for i in live])
    values = np.where(vol == 0.0, 0.0, np.maximum(vol / comb(m + 2, 2) * pair_sum, 0.0))
    owner = np.repeat(live, [len(regions[i].simplices) for i in live])
    return np.bincount(owner, values, minlength=len(regions))


def simplex_integral(vertices, basis: np.ndarray) -> float:
    """Integral of the squared distance to span(basis) over one simplex, exactly."""
    P = np.asarray(vertices, dtype=float)
    simplex = RegionPolytope(frozenset(), P, np.arange(len(P))[None],
                             simplex_volumes(P[None]))
    return float(region_integral([simplex], [basis])[0])
