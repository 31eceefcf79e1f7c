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


def simplex_integrals(points, vol: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Integrals of the squared distance to span(basis) over a stack of simplices.

    `points` is (s, m+1, m) and `vol` their (s,) volumes, from
    linalg.simplex_volumes. Zero-volume simplices give 0. Each value is
    clamped at 0; roundoff can otherwise produce a tiny negative for
    simplices lying in the span.
    """
    P = np.asarray(points, dtype=float)
    m = P.shape[2]

    def q(X):
        val = np.einsum("...k,...k->...", X, X)
        if basis.size:
            c = X @ basis
            val -= np.einsum("...k,...k->...", c, c)
        return val

    # sum over l1 <= l2 of qb(v_l1, v_l2) = (q(sum of v_l) + sum of q(v_l)) / 2
    pair_sum = (q(P.sum(axis=1)) + q(P).sum(axis=1)) / 2.0
    return np.where(vol == 0.0, 0.0, np.maximum(vol / comb(m + 2, 2) * pair_sum, 0.0))


def simplex_integral(vertices, basis: np.ndarray) -> float:
    """Integral of the squared distance to span(basis) over one simplex, exactly."""
    P = np.asarray(vertices, dtype=float)[None]
    return float(simplex_integrals(P, simplex_volumes(P), basis)[0])


def region_integral(region: RegionPolytope, basis: np.ndarray) -> float:
    """Sum of simplex integrals of the squared distance to span(basis).

    `basis` is the (m, d) orthonormal basis of the element span the region
    projects onto (AdjacentCone.basis); with d = 0 the element is the apex
    and the distance is measured to the origin.
    """
    if not len(region.simplices):
        return 0.0
    points = region.vertices[region.simplices]
    return float(simplex_integrals(points, region.volumes, basis).sum())
