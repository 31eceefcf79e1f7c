"""Independent geometry the tests check the pipeline against.

The pipeline takes facet normals from Qhull's hull equations and never asks
whether a point lies in a cone. These references compute both another way:
facet normals by cofactor expansion over the facet's rays, and cone
membership by an NNLS fit against the generators.
"""

import numpy as np

from conirep.cone import TOL_MEMBER, Cone
from conirep.errors import DegenerateConeError
from conirep.linalg import TOL_GEOM, TOL_RANK, gram_schmidt
from conirep.nnls import nnls


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
