"""Nonnegative least squares by the Lawson-Hanson active-set method.

Two entry points: :func:`nnls` solves a single problem and is the reference
implementation used by all geometric predicates; :func:`nnls_batch` advances
many right-hand sides in lockstep against one matrix, grouping points that
share an active-set pattern into a single linear solve and starting each
from the support of its unconstrained solution (Van Benthem & Keenan,
2004). Points are grouped by a byte key of their passive set in stable
order, so no solve depends on how many patterns there are or on the order
the groups are visited in. The batch variant exists because quadrature
grids need 10^5..10^7 solves per call; both return identical optima (up to
solver roundoff) and the batch path re-runs any point that fails its KKT
verification through the scalar solver.
"""
from __future__ import annotations

import numpy as np

from .errors import IterationLimitError

# Gradient tolerance for KKT optimality checks, scaled by the problem size.
TOL_KKT = 1e-10
# Active-set iterations allowed per column, counting at least three columns,
# before IterationLimitError is raised.
MAX_ITER_PER_COLUMN = 10


def _kkt_tol(G: np.ndarray) -> float:
    return TOL_KKT * (1.0 + float(np.abs(G).max(initial=0.0)))


def _max_iter(n: int) -> int:
    return MAX_ITER_PER_COLUMN * max(n, 3)


def nnls(A, b):
    """Minimize ||A x - b||_2 subject to x >= 0.

    Returns ``(x, rnorm)`` with ``rnorm = ||A x - b||_2``. The entering
    variable is the most negative gradient component, ties broken by the
    smallest index; the iteration count is capped at MAX_ITER_PER_COLUMN
    times max(n, 3) before IterationLimitError is raised. On exit the KKT
    conditions are verified: gradient >= -tol on the zero set and
    |gradient| <= tol on the support.
    A point that fails them gets one step of iterative refinement on its
    support, and IterationLimitError is raised if it still fails.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise ValueError(f"incompatible shapes {A.shape} and {b.shape}")
    n = A.shape[1]
    max_iter = _max_iter(n)
    G = A.T @ A
    h = A.T @ b
    tol = _kkt_tol(G)

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    outer = 0
    while True:
        w = h - G @ x
        w[passive] = -np.inf
        t = int(np.argmax(w))  # argmax takes the smallest index on ties
        if not np.isfinite(w[t]) or w[t] <= tol:
            break
        if outer >= max_iter:
            raise IterationLimitError(f"nnls did not converge in {max_iter} iterations")
        outer += 1
        passive[t] = True
        while True:
            idx = np.flatnonzero(passive)
            z = np.linalg.lstsq(A[:, idx], b, rcond=None)[0]
            if z.min(initial=np.inf) > 0.0:
                x[:] = 0.0
                x[idx] = z
                break
            xi = x[idx]
            denom = xi - z
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where((z <= 0.0) & (denom > 0.0), xi / denom, np.inf)
            ratios[(z <= 0.0) & (denom <= 0.0)] = 0.0
            alpha = float(ratios.min())
            x[idx] = np.maximum(xi + alpha * (z - xi), 0.0)
            drop = idx[(z <= 0.0) & (ratios <= alpha + 1e-12)]
            passive[drop] = False
            x[drop] = 0.0

    if not _is_kkt(G @ x - h, x, tol):
        # one step of iterative refinement on the support: lstsq loses the
        # last digits of the small-scale coefficients when column scales
        # differ by about 1e8
        idx = np.flatnonzero(x > 0.0)
        x[idx] += np.linalg.lstsq(A[:, idx], b - A[:, idx] @ x[idx], rcond=None)[0]
        if x.min() < 0.0 or not _is_kkt(G @ x - h, x, tol):
            raise IterationLimitError("nnls terminated at a non-KKT point")
    return x, float(np.linalg.norm(b - A @ x))


def _is_kkt(g: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """Gradient >= -10 tol off the support and |gradient| <= 10 tol on it."""
    support = x > 0.0
    return not (np.any(g[~support] < -10 * tol) or np.any(np.abs(g[support]) > 10 * tol))


def nnls_batch(A, points):
    """Solve min ||A x - p||_2, x >= 0 for every column p of ``points``.

    Returns ``(X, rsq)``: X has one solution per column and rsq holds the
    squared residual norms. All points advance through the active-set method
    together; each iteration groups the unconverged points by their passive
    pattern and solves one normal-equation system per distinct pattern.
    Each point's passive set starts as the support of its unconstrained
    solution when A^T A is nonsingular, else empty. Any start is sound: the
    inner loop first takes X = 0 to a feasible point, and from there each
    step lowers the objective until the KKT conditions hold.
    Identical calls give bitwise-identical results; callers that need
    determinism across thread counts must keep their chunk boundaries fixed
    (the quadrature grid does).
    """
    A = np.asarray(A, dtype=float)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != A.shape[0]:
        raise ValueError(f"incompatible shapes {A.shape} and {pts.shape}")
    n = A.shape[1]
    p = pts.shape[1]
    max_iter = _max_iter(n)
    G = A.T @ A
    H = A.T @ pts
    tol = _kkt_tol(G)

    X = np.zeros((n, p))
    full = np.linalg.matrix_rank(G) == n  # the unconstrained solution is unique
    passive = np.linalg.solve(G, H) > 0.0 if full else np.zeros((n, p), dtype=bool)
    live = np.arange(p)
    _feasible(G, H, X, passive, live)
    for _ in range(max_iter):
        if live.size == 0:
            break
        W = H[:, live]
        W -= G @ X[:, live]
        W[passive[:, live]] = -np.inf
        t = np.argmax(W, axis=0)
        wmax = W[t, np.arange(live.size)]
        growing = wmax > tol
        entered = live[growing]
        live = entered
        if entered.size == 0:
            break
        passive[t[growing], entered] = True
        del W  # n x p; free it before the solves, where memory peaks
        _feasible(G, H, X, passive, entered)
    if live.size:
        raise IterationLimitError(f"batch nnls did not converge in {max_iter} iterations")

    # verify KKT for every point; repair stragglers with the scalar solver
    Wf = H - G @ X
    bad = (passive & (np.abs(Wf) > 10 * tol)) | (~passive & (Wf > 10 * tol))
    for j in np.flatnonzero(bad.any(axis=0)):
        X[:, j] = nnls(A, pts[:, j])[0]
    R = A @ X - pts
    return X, np.einsum("ij,ij->j", R, R)


def _feasible(G, H, X, passive, pending):
    """Lawson-Hanson inner loop, in place: move each pending point from X to
    a positive least-squares solution on a subset of its passive set."""
    while pending.size:
        Z = _solve_patterns(G, H, passive, pending)
        neg = passive[:, pending] & (Z <= 0.0)
        has_neg = neg.any(axis=0)
        done = pending[~has_neg]
        X[:, done] = Z[:, ~has_neg]
        pending = pending[has_neg]
        if pending.size == 0:
            break
        Zb = Z[:, has_neg]
        negb = neg[:, has_neg]
        Xb = X[:, pending]
        denom = Xb - Zb
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(negb & (denom > 0.0), Xb / denom, np.inf)
        ratios[negb & (denom <= 0.0)] = 0.0
        alpha = ratios.min(axis=0)
        Xb = np.maximum(Xb + alpha * (Zb - Xb), 0.0)
        drop = negb & (ratios <= alpha + 1e-12)
        pat = passive[:, pending]
        pat[drop] = False
        passive[:, pending] = pat
        Xb[drop] = 0.0
        Xb[~pat] = 0.0
        X[:, pending] = Xb


def _solve_patterns(G, H, passive, pending):
    """Least-squares coefficients on each point's passive set, zero elsewhere.

    Each point's passive set is packed into bytes (coefficient i in bit
    i % 8 of byte i // 8), and ``np.lexsort`` over the byte rows, a stable
    radix sort per byte, brings equal patterns together. Each group
    therefore solves its columns in ascending order, whatever the number of
    patterns or the order the groups are visited in.
    """
    n = G.shape[0]
    Z = np.zeros((n, pending.size))
    pats = passive[:, pending]
    key = np.packbits(pats, axis=0, bitorder="little")
    order = np.lexsort(key)
    key = key[:, order]
    cuts = np.flatnonzero((key[:, 1:] != key[:, :-1]).any(axis=0)) + 1
    for cols in np.split(order, cuts):
        rows = np.flatnonzero(pats[:, cols[0]])
        if rows.size == 0:
            continue
        sub = G[np.ix_(rows, rows)]
        rhs = H[np.ix_(rows, pending[cols])]
        try:
            sol = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(sub, rhs, rcond=None)[0]
        Z[np.ix_(rows, cols)] = sol
    return Z
