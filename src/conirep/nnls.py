"""Nonnegative least squares by the Lawson-Hanson active-set method.

One loop, :func:`_lawson_hanson`, advances any number of right-hand sides in
lockstep against one matrix; quadrature grids need 10^5..10^7 solves per
call. Each least-squares step (:func:`_solve_patterns`) groups the points by
a byte key of their passive set, in stable order, and solves each group in
one call, one of two ways: one inverse of its block of A^T A, the normal
equations (Van Benthem & Keenan, 2004), or ``lstsq`` on its columns of A,
slower but with an error that grows with the condition of A, not of A^T A.
:func:`nnls` takes ``lstsq``. :func:`nnls_batch` takes the inverse, then
solves every point that failed its KKT verification, or was still live at
the iteration cap, again together with ``lstsq``. Each point starts from the
support of its unconstrained solution, pruned of nonpositive coefficients and
re-solved until positive (:func:`_start`); from X = 0 that is all the ratio
step would do.
"""
from __future__ import annotations

import numpy as np

from .errors import IterationLimitError

# Gradient tolerance for KKT optimality checks, scaled by the problem size.
TOL_KKT = 1e-10
# Active-set iterations allowed per column, counting at least three columns,
# before IterationLimitError is raised.
MAX_ITER_PER_COLUMN = 10


def _max_iter(n: int) -> int:
    return MAX_ITER_PER_COLUMN * max(n, 3)


def nnls(A, b):
    """Minimize ||A x - b||_2 subject to x >= 0.

    Returns ``(x, rnorm)`` with ``rnorm = ||A x - b||_2``, measured with
    each column of A scaled to a largest entry of 1, so a column too small
    for any finite weight gets weight inf and the residual stays right.
    Raises IterationLimitError when the KKT conditions do not hold within
    MAX_ITER_PER_COLUMN times max(n, 3) iterations.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise ValueError(f"incompatible shapes {A.shape} and {b.shape}")
    X, rsq, failed = _lawson_hanson(A, b[:, None], lstsq=True)
    _raise_if(failed, A.shape[1])
    return X[:, 0], float(np.sqrt(rsq[0]))


def nnls_batch(A, points):
    """Solve min ||A x - p||_2, x >= 0 for every column p of ``points``.

    Returns ``(X, rsq)``: X has one solution per column and rsq holds the
    squared residual norms, as :func:`nnls` measures them. The points that
    the normal equations leave failing are solved again together, as
    :func:`nnls` solves one, and IterationLimitError is raised only if one
    of them fails again. Identical calls give bitwise-identical results;
    callers that need determinism across thread counts must keep their
    block boundaries fixed (the quadrature grid does).
    """
    A = np.asarray(A, dtype=float)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != A.shape[0]:
        raise ValueError(f"incompatible shapes {A.shape} and {pts.shape}")
    X, rsq, failed = _lawson_hanson(A, pts, lstsq=False)
    redo = np.flatnonzero(failed)
    if redo.size:
        X[:, redo], rsq[redo], failed = _lawson_hanson(A, pts[:, redo], lstsq=True)
        _raise_if(failed, A.shape[1])
    return X, rsq


def _raise_if(failed, n: int):
    if failed.any():
        raise IterationLimitError(f"nnls did not converge in {_max_iter(n)} iterations")


def _lawson_hanson(A, P, lstsq: bool):
    """Active-set NNLS for every column of P, each least-squares step solved
    by ``lstsq`` on A's columns if `lstsq`, else by the normal equations.

    Each column of A is first scaled to a largest entry of 1: the cone and
    every residual stay the same, A^T A cannot underflow, and the KKT
    tolerance sees every column at one scale. Each point's passive set
    starts as the support of its unconstrained solution when A^T A is
    nonsingular, else empty. Any start is sound: :func:`_start` drops each
    point's nonpositive coefficients and re-solves until the solution is
    positive, and from there each step lowers the objective until the KKT
    conditions hold. The entering variable is the most negative gradient
    component: one max reduction finds the points still growing, and an
    argmax over just those breaks ties by the smallest index.
    Each point's KKT conditions are checked on the gradient of the pass
    where it stops growing, so no pass over every point follows the loop.
    Returns ``(X, rsq, failed)``: the solutions in A's own units, the
    squared residuals in scaled units, and a mask of the points that fail
    the KKT conditions or are still live at the iteration cap.
    """
    scale = np.abs(A).max(axis=0)
    scale[scale == 0.0] = 1.0
    A = A / scale
    n = A.shape[1]
    G = A.T @ A
    H = A.T @ P
    tol = TOL_KKT * (1.0 + float(np.abs(G).max(initial=0.0)))

    def step(pats, pending):
        return _solve_patterns(A, P, G, H, pats, pending, lstsq)

    X = np.zeros((n, P.shape[1]))
    # the unconstrained solution is unique; G has rank at most m, so n > m rules that out
    full = n <= A.shape[0] and np.linalg.matrix_rank(G) == n
    passive = np.linalg.inv(G) @ H > 0.0 if full else np.zeros(X.shape, dtype=bool)
    live = np.arange(P.shape[1])
    _start(step, X, passive, live)
    failed = np.zeros(P.shape[1], dtype=bool)
    cols = slice(None)  # every point is live on the first pass: read it without a gather
    for _ in range(_max_iter(n)):
        W = H[:, cols] - G @ X[:, cols]
        pats = passive[:, cols]
        # KKT: gradient >= -10 tol everywhere, and <= 10 tol on the passive set;
        # a point that stops growing here keeps this X, and so these flags
        failed[cols] = ((W > 10 * tol) | pats & (W < -10 * tol)).any(axis=0)
        W[pats] = -np.inf
        growing = W.max(axis=0, initial=-np.inf) > tol
        live = cols = live[growing]
        if live.size == 0:
            break
        # argmax takes the smallest index on ties
        passive[np.argmax(W[:, growing], axis=0), live] = True
        del W, pats  # n x p; free them before the solves, where memory peaks
        _feasible(step, X, passive, live)
    failed[live] = True
    R = A @ X - P
    with np.errstate(over="ignore"):
        X /= scale[:, None]
    return X, np.einsum("ij,ij->j", R, R), failed


def _start(step, X, passive, pending):
    """The inner loop from X = 0, in place. Every step length is then 0, so
    a pass only drops each point's nonpositive coefficients and re-solves."""
    while pending.size:
        cols = slice(None) if pending.size == X.shape[1] else pending
        pats = passive[:, cols]
        Z = step(pats, pending)
        neg = pats & (Z <= 0.0)
        has_neg = neg.any(axis=0)
        X[:, cols] = np.where(has_neg, 0.0, Z)
        pending = pending[has_neg]
        passive[:, pending] = (pats & ~neg)[:, has_neg]


def _feasible(step, X, passive, pending):
    """Lawson-Hanson inner loop, in place: move each pending point from X,
    positive on its passive set but for the coefficient that just entered
    at 0, to a positive least-squares solution on a subset of that set."""
    while pending.size:
        # pending ascends, so at full size it is every point: read those through a slice
        cols = slice(None) if pending.size == X.shape[1] else pending
        pats = passive[:, cols]
        Z = step(pats, pending)
        neg = pats & (Z <= 0.0)
        has_neg = neg.any(axis=0)
        X[:, cols] = np.where(has_neg, X[:, cols], Z)
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
        Xb[~pat] = 0.0
        X[:, pending] = Xb


def _solve_patterns(A, P, G, H, pats, pending, lstsq: bool):
    """Least-squares coefficients on each point's passive set, zero elsewhere.

    Each point's passive set, column k of ``pats`` for ``pending[k]``, is
    packed into bytes (coefficient i in bit i % 8 of byte i // 8), and
    ``np.lexsort`` over the byte rows, a stable radix sort per byte, brings
    equal patterns together. Each group takes its points in ascending order,
    whatever the pattern count or visit order, and solves them in one call:
    ``lstsq`` on its columns of A against theirs of P if `lstsq`, else one
    inverse of its block of G = A^T A applied to theirs of H = A^T P.
    """
    n = G.shape[0]
    Z = np.zeros((n, pending.size))
    key = np.zeros((max(1, -(-n // 8)), pending.size), dtype=np.uint8)  # lexsort needs a key
    # np.packbits(pats, axis=0, bitorder="little"), 10x faster; a row that no
    # pending point holds adds nothing, so wide A loops over far fewer than n
    for i in np.flatnonzero(pats.any(axis=1)).tolist():
        key[i // 8] |= pats[i].view(np.uint8) << i % 8
    order = np.lexsort(key)
    key = key[:, order]
    cuts = np.flatnonzero((key[:, 1:] != key[:, :-1]).any(axis=0)) + 1
    for cols in np.split(order, cuts):
        rows = np.flatnonzero(pats[:, cols[0]])
        if rows.size == 0:
            continue
        pts = pending[cols]
        Z[np.ix_(rows, cols)] = (np.linalg.lstsq(A[:, rows], P[:, pts], rcond=None)[0] if lstsq
                                 else _solve_group(G[np.ix_(rows, rows)], H[np.ix_(rows, pts)]))
    return Z


def _solve_group(sub, rhs):
    """sub^-1 rhs as one inverse and one product; lstsq when sub is exactly singular."""
    try:
        return np.linalg.inv(sub) @ rhs
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(sub, rhs, rcond=None)[0]
