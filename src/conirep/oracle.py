"""Numerical estimate of the representation error by midpoint quadrature.

Independent of the analytical pipeline: the unit hypercube is covered by a
uniform N^m grid and the squared NNLS residual is averaged over the cell
midpoints. Used to cross-check analytical results.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cone import as_state_matrix
from .errors import BudgetExceededError
from .nnls import nnls_batch

__all__ = ["QuadratureResult", "ir_num", "convergence_study", "SAMPLE_BUDGET"]

# Default ceiling on the total number of grid samples per call.
SAMPLE_BUDGET = 10_000_000
# Grid points solved per batch; bounds peak memory, not the result.
CHUNK = 1 << 18


@dataclass(frozen=True)
class QuadratureResult:
    """Midpoint-rule estimate plus the grid layout that produced it."""

    ir_num: float
    irn_num: float
    n: int
    total_samples: int
    elapsed_s: float


def _grid_chunk(m: int, n: int, start: int, stop: int) -> np.ndarray:
    """Midpoints for flat grid indices [start, stop), lexicographic order.

    The first coordinate varies slowest; index decoding keeps the order
    identical no matter how the range is chunked.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    pts = np.empty((m, stop - start))
    for axis in range(m - 1, -1, -1):
        pts[axis] = ((idx % n) + 0.5) / n
        idx //= n
    return pts


def ir_num(C, n: int, budget: int = SAMPLE_BUDGET, threads: int = 1) -> QuadratureResult:
    """Average squared NNLS residual over the N^m midpoint grid.

    Deterministic: the grid order is fixed and per-chunk sums are reduced in
    index order, so the value is identical for any thread count. Raises
    BudgetExceededError when n^m exceeds the sample budget.
    """
    sm = as_state_matrix(C)
    m = sm.m
    if n < 1:
        raise ValueError("grid resolution must be at least 1")
    total = n ** m
    if total > budget:
        raise BudgetExceededError(f"{n}^{m} = {total} samples exceed the budget of {budget}")
    # each nonzero column scaled to a largest entry of 1: the cone and every
    # residual stay the same, and nnls_batch's A^T A cannot underflow
    A = sm.entries / np.where(sm.entries.any(axis=0), sm.entries.max(axis=0), 1.0)
    t0 = time.perf_counter()
    ranges = [(s, min(s + CHUNK, total)) for s in range(0, total, CHUNK)]

    def chunk_sum(bounds):
        start, stop = bounds
        pts = _grid_chunk(m, n, start, stop)
        _, rsq = nnls_batch(A, pts)
        return float(rsq.sum())

    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            sums = list(pool.map(chunk_sum, ranges))
    else:
        sums = [chunk_sum(r) for r in ranges]
    value = sum(sums) / total
    elapsed = time.perf_counter() - t0
    return QuadratureResult(
        ir_num=value,
        irn_num=value / (m / 3.0),
        n=n,
        total_samples=total,
        elapsed_s=elapsed,
    )


def convergence_study(C, ns, ir_exact: float | None = None, budget: int = SAMPLE_BUDGET):
    """Rows (n, ir_num, abs_error) for each grid resolution in `ns`.

    `ir_exact` defaults to the analytical value of the matrix, so the error
    column shows how the quadrature closes in on it as the grid refines.
    """
    if ir_exact is None:
        from .evaluator import evaluate  # local import: evaluator uses this module

        ir_exact = evaluate(C).ir
    rows = []
    for n in ns:
        q = ir_num(C, int(n), budget=budget)
        rows.append((int(n), q.ir_num, abs(q.ir_num - ir_exact)))
    return rows
