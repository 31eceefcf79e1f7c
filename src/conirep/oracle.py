"""Numerical estimate of the representation error by midpoint quadrature.

Independent of the analytical pipeline: the unit hypercube is covered by a
uniform N^m grid and the squared NNLS residual is averaged over the cell
midpoints. Used to cross-check analytical results.

The grid is built, solved and summed in blocks of block_size(max(m, n))
points, so that no solver array passes linalg.BLOCK_WORDS words. A block is
also the unit of the reduction and of the thread pool: the block sums are
added in index order.
"""
from __future__ import annotations

import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cone import as_state_matrix
from .errors import BudgetExceededError
from .linalg import block_size
from .nnls import nnls_batch

__all__ = ["QuadratureResult", "ir_num", "convergence_study", "SAMPLE_BUDGET"]

# Default ceiling on the total number of grid samples per call.
SAMPLE_BUDGET = 10_000_000


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
    identical no matter how the range is chunked. The indices are float64,
    which holds every integer below 2^53 exactly, and so does each step
    below: floor(idx / n) is the exact quotient while idx + n < 2^53, far
    past any grid a call can finish.
    """
    idx = np.arange(start, stop, dtype=float)
    quot = np.empty_like(idx)
    pts = np.empty((m, stop - start))
    for axis in range(m - 1, 0, -1):
        np.floor(np.divide(idx, n, out=quot), out=quot)
        np.multiply(quot, -n, out=pts[axis])
        pts[axis] += idx  # the digit idx - n floor(idx / n)
        idx, quot = quot, idx
    pts[0] = idx
    pts += 0.5
    pts /= n
    return pts


def grid_samples(m: int, n: int, budget: int = SAMPLE_BUDGET) -> int:
    """The n^m grid samples; ValueError if n or the budget is below 1, BudgetExceededError above."""
    if n < 1:
        raise ValueError("grid resolution must be at least 1")
    if budget < 1:
        raise ValueError("the sample budget must be at least 1")
    total = n ** m
    if total > budget:
        raise BudgetExceededError(f"{n}^{m} = {total} samples exceed the budget of {budget}")
    return total


def ir_num(C, n: int, budget: int = SAMPLE_BUDGET, threads: int = 1) -> QuadratureResult:
    """Average squared NNLS residual over the N^m midpoint grid.

    Deterministic: the grid order and the blocks are fixed and per-block
    sums are reduced in index order, so the value is identical for any
    thread count. Raises ValueError when n or the budget is below 1, and
    BudgetExceededError when n^m exceeds the budget.
    """
    C = as_state_matrix(C)
    m = C.shape[0]
    n = operator.index(n)  # a Python int, so n ** m cannot wrap
    total = grid_samples(m, n, budget)
    t0 = time.perf_counter()
    block = block_size(max(C.shape))
    starts = range(0, total, block)

    def block_sum(start):
        return float(nnls_batch(C, _grid_chunk(m, n, start, min(start + block, total)))[1].sum())

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            sums = list(pool.map(block_sum, starts))
    else:
        sums = [block_sum(s) for s in starts]
    value = sum(sums) / total
    return QuadratureResult(ir_num=value, irn_num=value / (m / 3.0), n=n, total_samples=total,
                            elapsed_s=time.perf_counter() - t0)


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
