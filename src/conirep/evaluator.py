"""End-to-end evaluation of a state matrix.

evaluate() dispatches between closed forms (all-zero matrix, m = 1, fully
covered hypercube), the analytical region pipeline, and a quadrature
fallback for rank-deficient cones. The analytical route sums, over every
boundary element of the cone, the exact integral of the squared distance to
that element's span across the element's region of the hypercube.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cone import (TOL_MEMBER, Cone, adjacent_cone, as_state_matrix, cone_sub_elements,
                   coni_facets)
from .errors import BudgetExceededError
from .integrate import region_integral
from .oracle import SAMPLE_BUDGET, ir_num
from .region import build_region

# Hard caps for the combinatorial stages.
MAX_DIM = 10
MAX_SIMPLICES = 1_000_000
# Regions are integrated together once they hold at least this many simplices.
INTEGRATE_BLOCK = 4096

METHOD_ANALYTICAL = "analytical"
METHOD_CLOSED_FORM = "closed-form"
METHOD_FALLBACK = "numerical-fallback"


@dataclass(frozen=True)
class RegionRecord:
    """One region row: which element, how much volume, what error mass."""

    element: tuple[int, ...]  # 1-based ray indices; () is the apex
    dim: int
    volume: float
    integral: float


@dataclass(frozen=True)
class EvaluationResult:
    ir: float
    irn: float
    output_volume: float
    regions: tuple[RegionRecord, ...]
    extreme_ray_columns: tuple[int, ...]
    redundant_columns: tuple[int, ...]
    zero_columns: tuple[int, ...]
    method: str
    diagnostics: tuple[str, ...]


def evaluate(C, budget_samples: int = SAMPLE_BUDGET) -> EvaluationResult:
    """Mean squared readout error of C over all targets in the unit hypercube."""
    return _evaluate(C, budget_samples, force_regions=False)


def output_volume(C, **kwargs) -> float:
    """Fraction of the hypercube reachable with zero error: vol(cone in cube)."""
    return evaluate(C, **kwargs).output_volume


def region_report(C, budget_samples: int = SAMPLE_BUDGET) -> tuple[RegionRecord, ...]:
    """Per-element region rows, forcing the full pipeline where it applies.

    Unlike evaluate(), a fully covered hypercube does not short-circuit, so
    degenerate (zero-volume) regions are listed rather than skipped.
    """
    return _evaluate(C, budget_samples, force_regions=True).regions


def _evaluate(C, budget_samples, force_regions) -> EvaluationResult:
    sm = as_state_matrix(C)
    m, n = sm.m, sm.n
    if m > MAX_DIM:
        raise BudgetExceededError(f"m = {m} exceeds the supported maximum of {MAX_DIM}")

    zero_cols = tuple((np.flatnonzero(~sm.entries.any(axis=0)) + 1).tolist())
    if len(zero_cols) == n:
        ir = m / 3.0
        apex = RegionRecord(element=(), dim=0, volume=1.0, integral=ir)
        return EvaluationResult(
            ir=ir, irn=1.0, output_volume=0.0, regions=(apex,),
            extreme_ray_columns=(), redundant_columns=(), zero_columns=zero_cols,
            method=METHOD_CLOSED_FORM,
            diagnostics=("all columns zero: distance to the apex over the whole cube",),
        )

    if m == 1:
        positive = tuple(j + 1 for j in range(n) if sm.entries[0, j] > 0)
        return EvaluationResult(
            ir=0.0, irn=0.0, output_volume=1.0, regions=(),
            extreme_ray_columns=positive, redundant_columns=(), zero_columns=zero_cols,
            method=METHOD_CLOSED_FORM,
            diagnostics=("m = 1: any positive column spans the whole interval",),
        )

    cone = coni_facets(sm)
    extreme_cols = tuple(sorted(j + 1 for cols in cone.ray_origins for j in cols))
    redundant_cols = tuple(sorted(set(range(1, n + 1)) - set(extreme_cols) - set(zero_cols)))

    if cone.cone_rank < m:
        return _fallback(sm, cone, extreme_cols, redundant_cols, zero_cols, budget_samples)

    if not force_regions and _covers_hypercube(cone):
        return EvaluationResult(
            ir=0.0, irn=0.0, output_volume=1.0, regions=(),
            extreme_ray_columns=extreme_cols, redundant_columns=redundant_cols,
            zero_columns=zero_cols, method=METHOD_CLOSED_FORM,
            diagnostics=("cone contains every hypercube vertex: full coverage",),
        )

    cone = cone_sub_elements(cone)
    todo = [(dim, elem) for dim in sorted(cone.elements) for elem in cone.elements[dim]]

    records: list[RegionRecord] = []
    pending: list = []  # (dim, element, region, basis) not yet integrated
    n_simplices = block_start = 0
    for k, (dim, elem) in enumerate(todo, 1):
        adj = adjacent_cone(elem, cone)
        region = build_region(adj)
        n_simplices += len(region.simplices)
        if n_simplices > MAX_SIMPLICES:
            raise BudgetExceededError(
                f"{n_simplices} simplices exceed the limit of {MAX_SIMPLICES}")
        pending.append((dim, elem, region, adj.basis))
        if n_simplices - block_start >= INTEGRATE_BLOCK or k == len(todo):
            _, _, regions, bases = zip(*pending)
            for (d, e, r, _), value in zip(pending, region_integral(regions, bases).tolist()):
                records.append(RegionRecord(tuple(i + 1 for i in sorted(e)), d, r.volume, value))
            pending, block_start = [], n_simplices
    ir = sum(r.integral for r in records)
    covered = sum(r.volume for r in records)

    return EvaluationResult(
        ir=ir,
        irn=ir / (m / 3.0),
        output_volume=min(max(1.0 - covered, 0.0), 1.0),
        regions=tuple(records),
        extreme_ray_columns=extreme_cols,
        redundant_columns=redundant_cols,
        zero_columns=zero_cols,
        method=METHOD_ANALYTICAL,
        diagnostics=(),
    )


def _covers_hypercube(cone: Cone) -> bool:
    """Convexity shortcut: all 2^m cube vertices inside means the cube is.

    A vertex is inside when no outward facet normal leans towards it.
    """
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=cone.dim)))
    return bool(np.all(corners @ cone.normals.T < TOL_MEMBER))


def _fallback(sm, cone: Cone, extreme_cols, redundant_cols, zero_cols,
              budget_samples) -> EvaluationResult:
    """Quadrature route for cones that do not span the full space.

    Such a cone has measure zero in R^m, so the output volume is exactly 0.
    The grid resolution is the largest N with N^m within the sample budget,
    with a floor of 16 points per axis even if that overruns the budget; the
    overrun is reported, not fatal.
    """
    m = sm.m
    # rounding the float m-th root gives the integer root or one more
    root = round(max(budget_samples, 1) ** (1.0 / m))
    n_axis = max(16, root - (root ** m > budget_samples))
    diagnostics = [f"cone rank {cone.cone_rank} < {m}: numerical fallback at N = {n_axis}"]
    total = n_axis ** m
    if total > budget_samples:
        diagnostics.append(f"minimum resolution overruns the sample budget: {total} samples")
    q = ir_num(sm.entries, n_axis, budget=max(budget_samples, total))
    return EvaluationResult(
        ir=q.ir_num, irn=q.irn_num, output_volume=0.0, regions=(),
        extreme_ray_columns=extreme_cols, redundant_columns=redundant_cols,
        zero_columns=zero_cols, method=METHOD_FALLBACK, diagnostics=tuple(diagnostics),
    )
