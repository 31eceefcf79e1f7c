"""End-to-end evaluation of a state matrix.

evaluate() dispatches between closed forms (all-zero matrix, a cone of rank
1, fully covered hypercube) and the analytical region pipeline, which takes
a cone of any rank r. It sums, over every boundary element of the cone, the
exact integral of the squared distance to that element's span across the
element's region of the hypercube. At r < m the cone itself is one more
element, whose region is the whole cone plus its span's orthogonal
complement, and the cone has no volume.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cone import (TOL_MEMBER, Cone, adjacent_cone, as_state_matrix, cone_sub_elements,
                   coni_facets)
from .errors import BudgetExceededError
from .integrate import region_integral
# not used here; bench/tracer.py wraps conirep.evaluator.ir_num
from .oracle import ir_num  # noqa: F401
from .region import build_region

# Hard caps for the combinatorial stages; each region's triangulation may
# hold what the regions before it left of MAX_SIMPLICES.
MAX_DIM = 10
MAX_SIMPLICES = 1_000_000
# Regions are integrated together once they hold at least this many simplices.
INTEGRATE_BLOCK = 4096

METHOD_ANALYTICAL = "analytical"
METHOD_CLOSED_FORM = "closed-form"


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


def evaluate(C) -> EvaluationResult:
    """Mean squared readout error of C over all targets in the unit hypercube."""
    return _evaluate(C, force_regions=False)


def output_volume(C) -> float:
    """Fraction of the hypercube reachable with zero error: vol(cone in cube)."""
    return evaluate(C).output_volume


def region_report(C) -> tuple[RegionRecord, ...]:
    """Per-element region rows, forcing the full pipeline where it applies.

    Unlike evaluate(), a fully covered hypercube does not short-circuit, so
    degenerate (zero-volume) regions are listed rather than skipped.
    """
    return _evaluate(C, force_regions=True).regions


def _evaluate(C, force_regions) -> EvaluationResult:
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

    cone = coni_facets(sm)
    extreme_cols = tuple(sorted(j + 1 for cols in cone.ray_origins for j in cols))
    redundant_cols = tuple(sorted(set(range(1, n + 1)) - set(extreme_cols) - set(zero_cols)))

    if cone.cone_rank == 1:
        # x . u >= 0 on the cube, so the ray's region is the whole cube and
        # the mean of |x|^2 - (u . x)^2 is m/3 - 1/12 - (sum u)^2 / 4
        s = float(cone.rays[0].sum())
        ir = (4 * m - 1 - 3 * s * s) / 12.0
        regions = () if m == 1 else (RegionRecord((1,), 1, 1.0, ir),)
        return EvaluationResult(
            ir=ir, irn=ir / (m / 3.0), output_volume=float(m == 1), regions=regions,
            extreme_ray_columns=extreme_cols, redundant_columns=redundant_cols,
            zero_columns=zero_cols, method=METHOD_CLOSED_FORM,
            diagnostics=("cone rank 1: the ray's region is the whole cube",),
        )

    full_rank = cone.cone_rank == m
    if not force_regions and full_rank and _covers_hypercube(cone):
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
        region = build_region(adj, MAX_SIMPLICES - n_simplices)
        n_simplices += len(region.simplices)
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
        output_volume=min(max(1.0 - covered, 0.0), 1.0) if full_rank else 0.0,
        regions=tuple(records),
        extreme_ray_columns=extreme_cols,
        redundant_columns=redundant_cols,
        zero_columns=zero_cols,
        method=METHOD_ANALYTICAL,
        diagnostics=(),
    )


def _covers_hypercube(cone: Cone) -> bool:
    """Convexity shortcut: all 2^m cube vertices inside means the cube is.

    A vertex is inside when no outward facet normal leans towards it. The
    cone must have full rank: lifted normals of a flat cone can lean away
    from every vertex.
    """
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=cone.dim)))
    return bool(np.all(corners @ cone.normals.T < TOL_MEMBER))
