"""End-to-end evaluation of a state matrix.

evaluate() dispatches between closed forms (a cone of rank 0 or 1, whose
one region is the whole cube, a fully covered hypercube, and at m = 2 the
planar cone's two ray regions, _ray_regions) and the analytical region
pipeline, which takes a cone of any rank r at m >= 3: the cone lattice's
adjacent cones, each clipped to the cube at m = 3 by fans from the origin
over its far-face sections (fan_regions) and at m >= 4 by one vectorized
double-description clip of the cube per row index, triangulated by a
pulling walk (build_region). Every region route sums,
over every boundary element of the cone, the exact integral of the squared
distance to that element's span across the element's region of the
hypercube. At r < m the cone itself is one more element, whose region is
the whole cone plus its span's orthogonal complement, and the cone has no volume.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import TOL_MEMBER, Cone, as_state_matrix, cone_sub_elements, coni_facets
# not used here; bench/tracer.py wraps conirep.evaluator.adjacent_cone
from .cone import adjacent_cone  # noqa: F401
from .errors import BudgetExceededError, DegenerateConeError
from .integrate import region_integral
# not used here; bench/tracer.py wraps conirep.evaluator.ir_num
from .oracle import ir_num  # noqa: F401
from .region import build_region, fan_regions

# Hard cap on the dimension; region.MAX_SIMPLICES caps the simplices.
MAX_DIM = 10
# Region volumes may sum past 1 (at rank r < m: differ from 1) by this much.
TOL_PARTITION = 1e-9

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
    """Per-element region rows, forcing the region route where it applies.

    That route is the full pipeline at m >= 3, its regions fans at m = 3,
    and the two ray regions' closed form at m = 2.
    Unlike evaluate(), a fully covered hypercube does not short-circuit, so
    degenerate (zero-volume) regions are listed rather than skipped.
    """
    return _evaluate(C, force_regions=True).regions


def _evaluate(C, force_regions) -> EvaluationResult:
    C = as_state_matrix(C)
    m, n = C.shape
    if m > MAX_DIM:
        raise BudgetExceededError(f"m = {m} exceeds the supported maximum of {MAX_DIM}")

    zero_cols = tuple((np.flatnonzero(~C.any(axis=0)) + 1).tolist())
    cone = None if len(zero_cols) == n else coni_facets(C)
    rank = 0 if cone is None else cone.cone_rank
    origins = () if cone is None else cone.ray_origins
    extreme_cols = tuple(sorted(j + 1 for cols in origins for j in cols))
    redundant_cols = tuple(sorted(set(range(1, n + 1)) - set(extreme_cols) - set(zero_cols)))

    def result(ir, volume, regions, method, *diagnostics):
        return EvaluationResult(
            ir=ir, irn=ir / (m / 3.0), output_volume=volume, regions=tuple(regions),
            extreme_ray_columns=extreme_cols, redundant_columns=redundant_cols,
            zero_columns=zero_cols, method=method, diagnostics=diagnostics)

    if rank <= 1:
        # the cone is the apex or one unit ray u; x . u >= 0 on the cube, so
        # its region is the whole cube, and the mean of |x|^2 - r (u . x)^2
        # is m/3 - r/12 - r (sum u)^2 / 4
        s = float(cone.rays[0].sum()) if rank else 0.0
        ir = (4 * m - rank - 3 * rank * s * s) / 12.0
        regions = [] if m == rank else [RegionRecord(tuple(range(1, rank + 1)), rank, 1.0, ir)]
        return result(ir, float(m == rank), regions, METHOD_CLOSED_FORM,
                      f"cone rank {rank}: its region is the whole cube")

    full_rank = rank == m
    if not force_regions and full_rank and _covers_hypercube(cone):
        return result(0.0, 1.0, [], METHOD_CLOSED_FORM,
                      "cone contains every hypercube vertex: full coverage")

    if m == 2:
        # a planar cone: its two rays are its elements
        members, dims = cone.facets, np.ones(2, dtype=int)
        volumes, integrals = _ray_regions(cone.rays)
    else:
        table = cone_sub_elements(cone)
        members, dims = table.members, table.dims
        regions = (fan_regions if m == 3 else build_region)(table)
        volumes, integrals = region_integral(regions, table.bases)
    # each element's 1-based rays, ascending, read off its ray mask
    rays = (np.nonzero(members)[1] + 1).tolist()
    ends = members.sum(axis=1).cumsum().tolist()
    records = [RegionRecord(tuple(rays[a:b]), d, volume, value) for a, b, d, volume, value
               in zip([0, *ends], ends, dims.tolist(), volumes.tolist(), integrals.tolist())]
    covered = sum(r.volume for r in records)
    if covered - 1.0 > TOL_PARTITION or (not full_rank and 1.0 - covered > TOL_PARTITION):
        raise DegenerateConeError(f"region volumes sum to {covered!r}, not a partition of the cube")
    return result(sum(r.integral for r in records),
                  max(1.0 - covered, 0.0) if full_rank else 0.0, records, METHOD_ANALYTICAL)


def _ray_regions(rays: np.ndarray):
    """Area and squared-distance integral of each ray region of a planar cone.

    rays: the cone's (2, 2) unit rays, the steeper first, as coni_facets
    gives them. The steeper ray (a, b) owns the square's part a y >= b x,
    where the squared distance is (a y - b x)^2. When b >= a that part is
    the triangle of the origin, (a/b, 1) and (0, 1): area a/2b, integral
    a^3/12b. Otherwise it is the square less the triangle of the origin,
    (1, 0) and (1, b/a): area 1 - b/2a, integral a^2/3 - ab/2 + b^2/3 -
    b^3/12a. The flatter ray's is the same with x and y swapped.
    """
    a, b = np.array([rays[0], rays[1, ::-1]]).T
    low, high = np.minimum(a, b), np.maximum(a, b)
    area, value = low / (2.0 * high), low ** 3 / (12.0 * high)
    return np.where(a > b, 1.0 - area, area), \
        np.where(a > b, a * a / 3.0 - a * b / 2.0 + b * b / 3.0 - value, value)


def _covers_hypercube(cone: Cone) -> bool:
    """Convexity shortcut: all m unit vectors inside means the cube is.

    Unit vector e_j is inside when column j of the outward facet normals is
    below the tolerance, and a cone is closed under addition, so it then
    holds every cube vertex, a sum of some e_j. The cone must have full
    rank: lifted normals of a flat cone can lean away from every vertex.
    """
    return bool(np.all(cone.normals < TOL_MEMBER))
