"""Output gate: every result the benchmark times is checked, outside the timing.

A failed check is reported as a string; the runner counts the call as
failed, so it shows in ``fail_frac`` and makes the run incorrect.

The quadrature cross-check uses a bound, not a tolerance picked to pass: the
integrand dist(x, cone)^2 has a 2-Lipschitz gradient (x - P(x) is
nonexpansive for a convex set), so on a cell of side h its midpoint value
differs from the cell mean by at most E|x - c|^2 = m h^2 / 12. The midpoint
rule on the N^m grid is therefore within m / (12 N^2) of the exact ``ir``.
"""
from __future__ import annotations

import math

# Absolute slack for roundoff on sums of region volumes and integrals.
TOL_SUM = 1e-9
# Relative tolerance for irn against ir / (m / 3).
TOL_IRN = 1e-12


def midpoint_bound(m: int, n_grid: int) -> float:
    """Largest possible |ir - ir_num(C, n_grid)| for an m-state matrix."""
    return m / (12.0 * n_grid * n_grid) + TOL_SUM


def check_evaluate(res, m: int, coarse: float, n_grid: int) -> list[str]:
    """Problems with one EvaluationResult; `coarse` is ir_num(C, n_grid)."""
    problems = []
    values = (res.ir, res.irn, res.output_volume)
    if not all(math.isfinite(v) for v in values):
        return [f"non-finite result {values}"]
    worst = m / 3.0
    if not 0.0 <= res.ir <= worst * (1.0 + TOL_IRN):
        problems.append(f"ir = {res.ir!r} outside [0, m/3 = {worst!r}]")
    if abs(res.irn - res.ir / worst) > TOL_IRN * max(1.0, abs(res.irn)):
        problems.append(f"irn = {res.irn!r} differs from ir/(m/3) = {res.ir / worst!r}")
    covered = math.fsum(r.volume for r in res.regions)
    if covered > 1.0 + TOL_SUM:
        problems.append(f"region volumes sum to {covered!r} > 1")
    if not 0.0 <= res.output_volume <= 1.0:
        problems.append(f"output_volume = {res.output_volume!r} outside [0, 1]")
    bound = midpoint_bound(m, n_grid)
    if abs(res.ir - coarse) > bound:
        problems.append(f"|ir - ir_num(N={n_grid})| = {abs(res.ir - coarse):.3e} "
                        f"exceeds the midpoint bound {bound:.3e}")
    return problems


def check_repeat(value, first) -> list[str]:
    """A repeated call on the same input must reproduce the first bit for bit."""
    if value != first:
        return [f"result {value!r} differs from the first call's {first!r}"]
    return []


def check_quadrature(q, m: int, n_grid: int, exact: float) -> list[str]:
    """Problems with one QuadratureResult against the analytical value."""
    if not math.isfinite(q.ir_num):
        return [f"non-finite ir_num {q.ir_num!r}"]
    problems = []
    if q.total_samples != n_grid ** m:
        problems.append(f"total_samples {q.total_samples} != {n_grid}^{m}")
    bound = midpoint_bound(m, n_grid)
    if abs(q.ir_num - exact) > bound:
        problems.append(f"|ir_num - ir| = {abs(q.ir_num - exact):.3e} exceeds "
                        f"the midpoint bound {bound:.3e}")
    return problems


def check_sweep(report: dict, expected: dict) -> list[str]:
    """Sweep JSON rows against the in-process results, keyed by file stem.

    `expected` maps stem -> (ir, irn, output_volume). JSON floats round-trip
    exactly, so equality is required.
    """
    problems = []
    rows = report.get("results", [])
    seen = set()
    for row in rows:
        stem = row["file"].rsplit("/", 1)[-1].removesuffix(".csv")
        seen.add(stem)
        want = expected.get(stem)
        got = (row["ir"], row["irn"], row["output_volume"])
        if want is None:
            problems.append(f"sweep reported an unexpected file {row['file']}")
        elif got != want:
            problems.append(f"sweep {stem}: {got!r} != in-process {want!r}")
    missing = sorted(set(expected) - seen)
    if missing:
        problems.append(f"sweep omitted {len(missing)} files, e.g. {missing[0]}")
    return problems
