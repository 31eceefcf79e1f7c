"""Seeded workload plans: which calls a run makes, on which matrices.

A plan has three parts: `heavy` items run once, `cycle` items are repeated
until the run's time is used (at least `min_cycles` times), and `tail` items
run once at the end. The same (workload, seed, smoke) always gives the same
matrices; the program under test sees only these arrays.

Why each workload exists, and what it leaves out, is in README.md.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("ladder", "wide", "quadrature")
_TAG = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# ladder: (m, n) shapes and how many distinct matrices each pool holds
# (5, 10) is left out: one call takes 7-13 s, half a run on its own
LADDER_POOLS = {(2, 3): 16, (2, 4): 16, (3, 4): 16, (3, 6): 16,
                (4, 5): 4, (4, 8): 4, (5, 6): 1}
LADDER_MIN_M3_CALLS = 200
WIDE_N = 300
WIDE_POOL = 8
# quadrature grids: m -> N; 80^3 and 26^4 samples are two chunks of at most
# 2^18 each, the fewest that let threads=2 start a pool. Each call takes
# 2-3 s, short enough for the speed samples around it to track its time.
QUAD_GRIDS = {3: 80, 4: 26}
# at least this many cycles of the four quadrature calls, so each class has
# a median of three or more
QUAD_MIN_CYCLES = 3
# m = 3 base: the test suite's TILTED matrix, the ROADMAP's quadrature
# reference; the m = 4 base is the first full-rank draw from this seed
TILTED = np.array([[2.0, 3.0, 0.0], [3.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
QUAD_BASE_SEED = 200301588

# coarse quadrature resolution for cross-checking an evaluate result
CHECK_GRID = {(2, False): 64, (3, False): 16, (4, False): 8, (5, False): 6,
              (2, True): 32, (3, True): 10}


@dataclass(frozen=True)
class Item:
    """One timed call. `key` names the input: equal keys, equal results."""

    cls: str
    kind: str  # "evaluate" | "ir_num" | "sweep"
    key: str
    matrix: np.ndarray | None = None
    n_grid: int = 0  # ir_num resolution, or the evaluate check's resolution
    threads: int = 1


@dataclass
class Plan:
    heavy: list[Item] = field(default_factory=list)
    cycle: list[Item] = field(default_factory=list)
    min_cycles: int = 1
    tail: list[Item] = field(default_factory=list)
    sweep_keys: list[str] = field(default_factory=list)

    def fixed_job(self) -> list[Item]:
        """The calls of a minimal run, in order: what the traced run times."""
        return self.heavy + self.cycle * self.min_cycles + self.tail

    def matrices(self) -> dict[str, np.ndarray]:
        return {it.key: it.matrix for it in self.heavy + self.cycle + self.tail
                if it.matrix is not None}


def _rng(workload: str, seed: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAG[workload], *parts])


def _uniform(rng, m, n):
    return rng.uniform(0.0, 3.0, size=(m, n))


def ladder(seed: int, smoke: bool = False) -> Plan:
    pools = {(2, 3): 2, (3, 4): 2, (4, 5): 1} if smoke else LADDER_POOLS
    plan = Plan()
    m3_per_cycle = 0
    for (m, n), size in pools.items():
        rng = _rng("ladder", seed, m, n)
        items = [Item(f"m{m}n{n}", "evaluate", f"m{m}n{n}_{k:02d}", _uniform(rng, m, n),
                      CHECK_GRID[(m, False)]) for k in range(size)]
        if m >= 4:
            plan.heavy += items
        else:
            plan.cycle += items
            plan.sweep_keys += [it.key for it in items]
            m3_per_cycle += size * (m == 3)
    # heaviest first, so a slow run shows in its first seconds
    plan.heavy.sort(key=lambda it: -it.matrix.size)
    plan.min_cycles = 1 if smoke else -(-LADDER_MIN_M3_CALLS // m3_per_cycle)
    # two sweeps, so the per-file time does not rest on one 1-2 s call
    plan.tail = [Item("sweep", "sweep", "sweep")] * (1 if smoke else 2)
    return plan


def wide(seed: int, smoke: bool = False) -> Plan:
    n, size = (20, 2) if smoke else (WIDE_N, WIDE_POOL)
    plan = Plan(min_cycles=1 if smoke else 2)
    for m in (2, 3):
        rng = _rng("wide", seed, m, n)
        plan.cycle += [Item(f"m{m}n{n}", "evaluate", f"m{m}n{n}_{k:02d}", _uniform(rng, m, n),
                            CHECK_GRID[(m, True)]) for k in range(size)]
    return plan


def quadrature_base(m: int) -> np.ndarray:
    """Fixed full-rank m x m base matrix; every run uses an image of it."""
    if m == 3:
        return TILTED.copy()
    rng = np.random.default_rng([QUAD_BASE_SEED, m])
    while True:
        C = _uniform(rng, m, m)
        if np.linalg.matrix_rank(C) == m:
            return C


def quadrature(seed: int, smoke: bool = False) -> Plan:
    """Each seed permutes the rows and the columns of a fixed base matrix.

    The cube is symmetric under both maps and the cone does not depend on
    column order, so `ir` and the geometry that sets the cost of each NNLS
    solve stay the same, while the grid order, the split of points into
    chunks and the solver's tie-breaks change. See README.md for why the
    base is fixed.
    """
    grids = {3: 8, 4: 4} if smoke else QUAD_GRIDS
    plan = Plan(min_cycles=1 if smoke else QUAD_MIN_CYCLES)
    for m, n_grid in grids.items():
        rng = _rng("quadrature", seed, m)
        base = quadrature_base(m)
        C = base[rng.permutation(m)][:, rng.permutation(m)]
        for threads in (1, 2):
            plan.cycle.append(Item(f"m{m}N{n_grid}t{threads}", "ir_num", f"q{m}", C,
                                   n_grid, threads))
    return plan


def make_plan(workload: str, seed: int, smoke: bool = False) -> Plan:
    return {"ladder": ladder, "wide": wide, "quadrature": quadrature}[workload](seed, smoke)
