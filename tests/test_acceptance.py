"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Run `pytest -s tests/test_acceptance.py` to see the [PASS]/[FAIL] lines;
without -s pytest captures them (they still run).
"""

import functools
import time

import numpy as np
import pytest

from conirep import evaluate, ir_num, simplex_integral

from conftest import TILTED, WEDGE

SQ2 = 2.0 ** -0.5


def reported(label):
    """Print one verdict line per acceptance check, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}" + (f" [{detail}]" if detail else ""))

        return wrapper

    return deco


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


@reported("zero matrix: ir = m/3 exactly, irn = 1, under 10 ms per call")
def test_zero_matrix_closed_form():
    slowest = 0.0
    for m in (1, 2, 3, 4):
        res, dt = timed(evaluate, np.zeros((m, 2)))
        slowest = max(slowest, dt)
        assert abs(res.ir - m / 3.0) < 1e-12
        assert res.irn == pytest.approx(1.0, abs=1e-12)
        assert dt < 0.010
    return f"slowest {1000 * slowest:.2f} ms"


@reported("full coverage: ir = 0 when the cone holds every cube vertex, under 10 ms")
def test_full_coverage_zero_error():
    cases = [np.eye(2), np.eye(3), np.eye(4),
             np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
             np.array([[2.0, 0.0, 0.0, 1.0],
                       [0.0, 2.0, 0.0, 1.0],
                       [0.0, 0.0, 2.0, 1.0]])]
    slowest = 0.0
    for C in cases:
        res, dt = timed(evaluate, C)
        slowest = max(slowest, dt)
        assert abs(res.ir) < 1e-12
        assert dt < 0.010
    return f"slowest {1000 * slowest:.2f} ms"


@reported("wedge anchor: extreme columns {1,3}, ir = 1/24, output volume 1/2, under 50 ms")
def test_wedge_anchor():
    res, dt = timed(evaluate, WEDGE)
    assert res.extreme_ray_columns == (1, 3)
    assert res.redundant_columns == (2, 4)
    assert abs(res.ir - 1.0 / 24.0) < 1e-10
    assert abs(res.output_volume - 0.5) < 1e-10
    assert dt < 0.050
    return f"{1000 * dt:.2f} ms"


@reported("tilted anchor: five positive regions, exact cube partition, "
          "quadrature agreement, under 2 s")
def test_tilted_anchor():
    t0 = time.perf_counter()
    res = evaluate(TILTED)
    positive = [r for r in res.regions if r.volume > 1e-12]
    assert len(positive) == 5
    total = sum(r.volume for r in res.regions) + res.output_volume
    assert abs(total - 1.0) < 1e-9
    q32 = ir_num(TILTED, 32).ir_num
    q64 = ir_num(TILTED, 64).ir_num
    bound = 2.0 * abs(q32 - q64)
    assert abs(res.ir - q64) <= bound
    dt = time.perf_counter() - t0
    assert dt < 2.0
    return f"|ir - q64| = {abs(res.ir - q64):.2e} <= {bound:.2e}, {dt:.2f} s"


@reported("quadrature error nonincreasing over N in {8,16,32,64}, under 30 s")
def test_quadrature_convergence():
    t0 = time.perf_counter()
    for C in (WEDGE, TILTED):
        ir = evaluate(C).ir
        errs = [abs(ir_num(C, n).ir_num - ir) for n in (8, 16, 32, 64)]
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
    dt = time.perf_counter() - t0
    assert dt < 30.0
    return f"{dt:.1f} s"


@reported("invariance suite: 1000 random m=3 trials, scaling/permutation/"
          "conic-append change ir by < 1e-9, appends never raise it, under 5 min")
def test_invariance_suite():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 6))
        C = rng.uniform(0.0, 3.0, size=(3, n))
        base = evaluate(C)

        scaled = C @ np.diag(rng.uniform(0.25, 4.0, size=n))
        d = abs(evaluate(scaled).ir - base.ir)
        assert d < 1e-9
        worst = max(worst, d)

        conic = np.hstack([C, C @ rng.uniform(0.0, 1.0, size=(n, 1))])
        d = abs(evaluate(conic).ir - base.ir)
        assert d < 1e-9
        worst = max(worst, d)

        rp, cp = rng.permutation(3), rng.permutation(n)
        d = abs(evaluate(C[rp][:, cp]).ir - base.ir)
        assert d < 1e-9
        worst = max(worst, d)

        extra = np.hstack([C, rng.uniform(0.0, 3.0, size=(3, 1))])
        assert evaluate(extra).ir <= base.ir + 1e-9
    dt = time.perf_counter() - t0
    assert dt < 300.0
    return f"worst delta {worst:.2e}, {dt:.0f} s"


@reported("oracle sweep: 50 random full-rank m=3 matrices within the "
          "Richardson bound for at least 48, under 10 min")
def test_oracle_equivalence_sweep():
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(50):
        while True:
            n = int(rng.integers(3, 6))
            C = rng.uniform(0.0, 3.0, size=(3, n))
            if np.linalg.matrix_rank(C) == 3:
                break
        ir = evaluate(C).ir
        q32 = ir_num(C, 32).ir_num
        q64 = ir_num(C, 64).ir_num
        if abs(ir - q64) > 2.0 * abs(q32 - q64):
            failures += 1
    dt = time.perf_counter() - t0
    assert failures <= 2
    assert dt < 600.0
    return f"{50 - failures}/50 within bound, {dt:.0f} s"


@reported("integration kernel: frozen values 1/6 and 1/24 within 1e-12")
def test_integration_kernel_frozen_values():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert abs(simplex_integral(tri, np.zeros((2, 0))) - 1.0 / 6.0) < 1e-12
    tri = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    basis = np.array([[SQ2], [SQ2]])
    assert abs(simplex_integral(tri, basis) - 1.0 / 24.0) < 1e-12
