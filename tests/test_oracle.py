"""Tests for the midpoint-quadrature estimate of the representation error."""

import numpy as np
import pytest

from conirep.errors import BudgetExceededError
from conirep.linalg import block_size
from conirep.oracle import _grid_chunk, convergence_study, ir_num

from conftest import TILTED, WEDGE, random_activity
from reference import grid_chunk_by_int_digits


def wedge_midpoint_value(n):
    # grid points with y > x sit at squared distance (y - x)^2 / 2 from the
    # wedge cone {0 <= y <= x}; summing the arithmetic series gives
    # 1/24 - 1/(24 n^2), derived by hand and verified at small n below
    return 1.0 / 24.0 - 1.0 / (24.0 * n * n)


def test_zero_matrix_one_dimension():
    # two midpoints 1/4 and 3/4: mean squared norm (1/16 + 9/16) / 2
    q = ir_num(np.zeros((1, 1)), 2)
    assert q.ir_num == pytest.approx(0.3125, abs=1e-15)
    assert q.irn_num == pytest.approx(0.9375, abs=1e-15)
    assert q.total_samples == 2


def test_zero_matrix_two_dimensions():
    # closed form for the midpoint grid: 2/3 - 1/(6 n^2)
    assert ir_num(np.zeros((2, 1)), 4).ir_num == pytest.approx(21 / 32, abs=1e-14)
    assert ir_num(np.zeros((2, 1)), 8).ir_num == pytest.approx(255 / 384, abs=1e-14)


def test_identity_grid_is_exact_zero():
    for m in (1, 2, 3):
        assert ir_num(np.eye(m), 8).ir_num < 1e-20


def test_wedge_grid_closed_form(wedge):
    for n in (4, 8, 16):
        assert ir_num(wedge, n).ir_num == pytest.approx(
            wedge_midpoint_value(n), abs=1e-12)


def test_column_scaling_leaves_value():
    rng = np.random.default_rng(97)
    C = rng.uniform(0.0, 3.0, size=(3, 4))
    D = np.diag(rng.uniform(0.5, 4.0, size=4))
    a = ir_num(C, 12).ir_num
    b = ir_num(C @ D, 12).ir_num
    assert b == pytest.approx(a, abs=1e-12)
    # A^T A of columns near 1e-200 underflows unless the columns are rescaled
    for d in ([1e-200] * 4, [1e200] * 4, np.logspace(-200, 200, 4)):
        assert ir_num(C * d, 12).ir_num == pytest.approx(a, rel=1e-12)


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        ir_num(np.eye(3), 100, budget=10_000)
    with pytest.raises(ValueError):
        ir_num(np.eye(2), 0)
    with pytest.raises(TypeError):
        ir_num(np.eye(2), 4.0)


# n ** m in int64 wraps: to 0 samples (a NaN value) and to a negative count
@pytest.mark.parametrize("m, n", [(4, np.int64(65536)), (3, np.int64(2**21 + 1))])
def test_budget_enforced_on_numpy_integer_sizes(m, n):
    with pytest.raises(BudgetExceededError):
        ir_num(np.eye(m), n)


def test_threads_do_not_change_the_value(wedge):
    # fixed reduction order makes the result bit-identical
    base = ir_num(wedge, 600, threads=1)
    multi = ir_num(wedge, 600, threads=4)
    assert base.ir_num == multi.ir_num
    assert base.total_samples == multi.total_samples == 360_000


def test_tilted_value_over_two_chunks():
    # 80^3 = 512,000 samples: a pinned value whose grid spans 24 blocks
    q = ir_num(TILTED, 80)
    assert q.total_samples > 23 * block_size(3)
    assert q.ir_num == pytest.approx(0.02485971408555016, abs=1e-15)


def test_value_where_the_start_drops_coefficients():
    # on this grid 45% of the first 2^18 points start from a support
    # whose least-squares solution has a nonpositive coefficient
    rng = np.random.default_rng([200301588, 4])
    while True:
        C = rng.uniform(0.0, 3.0, size=(4, 4))
        if np.linalg.matrix_rank(C) == 4:
            break
    assert ir_num(C, 26).ir_num == 0.10645398840460851


# ranges that start and stop off the multiples of n, from one point up to
# indices past 2^32 and the top of the default sample budget
@pytest.mark.parametrize("m, n, start, stop", [
    (1, 7, 3, 4), (2, 7, 5, 47), (3, 26, 17, 17_575), (4, 26, 262_141, 456_975),
    (7, 10, 9_990_001, 9_999_999), (3, 2000, 7_999_990_001, 7_999_999_999)])
def test_grid_matches_the_integer_digit_decoder(m, n, start, stop):
    np.testing.assert_array_equal(_grid_chunk(m, n, start, stop),
                                  grid_chunk_by_int_digits(m, n, start, stop))


WIDE = random_activity(np.random.default_rng(2025), 2, 300)


# One-point blocks (a word budget below max(m, n)), two-point blocks on
# TILTED, 301-point blocks that end in a short one, and one block for the
# whole grid. Every block size but the last gives threads=2 a pool. 7 // 300
# = 0 makes the same one-point blocks as 1 on the wide matrix, so it runs once.
@pytest.mark.parametrize("C, n, words", [
    (TILTED, 20, 1), (TILTED, 20, 7), (TILTED, 20, 903), (TILTED, 20, 1 << 40), (WIDE, 32, 1),
    (WIDE, 32, 1 << 40),
], ids=["tilted-1", "tilted-7", "tilted-903", "tilted-huge", "wide-1", "wide-huge"])
def test_block_size_leaves_the_value(monkeypatch, C, n, words):
    default = ir_num(C, n).ir_num
    monkeypatch.setattr("conirep.linalg.BLOCK_WORDS", words)
    one = ir_num(C, n, threads=1).ir_num
    assert one == pytest.approx(default, abs=1e-15)
    assert ir_num(C, n, threads=2).ir_num == one


def test_convergence_study_rows(wedge):
    rows = convergence_study(wedge, [4, 8], ir_exact=1.0 / 24.0)
    assert [r[0] for r in rows] == [4, 8]
    for n, value, err in rows:
        assert value == pytest.approx(wedge_midpoint_value(n), abs=1e-12)
        assert err == pytest.approx(1.0 / (24.0 * n * n), abs=1e-12)
    assert rows[1][2] < rows[0][2]


def test_convergence_study_derives_exact_value():
    rows = convergence_study(WEDGE, [8])
    assert rows[0][2] == pytest.approx(1.0 / (24.0 * 64.0), abs=1e-10)


@pytest.mark.parametrize("budget", [0, -1])
def test_non_positive_budget_is_rejected(budget):
    with pytest.raises(ValueError, match="budget must be at least 1"):
        ir_num(TILTED, 1, budget=budget)
