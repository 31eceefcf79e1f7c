"""Tests for the nonnegative least-squares solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import lsq_linear

import conirep.nnls as nnls_module
from conirep.errors import IterationLimitError
from conirep.nnls import _lawson_hanson, _solve_group, _solve_patterns, nnls, nnls_batch
from conirep.oracle import _grid_chunk, ir_num

from conftest import JUMP, TILTED, perturbed


def test_exact_fit():
    x, rnorm = nnls(np.eye(2), np.array([0.5, 0.25]))
    np.testing.assert_allclose(x, [0.5, 0.25], atol=1e-14)
    assert rnorm == pytest.approx(0.0, abs=1e-14)


def test_single_column_projection():
    # min over w >= 0 of (w - 1)^2 + w^2 sits at w = 1/2
    x, rnorm = nnls(np.array([[1.0], [1.0]]), np.array([1.0, 0.0]))
    assert x[0] == pytest.approx(0.5, abs=1e-14)
    assert rnorm**2 == pytest.approx(0.5, abs=1e-14)


def test_active_bound():
    # column cannot reach the target at all, best weight is zero
    x, rnorm = nnls(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]))
    assert x[0] == pytest.approx(0.0, abs=1e-14)
    assert rnorm**2 == pytest.approx(1.0, abs=1e-14)


# The three gradients tie exactly at x = 0. The smallest index enters
# first, and then column 2 covers the rest; had column 1 entered first,
# the answer would be (0, 1, 1).
def test_ties_enter_the_smallest_index():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    x, rnorm = nnls(a, np.ones(2))
    np.testing.assert_array_equal(x, [1.0, 0.0, 1.0])
    assert rnorm == 0.0
    xb, rsq = nnls_batch(a, np.ones((2, 1)))
    np.testing.assert_array_equal(xb[:, 0], [1.0, 0.0, 1.0])
    assert rsq[0] == 0.0


# A^T A singular (the batch starts empty) and nonsingular (it starts from
# the unconstrained support); the gradient reduction sees an n x 0 block
@pytest.mark.parametrize("a", [np.ones((3, 2)), np.eye(3)], ids=["singular", "nonsingular"])
def test_empty_batch(a):
    x, rsq = nnls_batch(a, np.empty((3, 0)))
    assert x.shape == (a.shape[1], 0) and rsq.shape == (0,)


# no columns: x is empty and the residual is p itself
def test_matrix_without_columns():
    p = np.array([1.0, 2.0, 2.0])
    x, rnorm = nnls(np.zeros((3, 0)), p)
    assert x.shape == (0,) and rnorm == 3.0
    pts = np.array([[1.0, 0.0, 3.0], [2.0, 0.0, 4.0]])
    X, rsq = nnls_batch(np.zeros((2, 0)), pts)
    assert X.shape == (0, 3)
    np.testing.assert_array_equal(rsq, [5.0, 0.0, 25.0])
    X, rsq = nnls_batch(np.zeros((2, 0)), np.empty((2, 0)))
    assert X.shape == (0, 0) and rsq.shape == (0,)


def test_never_beaten_by_random_feasible_points():
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = rng.integers(1, 6)
        n = rng.integers(1, 6)
        a = rng.uniform(0.0, 2.0, size=(m, n))
        b = rng.uniform(0.0, 1.0, size=m)
        x, rnorm = nnls(a, b)
        assert x.min() >= 0.0
        obj = rnorm**2
        trial = rng.uniform(0.0, 2.0, size=(n, 200))
        trial_obj = ((a @ trial - b[:, None]) ** 2).sum(axis=0)
        assert obj <= trial_obj.min() + 1e-10
        clipped = np.clip(np.linalg.lstsq(a, b, rcond=None)[0], 0.0, None)
        assert obj <= ((a @ clipped - b) ** 2).sum() + 1e-10


def test_matches_bounded_least_squares():
    rng = np.random.default_rng(29)
    for _ in range(300):
        m = rng.integers(1, 7)
        n = rng.integers(1, 7)
        a = rng.uniform(0.0, 2.0, size=(m, n))
        b = rng.uniform(0.0, 1.5, size=m)
        _, rnorm = nnls(a, b)
        ref = lsq_linear(a, b, bounds=(0.0, np.inf), tol=1e-14)
        ref_obj = ((a @ ref.x - b) ** 2).sum()
        assert rnorm**2 <= ref_obj + 1e-9


def test_batch_matches_scalar():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = rng.integers(2, 5)
        n = rng.integers(1, 7)
        a = rng.uniform(0.0, 2.0, size=(m, n))
        pts = rng.uniform(0.0, 1.0, size=(m, 200))
        xb, rsq = nnls_batch(a, pts)
        assert xb.min() >= 0.0
        for i in range(pts.shape[1]):
            _, rnorm = nnls(a, pts[:, i])
            assert rsq[i] == pytest.approx(rnorm**2, abs=1e-10)
            assert ((a @ xb[:, i] - pts[:, i]) ** 2).sum() == pytest.approx(
                rsq[i], abs=1e-10)


def _solve_patterns_by_row_sort(A, P, G, H, pats, pending, lstsq):
    """Reference grouping: np.unique over the boolean pattern rows, each
    group solved as _solve_patterns solves it."""
    Z = np.zeros((G.shape[0], pending.size))
    uniq, inv = np.unique(pats.T, axis=0, return_inverse=True)
    for k in range(uniq.shape[0]):
        rows = np.flatnonzero(uniq[k])
        cols = np.flatnonzero(inv.ravel() == k)
        if rows.size == 0:
            continue
        pts = pending[cols]
        Z[np.ix_(rows, cols)] = (np.linalg.lstsq(A[:, rows], P[:, pts], rcond=None)[0] if lstsq
                                 else _solve_group(G[np.ix_(rows, rows)], H[np.ix_(rows, pts)]))
    return Z


# pattern lengths on and either side of multiples of 8, where the key gains a byte
@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130])
def test_pattern_key_across_byte_and_word_boundaries(n):
    rng = np.random.default_rng(43 + n)
    a = rng.uniform(0.0, 2.0, size=(n + 2, n))
    pts = rng.uniform(0.0, 1.0, size=(n + 2, 400))
    G, H = a.T @ a, a.T @ pts
    pending = np.sort(rng.choice(pts.shape[1], size=300, replace=False))
    base = rng.random(n) < 0.5
    pools = [rng.random((n, 12)) < 0.5]
    # two patterns one bit apart sort next to each other, so a key that
    # misses the byte holding that bit merges their groups
    for bit in sorted({0, 7, 8, 63, 64, n - 1} & set(range(n))):
        other = base.copy()
        other[bit] ^= True
        pools.append(np.stack([base, other, np.zeros(n, dtype=bool)], axis=1))
    for pool in pools:
        pats = pool[:, rng.integers(0, pool.shape[1], size=pts.shape[1])][:, pending]
        for lstsq in (False, True):
            args = (a, pts, G, H, pats, pending, lstsq)
            np.testing.assert_array_equal(_solve_patterns(*args),
                                          _solve_patterns_by_row_sort(*args))

    small = rng.uniform(0.0, 2.0, size=(4, n))
    b = rng.uniform(0.0, 1.0, size=(4, 40))
    xb, rsq = nnls_batch(small, b)
    assert xb.min() >= 0.0
    for i in range(b.shape[1]):
        assert rsq[i] == pytest.approx(nnls(small, b[:, i])[1] ** 2, abs=1e-10)


def test_singular_group_falls_back_to_lstsq():
    # columns 1 and 2 are equal, so the group whose passive set holds both
    # has an exactly singular block of G, and the other two do not
    rng = np.random.default_rng(59)
    a = rng.uniform(0.0, 2.0, size=(3, 4))
    a[:, 2] = a[:, 1]
    pts = rng.uniform(0.0, 1.0, size=(3, 90))
    G, H = a.T @ a, a.T @ pts
    pending = np.arange(0, 90, 2)
    patterns = np.array([[1, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]], dtype=bool).T
    group = np.arange(pending.size) % 3
    Z = _solve_patterns(a, pts, G, H, patterns[:, group], pending, False)
    for g in range(3):
        rows, cols = np.flatnonzero(patterns[:, g]), np.flatnonzero(group == g)
        sub, rhs = G[np.ix_(rows, rows)], H[np.ix_(rows, pending[cols])]
        if g == 0:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.inv(sub)
            expected = np.linalg.lstsq(sub, rhs, rcond=None)[0]
        else:
            expected = np.linalg.inv(sub) @ rhs
        np.testing.assert_array_equal(Z[np.ix_(rows, cols)], expected)
        assert not np.delete(Z[:, cols], rows, axis=0).any()
    _assert_batch_matches_scalar(a, pts)


@st.composite
def _nonnegative_problems(draw, tall=False):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, m if tall else 70))
    p = draw(st.integers(1, 12))
    entries = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
    return (draw(arrays(float, (m, n), elements=entries)),
            draw(arrays(float, (m, p), elements=entries)))


def _assert_batch_matches_scalar(a, pts):
    xb, rsq = nnls_batch(a, pts)
    assert xb.min() >= 0.0
    for i in range(pts.shape[1]):
        _, rnorm = nnls(a, pts[:, i])
        assert rsq[i] == pytest.approx(rnorm**2, abs=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_nonnegative_problems())
def test_batch_matches_scalar_property(problem):
    _assert_batch_matches_scalar(*problem)


# n <= m: mostly full column rank, where the batch solver starts from the
# support of the unconstrained solution rather than from the empty set
@settings(max_examples=60, deadline=None, derandomize=True)
@given(_nonnegative_problems(tall=True))
def test_batch_matches_scalar_property_at_most_m_columns(problem):
    _assert_batch_matches_scalar(*problem)


def _full_column_rank_cases():
    rng = np.random.default_rng(47)
    u = np.array([1.0, 0.0, 0.3]) / np.hypot(1.0, 0.3)
    w = np.array([0.0, 1.0, 0.0])
    near = np.stack([u, np.cos(1e-9) * u + np.sin(1e-9) * w, [0.2, 0.5, 1.0]], axis=1)
    tiny = rng.uniform(0.0, 2.0, size=(3, 3))
    tiny[:, 1] *= 1e-8
    square = rng.uniform(0.0, 2.0, size=(4, 4))
    inside = square @ rng.uniform(0.5, 1.0, size=(4, 50))
    outside = 10.0 * rng.normal(size=(4, 50))
    return [
        pytest.param(near, rng.uniform(0.0, 1.0, size=(3, 200)), id="columns 1e-9 apart"),
        pytest.param(tiny, rng.uniform(0.0, 1.0, size=(3, 200)), id="1e-8-scaled column"),
        pytest.param(square, np.hstack([inside, outside]), id="inside and outside the cone"),
    ]


# A has full column rank in every case, but in the first two A^T A is
# singular in floating point, where solving for the start would fail
@pytest.mark.parametrize("a, pts", _full_column_rank_cases())
def test_batch_matches_scalar_at_full_column_rank(a, pts):
    assert np.linalg.matrix_rank(a) == a.shape[1]
    _assert_batch_matches_scalar(a, pts)


def _record_passes(monkeypatch):
    """Each later _lawson_hanson call, as (lstsq, number of points)."""
    passes, loop = [], _lawson_hanson

    def recording(A, P, lstsq):
        passes.append((lstsq, P.shape[1]))
        return loop(A, P, lstsq)

    monkeypatch.setattr("conirep.nnls._lawson_hanson", recording)
    return passes


# every point of a quadrature grid passes the batch solver's KKT check, so
# no lstsq pass follows the pass on the normal equations
@pytest.mark.parametrize("a, n", [(TILTED, 24),
                                  (np.random.default_rng(53).uniform(0.0, 3.0, (4, 4)), 10)],
                         ids=["TILTED, N = 24", "4x4, N = 10"])
def test_no_scalar_repairs_on_quadrature_grids(monkeypatch, a, n):
    passes = _record_passes(monkeypatch)
    m = a.shape[0]
    assert np.linalg.matrix_rank(a) == m
    nnls_batch(a, _grid_chunk(m, n, 0, n**m))
    assert passes == [(False, n**m)]


# JUMP at 1e-6, seed 24 has a near-flat facet, and about 11% of its grid
# points fail the pass on the normal equations (7,094 of 16^4). They are
# solved again in one lstsq pass, without calling the scalar solver, and at
# N = 8 each comes out as the scalar solver's own result.
def test_failed_points_are_solved_together_as_the_scalar_solver_solves_each(monkeypatch):
    C = perturbed(JUMP, 1e-6, 24)
    calls = []
    monkeypatch.setattr("conirep.nnls.nnls", lambda *args: calls.append(args) or nnls(*args))
    ir_num(C, 16)
    assert calls == []
    pts = _grid_chunk(4, 8, 0, 8**4)
    redo = np.flatnonzero(_lawson_hanson(C, pts, False)[2])
    assert redo.size > 0.05 * pts.shape[1]
    x, rsq = nnls_batch(C, pts)
    for j in redo.tolist():
        xs, rnorm = nnls(C, pts[:, j])
        np.testing.assert_array_equal(x[:, j], xs)
        assert abs(rsq[j] - rnorm * rnorm) <= 2.2e-16


# Found by a wider random search of the property above. The optimum is about
# (1, 1, 1e8) with zero residual; on the unscaled columns the scalar
# solver's lstsq step returns 1 + 1e-8 for the second coefficient, whose
# gradient then fails the KKT tolerance.
def test_scalar_matches_batch_on_badly_scaled_columns():
    a = np.array([[1.0, 0.0, 1e-20], [1e-20, 1.0, 0.0], [1e-20, 0.0, 1e-8]])
    b = np.ones(3)
    _, rsq = nnls_batch(a, b[:, None])
    assert rsq[0] == pytest.approx(0.0, abs=1e-20)
    x, rnorm = nnls(a, b)
    np.testing.assert_allclose(x, [1.0, 1.0, 1e8], rtol=1e-10)
    assert rnorm**2 == pytest.approx(rsq[0], abs=1e-10)


# Left over from a 3000-example search of the property above: several
# identical 1e-8 columns next to unit-scale ones, where scipy's nnls finds a
# residual of about 1e-16. On the unscaled columns the scalar solver either
# stopped at a non-KKT point or cycled until its iteration limit.
@pytest.mark.parametrize("a", [
    [[1.0, 1e-8, 1e-8, 1e-8],
     [1e-8, 1e-8, 1e-8, 1.0],
     [1e-8, 1e-8, 1e-8, 1e-8],
     [1e-8, 1e-8, 1e-8, 1e-8]],
    [[1.0, 1e-8, 1e-8, 1e-8, 1e-8, 1e-8, 1e-8],
     [1e-8, 1e-8, 1e-8, 1e-8, 1e-8, 1e-8, 1e-8],
     [1e-8, 1e-8, 1e-8, 1e-8, 1e-8, 1e-8, 1e-8],
     [1e-8, 1e-8, 1e-8, 1e-8, 0.5, 1.0, 0.0]],
], ids=["non-KKT", "iteration-limit"])
def test_scalar_on_identical_tiny_columns(a):
    _, rnorm = nnls(np.array(a), np.ones(4))
    assert rnorm < 1e-10


def test_batch_deterministic_and_chunking_stable():
    rng = np.random.default_rng(37)
    a = rng.uniform(0.0, 2.0, size=(3, 4))
    pts = rng.uniform(0.0, 1.0, size=(3, 500))
    _, whole = nnls_batch(a, pts)
    _, again = nnls_batch(a, pts)
    np.testing.assert_array_equal(whole, again)
    # chunk boundaries change how many columns share each group's product
    # with its inverse, which can move BLAS's result by the last ulp
    parts = np.concatenate([nnls_batch(a, chunk)[1]
                            for chunk in np.array_split(pts, 7, axis=1)])
    np.testing.assert_allclose(whole, parts, atol=1e-14)


# A column 1e-6 the size of the others has a gradient below the KKT
# tolerance at unit scale, so without the solver's own column scaling it
# never entered: 2 of these 1,200 points stopped short, by 2.8e-7 and 2.1e-7.
def test_column_scale_leaves_the_residual_unchanged():
    rng = np.random.default_rng(5)
    for _ in range(4):
        a = rng.uniform(0.0, 2.0, size=(5, 3))
        tiny = a * [1.0, 1.0, 1e-6]
        for _ in range(300):
            b = rng.uniform(0.0, 1.0, size=5)
            assert nnls(tiny, b)[1] == pytest.approx(nnls(a, b)[1], abs=1e-12)


# A column too small for any finite weight gets weight inf, as in scipy,
# and its residual is measured at unit scale rather than as inf - inf.
def test_subnormal_column_gets_infinite_weight():
    a, b = np.array([[5e-324], [0.0]]), np.array([1.0, 1.0])
    x, rnorm = nnls(a, b)
    assert x[0] == np.inf and rnorm == 1.0
    x, rsq = nnls_batch(a, b[:, None])
    assert x[0, 0] == np.inf and rsq[0] == 1.0


def test_iteration_limit_raises(monkeypatch):
    monkeypatch.setattr("conirep.nnls.MAX_ITER_PER_COLUMN", 0)
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(IterationLimitError, match="^nnls did not converge in 0 "):
        nnls(a, np.array([1.0, 1.0]))
    # the batch solves the points still live at its cap again with lstsq,
    # and raises when they stop at the same cap
    with pytest.raises(IterationLimitError, match="^nnls did not converge in 0 "):
        nnls_batch(a, np.ones((2, 3)))


# At a cap of 0 every point is still live after the pass on the normal
# equations; the lstsq pass, run here at the usual cap, solves all three.
def test_points_live_at_the_cap_go_to_the_lstsq_pass(monkeypatch):
    cap = nnls_module.MAX_ITER_PER_COLUMN
    monkeypatch.setattr("conirep.nnls.MAX_ITER_PER_COLUMN", 0)
    passes, loop = [], _lawson_hanson

    def uncapped_lstsq(A, P, lstsq):
        passes.append((lstsq, P.shape[1]))
        if lstsq:
            monkeypatch.setattr("conirep.nnls.MAX_ITER_PER_COLUMN", cap)
        return loop(A, P, lstsq)

    monkeypatch.setattr("conirep.nnls._lawson_hanson", uncapped_lstsq)
    x, rsq = nnls_batch(np.eye(2), np.ones((2, 3)))
    assert passes == [(False, 3), (True, 3)]
    np.testing.assert_allclose(x, np.ones((2, 3)))
    np.testing.assert_allclose(rsq, 0.0, atol=1e-30)


# Group solves off by a relative 1e-6 leave every point a gradient on its
# passive set far above the KKT tolerance. Each point is checked on the
# gradient of the pass where it stops growing, so every one is solved again
# in the lstsq pass, which does not use the group inverse. Its products
# span 216 columns where the scalar solver's span one, so a coefficient
# near 0 may differ in rounding (one here, by 2.8e-17).
def test_points_failing_kkt_go_to_the_lstsq_pass(monkeypatch):
    exact = _solve_group
    monkeypatch.setattr("conirep.nnls._solve_group",
                        lambda sub, rhs: exact(sub, rhs) * (1.0 + 1e-6))
    passes = _record_passes(monkeypatch)
    pts = _grid_chunk(3, 6, 0, 216)
    x, rsq = nnls_batch(TILTED, pts)
    assert passes == [(False, 216), (True, 216)]
    for j in range(216):
        xs, rnorm = nnls(TILTED, pts[:, j])
        np.testing.assert_allclose(x[:, j], xs, rtol=1e-14, atol=1e-16)
        assert abs(rsq[j] - rnorm * rnorm) <= 2.2e-16


def test_scalar_deterministic():
    rng = np.random.default_rng(41)
    a = rng.uniform(0.0, 2.0, size=(4, 5))
    b = rng.uniform(0.0, 1.0, size=4)
    x1, r1 = nnls(a, b)
    x2, r2 = nnls(a, b)
    np.testing.assert_array_equal(x1, x2)
    assert r1 == r2
