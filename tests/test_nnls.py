"""Tests for the nonnegative least-squares solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import lsq_linear

from conirep.errors import IterationLimitError
from conirep.nnls import _solve_patterns, nnls, nnls_batch


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


def _solve_patterns_by_row_sort(G, H, passive, pending):
    """Reference grouping: np.unique over the boolean pattern rows."""
    Z = np.zeros((G.shape[0], pending.size))
    pats = passive[:, pending]
    uniq, inv = np.unique(pats.T, axis=0, return_inverse=True)
    for k in range(uniq.shape[0]):
        rows = np.flatnonzero(uniq[k])
        cols = np.flatnonzero(inv.ravel() == k)
        if rows.size == 0:
            continue
        sub = G[np.ix_(rows, rows)]
        rhs = H[np.ix_(rows, pending[cols])]
        try:
            sol = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(sub, rhs, rcond=None)[0]
        Z[np.ix_(rows, cols)] = sol
    return Z


# pattern lengths on either side of the key's byte (8) and word (64) boundaries
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
    # misses the byte or word holding that bit merges their groups
    for bit in sorted({0, 7, 8, 63, 64, n - 1} & set(range(n))):
        other = base.copy()
        other[bit] ^= True
        pools.append(np.stack([base, other, np.zeros(n, dtype=bool)], axis=1))
    for pool in pools:
        passive = pool[:, rng.integers(0, pool.shape[1], size=pts.shape[1])]
        np.testing.assert_array_equal(_solve_patterns(G, H, passive, pending),
                                      _solve_patterns_by_row_sort(G, H, passive, pending))

    small = rng.uniform(0.0, 2.0, size=(4, n))
    b = rng.uniform(0.0, 1.0, size=(4, 40))
    xb, rsq = nnls_batch(small, b)
    assert xb.min() >= 0.0
    for i in range(b.shape[1]):
        assert rsq[i] == pytest.approx(nnls(small, b[:, i])[1] ** 2, abs=1e-10)


@st.composite
def _nonnegative_problems(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 70))
    p = draw(st.integers(1, 12))
    entries = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
    return (draw(arrays(float, (m, n), elements=entries)),
            draw(arrays(float, (m, p), elements=entries)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_nonnegative_problems())
def test_batch_matches_scalar_property(problem):
    a, pts = problem
    xb, rsq = nnls_batch(a, pts)
    assert xb.min() >= 0.0
    for i in range(pts.shape[1]):
        _, rnorm = nnls(a, pts[:, i])
        assert rsq[i] == pytest.approx(rnorm**2, abs=1e-10)


# Found by a wider random search of the property above. The optimum is about
# (1, 1, 1e8) with zero residual; the scalar solver's lstsq step returns
# 1 + 1e-8 for the second coefficient, and only a refinement step on the
# support brings its gradient within the KKT tolerance.
def test_scalar_matches_batch_on_badly_scaled_columns():
    a = np.array([[1.0, 0.0, 1e-20], [1e-20, 1.0, 0.0], [1e-20, 0.0, 1e-8]])
    b = np.ones(3)
    _, rsq = nnls_batch(a, b[:, None])
    assert rsq[0] == pytest.approx(0.0, abs=1e-20)
    x, rnorm = nnls(a, b)
    np.testing.assert_allclose(x, [1.0, 1.0, 1e8], rtol=1e-10)
    assert rnorm**2 == pytest.approx(rsq[0], abs=1e-10)


# Left over from a 3000-example search of the property above: several
# identical 1e-8 columns next to unit-scale ones. scipy's nnls finds a
# residual of about 1e-16, but the scalar solver either stops at a non-KKT
# point, where the refinement step cannot pick one of the identical columns,
# or cycles until its iteration limit.
@pytest.mark.xfail(raises=IterationLimitError, strict=True,
                   reason="scalar nnls fails on identical columns 1e8 below the rest")
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
    # chunk boundaries shift LAPACK's multi-rhs blocking by the last ulp
    parts = np.concatenate([nnls_batch(a, chunk)[1]
                            for chunk in np.array_split(pts, 7, axis=1)])
    np.testing.assert_allclose(whole, parts, atol=1e-14)


def test_iteration_limit_raises(monkeypatch):
    monkeypatch.setattr("conirep.nnls.MAX_ITER_PER_COLUMN", 0)
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(IterationLimitError, match="^nnls did not converge in 0 "):
        nnls(a, np.array([1.0, 1.0]))
    with pytest.raises(IterationLimitError, match="^batch nnls did not converge in 0 "):
        nnls_batch(a, np.ones((2, 3)))


def test_scalar_deterministic():
    rng = np.random.default_rng(41)
    a = rng.uniform(0.0, 2.0, size=(4, 5))
    b = rng.uniform(0.0, 1.0, size=4)
    x1, r1 = nnls(a, b)
    x2, r2 = nnls(a, b)
    np.testing.assert_array_equal(x1, x2)
    assert r1 == r2
