"""Tests for the shared linear-algebra helpers."""

import itertools
import math

import numpy as np
import pytest

from conirep.linalg import gram_schmidt, simplex_volumes

from reference import gram_schmidt_by_loop, normal_vector


def rank_by_row_reduction(rows, tol=1e-9):
    """Independent rank computation by Gaussian elimination with pivoting."""
    a = np.array(rows, dtype=float)
    rank = 0
    for col in range(a.shape[1]):
        if rank == a.shape[0]:
            break
        pivot = rank + np.argmax(np.abs(a[rank:, col]))
        if abs(a[pivot, col]) <= tol:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] /= a[rank, col]
        for r in range(a.shape[0]):
            if r != rank:
                a[r] -= a[r, col] * a[rank]
        rank += 1
    return rank


def test_gram_schmidt_axis_pair():
    basis = gram_schmidt(np.array([[2.0, 0.0], [1.0, 1.0]]))
    assert basis.shape == (2, 2)
    np.testing.assert_allclose(np.abs(basis), np.eye(2), atol=1e-12)


def test_gram_schmidt_drops_dependent_input():
    basis = gram_schmidt(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert basis.shape == (2, 1)
    np.testing.assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0], atol=1e-12)


def test_gram_schmidt_single_vector():
    basis = gram_schmidt(np.array([[1.0, 1.0, 1.0]]))
    assert basis.shape == (3, 1)
    np.testing.assert_allclose(basis[:, 0], np.full(3, 1 / math.sqrt(3)),
                               atol=1e-12)


def test_gram_schmidt_rank_matches_row_reduction():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = rng.integers(0, 6, size=(4, 4)).astype(float)
        if not rows.any():
            continue
        basis = gram_schmidt(rows)
        assert basis.shape[1] == rank_by_row_reduction(rows)


def test_gram_schmidt_orthonormal_and_spanning():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = rng.integers(2, 6)
        k = rng.integers(1, m + 1)
        rows = rng.standard_normal((k, m))
        basis = gram_schmidt(rows)
        gram = basis.T @ basis
        np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-10)
        # every input row must lie in the span of the returned basis
        resid = rows.T - basis @ (basis.T @ rows.T)
        assert np.abs(resid).max() < 1e-9


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_gram_schmidt_stack_matches_single_sets():
    rng = np.random.default_rng(19)
    for m in range(2, 8):
        for k in range(1, 9):
            stack = rng.standard_normal((6, k, m))
            # dependent rays: a multiple of an earlier ray, and a sum of them
            if k > 1:
                stack[1, -1] = 2.5 * stack[1, 0]
                stack[2, -1] = stack[2, :-1].sum(axis=0)
            stack[3, k // 2] = 0.0
            # small integers: repeated, dependent and zero rays
            stack[4] = rng.integers(0, 3, size=(k, m))
            stack[5] = 0.0
            bases = gram_schmidt(stack)
            assert len(bases) == len(stack)
            # each basis fills the first rank-many columns of its (m, m) slot
            assert bases.shape == (len(stack), m, m)
            for rays, padded in zip(stack, bases):
                d = int(padded.any(axis=0).sum())
                basis = np.ascontiguousarray(padded[:, :d])
                assert not padded[:, d:].any()
                assert _same_bits(basis, gram_schmidt(rays))
                assert _same_bits(basis, gram_schmidt_by_loop(rays))
                assert basis.shape[1] == rank_by_row_reduction(rays)


def test_normal_vector_examples():
    n = normal_vector(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    np.testing.assert_allclose(np.abs(n), [0.0, 0.0, 1.0], atol=1e-12)

    n = normal_vector(np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(np.abs(n), [0.0, 1.0], atol=1e-12)

    n = normal_vector(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    np.testing.assert_allclose(np.abs(n), [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0],
                               atol=1e-12)


def test_normal_vector_is_unit_and_orthogonal():
    rng = np.random.default_rng(13)
    done = 0
    while done < 1000:
        m = rng.integers(2, 6)
        vectors = rng.standard_normal((m - 1, m))
        if np.linalg.svd(vectors, compute_uv=False).min() < 0.1:
            continue
        n = normal_vector(vectors)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        assert np.abs(vectors @ n).max() < 1e-10
        done += 1


def test_normal_vector_rejects_dependent_input():
    with pytest.raises(ValueError):
        normal_vector(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))


def test_simplex_volume_examples():
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    flat = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    np.testing.assert_allclose(simplex_volumes([tri, flat]), [0.5, 0.0], rtol=0, atol=1e-15)
    tet = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert simplex_volumes([tet])[0] == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_simplex_volume_invariances():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = rng.integers(2, 5)
        verts = rng.uniform(-1.0, 1.0, size=(m + 1, m))
        shift = rng.uniform(-5.0, 5.0, size=m)
        perms = itertools.islice(itertools.permutations(range(m + 1)), 5)
        stack = [verts, verts + shift] + [verts[list(perm)] for perm in perms]
        vols = simplex_volumes(stack)
        np.testing.assert_allclose(vols, vols[0], rtol=1e-10)
