"""Shared fixtures for the conirep test suite."""

import numpy as np
import pytest

# Two-neuron matrix whose cone is the wedge between (1, 1) and (1, 0).
# Columns 1 and 3 are extreme, columns 2 and 4 are conic combinations.
WEDGE = np.array([[1.0, 3.0, 1.0, 2.0],
                  [1.0, 2.0, 0.0, 1.0]])

# Full-rank 3-state matrix with a tilted third ray; its complement splits
# into five positive-volume pieces inside the unit cube.
TILTED = np.array([[2.0, 3.0, 0.0],
                   [3.0, 1.0, 0.0],
                   [1.0, 1.0, 1.0]])

# Apex (0, 0, 0, 1) over the unit square in the first two coordinates, plus
# an interior ray lifted off it: five facets, one holding four rays.
SQUARE_PYRAMID = np.array([[0.0, 1.0, 1.0, 0.0, 0.5],
                           [0.0, 0.0, 1.0, 1.0, 0.5],
                           [0.0, 0.0, 0.0, 0.0, 1.0],
                           [1.0, 1.0, 1.0, 1.0, 1.0]])

# Integer matrices whose small perturbations are near-degenerate: nearly
# flat facets that Qhull splits into several planes (JUMP), and regions
# with vertices 1e-13 apart (VERR).
JUMP = np.array([[2.0, 2.0, 0.0, 1.0, 0.0],
                 [1.0, 2.0, 0.0, 1.0, 0.0],
                 [1.0, 0.0, 2.0, 0.0, 1.0],
                 [2.0, 1.0, 0.0, 0.0, 2.0]])
VERR = np.array([[1.0, 1.0, 2.0, 1.0, 1.0],
                 [2.0, 1.0, 2.0, 1.0, 0.0],
                 [0.0, 2.0, 0.0, 1.0, 2.0],
                 [0.0, 2.0, 1.0, 1.0, 2.0]])


def perturbed(C, eps, seed):
    """C with each nonzero entry moved up by eps times a uniform [0, 1) draw."""
    return C + eps * np.random.default_rng(seed).uniform(0.0, 1.0, C.shape) * (C > 0)


@pytest.fixture
def wedge():
    return WEDGE.copy()


@pytest.fixture
def tilted():
    return TILTED.copy()


def random_activity(rng, m, n, high=3.0):
    """Random nonnegative activity matrix with entries in [0, high)."""
    return rng.uniform(0.0, high, size=(m, n))


@pytest.fixture(scope="session", autouse=True)
def _warmup():
    # The first hull imports scipy.spatial (Qhull): WEDGE (m = 2) and a
    # simplicial cone build none, so a non-simplicial m = 3 cone pays that
    # cost here, out of the timed tests.
    from conirep import evaluate, ir_num

    evaluate(WEDGE)
    evaluate(np.array([[2.0, 0.0, 0.0, 1.0], [0.0, 2.0, 0.0, 1.0], [0.0, 0.0, 2.0, 1.0]]))
    ir_num(np.eye(2), 4)
