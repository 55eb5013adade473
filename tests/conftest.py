"""Shared graph factories and independent spectral oracles."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import LinearOperator

import nbspectra as nb
from nbspectra import nbmat


def k4():
    return nb.from_edge_list([(i, j) for i in range(4) for j in range(i + 1, 4)], 4)


def k23():
    return nb.from_edge_list([(i, 2 + j) for i in range(2) for j in range(3)], 5)


def k33():
    return nb.from_edge_list([(i, 3 + j) for i in range(3) for j in range(3)], 6)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return nb.from_edge_list(outer + inner + spokes, 10)


def petersen_with_tails():
    """The Petersen graph on nodes 1 2 4 5 7 8 10 11 13 14, plus what its
    2-core drops: isolated nodes 0 and 9, the tail 1-3-6 and the pendant 12."""
    core = [1, 2, 4, 5, 7, 8, 10, 11, 13, 14]
    edges = [(core[u], core[v]) for u, v in petersen().edges]
    return nb.from_edge_list(edges + [(1, 3), (3, 6), (12, 14)], 15)


def triangle():
    return nb.from_edge_list([(0, 1), (0, 2), (1, 2)], 3)


def random_two_core(seed, n_max=40, c=4.0):
    """Nonempty 2-core of a sparse random graph; deterministic per seed."""
    rng = np.random.default_rng(seed)
    for attempt in range(50):
        n = int(rng.integers(6, n_max + 1))
        p = min((c + attempt) / n, 0.9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = nb.from_edge_list(pairs, n)
        core, _ = nb.two_core(g)
        if core.n >= 3:
            return core
    raise AssertionError("could not draw a nonempty 2-core")


def random_tree(seed, n_max=30):
    """Uniform-attachment random tree with at least 2 nodes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return nb.from_edge_list(pairs, n)


def adjacency(g):
    A = np.zeros((g.n, g.n))
    for u, v in g.edges:
        A[u, v] = A[v, u] = 1.0
    return A


def ihara_bass_eigenvalues(g):
    """Roots of (mu^2 - 1)^(m - n) det(mu^2 I - mu A + (D - I)).

    Independent oracle for the spectrum of the 2m x 2m edge operator: the
    determinant roots come from the 2n x 2n companion linearization of the
    quadratic pencil, plus m - n copies each of +1 and -1.
    """
    A = adjacency(g)
    n, m = g.n, g.m
    D = np.diag(g.degrees.astype(np.float64))
    companion = np.block([
        [A, -(D - np.eye(n))],
        [np.eye(n), np.zeros((n, n))],
    ])
    roots = list(np.linalg.eigvals(companion))
    roots += [1.0 + 0.0j] * (m - n) + [-1.0 + 0.0j] * (m - n)
    return np.array(roots)


def multiset_match_distance(xs, ys):
    """Max pair distance under the optimal matching of two complex multisets."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    assert len(xs) == len(ys)
    cost = np.abs(xs[:, None] - ys[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def rank_k_section(basis):
    """The rank-k part Z diag(values) W^T of T as a linear operator, in the
    2m edge space: the oracle for the reduced pair of bound_report."""
    Z, lam, W = basis.Z, basis.values, basis.W
    return LinearOperator((Z.shape[0], W.shape[0]),
                          matvec=lambda x: Z @ (lam * (W.T @ x)),
                          rmatvec=lambda x: W @ (lam * (Z.T @ x)),
                          dtype=np.float64)


def assert_ritz_contract(M, res):
    """The pairs of a LeadingEigenResult: unit vectors whose reported
    residuals are ||M v - theta v||, to 1e-10 relative above rounding of
    ||M||.  The matrix-free T has no adjoint for Lanczos; its norm is
    exactly 1, which norm_bound returns for it."""
    V = res.vectors
    assert V.shape == (M.shape[0], len(res.values))
    assert len(res.residuals) == len(res.values)
    assert np.linalg.norm(V, axis=0) == pytest.approx(1.0, abs=1e-12)
    fresh = np.linalg.norm(M @ V - V * res.values, axis=0)
    norm = (nbmat.norm_bound(M) if isinstance(M, nbmat.EdgeOperator)
            else nb.spectral_norm(M))
    assert res.residuals == pytest.approx(fresh, rel=1e-10, abs=1e-14 * norm)


@pytest.fixture
def named_graphs():
    return {"K4": k4(), "K23": k23(), "K33": k33(), "Petersen": petersen()}
