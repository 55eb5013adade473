import numpy as np
import pytest
import scipy.sparse as sp

import nbspectra as nb
from scipy.sparse.linalg import ArpackNoConvergence, aslinearoperator

from nbspectra import nbmat
from nbspectra.errors import (
    DegreeTooSmallError,
    NoConvergenceError,
)

from conftest import (adjacency, k4, k23, petersen, random_two_core,
                      rank_k_section)


def bit_equal(A, B):
    A, B = A.tocsr(), B.tocsr()
    A.sort_indices()
    B.sort_indices()
    return (A.shape == B.shape
            and np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data))


def test_build_B_k4():
    idx = nb.oriented_edges(k4())
    B = nb.build_B(idx)
    assert B.shape == (12, 12)
    assert B.nnz == 24                       # sum d^2 - 2m = 36 - 12
    assert np.all(B.data == 1.0)
    row_sums = np.asarray(B.sum(axis=1)).ravel()
    assert np.array_equal(row_sums, np.full(12, 2.0))


def test_build_B_single_edge_zero():
    g = nb.from_edge_list([(0, 1)], 2)
    B = nb.build_B(nb.oriented_edges(g))
    assert B.shape == (2, 2) and B.nnz == 0


def test_build_B_k23_entry_count():
    B = nb.build_B(nb.oriented_edges(k23()))
    assert B.shape == (12, 12) and B.nnz == 18   # 30 - 12


def test_entry_count_formula_random():
    for seed in range(20):
        g = random_two_core(seed)
        idx = nb.oriented_edges(g)
        B = nb.build_B(idx)
        assert B.nnz == int(np.sum(g.degrees ** 2) - 2 * g.m)


def test_D_row_D_col():
    idx = nb.oriented_edges(k4())
    drow = nb.build_D_row(idx)
    assert np.array_equal(drow, np.full(12, 2.0))
    idx23 = nb.oriented_edges(k23())
    drow23 = nb.build_D_row(idx23)
    dcol23 = nb.build_D_col(idx23)
    for e in range(2 * idx23.m):
        assert drow23[e] == idx23.degrees[idx23.end[e]] - 1
        assert dcol23[e] == idx23.degrees[idx23.start[e]] - 1
    assert np.array_equal(idx23.swap_halves(drow23), dcol23)


def test_D_row_leaf_entry_zero_and_T_rejects():
    path = nb.from_edge_list([(0, 1), (1, 2)], 3)
    idx = nb.oriented_edges(path)
    drow = nb.build_D_row(idx)
    assert drow.min() == 0.0
    with pytest.raises(DegreeTooSmallError):
        nb.build_T(idx)


def test_T_k4_is_half_B():
    idx = nb.oriented_edges(k4())
    T = nb.build_T(idx)
    B = nb.build_B(idx)
    assert bit_equal(T, B * 0.5)
    ones = np.ones(12)
    assert np.max(np.abs(T @ ones - 1.0)) == 0.0
    assert np.max(np.abs(T.T @ ones - 1.0)) == 0.0


def test_T_doubly_stochastic_k23_and_random():
    for g in [k23()] + [random_two_core(s) for s in range(10)]:
        idx = nb.oriented_edges(g)
        T = nb.build_T(idx)
        ones = np.ones(2 * idx.m)
        assert np.max(np.abs(T @ ones - 1.0)) <= 1e-12
        assert np.max(np.abs(T.T @ ones - 1.0)) <= 1e-12


def test_L_is_identity_minus_T():
    idx = nb.oriented_edges(k4())
    L = nb.build_L(idx)
    T = nb.build_T(idx)
    assert np.max(np.abs((L + T - sp.eye(12)).toarray())) == 0.0


def test_End_Start_gram_and_inflation():
    idx = nb.oriented_edges(k4())
    End = nb.build_End(idx)
    assert np.array_equal((End.T @ End).toarray(), 3.0 * np.eye(4))
    for g in [k23(), petersen()]:
        idx = nb.oriented_edges(g)
        End, Start = nb.build_End(idx), nb.build_Start(idx)
        D = np.diag(g.degrees.astype(float))
        assert np.array_equal((End.T @ End).toarray(), D)
        assert np.array_equal((Start.T @ Start).toarray(), D)
        assert np.all(np.asarray(End.sum(axis=1)).ravel() == 1.0)
        u = np.arange(g.n, dtype=float)
        assert np.array_equal(End @ u, u[idx.end])
        assert np.array_equal(Start @ u, u[idx.start])


def test_pt_invariance_bit_exact():
    for g in [k4(), k23(), petersen()] + [random_two_core(s) for s in range(10)]:
        idx = nb.oriented_edges(g)
        B = nb.build_B(idx)
        assert bit_equal(nbmat.transpose(B), nbmat.conjugate_by_V(B))


def test_BV_identity_bit_exact():
    for g in [k4(), k23()] + [random_two_core(s) for s in range(5)]:
        idx = nb.oriented_edges(g)
        B = nb.build_B(idx)
        m = idx.m
        perm = np.concatenate([np.arange(m, 2 * m), np.arange(m)])
        BV = B.tocsr()[:, perm].tocsr()
        End = nb.build_End(idx)
        gram = (End @ End.T - sp.eye(2 * m, format="csr")).tocsr()
        gram.eliminate_zeros()
        assert bit_equal(BV, gram)
        assert bit_equal(BV, nbmat.transpose(BV))


def test_transpose_involution_bit_exact():
    B = nb.build_B(nb.oriented_edges(random_two_core(7)))
    assert bit_equal(nbmat.transpose(nbmat.transpose(B)), B)


def test_spectral_norm_k4_is_two():
    B = nb.build_B(nb.oriented_edges(k4()))
    assert nbmat.spectral_norm(B) == pytest.approx(2.0, rel=1e-9)


def test_spectral_norm_matches_dense_svd():
    for seed in range(5):
        g = random_two_core(seed)
        idx = nb.oriented_edges(g)
        for M in (nb.build_B(idx), nb.build_T(idx)):
            dense = np.linalg.svd(M.toarray(), compute_uv=False)[0]
            assert nbmat.spectral_norm(M) == pytest.approx(dense, rel=1e-12)
            # the residual scale of the solvers is exact for B and T
            assert nbmat.norm_bound(M) == pytest.approx(dense, rel=1e-12)
            assert nbmat.norm_bound(M.toarray()) == nbmat.norm_bound(M)
        L = nb.build_L(idx)
        dense = np.linalg.svd(L.toarray(), compute_uv=False)[0]
        assert nbmat.norm_bound(L) >= dense


def test_spectral_norm_bauer_fike_difference():
    # the difference operator of bound_report on a block-model graph where a
    # "3 stable estimates" power iteration stops 4.5e-7 short
    idx = nb.oriented_edges(
        nb.sample(nb.SbmParams(n=100, k=2, a=16, b=4, seed=2)).graph)
    basis = nb.real_eigenbasis_T(idx, 2, mode="dense", seed=2)
    B = nb.build_B(idx)
    mu1 = nb.dense_eigendecomposition(B, source="B")[0].real_values().max()
    diff = rank_k_section(basis) - aslinearoperator(B) * (1.0 / mu1)
    dense = basis.Z @ np.diag(basis.values) @ basis.W.T - B.toarray() / mu1
    expected = np.linalg.svd(dense, compute_uv=False)[0]
    assert nbmat.spectral_norm(diff, seed=2) == pytest.approx(expected, rel=1e-12)


def test_spectral_norm_edge_shapes():
    assert nbmat.spectral_norm(np.array([[-3.0]])) == 3.0
    assert nbmat.spectral_norm(np.zeros((0, 0))) == 0.0
    assert nbmat.spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_no_convergence(monkeypatch):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("stalled", np.array([]), np.array([]))

    monkeypatch.setattr(nbmat, "eigsh", stalled)
    B = nb.build_B(nb.oriented_edges(random_two_core(1)))
    with pytest.raises(NoConvergenceError):
        nbmat.spectral_norm(B)


def test_ihara_bass_companion_blocks():
    for g in (k4(), k23(), petersen(), random_two_core(5),
              nb.from_edge_list([(0, 1)], 3)):
        C = nbmat.ihara_bass_companion(nb.oriented_edges(g))
        n, eye = g.n, np.eye(g.n)
        want = np.block([[adjacency(g), eye - np.diag(g.degrees)],
                         [eye, np.zeros((n, n))]])
        assert C.format == "csr" and C.has_sorted_indices
        assert np.array_equal(C.toarray(), want)
