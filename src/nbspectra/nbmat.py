"""Operators on the oriented-edge space of a graph.

Builds the non-backtracking matrix B, the out-/in-degree diagonals D_row and
D_col, the doubly stochastic transition matrix T = D_row^{-1} B, the walk
Laplacian L = I - T, and the end/start incidence matrices.  All 0/1 operators
are stored with exact unit entries so structural identities can be checked
bit-exactly; T and L carry the rational values 1/(d-1).

The reversal involution is never materialized as a matrix: it acts on vectors
by swapping the two length-m halves and on operators by permuting rows and
columns with the same swap.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, aslinearoperator, eigsh

from .errors import (
    DegreeTooSmallError,
    LengthMismatchError,
    NoConvergenceError,
    ShapeMismatchError,
)
from .graph import OrientedEdgeIndex, reversal_permutation


def build_B(idx: OrientedEdgeIndex) -> sp.csr_matrix:
    """2m x 2m 0/1 matrix: entry (e, f) = 1 iff e feeds into f and f != e^-1.

    Entry count is sum_j d_j^2 - 2m.
    """
    m, n2 = idx.m, 2 * idx.m
    if m == 0:
        return sp.csr_matrix((0, 0))
    order = np.argsort(idx.start, kind="stable")      # oriented edges by startpoint
    ptr = np.searchsorted(idx.start[order], np.arange(idx.n + 1))
    counts = idx.degrees[idx.end]                     # successors incl. the backtrack
    offsets = np.concatenate([[0], np.cumsum(counts)])
    total = int(offsets[-1])
    pos = np.arange(total) - np.repeat(offsets[:-1], counts) \
        + np.repeat(ptr[idx.end], counts)
    rows = np.repeat(np.arange(n2), counts)
    cols = order[pos]
    keep = cols != (rows + m) % n2                    # drop the backtrack transition
    B = sp.csr_matrix(
        (np.ones(int(keep.sum())), (rows[keep], cols[keep])), shape=(n2, n2))
    B.sort_indices()
    return B


def apply_V(x: np.ndarray) -> np.ndarray:
    """Swap the two halves of a length-2m vector (the reversal involution)."""
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[0] % 2 != 0:
        raise LengthMismatchError(f"length {x.shape} is not an even vector")
    return x[reversal_permutation(x.shape[0] // 2)]


def conjugate_by_V(M: sp.spmatrix) -> sp.csr_matrix:
    """Return V M V, permuting rows and columns by the half-swap."""
    n2 = M.shape[0]
    if M.shape[0] != M.shape[1] or n2 % 2 != 0:
        raise ShapeMismatchError(f"expected square even-dimension matrix, got {M.shape}")
    perm = reversal_permutation(n2 // 2)
    out = M.tocsr()[perm][:, perm].tocsr()
    out.sort_indices()
    return out


def build_D_row(idx: OrientedEdgeIndex) -> np.ndarray:
    """Diagonal of out-degrees: entry at e is d_{endpoint(e)} - 1."""
    return (idx.degrees[idx.end] - 1).astype(np.float64)


def build_D_col(idx: OrientedEdgeIndex) -> np.ndarray:
    """Diagonal of in-degrees: entry at e is d_{startpoint(e)} - 1."""
    return (idx.degrees[idx.start] - 1).astype(np.float64)


def build_T(idx: OrientedEdgeIndex) -> sp.csr_matrix:
    """Transition matrix T = D_row^{-1} B of the non-backtracking walk.

    Requires min degree >= 2; rows and columns each sum to 1.
    """
    if idx.n > 0 and idx.degrees.min() < 2:
        raise DegreeTooSmallError(
            f"min degree {int(idx.degrees.min())} < 2; transition matrix undefined")
    B = build_B(idx)
    drow = build_D_row(idx)
    T = sp.diags(1.0 / drow) @ B
    T = T.tocsr()
    T.sort_indices()
    return T


def build_L(idx: OrientedEdgeIndex) -> sp.csr_matrix:
    """Walk Laplacian L = I - T on the oriented-edge space."""
    T = build_T(idx)
    L = (sp.eye(T.shape[0], format="csr") - T).tocsr()
    L.sort_indices()
    return L


def build_End(idx: OrientedEdgeIndex) -> sp.csr_matrix:
    """2m x n incidence: row e has a single 1 in column endpoint(e)."""
    n2 = 2 * idx.m
    return sp.csr_matrix(
        (np.ones(n2), (np.arange(n2), idx.end)), shape=(n2, idx.n))


def build_Start(idx: OrientedEdgeIndex) -> sp.csr_matrix:
    """2m x n incidence: row e has a single 1 in column startpoint(e)."""
    n2 = 2 * idx.m
    return sp.csr_matrix(
        (np.ones(n2), (np.arange(n2), idx.start)), shape=(n2, idx.n))


def transpose(M: sp.spmatrix) -> sp.csr_matrix:
    out = M.transpose().tocsr()
    out.sort_indices()
    return out


def frobenius_norm(M) -> float:
    if sp.issparse(M):
        return float(np.sqrt((M.data ** 2).sum()))
    return float(np.linalg.norm(np.asarray(M)))


def spectral_norm(M, seed: int = 0) -> float:
    """Largest singular value, by ARPACK Lanczos on M^T M to machine precision.

    ``M`` may be a scipy sparse matrix, a dense array or a LinearOperator
    with ``rmatvec``.  The start vector is drawn from ``default_rng(seed)``,
    so the result is deterministic for a given seed.  Raises
    NoConvergenceError when ARPACK does not converge.
    """
    op = aslinearoperator(M)
    ncols = op.shape[1]
    if ncols == 0:
        return 0.0
    if ncols == 1:                          # eigsh needs k < dimension
        return float(np.linalg.norm(op.matvec(np.ones(1))))
    v0 = np.random.default_rng(seed).standard_normal(ncols)
    if not np.any(op.matvec(v0)):           # ARPACK rejects a zero operator
        return 0.0
    try:
        top = eigsh(op.H @ op, k=1, which="LA", tol=0, v0=v0,
                    return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NoConvergenceError(
            f"Lanczos on M^T M did not converge: {exc}") from exc
    return float(np.sqrt(max(top[0], 0.0)))


def entry_count(M: sp.spmatrix) -> int:
    """Number of stored nonzero entries of a sparse operator."""
    M = M.tocsr()
    M.eliminate_zeros()
    return int(M.nnz)
