"""Operators on the oriented-edge space of a graph.

Builds the non-backtracking matrix B, the out-/in-degree diagonals D_row and
D_col, the doubly stochastic transition matrix T = D_row^{-1} B, the walk
Laplacian L = I - T, and the end/start incidence matrices.  All 0/1 operators
are stored with exact unit entries so structural identities can be checked
bit-exactly; T and L carry the rational values 1/(d-1).  T also comes
matrix-free, as :class:`EdgeOperator`, for the iterative solvers.

The reversal involution acts on vectors by swapping the two length-m halves
(:meth:`OrientedEdgeIndex.swap_halves`) and on operators by permuting rows
and columns with the same swap; only :func:`build_B` forms it as a matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import (
    ArpackNoConvergence,
    LinearOperator,
    aslinearoperator,
    eigsh,
)

from .errors import (
    DegreeTooSmallError,
    NoConvergenceError,
    ShapeMismatchError,
)
from .graph import OrientedEdgeIndex, reversal_permutation


def build_B(idx: OrientedEdgeIndex) -> sp.csr_matrix:
    """2m x 2m 0/1 matrix: entry (e, f) = 1 iff e feeds into f and f != e^-1.

    Built as End Start^T - V: End Start^T links e to every f leaving the
    endpoint of e, and V removes the backtrack f = e^-1.  Entry count is
    sum_j d_j^2 - 2m.
    """
    n2 = 2 * idx.m
    V = sp.csr_matrix((np.ones(n2), reversal_permutation(idx.m), np.arange(n2 + 1)),
                      shape=(n2, n2))
    B = (build_End(idx) @ build_Start(idx).T - V).tocsr()
    B.sort_indices()
    return B


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


def _require_transition(idx: OrientedEdgeIndex) -> None:
    if idx.n == 0:
        raise DegreeTooSmallError("graph has no nodes; transition matrix undefined")
    if idx.degrees.min() < 2:
        raise DegreeTooSmallError(
            f"min degree {int(idx.degrees.min())} < 2; transition matrix undefined")


def build_T(idx: OrientedEdgeIndex) -> sp.csr_matrix:
    """Transition matrix T = D_row^{-1} B of the non-backtracking walk.

    Requires a node and min degree >= 2; rows and columns each sum to 1.
    """
    _require_transition(idx)
    B = build_B(idx)
    drow = build_D_row(idx)
    T = sp.diags(1.0 / drow) @ B
    T = T.tocsr()
    T.sort_indices()
    return T


class EdgeOperator(LinearOperator):
    """Matrix-free T = D_row^{-1} B on the oriented-edge space.

    ``B X`` is ``(Start^T X)[end] - V X``: sum the rows of ``X`` per
    startpoint, gather the sums at each edge's endpoint, and subtract the
    half-swap, which removes the backtrack; ``T X`` multiplies that by the
    precomputed ``1 / D_row``, the entries of :func:`build_T`.  Storage is
    O(2m) instead of the sum_j d_j^2 - 2m entries of the CSR from
    :func:`build_B`.  Its norm ||T||_2 is 1, which :func:`norm_bound`
    returns for it.

    :meth:`product_rows` is the one product: it applies T to each row of a
    block and writes the rows into a buffer the caller holds, keeping the
    per-row node sums in a p x n array the operator reuses (so one operator
    runs one product at a time), and the block iteration runs its sweeps
    without allocating a block.  The LinearOperator products call it with a
    fresh output.
    """

    def __init__(self, idx: OrientedEdgeIndex):
        n2 = 2 * idx.m
        super().__init__(np.float64, (n2, n2))
        self.m = idx.m
        self.end = idx.end
        self.start_t = build_Start(idx).T.tocsr()
        self.inv_drow = 1.0 / build_D_row(idx)
        self._sums = np.empty((0, idx.n))

    def product_rows(self, R: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write T r into the rows of ``out`` for the rows r of the p x 2m
        block ``R`` (which ``out`` must not overlap); returns ``out``."""
        if len(self._sums) < len(R):
            self._sums = np.empty((len(R), self._sums.shape[1]))
        sums = self._sums[:len(R)]
        for s, r in zip(sums, R):
            s[:] = self.start_t @ r
        # mode="raise" would gather into a temporary and then copy to out
        np.take(sums, self.end, axis=1, out=out, mode="clip")
        m = self.m
        out[:, :m] -= R[:, m:]
        out[:, m:] -= R[:, :m]
        out *= self.inv_drow
        return out

    def _matmat(self, X):
        # the product runs on the rows of X.T, one vector per row, so a row
        # block passed as Q.T is summed row by row and never copied
        R = np.atleast_2d(X.T)
        return self.product_rows(R, np.empty(R.shape)).T

    _matvec = _matmat


def T_operator(idx: OrientedEdgeIndex) -> EdgeOperator:
    """Matrix-free T, equal to :func:`build_T` up to rounding; same checks."""
    _require_transition(idx)
    return EdgeOperator(idx)


def ihara_bass_companion(idx: OrientedEdgeIndex) -> sp.csr_matrix:
    """2n x 2n companion [[A, I - D], [I, 0]] of the Ihara-Bass pencil.

    Its eigenvalues are the roots of det(mu^2 I - mu A + (D - I)), which are
    the eigenvalues of B apart from m - n copies each of +1 and -1
    (Krzakala et al., PNAS 110, 2013).  So every real eigenvalue of B above 1
    is one of the companion, with the same multiplicity.
    """
    n = idx.n
    A = sp.csr_matrix((np.ones(2 * idx.m), (idx.start, idx.end)), shape=(n, n))
    eye = sp.eye(n, format="csr")
    C = sp.bmat([[A, sp.diags(1.0 - idx.degrees)], [eye, None]], format="csr")
    C.sort_indices()
    return C


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


def norm_bound(M) -> float:
    """sqrt(||M||_1 ||M||_inf), an upper bound on the spectral norm ||M||_2.

    ``M`` is a nonempty scipy sparse matrix or dense array, or an
    :class:`EdgeOperator`, whose exact norm 1 is returned.  The bound is exact
    for T, whose row and column sums are all 1, and for B and BV, whose
    largest row and column sums and largest singular value are all d_max - 1.
    """
    if isinstance(M, EdgeOperator):
        return 1.0
    A = abs(M)
    return float(np.sqrt(A.sum(axis=0).max() * A.sum(axis=1).max()))


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
