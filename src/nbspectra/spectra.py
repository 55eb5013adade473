"""Eigendecomposition, spectrum classification, and the real eigenbasis of T.

Dense decompositions give the full spectrum of small operators; a block
orthogonal iteration with Rayleigh-Ritz extraction finds the leading reals
at any size, and is the route of pipeline and bound.  The real eigenbasis
packages the leading positive real eigenpairs of the transition matrix with
their paired left vectors and per-pair diagnostics (reversal pairing,
norms, per-node start/end sums, eigen-residuals).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import nbmat
from .errors import (
    BadParameterError,
    DegenerateBilinearFormError,
    DimensionCapError,
    InsufficientRealRitzError,
    LengthMismatchError,
    NoConvergenceError,
    NotEnoughPositiveRealsError,
)
from .graph import OrientedEdgeIndex, SimpleGraph, connected_components

DENSE_CAP = 6000          # no dense decomposition above this dimension
TAU_IM = 1e-8             # a value is real when |imag| <= TAU_IM * (1 + |value|)
CLUSTER_RTOL = 1e-7       # consecutive real eigenvalues this close are one cluster

# fixed rules of the block iteration in leading_real_eigenpairs
ROUND_SWEEPS = 400        # products of M per round before the block may grow
RESIDUAL_RTOL = 1e-6      # a Ritz pair is kept when its residual <= this * ||M||
VALUE_RTOL = 1e-8         # leading Ritz values count as stable within this
STABLE_WINDOW = 5         # ... over this many consecutive extractions
WINDOW_PRODUCTS = 4       # products of M per extraction while the bulk window counts
SMALL_DIM = 512           # up to this dimension a stall or a full bulk window takes the full block
BULK_MARGIN = 0.05        # a value is structural beyond (1 + this) * bulk radius
AHEAD = 0.75              # share of the predicted products run between extractions
CHOLQR_MAX_COND = 1e3     # Householder QR above this cond(L); one CholeskyQR pass loses cond^2 u

PERRON = "perron"
STRUCTURAL_REAL = "structural_real"
REAL_BULK = "real_bulk"
COMPLEX_BULK = "complex_bulk"


def is_real(values):
    """Where an eigenvalue counts as real: |imag| <= TAU_IM * (1 + |value|),
    the package's one realness rule, for spectra and Ritz values alike."""
    return np.abs(values.imag) <= TAU_IM * (1.0 + np.abs(values))


@dataclass
class Spectrum:
    """Multiset of eigenvalues in canonical order with optional classes.

    Canonical order is descending real part, then descending imaginary part.
    ``classes`` is filled by :func:`classify_spectrum`.
    """

    values: np.ndarray
    source: str = ""
    classes: list | None = None

    def __len__(self):
        return len(self.values)

    def real_values(self) -> np.ndarray:
        return self.values.real[is_real(self.values)]

    def structural(self) -> np.ndarray:
        """Real parts of entries classed perron or structural_real."""
        if self.classes is None:
            return np.array([])
        keep = [i for i, c in enumerate(self.classes)
                if c in (PERRON, STRUCTURAL_REAL)]
        return self.values.real[keep]


def _canonical_order(values: np.ndarray) -> np.ndarray:
    return np.lexsort((-values.imag, -values.real))


def dense_eigendecomposition(M, want_vectors: bool = False, source: str = ""):
    """Full spectrum of a square real matrix, optionally with right vectors.

    Exactly symmetric inputs go through the symmetric path and come back with
    real eigenvalues and orthonormal vectors.  Eigenvectors of real
    eigenvalues are returned with all-real coordinates.  Raises
    DimensionCapError above DENSE_CAP (read at call time), before
    densifying, and NoConvergenceError if the QR iteration fails or a
    residual exceeds 1e-8 times the scale sqrt(||M||_1 ||M||_inf) of
    :func:`nbmat.norm_bound`, which is ||M||_2 for T, B and BV.
    """
    if not sp.issparse(M):
        M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BadParameterError(f"expected a square matrix, got shape {M.shape}")
    nn = M.shape[0]
    if nn > DENSE_CAP:
        raise DimensionCapError(f"dimension {nn} exceeds dense cap {DENSE_CAP}")
    A = M.toarray() if sp.issparse(M) else M
    if nn == 0:
        spec = Spectrum(values=np.array([], dtype=complex), source=source)
        return (spec, np.zeros((0, 0), dtype=complex)) if want_vectors else (spec, None)

    symmetric = np.array_equal(A, A.T)
    try:
        if symmetric:
            if want_vectors:
                w, V = np.linalg.eigh(A)
                w = w.astype(complex)
                V = V.astype(complex)
            else:
                w = np.linalg.eigvalsh(A).astype(complex)
                V = None
        else:
            if want_vectors:
                w, V = np.linalg.eig(A)
            else:
                w = np.linalg.eigvals(A)
                V = None
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"dense eigendecomposition failed: {exc}") from exc

    order = _canonical_order(w)
    w = w[order]
    if V is not None:
        V = V[:, order]
        # make vectors of real eigenvalues real: rotate out the global phase
        real_mask = is_real(w)
        for i in np.nonzero(real_mask)[0]:
            col = V[:, i]
            pivot = col[np.argmax(np.abs(col))]
            if pivot != 0:
                col = col * (np.conj(pivot) / abs(pivot))
            colr = col.real
            nrm = np.linalg.norm(colr)
            if nrm > 0:
                V[:, i] = colr / nrm
        norm_a = nbmat.norm_bound(A)
        # A is real: two real products, not a complex GEMM with A promoted
        Vr, Vi = V.real, V.imag
        resid = np.hypot(
            np.linalg.norm(A @ Vr - (Vr * w.real - Vi * w.imag), axis=0),
            np.linalg.norm(A @ Vi - (Vr * w.imag + Vi * w.real), axis=0))
        backward = float(resid.max() / max(norm_a, 1e-300))
        if backward > 1e-8:
            raise NoConvergenceError(
                f"eigenvector residual {backward:.2e} exceeds 1e-8 relative")
    return Spectrum(values=w, source=source), V


def bulk_disk_radius(source: str, c: float) -> float:
    """Radius of the disk that holds all but the structural eigenvalues of
    an operator of a graph with average degree c: sqrt(c) for B and BV,
    1/sqrt(c - 1) for T and, through its image 1 - value, for L."""
    if source in ("B", "BV"):
        return math.sqrt(c)
    if source in ("T", "L"):
        return 1.0 / math.sqrt(c - 1.0)
    raise BadParameterError(f"unknown source tag {source!r}")


def classify_spectrum(spectrum: Spectrum, c: float) -> Spectrum:
    """Label each eigenvalue perron / structural_real / real_bulk / complex_bulk.

    ``c`` is the average degree of the underlying graph, and the bulk
    radius that of :func:`bulk_disk_radius`; L is classified through its
    image 1 - value under the T rule.  An eigenvalue is treated
    as real by :func:`is_real`; a real one is structural when it clears the
    bulk radius by the margin BULK_MARGIN, the same margin the block
    iteration's bulk-disk stop uses.  The largest positive real entry is the
    single perron eigenvalue.
    """
    if not np.isfinite(c) or c <= 1:
        raise BadParameterError(f"average degree must exceed 1, got {c}")
    v = spectrum.values
    source = spectrum.source or "B"
    threshold = (1.0 + BULK_MARGIN) * bulk_disk_radius(source, c)
    effective = 1.0 - v if source == "L" else v

    real_mask = is_real(v)
    classes = []
    for i in range(len(v)):
        if not real_mask[i]:
            classes.append(COMPLEX_BULK)
        elif abs(effective[i].real) > threshold:
            classes.append(STRUCTURAL_REAL)
        else:
            classes.append(REAL_BULK)
    # the perron entry: largest positive real (for L, largest positive image)
    best, best_val = None, 0.0
    for i in range(len(v)):
        if real_mask[i] and effective[i].real > best_val:
            best, best_val = i, effective[i].real
    if best is not None:
        classes[best] = PERRON
    return Spectrum(values=v, source=source, classes=classes)


@dataclass
class LeadingEigenResult:
    """Converged real Ritz pairs from the block iteration."""

    values: np.ndarray          # descending real eigenvalues, length k
    vectors: np.ndarray         # (dim, k) unit right eigenvectors
    residuals: np.ndarray       # ||M v - lambda v|| per pair
    iterations: int             # products of M with the block
    block_size: int
    extractions: int            # Rayleigh-Ritz steps


def _householder_orthonormalize(X: np.ndarray, d: np.ndarray | None) -> np.ndarray:
    sq = 1.0 if d is None else np.sqrt(d)
    Q, _ = np.linalg.qr((X * sq).T)
    return np.ascontiguousarray(Q.T) / sq


def _metric_orthonormalize(X: np.ndarray, d: np.ndarray | None,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Rows Q spanning the rows of X with Q D Q^T = I, D = diag(d) (identity
    if None), written into ``out`` (a fresh array if None), which must not
    overlap X; returns ``out``.

    One scaled CholeskyQR pass: with G = X D X^T and s = diag(G)^(-1/2),
    Q = inv(L) diag(s) X where L L^T = diag(s) G diag(s), blind to the scale
    of each row and losing about cond(L)^2 u of orthogonality.  A Gram
    diagonal that is not positive and finite, a Cholesky failure or cond(L)
    above CHOLQR_MAX_COND send the block to Householder QR instead.  ``out``
    holds X D while the Gram matrix is formed.
    """
    if out is None:
        out = np.empty(X.shape)
    gram = X @ (X if d is None else np.multiply(X, d, out=out)).T
    g = np.diagonal(gram)
    if np.all(np.isfinite(g) & (g > 0)):
        s = 1.0 / np.sqrt(g)
        try:
            L = np.linalg.cholesky(gram * s * s[:, None])
            if np.linalg.cond(L) <= CHOLQR_MAX_COND:
                return np.matmul(np.linalg.inv(L) * s, X, out=out)
        except np.linalg.LinAlgError:
            pass
    out[...] = _householder_orthonormalize(X, d)
    return out


def _product(M, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rows of (M X^T)^T, written into ``out``; returns ``out``."""
    if isinstance(M, nbmat.EdgeOperator):
        return M.product_rows(X, out)
    out[...] = (M @ X.T).T
    return out


def _row_norms(X: np.ndarray) -> np.ndarray:
    # einsum: np.linalg.norm(X, axis=1) takes about four times as long here
    return np.sqrt(np.einsum("ij,ij->i", X, X))


def _leading_stable(history: deque, ok: np.ndarray, j: int) -> bool:
    """The j leading candidates held within VALUE_RTOL over a full
    ``history`` window and pass the residual test in this sweep."""
    if len(history) < history.maxlen or any(len(h) < j for h in history):
        return False
    ref = history[-1][:j]
    stable = all(np.max(np.abs(h[:j] - ref) / (1.0 + np.abs(ref))) <= VALUE_RTOL
                 for h in history)
    return stable and np.array_equal(ok[:j], np.arange(j))


def _pairs(cand: LeadingEigenResult, j: int) -> LeadingEigenResult:
    """The j leading candidate pairs of one sweep, their vectors copied out
    of the sweep's work block."""
    rows = cand.vectors.T[:j].copy()
    return replace(cand, values=cand.values[:j], vectors=rows.T,
                   residuals=cand.residuals[:j])


def leading_real_eigenpairs(M, k: int, inner: np.ndarray | None = None,
                            seed: int = 0,
                            bulk_radius: float | None = None) -> LeadingEigenResult:
    """Largest real eigenvalues of a square operator by block orthogonal iteration.

    Runs power steps on a block of k + 4 vectors (at most the dimension) with
    a Rayleigh-Ritz extraction after each product of ``M`` with the block
    (a sweep), except where a bulk radius lets it batch products (below):
    the k + 2 largest real Ritz values and their vectors v = Q s / ||Q s||
    are extracted as one block, with the residual ||M v - theta v|| taken
    per vector.  The
    rules below are module constants.  A Ritz value is retained when its
    imaginary part is at most TAU_IM * (1 + |value|) and its residual at
    most RESIDUAL_RTOL times the scale of :func:`nbmat.norm_bound` (``M`` is
    a sparse matrix, whose scale sqrt(||M||_1 ||M||_inf) is read off its
    entries, or an :class:`nbmat.EdgeOperator`, which carries it; either way
    it is ||M||_2 for T, B and BV);
    convergence requires the k leading retained values to be stable to
    VALUE_RTOL over STABLE_WINDOW consecutive extractions and to sit above
    the modulus floor of the converged block (so no larger real eigenvalue
    can hide below the block).  When a round of ROUND_SWEEPS products stalls
    the block grows once: operators of dimension <= SMALL_DIM jump to full
    dimension, where the projection is exact, while larger ones double it;
    a stall after that is treated as missing spectral separation.  At full
    dimension one extraction decides: its values count as stable, and the
    round ends after it, because further products change nothing there.
    So a solve takes at most two rounds of ROUND_SWEEPS products.  ``inner``
    supplies a diagonal metric for the orthogonalization (one scaled
    CholeskyQR pass, see :func:`_metric_orthonormalize`).  Deterministic for
    a given seed.  ``iterations`` counts products, ``extractions`` the
    Rayleigh-Ritz steps.

    ``bulk_radius`` is the radius r of the disk that holds all but the
    structural eigenvalues.  Given it, the solve reads after each
    extraction the k-th largest modulus theta among the Ritz values with
    positive real part.  While theta lies beyond (1 + BULK_MARGIN) * r and
    the block is short of the dimension, the error of the k-th pair shrinks
    by about r / theta per product, so VALUE_RTOL takes about
    ln(VALUE_RTOL) / ln(r / theta) products from the start; the solve
    extracts only every WINDOW_PRODUCTS products while that many more still
    leave it short of AHEAD times this prediction, and after every product
    from there on, where the stability window needs them.  The prediction
    is reset each round.  Given k >= 2 as well, the solve ends once the
    k-th largest modulus among the Ritz values with positive real part has
    stayed at or below (1 + BULK_MARGIN) * bulk_radius over
    ceil(ln sqrt(dim) / ln(1 + BULK_MARGIN)) products between extractions
    that all found it there: an eigenvalue beyond that margin gains at least
    that factor per product on the bulk, so by then it would have outgrown
    its 1/sqrt(dim) share of the random start.  Above SMALL_DIM it stops
    early, once the k - 1 leading candidates also pass the tests above; up
    to SMALL_DIM it takes the full block as on a stall, whose exact
    projection also finds real values inside the disk.  Because the
    argument holds per product, the solve extracts only every
    WINDOW_PRODUCTS products while the window counts.  Between the
    extractions of a batch M is applied to the raw block (multiple-step
    subspace iteration; the scaled CholeskyQR ignores row scale).  Values
    with nonpositive real part do not count, because the caller keeps only
    positive reals.

    The block lives in three p x dim arrays, allocated once per round and
    reused by every sweep; the products write into them (the matrix-free T
    through :meth:`nbmat.EdgeOperator.product_rows`).  The random draw is
    freed before the other two are allocated.  Results, and the pairs an
    error carries, are copies.

    A solve that ends short follows one rule: with j < k leading values
    stable in the final sweep (j = k - 1 on the early stop), it raises
    InsufficientRealRitzError carrying the j leading pairs of that sweep as
    ``found``, the j its message names; when the k-th stabilizes below the
    modulus floor, it carries all k.  When j = 0 it raises
    NoConvergenceError.
    """
    nn = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise BadParameterError(f"operator must be square, got {M.shape}")
    if not (1 <= k <= nn):
        raise BadParameterError(f"k={k} outside [1, {nn}]")
    d = None if inner is None else np.asarray(inner, dtype=np.float64)
    norm_m = max(nbmat.norm_bound(M), 1e-300)
    if bulk_radius is not None:
        bulk_edge = (1.0 + BULK_MARGIN) * bulk_radius
        bulk_window = math.ceil(math.log(math.sqrt(nn)) / math.log1p(BULK_MARGIN))

    rng = np.random.default_rng(seed)
    p = min(k + 4, nn)
    # the block after a stall; it grows only once
    block_cap = nn if nn <= SMALL_DIM else min(2 * p, nn)
    # the block holds one vector per row, so every sweep runs along
    # contiguous memory; the draws stay (nn, p) to keep the random stream,
    # and the draw is freed before the round allocates its other blocks.
    # X holds the rows that the next sweep orthonormalizes.
    X = np.ascontiguousarray(rng.standard_normal((nn, p)).T)

    total_it = extractions = 0
    while True:
        # the round's three p x nn blocks, reused by every sweep: X, which
        # the product Y = M Q overwrites, so Y is the next sweep's X; a spare
        # for the raw products, then Y D for H, then the Ritz block; and Q,
        # which holds X D for its Gram matrix, then Q, then the residual rows
        spare, Q = np.empty_like(X), np.empty_like(X)
        # at the full block one extraction is the whole window (see below)
        history = deque(maxlen=STABLE_WINDOW if p < nn else 1)
        inside = 0    # products since the k-th positive Ritz entered the disk
        ahead = 0     # products the k-th positive Ritz value predicts, times AHEAD
        end = total_it + ROUND_SWEEPS
        while total_it < end:
            # while the window counts, or short of the predicted point, run
            # ahead on the raw rows and orthonormalize only before the extraction
            batch = inside or total_it + WINDOW_PRODUCTS <= ahead
            steps = min(WINDOW_PRODUCTS, end - total_it) if batch else 1
            for _ in range(steps - 1):
                X, spare = _product(M, X, spare), X
            _metric_orthonormalize(X, d, out=Q)
            total_it += steps
            extractions += 1
            Y = _product(M, Q, X)
            H = Q @ (Y if d is None else np.multiply(Y, d, out=spare)).T
            theta, S = np.linalg.eig(H)
            ridx = np.nonzero(is_real(theta))[0]
            ridx = ridx[np.argsort(-theta.real[ridx])][: k + 2]
            ridx = ridx[S.real[:, ridx].any(axis=0)]
            S_rt = S.real[:, ridx].T
            vals = theta.real[ridx]
            SQ = np.matmul(S_rt, Q, out=spare[:len(vals)])
            nv = _row_norms(SQ)
            # Q is spent once SQ is formed
            resid = np.matmul(S_rt, Y, out=Q[:len(vals)])
            for row, val, sq in zip(resid, vals, SQ):
                row -= val * sq
            res = _row_norms(resid) / nv
            SQ /= nv[:, None]
            cand = LeadingEigenResult(values=vals, vectors=SQ.T, residuals=res,
                                      iterations=total_it, block_size=p,
                                      extractions=extractions)
            ok = np.nonzero(res <= RESIDUAL_RTOL * norm_m)[0]
            history.append(vals[:k])
            if _leading_stable(history, ok, k):
                floor = np.min(np.abs(theta)) if p < nn else -np.inf
                if vals[k - 1] >= floor - max(1e-8, 1e-6 * abs(floor)):
                    return _pairs(cand, k)
            if bulk_radius is not None:
                kth = np.sort(np.where(theta.real > 0, np.abs(theta), 0.0))[-k]
                if kth > bulk_edge and p < nn:
                    ahead = int(AHEAD * math.log(VALUE_RTOL)
                                / math.log(bulk_radius / kth))
                inside = inside + steps if kth <= bulk_edge and k >= 2 else 0
                if inside >= bulk_window and nn <= SMALL_DIM:
                    break   # the stall handling grows a small block to nn
                if inside >= bulk_window and _leading_stable(history, ok, k - 1):
                    raise InsufficientRealRitzError(
                        f"only {k - 1} real Ritz value(s) outside the bulk disk "
                        f"of radius {bulk_radius:.6g} after {total_it} sweeps, "
                        f"wanted {k}", found=_pairs(cand, k - 1))
            if p == nn:
                break       # the projection is exact: more products change nothing
        # stalled: grow the block from its last products (X holds Y), or
        # give up with the leading pairs that held in the last sweep
        if block_cap <= p:
            j = next((j for j in range(k, 0, -1)
                      if _leading_stable(history, ok, j)), 0)
            if j == 0:
                raise NoConvergenceError(
                    f"no real Ritz value stabilized after {total_it} sweeps")
            if j == k:      # stable, so the floor test failed
                raise InsufficientRealRitzError(
                    f"real Ritz value {k} ({vals[k - 1]:.6g}) stabilized below "
                    f"the modulus floor {floor:.6g} of the block after "
                    f"{total_it} sweeps: a larger real eigenvalue may hide "
                    f"beneath it", found=_pairs(cand, k))
            raise InsufficientRealRitzError(
                f"only {j} real Ritz value(s) stabilized, wanted {k}: "
                f"no spectral separation", found=_pairs(cand, j))
        grown = np.empty((block_cap, nn))
        _metric_orthonormalize(X, d, out=grown[:p])
        grown[p:] = rng.standard_normal((nn, block_cap - p)).T
        X, p = grown, block_cap


@dataclass
class RealEigenBasis:
    """Leading positive real eigenpairs of T with paired left vectors.

    Z columns are D_row-orthonormal right vectors (within a degenerate
    eigenspace the basis additionally diagonalizes the reversal bilinear
    form); W columns are the paired left vectors Vz (T^T = V T V), rescaled
    so Z^T W = I.
    Diagnostics carry, per pair: the reversal pairing z'Vz, the squared norm,
    the deviation |z'Vz + lambda| from the exact-pairing regime, the
    eigen-residual ||Tz - lambda z||, and per-node start/end sums.  The
    eigen-residual is zero when eigenvectors at distinct eigenvalues are
    naturally D_row-orthogonal (e.g. K4); otherwise the cross-eigenvalue
    orthogonalization correction shows up there and is reported rather than
    hidden.
    """

    k: int
    values: np.ndarray           # descending, values[0] = 1
    Z: np.ndarray                # (2m, k)
    W: np.ndarray                # (2m, k)
    diagnostics: dict = field(default_factory=dict)


def node_sums(z: np.ndarray, idx: OrientedEdgeIndex):
    """Per-node sums of edge coordinates grouped by start and by end point."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] != 2 * idx.m:
        raise LengthMismatchError(f"expected length {2 * idx.m}, got {z.shape[0]}")
    start_sums = np.bincount(idx.start, weights=z, minlength=idx.n)
    end_sums = np.bincount(idx.end, weights=z, minlength=idx.n)
    return start_sums, end_sums


def _cluster_real_values(vals: np.ndarray):
    """Group consecutive (descending) values within CLUSTER_RTOL."""
    clusters, current = [], [0]
    for i in range(1, len(vals)):
        gap = abs(vals[i] - vals[current[-1]])
        if gap <= CLUSTER_RTOL * max(1.0, abs(vals[i])):
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)
    return clusters


def eigenbasis_from_decomposition(idx: OrientedEdgeIndex, k: int, T,
                                  spec: Spectrum, V) -> RealEigenBasis:
    """The dense mode of :func:`real_eigenbasis_T`, bar its checks and its
    shortfall error, on a decomposition (spec, V) of the CSR T at hand."""
    w = spec.values
    pos = np.nonzero(is_real(w) & (w.real > 1e-10))[0]
    order = pos[np.argsort(-w.real[pos])]
    vals, vecs = w.real[order], np.real(V[:, order])
    if len(vals) >= k:
        # keep whole clusters so degenerate eigenspaces are orthonormalized jointly
        keep = 0
        for cl in _cluster_real_values(vals):
            keep += len(cl)
            if keep >= k:
                break
        vals, vecs = vals[:keep], vecs[:, :keep]
    return _basis_from_pairs(idx, T, nbmat.build_D_row(idx), vals, vecs, k)


def real_eigenbasis_T(idx: OrientedEdgeIndex, k: int, mode: str = "dense",
                      seed: int = 0) -> RealEigenBasis:
    """Build the k-dimensional real eigenbasis of the transition matrix.

    mode 'iterative', the route of ``pipeline`` and ``bound``, runs the
    block iteration on the matrix-free T (:func:`nbmat.T_operator`) under
    the D_row metric, given the bulk radius 1/sqrt(c - 1) with c = 2m/n
    (:func:`bulk_disk_radius`): it batches products short of the predicted
    convergence point, and once the k-th Ritz value has settled inside the
    bulk disk it stops, or up to SMALL_DIM takes the full block (see
    leading_real_eigenpairs).
    mode 'dense' decomposes the full CSR matrix, capped at DENSE_CAP, and
    also counts positive reals inside the bulk disk.
    Requires a connected 2-core that is not a cycle, checked from the index
    itself.

    The trivial pair is pinned analytically: values[0] = 1 and Z[:, 0] is the
    constant vector scaled so z1' D_row z1 = 1; its left partner is the
    constant vector with entries 1/(2m a).  Remaining right vectors are
    D_row-orthonormalized in decreasing eigenvalue order; inside a degenerate
    cluster the basis is rotated to diagonalize the reversal form, and the
    retained columns are those with the most negative pairing.  Left vectors
    come from the reversal pairing w = Vz / (z'Vz), which T^T = V T V makes
    exact, then are rescaled jointly so Z^T W = I holds exactly; a pairing
    that vanishes raises DegenerateBilinearFormError.

    Raises NotEnoughPositiveRealsError when only j < k usable positive real
    pairs are found.  For j >= 1 the error carries, as ``basis``, the
    j-dimensional basis assembled from the pairs the one solve found, so a
    caller can fall back without solving again.
    """
    check_eigenbasis_graph(idx, k)
    if mode == "dense":
        T = nbmat.build_T(idx)
        basis = eigenbasis_from_decomposition(
            idx, k, T, *dense_eigendecomposition(T, want_vectors=True, source="T"))
    elif mode == "iterative":
        T = nbmat.T_operator(idx)
        drow = nbmat.build_D_row(idx)
        radius = bulk_disk_radius("T", 2.0 * idx.m / idx.n)
        try:
            res = leading_real_eigenpairs(T, k, inner=drow, seed=seed,
                                          bulk_radius=radius)
        except InsufficientRealRitzError as exc:
            res = exc.found     # the leading pairs that held
        pos = res.values > 1e-10
        basis = (_basis_from_pairs(idx, T, drow, res.values[pos],
                                   res.vectors[:, pos], k)
                 if pos.any() else None)
    else:
        raise BadParameterError(f"unknown mode {mode!r}")
    if basis is None or basis.k < k:
        stabilized = " stabilized" if mode == "iterative" else ""
        raise NotEnoughPositiveRealsError(
            f"only {basis.k if basis else 0} positive real eigenvalues"
            f"{stabilized}, wanted {k}", basis=basis)
    return basis


def check_eigenbasis_graph(idx: OrientedEdgeIndex, k: int) -> None:
    """The checks of :func:`real_eigenbasis_T` on k and the graph."""
    if k < 1:
        raise BadParameterError(f"k must be positive, got {k}")
    if idx.n == 0 or idx.degrees.min() < 2:
        raise BadParameterError("graph must be a 2-core (min degree >= 2)")
    if len(connected_components(SimpleGraph(n=idx.n, edges=idx.edges))) != 1:
        raise BadParameterError("graph must be connected")
    if np.all(idx.degrees == 2):
        raise BadParameterError("graph must not be a cycle")


def _basis_from_pairs(idx: OrientedEdgeIndex, T, drow: np.ndarray,
                      vals: np.ndarray, vecs: np.ndarray,
                      k: int) -> RealEigenBasis:
    """The real eigenbasis on at most k of the given descending pairs."""
    n2 = 2 * idx.m
    if abs(vals[0] - 1.0) > 1e-6:
        raise NoConvergenceError(
            f"leading eigenvalue {vals[0]} is not the trivial value 1")

    # assemble Z cluster by cluster: project out earlier columns under D_row,
    # orthonormalize, then rotate to diagonalize the reversal form
    clusters = _cluster_real_values(vals)
    scale = float(np.sqrt(drow.sum()))
    z1 = np.full(n2, 1.0 / scale)
    columns, lambdas = [z1], [1.0]
    for ci, cl in enumerate(clusters):
        block = vecs[:, cl].copy()
        lam = float(np.mean(vals[cl]))
        if ci == 0:
            # trivial cluster: the analytic constant vector replaces it
            if len(cl) > 1:
                raise NoConvergenceError(
                    "eigenvalue 1 appears with multiplicity > 1; "
                    "is the graph connected?")
            continue
        for zc in columns:
            coef = zc @ (drow[:, None] * block)
            block -= np.outer(zc, coef)
        gram = block.T @ (drow[:, None] * block)
        s, U = np.linalg.eigh(gram)
        good = s > 1e-20 * max(s.max(), 1.0)
        block = block @ U[:, good] / np.sqrt(s[good])
        form = block.T @ idx.swap_halves(block)
        form = 0.5 * (form + form.T)
        gs, Q = np.linalg.eigh(form)
        block = block @ Q                       # pairing most negative first
        for j in range(block.shape[1]):
            if len(columns) >= k:
                break
            columns.append(block[:, j])
            lambdas.append(lam)
        if len(columns) >= k:
            break

    k = len(columns)
    Z = np.column_stack(columns)
    values = np.array(lambdas)

    # deterministic signs: largest-magnitude coordinate positive
    for j in range(k):
        col = Z[:, j]
        pivot = np.argmax(np.abs(col))
        if col[pivot] < 0:
            Z[:, j] = -col
    Zbrev = idx.swap_halves(Z)
    g_pair = np.array([Z[:, j] @ Zbrev[:, j] for j in range(k)])

    # left vectors from the reversal pairing: T^T = V T V, so Vz is a left
    # eigenvector of T at the value of z
    if not np.all(g_pair):
        raise DegenerateBilinearFormError(
            f"reversal pairing z'Vz vanished for pair "
            f"{int(np.argmin(np.abs(g_pair)))}")
    W0 = Zbrev / g_pair
    C = Z.T @ W0
    if np.linalg.cond(C) > 1e12:
        raise DegenerateBilinearFormError(
            "left/right pairing matrix is numerically singular")
    W = W0 @ np.linalg.inv(C)

    start_sums = np.empty((k, idx.n))
    end_sums = np.empty((k, idx.n))
    for j in range(k):
        start_sums[j], end_sums[j] = node_sums(Z[:, j], idx)
    residuals = np.linalg.norm(T @ Z - Z * values[None, :], axis=0)
    diagnostics = {
        "pairing": g_pair,
        "norm_sq": np.sum(Z * Z, axis=0),
        "pairing_deviation": np.abs(g_pair + values),
        "eigen_residual": residuals,
        "start_sums": start_sums,
        "end_sums": end_sums,
    }
    return RealEigenBasis(k=k, values=values, Z=Z, W=W, diagnostics=diagnostics)


def leading_reals_B(idx: OrientedEdgeIndex, k: int, seed: int = 0) -> np.ndarray:
    """The k leading real eigenvalues of B, descending.

    The block iteration runs on the 2n x 2n Ihara-Bass companion
    (:func:`nbmat.ihara_bass_companion`), whose real eigenvalues above 1 are
    those of B, given B's bulk radius sqrt(c), c = 2m/n: it batches products
    short of the predicted convergence point, and once the k-th Ritz value
    has settled inside the bulk disk it stops, or up to SMALL_DIM takes the
    full block (see :func:`leading_real_eigenpairs`).  Its
    InsufficientRealRitzError / NoConvergenceError propagate (the former
    carries the partial result in ``found``).
    """
    return leading_real_eigenpairs(
        nbmat.ihara_bass_companion(idx), k, seed=seed,
        bulk_radius=bulk_disk_radius("B", 2.0 * idx.m / idx.n)).values


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """Serialize as 're,im,class' rows with 17 significant digits."""
    lines = ["re,im,class"]
    classes = spectrum.classes or [""] * len(spectrum)
    for val, cls in zip(spectrum.values, classes):
        lines.append(f"{format(val.real, '.17g')},{format(val.imag, '.17g')},{cls}")
    return "\n".join(lines) + "\n"
