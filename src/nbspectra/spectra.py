"""Eigendecomposition, spectrum classification, and the real eigenbasis of T.

Dense decompositions serve small operators; a block orthogonal iteration with
Rayleigh-Ritz extraction serves large sparse ones.  The real eigenbasis
packages the leading positive real eigenpairs of the transition matrix with
their paired left vectors and per-pair diagnostics (reversal pairing,
norms, per-node start/end sums, eigen-residuals).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _csgraph_components

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
# connected_components stays bound here: perfbench's binding test wraps it
from .graph import OrientedEdgeIndex, connected_components  # noqa: F401

DENSE_CAP = 6000
AUTO_DENSE_CAP = 2000     # bound and pipeline solve dense up to this 2m
TAU_IM = 1e-8             # a value is real when |imag| <= TAU_IM * (1 + |value|)

# fixed rules of the block iteration in leading_real_eigenpairs
ROUND_SWEEPS = 400        # sweeps per round before the block may grow
RESIDUAL_RTOL = 1e-6      # a Ritz pair is kept when its residual <= this * ||M||
VALUE_RTOL = 1e-8         # leading Ritz values count as stable within this
STABLE_WINDOW = 5         # ... over this many consecutive sweeps
SMALL_DIM = 512           # operators up to this dimension may grow the block fully

PERRON = "perron"
STRUCTURAL_REAL = "structural_real"
REAL_BULK = "real_bulk"
COMPLEX_BULK = "complex_bulk"


@dataclass
class Spectrum:
    """Multiset of eigenvalues in canonical order with optional classes.

    Canonical order is descending real part, then descending imaginary part.
    ``classes`` is filled by :func:`classify_spectrum`; ``backward_error`` is
    the largest measured relative residual when eigenvectors were requested.
    """

    values: np.ndarray
    source: str = ""
    classes: list | None = None
    backward_error: float | None = None

    def __len__(self):
        return len(self.values)

    def real_values(self, tau_im: float = TAU_IM) -> np.ndarray:
        v = self.values
        mask = np.abs(v.imag) <= tau_im * (1.0 + np.abs(v))
        return v.real[mask]

    def count_class(self, cls: str) -> int:
        if self.classes is None:
            return 0
        return sum(1 for c in self.classes if c == cls)

    def structural(self) -> np.ndarray:
        """Real parts of entries classed perron or structural_real."""
        if self.classes is None:
            return np.array([])
        keep = [i for i, c in enumerate(self.classes)
                if c in (PERRON, STRUCTURAL_REAL)]
        return self.values.real[keep]


def _canonical_order(values: np.ndarray) -> np.ndarray:
    return np.lexsort((-values.imag, -values.real))


def dense_eigendecomposition(M, want_vectors: bool = False, cap: int = DENSE_CAP,
                             source: str = ""):
    """Full spectrum of a square real matrix, optionally with right vectors.

    Exactly symmetric inputs go through the symmetric path and come back with
    real eigenvalues and orthonormal vectors.  Eigenvectors of real
    eigenvalues are returned with all-real coordinates.  Raises
    DimensionCapError above ``cap``, before densifying, and NoConvergenceError
    if the QR iteration fails or a residual exceeds 1e-8 * ||M||.
    """
    if not sp.issparse(M):
        M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BadParameterError(f"expected a square matrix, got shape {M.shape}")
    nn = M.shape[0]
    if nn > cap:
        raise DimensionCapError(f"dimension {nn} exceeds dense cap {cap}")
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
    backward = None
    if V is not None:
        V = V[:, order]
        # make vectors of real eigenvalues real: rotate out the global phase
        real_mask = np.abs(w.imag) <= TAU_IM * (1.0 + np.abs(w))
        for i in np.nonzero(real_mask)[0]:
            col = V[:, i]
            pivot = col[np.argmax(np.abs(col))]
            if pivot != 0:
                col = col * (np.conj(pivot) / abs(pivot))
            colr = col.real
            nrm = np.linalg.norm(colr)
            if nrm > 0:
                V[:, i] = colr / nrm
        norm_a = nbmat.spectral_norm(A)
        resid = np.linalg.norm(A @ V - V * w[None, :], axis=0)
        backward = float(resid.max() / max(norm_a, 1e-300))
        if backward > 1e-8:
            raise NoConvergenceError(
                f"eigenvector residual {backward:.2e} exceeds 1e-8 relative")
    spec = Spectrum(values=w, source=source, backward_error=backward)
    return spec, V


def classify_spectrum(spectrum: Spectrum, c: float, delta: float = 0.05,
                      tau_im: float = TAU_IM) -> Spectrum:
    """Label each eigenvalue perron / structural_real / real_bulk / complex_bulk.

    ``c`` is the average degree of the underlying graph.  The bulk radius is
    sqrt(c) for B and BV sources and 1/sqrt(c-1) for T; L is classified
    through its image 1 - value under the T rule.  An eigenvalue is treated
    as real when |imag| <= tau_im * (1 + |value|); a real one is structural
    when it clears the bulk radius by the margin delta.  The largest positive
    real entry is the single perron eigenvalue.
    """
    if not np.isfinite(c) or c <= 1:
        raise BadParameterError(f"average degree must exceed 1, got {c}")
    if delta < 0:
        raise BadParameterError(f"margin must be nonnegative, got {delta}")
    v = spectrum.values
    source = spectrum.source or "B"
    if source in ("B", "BV"):
        effective = v
        threshold = (1.0 + delta) * np.sqrt(c)
    elif source == "T":
        effective = v
        threshold = (1.0 + delta) / np.sqrt(c - 1.0)
    elif source == "L":
        effective = 1.0 - v
        threshold = (1.0 + delta) / np.sqrt(c - 1.0)
    else:
        raise BadParameterError(f"unknown source tag {source!r}")

    real_mask = np.abs(v.imag) <= tau_im * (1.0 + np.abs(v))
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
    return Spectrum(values=v, source=source, classes=classes,
                    backward_error=spectrum.backward_error)


@dataclass
class LeadingEigenResult:
    """Converged real Ritz pairs from the block iteration."""

    values: np.ndarray          # descending real eigenvalues, length k
    vectors: np.ndarray         # (dim, k) unit right eigenvectors
    residuals: np.ndarray       # ||M v - lambda v|| per pair
    iterations: int
    block_size: int


def _metric_orthonormalize(X: np.ndarray, d: np.ndarray | None) -> np.ndarray:
    if d is None:
        Q, _ = np.linalg.qr(X)
        return Q
    sq = np.sqrt(d)
    Q, _ = np.linalg.qr(sq[:, None] * X)
    return Q / sq[:, None]


def leading_real_eigenpairs(M, k: int, inner: np.ndarray | None = None,
                            seed: int = 0,
                            max_iter: int = 2000) -> LeadingEigenResult:
    """Largest real eigenvalues of a square operator by block orthogonal iteration.

    Runs power steps on a block of k + 4 vectors (at most the dimension) with
    Rayleigh-Ritz extraction each sweep.  The rules below are module
    constants.  A Ritz value is retained when its imaginary part is at most
    TAU_IM * (1 + |value|) and its residual at most RESIDUAL_RTOL * ||M||;
    convergence requires the k leading retained values to be stable to
    VALUE_RTOL over STABLE_WINDOW consecutive sweeps and to sit above the
    modulus floor of the converged block (so no larger real eigenvalue can
    hide below the block).  When a round of ROUND_SWEEPS sweeps stalls the
    block is doubled: operators of dimension <= SMALL_DIM may grow to full
    dimension, where the projection is exact, while larger ones get one
    doubling before the stall is treated as missing spectral separation.
    ``max_iter`` bounds the total sweeps across rounds.  ``inner`` supplies a
    diagonal metric for orthogonalization.  Deterministic for a given seed.

    Raises InsufficientRealRitzError (with partial result attached) when
    fewer than k real values stabilize, NoConvergenceError when none do.
    """
    nn = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise BadParameterError(f"operator must be square, got {M.shape}")
    if not (1 <= k <= nn):
        raise BadParameterError(f"k={k} outside [1, {nn}]")
    d = None if inner is None else np.asarray(inner, dtype=np.float64)
    try:
        norm_m = nbmat.spectral_norm(M, seed=seed)
    except NoConvergenceError:
        norm_m = nbmat.frobenius_norm(M)
    norm_m = max(norm_m, 1e-300)

    rng = np.random.default_rng(seed)
    p = min(k + 4, nn)
    block_cap = nn if nn <= SMALL_DIM else 2 * (k + 4)
    Q = _metric_orthonormalize(rng.standard_normal((nn, p)), d)

    total_it = 0
    best_partial = (np.array([]), np.zeros((nn, 0)), np.array([]))
    while True:
        history = []
        budget = min(ROUND_SWEEPS, max_iter - total_it)
        for _ in range(budget):
            total_it += 1
            Y = M @ Q
            H = Q.T @ (Y if d is None else d[:, None] * Y)
            theta, S = np.linalg.eig(H)
            real_mask = np.abs(theta.imag) <= TAU_IM * (1.0 + np.abs(theta))
            ridx = np.nonzero(real_mask)[0]
            ridx = ridx[np.argsort(-theta.real[ridx])]
            cand_vals, cand_res, cand_vecs = [], [], []
            for i in ridx[: k + 2]:
                s = S[:, i].real
                ns = np.linalg.norm(s)
                if ns == 0:
                    continue
                s = s / ns
                v = Q @ s
                nv = np.linalg.norm(v)
                v = v / nv
                r = np.linalg.norm(Y @ s / nv - theta[i].real * v)
                cand_vals.append(theta[i].real)
                cand_res.append(r)
                cand_vecs.append(v)
            ok = [i for i in range(len(cand_vals))
                  if cand_res[i] <= RESIDUAL_RTOL * norm_m]
            if len(ok) >= max(len(best_partial[0]), 1):
                sel = ok[: max(k, len(ok))]
                best_partial = (
                    np.array([cand_vals[i] for i in sel]),
                    np.column_stack([cand_vecs[i] for i in sel]),
                    np.array([cand_res[i] for i in sel]),
                )
            history.append(np.array(cand_vals[:k]))
            converged = False
            recent = history[-STABLE_WINDOW:]
            if len(history) >= STABLE_WINDOW and all(len(h) >= k for h in recent):
                ref = history[-1][:k]
                stable = all(
                    np.max(np.abs(h[:k] - ref) / (1.0 + np.abs(ref))) <= VALUE_RTOL
                    for h in recent)
                resid_ok = (len(ok) >= k and all(i in ok for i in range(k)))
                floor = np.min(np.abs(theta)) if p < nn else -np.inf
                complete = ref[k - 1] >= floor - max(1e-8, 1e-6 * abs(floor))
                converged = stable and resid_ok and complete
            if converged:
                vals = np.array(cand_vals[:k])
                vecs = np.column_stack(cand_vecs[:k])
                res = np.array(cand_res[:k])
                return LeadingEigenResult(values=vals, vectors=vecs,
                                          residuals=res, iterations=total_it,
                                          block_size=p)
            Q = _metric_orthonormalize(Y, d)
        # stalled: grow the block or give up
        p_new = min(2 * p, block_cap, nn)
        if p_new <= p or total_it >= max_iter:
            found_vals, found_vecs, found_res = best_partial
            if len(found_vals) == 0:
                raise NoConvergenceError(
                    f"no real Ritz value stabilized after {total_it} sweeps")
            partial = LeadingEigenResult(
                values=found_vals, vectors=found_vecs, residuals=found_res,
                iterations=total_it, block_size=p)
            raise InsufficientRealRitzError(
                f"only {len(found_vals)} real Ritz value(s) stabilized, "
                f"wanted {k}: no spectral separation", found=partial)
        extra = rng.standard_normal((nn, p_new - p))
        Q = _metric_orthonormalize(np.column_stack([Q, extra]), d)
        p = p_new


@dataclass
class RealEigenBasis:
    """Leading positive real eigenpairs of T with paired left vectors.

    Z columns are D_row-orthonormal right vectors (within a degenerate
    eigenspace the basis additionally diagonalizes the reversal bilinear
    form); W columns are the paired left vectors, rescaled so Z^T W = I.
    Diagnostics carry, per pair: the reversal pairing z'Vz, the squared norm,
    the deviation |z'Vz + lambda| from the exact-pairing regime, the
    antisymmetry defect ||z + Vz||, the eigen-residual ||Tz - lambda z||, and
    per-node start/end sums.  The eigen-residual is zero when eigenvectors at
    distinct eigenvalues are naturally D_row-orthogonal (e.g. K4); otherwise
    the cross-eigenvalue orthogonalization correction shows up there and is
    reported rather than hidden.
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


def closed_form_singular_values_B(idx: OrientedEdgeIndex) -> np.ndarray:
    """Singular values of B: each d_j - 1 once, plus 1 repeated 2m - n times."""
    vals = np.concatenate([
        (idx.degrees - 1).astype(np.float64),
        np.ones(2 * idx.m - idx.n),
    ])
    return np.sort(vals)[::-1]


def _cluster_real_values(vals: np.ndarray, rel_tol: float = 1e-7):
    """Group consecutive (descending) values within relative tolerance."""
    clusters, current = [], [0]
    for i in range(1, len(vals)):
        if abs(vals[i] - vals[current[-1]]) <= rel_tol * max(1.0, abs(vals[i])):
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)
    return clusters


def _positive_real_pairs_dense(T, k: int):
    spec, V = dense_eigendecomposition(T, want_vectors=True, cap=DENSE_CAP,
                                       source="T")
    w = spec.values
    mask = (np.abs(w.imag) <= TAU_IM * (1.0 + np.abs(w))) & (w.real > 1e-10)
    pos = np.nonzero(mask)[0]
    if len(pos) < k:
        raise NotEnoughPositiveRealsError(
            f"only {len(pos)} positive real eigenvalues, wanted {k}")
    order = pos[np.argsort(-w.real[pos])]
    vals = w.real[order]
    vecs = np.real(V[:, order])
    # keep whole clusters so degenerate eigenspaces are orthonormalized jointly
    clusters = _cluster_real_values(vals)
    keep = 0
    for cl in clusters:
        keep += len(cl)
        if keep >= k:
            break
    return vals[:keep], vecs[:, :keep]


def _positive_real_pairs_iterative(T, k: int, drow: np.ndarray, seed: int):
    try:
        res = leading_real_eigenpairs(T, k, inner=drow, seed=seed)
    except InsufficientRealRitzError as exc:
        if exc.found is None:
            raise NotEnoughPositiveRealsError(str(exc)) from exc
        res = exc.found
    mask = res.values > 1e-10
    if int(mask.sum()) < k:
        raise NotEnoughPositiveRealsError(
            f"only {int(mask.sum())} positive real eigenvalues stabilized, "
            f"wanted {k}")
    return res.values[mask][:k], res.vectors[:, mask][:, :k]


def real_eigenbasis_T(idx: OrientedEdgeIndex, k: int, mode: str = "dense",
                      seed: int = 0) -> RealEigenBasis:
    """Build the k-dimensional real eigenbasis of the transition matrix.

    mode 'dense' decomposes the full matrix, 'iterative' uses the block
    iteration under the D_row metric; dense decompositions are capped at
    DENSE_CAP, read at call time.  Requires a connected 2-core that is not a
    cycle, checked from the index itself.

    The trivial pair is pinned analytically: values[0] = 1 and Z[:, 0] is the
    constant vector scaled so z1' D_row z1 = 1; its left partner is the
    constant vector with entries 1/(2m a).  Remaining right vectors are
    D_row-orthonormalized in decreasing eigenvalue order; inside a degenerate
    cluster the basis is rotated to diagonalize the reversal form, and the
    retained columns are those with the most negative pairing.  Left vectors
    come from the reversal pairing w = Vz / (z'Vz) with a dense transpose
    fallback, then are rescaled jointly so Z^T W = I holds exactly.
    """
    if k < 1:
        raise BadParameterError(f"k must be positive, got {k}")
    if idx.n == 0 or idx.degrees.min() < 2:
        raise BadParameterError("graph must be a 2-core (min degree >= 2)")
    adj = sp.csr_matrix((np.ones(2 * idx.m), (idx.start, idx.end)),
                        shape=(idx.n, idx.n))
    if _csgraph_components(adj, directed=False)[0] != 1:
        raise BadParameterError("graph must be connected")
    if np.all(idx.degrees == 2):
        raise BadParameterError("graph must not be a cycle")

    T = nbmat.build_T(idx)
    drow = nbmat.build_D_row(idx)
    n2 = 2 * idx.m

    if mode == "dense":
        vals, vecs = _positive_real_pairs_dense(T, k)
    elif mode == "iterative":
        vals, vecs = _positive_real_pairs_iterative(T, k, drow, seed)
    else:
        raise BadParameterError(f"unknown mode {mode!r}")

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
        if not np.all(good):
            block = block @ U[:, good] / np.sqrt(s[good])
        else:
            block = block @ U / np.sqrt(s)
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

    Z = np.column_stack(columns[:k])
    values = np.array(lambdas[:k])

    # deterministic signs: largest-magnitude coordinate positive
    for j in range(k):
        col = Z[:, j]
        pivot = np.argmax(np.abs(col))
        if col[pivot] < 0:
            Z[:, j] = -col
    Zbrev = idx.swap_halves(Z)
    g_pair = np.array([Z[:, j] @ Zbrev[:, j] for j in range(k)])

    # left vectors from the reversal pairing, dense transpose fallback
    W0 = np.empty_like(Z)
    for j in range(k):
        if abs(g_pair[j]) > 1e-10:
            W0[:, j] = Zbrev[:, j] / g_pair[j]
        else:
            if n2 > DENSE_CAP:
                raise DegenerateBilinearFormError(
                    f"reversal pairing vanished for pair {j} and the dense "
                    f"transpose fallback is unavailable at dimension {n2}")
            specT, VT = dense_eigendecomposition(T.T, want_vectors=True,
                                                 cap=DENSE_CAP, source="T")
            close = np.argmin(np.abs(specT.values - values[j]))
            W0[:, j] = np.real(VT[:, close])
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
        "antisymmetry": np.linalg.norm(Z + Zbrev, axis=0),
        "eigen_residual": residuals,
        "left_constants": np.where(np.abs(g_pair) > 1e-300, 1.0 / g_pair, np.inf),
        "start_sums": start_sums,
        "end_sums": end_sums,
    }
    return RealEigenBasis(k=k, values=values, Z=Z, W=W, diagnostics=diagnostics)


def auto_mode(idx: OrientedEdgeIndex, dense_cap: int = AUTO_DENSE_CAP) -> str:
    """'dense' when the oriented-edge dimension 2m is at most dense_cap."""
    return "dense" if 2 * idx.m <= dense_cap else "iterative"


def leading_reals_B(idx: OrientedEdgeIndex, k: int, mode: str,
                    seed: int = 0) -> np.ndarray:
    """Leading real eigenvalues of B, descending, at most k of them.

    mode 'dense' reads them off the full spectrum; otherwise the block
    iteration runs and its InsufficientRealRitzError / NoConvergenceError
    propagate (the former carries the partial result in ``found``).
    """
    B = nbmat.build_B(idx)
    if mode == "dense":
        spec, _ = dense_eigendecomposition(B, source="B")
        return np.sort(spec.real_values())[::-1][:k]
    return leading_real_eigenpairs(B, k, seed=seed).values


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """Serialize as 're,im,class' rows with 17 significant digits."""
    lines = ["re,im,class"]
    classes = spectrum.classes or [""] * len(spectrum)
    for val, cls in zip(spectrum.values, classes):
        lines.append(f"{format(val.real, '.17g')},{format(val.imag, '.17g')},{cls}")
    return "\n".join(lines) + "\n"
