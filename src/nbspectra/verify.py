"""Structural and spectral identity suites for a given graph.

Each suite emits findings with a measured residual and a pass flag.
Assertive checks gate the exit status; informational checks report
quantities that are diagnostics by design (for instance per-node end-sums
of eigenvectors, which provably vanish only in special regimes).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import nbmat, spectra
from .errors import DimensionCapError
from .graph import (
    SimpleGraph,
    connected_components,
    is_bipartite,
    oriented_edges,
    reversal_permutation,
)

ALL_SUITES = ("pt", "stochastic", "svd", "sums", "theorem1", "bipartite",
              "components")


def _finding(suite, check, residual, tol, informational=False):
    ok = True if informational else bool(residual <= tol)
    return {
        "suite": suite,
        "check": check,
        "residual": float(residual),
        "tolerance": None if informational else float(tol),
        "pass": ok,
        "informational": bool(informational),
    }


def _csr_bit_equal(A, B) -> float:
    """0.0 when two sparse matrices are bit-identical, else a defect size."""
    A = A.tocsr().copy()
    B = B.tocsr().copy()
    A.sum_duplicates()
    B.sum_duplicates()
    A.sort_indices()
    B.sort_indices()
    A.eliminate_zeros()
    B.eliminate_zeros()
    if A.shape != B.shape:
        return float("inf")
    if (np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data)):
        return 0.0
    diff = (A - B).tocoo()
    return float(np.max(np.abs(diff.data))) if diff.nnz else float("inf")


def suite_pt(g: SimpleGraph):
    idx = oriented_edges(g)
    B = nbmat.build_B(idx)
    End = nbmat.build_End(idx)
    Start = nbmat.build_Start(idx)
    D = np.diag(idx.degrees.astype(np.float64))
    out = []
    out.append(_finding("pt", "B^T == V B V",
                        _csr_bit_equal(nbmat.transpose(B),
                                       nbmat.conjugate_by_V(B)), 0.0))
    m = idx.m
    perm = reversal_permutation(m)
    BV = B.tocsr()[:, perm].tocsr()
    VB = B.tocsr()[perm].tocsr()
    out.append(_finding("pt", "B V symmetric",
                        _csr_bit_equal(BV, nbmat.transpose(BV)), 0.0))
    out.append(_finding("pt", "V B symmetric",
                        _csr_bit_equal(VB, nbmat.transpose(VB)), 0.0))
    gram = (End @ End.T - sp.eye(2 * m, format="csr")).tocsr()
    out.append(_finding("pt", "B V == End End^T - I",
                        _csr_bit_equal(BV, gram), 0.0))
    drow = nbmat.build_D_row(idx)
    dcol = nbmat.build_D_col(idx)
    swap = drow[perm]
    out.append(_finding("pt", "D_col == V D_row V",
                        0.0 if np.array_equal(dcol, swap) else float("inf"),
                        0.0))
    ete = (End.T @ End).toarray()
    sts = (Start.T @ Start).toarray()
    out.append(_finding("pt", "End^T End == Start^T Start == D",
                        0.0 if (np.array_equal(ete, D)
                                and np.array_equal(sts, D)) else float("inf"),
                        0.0))
    expected = int(np.sum(idx.degrees ** 2) - 2 * m)
    out.append(_finding("pt", "entry count of B == sum d^2 - 2m",
                        abs(nbmat.entry_count(B) - expected), 0.0))
    return out


def suite_stochastic(g: SimpleGraph, tol=1e-12):
    idx = oriented_edges(g)
    T = nbmat.build_T(idx)
    ones = np.ones(2 * idx.m)
    row = float(np.max(np.abs(T @ ones - 1.0)))
    col = float(np.max(np.abs(T.T @ ones - 1.0)))
    return [
        _finding("stochastic", "row sums of T", row, tol),
        _finding("stochastic", "column sums of T", col, tol),
    ]


def suite_svd(g: SimpleGraph, tol=1e-8):
    idx = oriented_edges(g)
    if 2 * idx.m > spectra.DENSE_CAP:
        raise DimensionCapError(
            f"dimension {2 * idx.m} exceeds dense cap {spectra.DENSE_CAP}")
    B = nbmat.build_B(idx).toarray()
    numeric = np.sort(np.linalg.svd(B, compute_uv=False))[::-1]
    closed = spectra.closed_form_singular_values_B(idx)
    resid = float(np.max(np.abs(numeric - closed))) if len(closed) else 0.0
    return [_finding("svd", "singular values of B match closed form",
                     resid, tol)]


def suite_sums(g: SimpleGraph, tol=1e-8):
    idx = oriented_edges(g)
    T = nbmat.build_T(idx)
    spec, V = spectra.dense_eigendecomposition(T, want_vectors=True, source="T")
    out = []
    worst_global, worst_reversal, worst_endinfo = 0.0, 0.0, 0.0
    for i, lam in enumerate(spec.values):
        if abs(lam.imag) > 1e-8 * (1.0 + abs(lam)):
            continue
        lam = lam.real
        z = np.real(V[:, i])
        nz = np.linalg.norm(z)
        if nz == 0:
            continue
        ss, es = spectra.node_sums(z, idx)
        worst_reversal = max(worst_reversal,
                             float(np.max(np.abs(ss - lam * es)) / nz))
        if abs(lam - 1.0) > 1e-8:
            worst_global = max(worst_global, float(abs(z.sum()) / nz))
            worst_endinfo = max(worst_endinfo,
                                float(np.max(np.abs(es)) / nz))
    out.append(_finding("sums", "sum of coordinates vanishes (lambda != 1)",
                        worst_global, tol))
    out.append(_finding("sums", "start-sums == lambda * end-sums",
                        worst_reversal, tol))
    out.append(_finding("sums", "largest per-node end-sum (diagnostic)",
                        worst_endinfo, tol, informational=True))
    return out


def suite_theorem1(g: SimpleGraph, tol=1e-8):
    idx = oriented_edges(g)
    T = nbmat.build_T(idx)
    spec, _ = spectra.dense_eigendecomposition(T, source="T")
    reals = spec.real_values()
    n_pos = int(np.sum(reals > 1e-10))
    k = 2 if n_pos >= 2 else 1
    basis = spectra.real_eigenbasis_T(idx, k, mode="dense")
    drow = nbmat.build_D_row(idx)
    gram = basis.Z.T @ (drow[:, None] * basis.Z) - np.eye(k)
    bi = basis.Z.T @ basis.W - np.eye(k)
    out = [
        _finding("theorem1", "Z^T D_row Z == I",
                 float(np.max(np.abs(gram))), tol),
        _finding("theorem1", "Z^T W == I", float(np.max(np.abs(bi))), tol),
        _finding("theorem1", "largest |z'Vz + lambda| (diagnostic)",
                 float(np.max(basis.diagnostics["pairing_deviation"])),
                 tol, informational=True),
        _finding("theorem1", "largest eigen-residual of Z (diagnostic)",
                 float(np.max(basis.diagnostics["eigen_residual"])),
                 tol, informational=True),
    ]
    return out


def suite_bipartite(g: SimpleGraph, tol=1e-8):
    idx = oriented_edges(g)
    T = nbmat.build_T(idx)
    spec, _ = spectra.dense_eigendecomposition(T, source="T")
    bip, _, _ = is_bipartite(g)
    dist_minus1 = float(np.min(np.abs(spec.values + 1.0)))
    has_minus1 = dist_minus1 <= tol
    agree = has_minus1 == bip
    return [_finding("bipartite", "-1 in spectrum(T) iff bipartite",
                     0.0 if agree else max(dist_minus1, 1.0), tol)]


def suite_components(g: SimpleGraph, tol=1e-8):
    idx = oriented_edges(g)
    L = nbmat.build_L(idx)
    spec, _ = spectra.dense_eigendecomposition(L, source="L")
    comps = connected_components(g)
    # a component is a cycle exactly when each of its nodes has degree 2
    any_cycle = any(np.all(idx.degrees[comp] == 2) for comp in comps)
    zero_mult = int(np.sum(np.abs(spec.values) <= tol))
    if any_cycle:
        return [_finding("components",
                         "0-multiplicity of L (cycle component present)",
                         float(zero_mult), tol, informational=True)]
    resid = abs(zero_mult - len(comps))
    return [_finding("components",
                     "0-multiplicity of L == number of components",
                     float(resid), 0.0)]


_SUITE_FUNCS = {
    "pt": suite_pt,
    "stochastic": suite_stochastic,
    "svd": suite_svd,
    "sums": suite_sums,
    "theorem1": suite_theorem1,
    "bipartite": suite_bipartite,
    "components": suite_components,
}


def run_suites(g: SimpleGraph, suites=None):
    """Run the requested suites; returns (all_assertive_passed, findings)."""
    findings = []
    for name in suites or ALL_SUITES:
        if name not in _SUITE_FUNCS:
            raise KeyError(f"unknown suite {name!r}")
        findings.extend(_SUITE_FUNCS[name](g))
    ok = all(f["pass"] for f in findings)
    return ok, findings
