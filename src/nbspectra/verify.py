"""Structural and spectral identity suites for a given graph.

Each suite emits findings with a measured residual and a pass flag.
Assertive checks gate the exit status; informational checks report
quantities that are diagnostics by design (for instance per-node end-sums
of eigenvectors, which provably vanish only in special regimes).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import nbmat, spectra
from .graph import (
    SimpleGraph,
    connected_components,
    is_bipartite,
    oriented_edges,
    reversal_permutation,
)

ALL_SUITES = ("pt", "stochastic", "svd", "sums", "theorem1", "bipartite",
              "components")
STOCHASTIC_TOL = 1e-12    # row and column sums of T are exact up to rounding
TOL = 1e-8                # every other residual check


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


def _sparse_defect(A, B) -> float:
    """0.0 when two sparse matrices hold the same entries, else the largest
    entry of |A - B| (inf for a shape mismatch)."""
    if A.shape != B.shape:
        return float("inf")
    return float(abs(A - B).max()) if (A != B).nnz else 0.0


class _Run:
    """What the suites of one run share: the oriented-edge index, and T and
    its one dense decomposition, made on first use and with vectors only if
    a suite that reads them was asked for."""

    def __init__(self, g: SimpleGraph, suites):
        self.g, self.idx = g, oriented_edges(g)
        self.vectors = not {"sums", "theorem1"}.isdisjoint(suites)

    @cached_property
    def T(self):
        return nbmat.build_T(self.idx)

    @cached_property
    def eig(self):
        return spectra.dense_eigendecomposition(
            self.T, want_vectors=self.vectors, source="T")


def suite_pt(run: _Run):
    idx = run.idx
    B = nbmat.build_B(idx)
    End = nbmat.build_End(idx)
    Start = nbmat.build_Start(idx)
    D = sp.diags(idx.degrees.astype(np.float64))
    out = []
    out.append(_finding("pt", "B^T == V B V",
                        _sparse_defect(nbmat.transpose(B),
                                       nbmat.conjugate_by_V(B)), 0.0))
    m = idx.m
    perm = reversal_permutation(m)
    BV = B.tocsr()[:, perm].tocsr()
    VB = B.tocsr()[perm].tocsr()
    out.append(_finding("pt", "B V symmetric",
                        _sparse_defect(BV, nbmat.transpose(BV)), 0.0))
    out.append(_finding("pt", "V B symmetric",
                        _sparse_defect(VB, nbmat.transpose(VB)), 0.0))
    gram = (End @ End.T - sp.eye(2 * m, format="csr")).tocsr()
    out.append(_finding("pt", "B V == End End^T - I",
                        _sparse_defect(BV, gram), 0.0))
    drow = nbmat.build_D_row(idx)
    dcol = nbmat.build_D_col(idx)
    swap = drow[perm]
    out.append(_finding("pt", "D_col == V D_row V",
                        0.0 if np.array_equal(dcol, swap) else float("inf"),
                        0.0))
    equal = (_sparse_defect(End.T @ End, D) == 0.0
             and _sparse_defect(Start.T @ Start, D) == 0.0)
    out.append(_finding("pt", "End^T End == Start^T Start == D",
                        0.0 if equal else float("inf"), 0.0))
    expected = int(np.sum(idx.degrees ** 2) - 2 * m)
    out.append(_finding("pt", "entry count of B == sum d^2 - 2m",
                        abs(B.count_nonzero() - expected), 0.0))
    return out


def suite_stochastic(run: _Run):
    ones = np.ones(2 * run.idx.m)
    row = float(np.max(np.abs(run.T @ ones - 1.0)))
    col = float(np.max(np.abs(run.T.T @ ones - 1.0)))
    return [
        _finding("stochastic", "row sums of T", row, STOCHASTIC_TOL),
        _finding("stochastic", "column sums of T", col, STOCHASTIC_TOL),
    ]


def suite_svd(run: _Run):
    """Singular values of B against their closed form, sparse at any size.

    B V = End End^T - I is symmetric with eigenvalues d_j - 1 and -1 (2m - n
    times), and the singular values of B are their moduli.  End End^T and
    End^T End share their nonzero eigenvalues, and End^T End, n x n, is
    checked to be diagonal, so its nonzero diagonal entries give them
    exactly; the -1 multiplicity is dim ker End^T = 2m - rank End.  End, one
    unit entry per row, has the rank of the number of distinct endpoints.
    """
    idx = run.idx
    n2 = 2 * idx.m
    closed = np.concatenate([idx.degrees - 1.0, -np.ones(max(n2 - idx.n, 0))])
    End = nbmat.build_End(idx)
    rank = np.unique(End.indices).size
    gram = (End.T @ End).tocoo()
    if np.any(gram.row != gram.col):
        resid = float("inf")
    else:
        # the extremes need -1 once, if End^T has a kernel at all
        found = np.concatenate([gram.data[gram.data != 0] - 1.0,
                                -np.ones(min(n2 - rank, 1))])
        resid = max(abs(found.max(initial=0.0) - closed.max(initial=0.0)),
                    abs(found.min(initial=0.0) - closed.min(initial=0.0)))
    return [_finding("svd", "extreme eigenvalues of B V match closed form",
                     resid, TOL),
            _finding("svd", "-1 multiplicity of B V == 2m - n",
                     abs(rank - idx.n), 0.0)]


def suite_sums(run: _Run):
    spec, V = run.eig
    out = []
    worst_global, worst_reversal, worst_endinfo = 0.0, 0.0, 0.0
    for i, lam in enumerate(spec.values):
        if not spectra.is_real(lam):
            continue
        lam = lam.real
        z = np.real(V[:, i])
        nz = np.linalg.norm(z)
        if nz == 0:
            continue
        ss, es = spectra.node_sums(z, run.idx)
        worst_reversal = max(worst_reversal,
                             float(np.max(np.abs(ss - lam * es)) / nz))
        if abs(lam - 1.0) > 1e-8:
            worst_global = max(worst_global, float(abs(z.sum()) / nz))
            worst_endinfo = max(worst_endinfo,
                                float(np.max(np.abs(es)) / nz))
    out.append(_finding("sums", "sum of coordinates vanishes (lambda != 1)",
                        worst_global, TOL))
    out.append(_finding("sums", "start-sums == lambda * end-sums",
                        worst_reversal, TOL))
    out.append(_finding("sums", "largest per-node end-sum (diagnostic)",
                        worst_endinfo, TOL, informational=True))
    return out


def suite_theorem1(run: _Run):
    spectra.check_eigenbasis_graph(run.idx, 2)
    basis = spectra.eigenbasis_from_decomposition(run.idx, 2, run.T, *run.eig)
    k = basis.k
    drow = nbmat.build_D_row(run.idx)
    gram = basis.Z.T @ (drow[:, None] * basis.Z) - np.eye(k)
    bi = basis.Z.T @ basis.W - np.eye(k)
    out = [
        _finding("theorem1", "Z^T D_row Z == I",
                 float(np.max(np.abs(gram))), TOL),
        _finding("theorem1", "Z^T W == I", float(np.max(np.abs(bi))), TOL),
        _finding("theorem1", "largest |z'Vz + lambda| (diagnostic)",
                 float(np.max(basis.diagnostics["pairing_deviation"])),
                 TOL, informational=True),
        _finding("theorem1", "largest eigen-residual of Z (diagnostic)",
                 float(np.max(basis.diagnostics["eigen_residual"])),
                 TOL, informational=True),
    ]
    return out


def suite_bipartite(run: _Run):
    spec, _ = run.eig
    bip = is_bipartite(run.g)
    dist_minus1 = float(np.min(np.abs(spec.values + 1.0)))
    has_minus1 = dist_minus1 <= TOL
    agree = has_minus1 == bip
    return [_finding("bipartite", "-1 in spectrum(T) iff bipartite",
                     0.0 if agree else max(dist_minus1, 1.0), TOL)]


def suite_components(run: _Run):
    spec, _ = run.eig
    comps = connected_components(run.g)
    # a component is a cycle exactly when each of its nodes has degree 2
    any_cycle = any(np.all(run.idx.degrees[comp] == 2) for comp in comps)
    zero_mult = int(np.sum(np.abs(1.0 - spec.values) <= TOL))  # L = I - T
    if any_cycle:
        return [_finding("components",
                         "0-multiplicity of L (cycle component present)",
                         float(zero_mult), TOL, informational=True)]
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
    suites = tuple(suites or ALL_SUITES)
    run = _Run(g, suites)
    findings = []
    for name in suites:
        if name not in _SUITE_FUNCS:
            raise KeyError(f"unknown suite {name!r}")
        findings.extend(_SUITE_FUNCS[name](run))
    ok = all(f["pass"] for f in findings)
    return ok, findings
