"""Eigenvalue perturbation machinery: condition numbers and closeness radii.

Given a diagonalizable base matrix with eigenvector block U, every eigenvalue
of a perturbed matrix lies within R = kappa(U) * ||perturbation|| of some base
eigenvalue (spectral norm throughout).  The closed-form degree-only bound
specializes this to the non-backtracking pair (B / mu_1, rank-k section of T)
using only d_min, d_max, and the average degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from . import nbmat
from .errors import BadParameterError, CountMismatchError, RankDeficientError


def spectral_condition_number(U: np.ndarray) -> float:
    """s_max / s_min of a full-column-rank block, via singular values."""
    U = np.asarray(U, dtype=np.float64)
    s = np.linalg.svd(U, compute_uv=False)
    if s.size == 0 or s[-1] <= 1e-12 * s[0]:
        raise RankDeficientError(
            f"smallest singular value {s[-1] if s.size else 0.0} is "
            f"numerically zero")
    return float(s[0] / s[-1])


def _as_operator(M) -> LinearOperator:
    if isinstance(M, LinearOperator):
        return M
    if sp.issparse(M):
        return aslinearoperator(M.tocsr())
    return aslinearoperator(np.asarray(M, dtype=np.float64))


def bauer_fike_radius(U: np.ndarray, A, Bp, seed: int = 0) -> float:
    """kappa(U) * ||Bp - A||: every eigenvalue of Bp is within this of A's.

    A and Bp may be dense arrays, sparse matrices, or LinearOperators; the
    difference norm is the spectral norm by Lanczos
    (:func:`nbmat.spectral_norm`), accurate to machine precision.
    """
    opA, opB = _as_operator(A), _as_operator(Bp)
    if opA.shape != opB.shape:
        raise BadParameterError(
            f"base {opA.shape} and perturbed {opB.shape} shapes differ")
    kappa = spectral_condition_number(U)
    norm = nbmat.spectral_norm(opB - opA, seed=seed)
    return float(kappa * norm)


def paper_R_bound(d_min: int, d_max: int, c: float,
                  lambda_kplus1: float) -> tuple[float, float]:
    """Degree-only closeness radii for the (B / mu_1, rank-k T) pairing.

    With ratio = (d_max - 1)/(d_min - 1):
      raw         = ratio * (ratio - 1 + |lambda_{k+1}|)
      closed_form = ratio * (ratio - 1) + 1 / (d_min - 1)
    The closed form substitutes the bulk bound |lambda_{k+1}| <= 1/sqrt(c-1)
    and the condition-number bound sqrt(c-1)/(d_min - 1).
    """
    if d_min < 2:
        raise BadParameterError(f"d_min must be at least 2, got {d_min}")
    if d_max < d_min:
        raise BadParameterError(f"d_max={d_max} below d_min={d_min}")
    if not np.isfinite(c) or c <= 1:
        raise BadParameterError(f"average degree must exceed 1, got {c}")
    if abs(lambda_kplus1) > 1.0:
        raise BadParameterError(
            f"|lambda_(k+1)|={abs(lambda_kplus1)} exceeds 1")
    ratio = (d_max - 1.0) / (d_min - 1.0)
    raw = ratio * (ratio - 1.0 + abs(lambda_kplus1))
    closed = ratio * (ratio - 1.0) + 1.0 / (d_min - 1.0)
    return float(raw), float(closed)


@dataclass
class MatchReport:
    """Ordered pairing of T eigenvalues against scaled B eigenvalues."""

    lambdas: np.ndarray
    mu_ratios: np.ndarray        # mu_i / mu_1
    deviations: np.ndarray       # |lambda_i - mu_i / mu_1|
    within_R: np.ndarray         # deviation <= R per index
    R: float
    mu1_sane: bool | None = None  # d_min - 1 <= mu_1 <= d_max - 1 when known

    def rows(self):
        return [
            {
                "lambda": float(self.lambdas[i]),
                "mu_over_mu1": float(self.mu_ratios[i]),
                "deviation": float(self.deviations[i]),
                "within_R": bool(self.within_R[i]),
            }
            for i in range(len(self.lambdas))
        ]


def match_and_verify(lambdas, mus, R: float, d_min: int | None = None,
                     d_max: int | None = None) -> MatchReport:
    """Pair lambda_i with mu_i / mu_1 in decreasing order and flag deviations.

    Both inputs must be sorted decreasing with equal length and mu_1 > 0.
    When degree bounds are supplied, checks the Frobenius-eigenvalue sanity
    d_min - 1 <= mu_1 <= d_max - 1.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    mu = np.asarray(mus, dtype=np.float64)
    if lam.shape != mu.shape:
        raise CountMismatchError(
            f"{lam.shape[0]} lambdas vs {mu.shape[0]} mus")
    if lam.size == 0:
        raise CountMismatchError("empty eigenvalue lists")
    if np.any(np.diff(lam) > 1e-12) or np.any(np.diff(mu) > 1e-12):
        raise BadParameterError("inputs must be sorted decreasing")
    if mu[0] <= 0:
        raise BadParameterError(f"mu_1 must be positive, got {mu[0]}")
    ratios = mu / mu[0]
    dev = np.abs(lam - ratios)
    sane = None
    if d_min is not None and d_max is not None:
        sane = bool(d_min - 1 <= mu[0] <= d_max - 1)
    return MatchReport(lambdas=lam, mu_ratios=ratios, deviations=dev,
                       within_R=dev <= R, R=float(R), mu1_sane=sane)


@dataclass
class BoundReport:
    """Numeric and closed-form closeness radii with the eigenvalue matching."""

    kappa_numeric: float
    kappa_bound_ratio: float     # (d_max - 1)/(d_min - 1)
    kappa_bound_gap: float       # sqrt(c - 1)/(d_min - 1)
    R_numeric: float | None
    R_paper: float
    matches: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kappa_numeric": self.kappa_numeric,
            "kappa_bound_ratio": self.kappa_bound_ratio,
            "kappa_bound_gap": self.kappa_bound_gap,
            "R_numeric": self.R_numeric,
            "R_paper": self.R_paper,
            "matches": self.matches,
        }


def rank_k_section(basis) -> LinearOperator:
    """The rank-k part Z diag(values) W^T of T as a linear operator."""
    Z, W = basis.Z, basis.W
    lam = basis.values

    def mv(x):
        return Z @ (lam * (W.T @ x))

    def rmv(x):
        return W @ (lam * (Z.T @ x))

    n2 = Z.shape[0]
    return LinearOperator((n2, n2), matvec=mv, rmatvec=rmv, dtype=np.float64)


def bound_report(idx, basis, mus, seed: int = 0) -> BoundReport:
    """Assemble the full report for a graph, its eigenbasis, and B's reals.

    Base matrix B / mu_1, perturbed matrix = rank-k section of T.  R_paper
    is the degree-only closed form of :func:`paper_R_bound`, which does not
    depend on lambda_(k+1).
    """
    deg = idx.degrees
    d_min, d_max = int(deg.min()), int(deg.max())
    c = 2.0 * idx.m / idx.n
    _, closed = paper_R_bound(d_min, d_max, c, 0.0)

    kappa = spectral_condition_number(basis.Z)
    mus = np.asarray(mus, dtype=np.float64)
    kmatch = min(basis.k, len(mus))
    R_numeric = None
    if kmatch > 0 and mus[0] > 0:
        B = nbmat.build_B(idx)
        base = aslinearoperator(B) * (1.0 / mus[0])
        R_numeric = bauer_fike_radius(basis.Z, base, rank_k_section(basis),
                                      seed=seed)
    report = match_and_verify(basis.values[:kmatch], mus[:kmatch],
                              closed, d_min=d_min, d_max=d_max)
    return BoundReport(
        kappa_numeric=kappa,
        kappa_bound_ratio=(d_max - 1.0) / (d_min - 1.0),
        kappa_bound_gap=float(np.sqrt(max(c - 1.0, 0.0)) / (d_min - 1.0)),
        R_numeric=R_numeric,
        R_paper=closed,
        matches=report.rows(),
    )
