"""Eigenvalue perturbation machinery: condition numbers and closeness radii.

Given a diagonalizable base matrix with eigenvector block U, every eigenvalue
of a perturbed matrix lies within R = kappa(U) * ||perturbation|| of some base
eigenvalue (spectral norm throughout).  The closed-form degree-only bound
specializes this to the non-backtracking pair (B / mu_1, rank-k section of T)
using only d_min, d_max, and the average degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from . import nbmat
from .errors import BadParameterError, CountMismatchError, RankDeficientError

# directions of [Z, VW] off span(End) at most this times ||[Z, VW]||_F are
# rounding: reduced_pair drops them
NULL_RTOL = 1e-12


def spectral_condition_number(U: np.ndarray) -> float:
    """s_max / s_min of a full-column-rank block, via singular values."""
    U = np.asarray(U, dtype=np.float64)
    s = np.linalg.svd(U, compute_uv=False)
    if s.size == 0 or s[-1] <= 1e-12 * s[0]:
        raise RankDeficientError(
            f"smallest singular value {s[-1] if s.size else 0.0} is "
            f"numerically zero")
    return float(s[0] / s[-1])


def bauer_fike_radius(U: np.ndarray, A, Bp, seed: int = 0) -> float:
    """kappa(U) * ||Bp - A||: every eigenvalue of Bp is within this of A's.

    A and Bp may be dense arrays, sparse matrices, or LinearOperators; the
    difference norm is the spectral norm by Lanczos
    (:func:`nbmat.spectral_norm`), accurate to machine precision.
    """
    opA, opB = aslinearoperator(A), aslinearoperator(Bp)
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
    mu1_sane: bool               # d_min - 1 <= mu_1 <= d_max - 1

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


def match_and_verify(lambdas, mus, R: float, d_min: int,
                     d_max: int) -> MatchReport:
    """Pair lambda_i with mu_i / mu_1 in decreasing order and flag deviations.

    Both inputs must be sorted decreasing with equal length and mu_1 > 0.
    Checks the Frobenius-eigenvalue sanity d_min - 1 <= mu_1 <= d_max - 1
    on the graph's degree bounds, with a slack of 1e-8 (d_max - 1) for the
    eigensolver's rounding: mu_1 of the 3-regular K4 comes out as
    2.0000000000000004.
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
    slack = 1e-8 * max(d_max - 1, 1)
    sane = bool(d_min - 1 - slack <= mu[0] <= d_max - 1 + slack)
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
    matches: list
    mu1_sane: bool               # d_min - 1 <= mu_1 <= d_max - 1


def _low_rank(U: np.ndarray, lam: np.ndarray, V: np.ndarray) -> LinearOperator:
    """U diag(lam) V^T as a linear operator."""

    def mv(x):
        return U @ (lam * (V.T @ x))

    def rmv(x):
        return V @ (lam * (U.T @ x))

    return LinearOperator((U.shape[0], V.shape[0]), matvec=mv, rmatvec=rmv,
                          dtype=np.float64)


def reduced_pair(idx, basis, mu1: float) -> tuple[LinearOperator, LinearOperator]:
    """Base and section whose difference has the norm of Z Lambda W^T - B/mu1.

    With E = Z Lambda W^T - B/mu1 and V the reversal, ||E|| = ||E V||, and
    E V = Z Lambda (VW)^T - (End End^T - I)/mu1 because B V = End End^T - I.
    E V and its transpose map S = span(End) + span(Z) + span(VW) into itself
    and act as I/mu1 on its complement.  In the orthonormal basis
    P = [End D^{-1/2}, Q2] of S, with D = End^T End the node degrees and Q2
    the part of [Z, VW] off span(End) (its near-null directions, such as the
    constant z_1, dropped), P^T E V P = c1 Lambda c2^T - diag(D - I, -I)/mu1
    for c1 = P^T Z and c2 = P^T V W.  The pair returned is that diagonal
    (the base) and c1 Lambda c2^T (the section), on dimension n + r with
    r <= 2k, plus one coordinate of value -1/mu1 for the complement when it
    is nonempty; the norm of their difference is ||E||.
    """
    n, n2 = idx.n, 2 * idx.m
    deg = idx.degrees.astype(np.float64)
    end_t = nbmat.build_End(idx).T.tocsr()
    X = np.hstack([basis.Z, idx.swap_halves(basis.W)])

    def off_end(Y):
        return Y - (end_t @ Y / deg[:, None])[idx.end]

    U, s, _ = np.linalg.svd(off_end(X), full_matrices=False)
    r = min(np.count_nonzero(s > NULL_RTOL * np.linalg.norm(X)), n2 - n)
    # project once more, so Q2 is orthogonal to End to rounding
    Q2 = np.linalg.qr(off_end(U[:, :r]))[0]
    c = np.vstack([end_t @ X / np.sqrt(deg)[:, None], Q2.T @ X])
    base = np.concatenate([deg - 1.0, -np.ones(r)]) / mu1
    if n2 > n + r:
        c = np.vstack([c, np.zeros((1, c.shape[1]))])
        base = np.append(base, -1.0 / mu1)
    k = basis.k
    return (aslinearoperator(sp.diags(base)),
            _low_rank(c[:, :k], basis.values, c[:, k:]))


def bound_report(idx, basis, mus, seed: int = 0) -> BoundReport:
    """Assemble the full report for a graph, its eigenbasis, and B's reals.

    Base matrix B / mu_1, perturbed matrix = rank-k section of T; the
    difference norm is taken on :func:`reduced_pair`, of dimension at most
    n + 2k + 1, instead of the 2m edge space.  R_paper is the degree-only
    closed form of :func:`paper_R_bound`, which does not depend on
    lambda_(k+1).
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
        R_numeric = bauer_fike_radius(
            basis.Z, *reduced_pair(idx, basis, mus[0]), seed=seed)
    report = match_and_verify(basis.values[:kmatch], mus[:kmatch],
                              closed, d_min=d_min, d_max=d_max)
    return BoundReport(
        kappa_numeric=kappa,
        kappa_bound_ratio=(d_max - 1.0) / (d_min - 1.0),
        kappa_bound_gap=float(np.sqrt(max(c - 1.0, 0.0)) / (d_min - 1.0)),
        R_numeric=R_numeric,
        R_paper=closed,
        matches=report.rows(),
        mu1_sane=report.mu1_sane,
    )
