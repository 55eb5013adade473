"""Node clustering from the real eigenbasis of the non-backtracking walk.

Two routes to node labels: cluster the 2m oriented-edge representatives and
majority-vote per end node (edge_vote), or deflate the edge vectors to one
row per node first (deflate).  Clustering itself is weighted k-means with
weighted k-means++ seeding.  The deflation can lose the signal entirely when
per-node end-sums cancel, so it carries a low-signal flag and the pipeline
falls back to edge voting when it fires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import nbmat, perturb, spectra
from .errors import (
    BadParameterError,
    DegenerateInputError,
    InsufficientRealRitzError,
    IsolatedNodeError,
    LengthMismatchError,
    NoConvergenceError,
    NotEnoughPositiveRealsError,
)
from .graph import OrientedEdgeIndex, SimpleGraph, oriented_edges, two_core
from .sbm import SbmParams, sample
from .spectra import RealEigenBasis

EDGE_VARIANTS = ("raw_z", "drow_sqrt", "drow_invsqrt")
LOW_SIGNAL_RATIO = 1e-6


@dataclass
class Embedding:
    """Row-per-entity coordinates with nonnegative weights."""

    points: np.ndarray           # (N, d)
    weights: np.ndarray          # (N,)
    entity: str                  # 'edge' or 'node'
    low_signal: bool = False


@dataclass
class ClusterAssignment:
    labels: np.ndarray
    centroids: np.ndarray
    objective: float
    n_iter: int = 0


def edge_embedding(basis: RealEigenBasis, idx: OrientedEdgeIndex,
                   variant: str = "drow_sqrt", weighting: str = "drow",
                   drop_trivial: bool = True) -> Embedding:
    """One row per oriented edge from the eigenbasis columns.

    variant 'raw_z' takes the columns as they are, 'drow_sqrt' scales row e
    by sqrt(d_end(e) - 1), 'drow_invsqrt' by its inverse.  Weights are all
    ones or the D_row diagonal.  The column of the trivial constant pair
    carries no cluster signal and is dropped by default.
    """
    if variant not in EDGE_VARIANTS:
        raise BadParameterError(f"unknown variant {variant!r}")
    if weighting not in ("uniform", "drow"):
        raise BadParameterError(f"unknown weighting {weighting!r}")
    drow = nbmat.build_D_row(idx)
    Z = basis.Z
    if variant == "drow_sqrt":
        pts = np.sqrt(drow)[:, None] * Z
    elif variant == "drow_invsqrt":
        pts = Z / np.sqrt(drow)[:, None]
    else:
        pts = Z.copy()
    if drop_trivial and pts.shape[1] > 1:
        pts = pts[:, 1:]
    weights = drow.copy() if weighting == "drow" else np.ones(2 * idx.m)
    return Embedding(points=pts, weights=weights, entity="edge")


def deflate_to_nodes(basis: RealEigenBasis, idx: OrientedEdgeIndex,
                     side: str = "end", drop_trivial: bool = True) -> Embedding:
    """Aggregate scaled edge vectors to one representative row per node.

    Node j, column i holds (1/d_j) * sum over edges with the chosen side at j
    of sqrt(d_end(e) - 1) * z_i[e].  Weights are node degrees.  low_signal
    fires when the deflated matrix norm falls below 1e-6 times the edge-level
    norm of the same columns (exact end-sum cancellation nulls the map).
    """
    if side not in ("end", "start"):
        raise BadParameterError(f"unknown side {side!r}")
    drow = nbmat.build_D_row(idx)
    Y = np.sqrt(drow)[:, None] * basis.Z
    if drop_trivial and Y.shape[1] > 1:
        Y = Y[:, 1:]
    group = idx.end if side == "end" else idx.start
    deg = idx.degrees.astype(np.float64)
    pts = np.empty((idx.n, Y.shape[1]))
    for i in range(Y.shape[1]):
        pts[:, i] = np.bincount(group, weights=Y[:, i], minlength=idx.n) / deg
    edge_norm = float(np.linalg.norm(Y))
    low = bool(np.linalg.norm(pts) < LOW_SIGNAL_RATIO * max(edge_norm, 1e-300))
    return Embedding(points=pts, weights=deg.copy(), entity="node",
                     low_signal=low)


def _kmeanspp_seeds(X, w, k, rng):
    total = w.sum()
    centers = np.empty((k, X.shape[1]))
    first = rng.choice(len(X), p=w / total)
    centers[0] = X[first]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        probs = w * d2
        s = probs.sum()
        if s <= 0:
            # all mass already explained; any point works, keep it seeded
            pick = int(rng.integers(len(X)))
        else:
            pick = int(rng.choice(len(X), p=probs / s))
        centers[j] = X[pick]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _assign(X, centers):
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(X)), labels]


def weighted_kmeans(emb: Embedding, k: int, seed: int = 0, n_init: int = 10,
                    max_iter: int = 300, tol: float = 1e-9) -> ClusterAssignment:
    """Weighted Lloyd iterations from weighted k-means++ seeding.

    Weights enter the seeding probabilities, the centroid updates, and the
    objective sum w_i ||x_i - c_{label_i}||^2.  Runs n_init restarts and
    keeps the best objective; empty clusters are reseeded at the point with
    the largest weighted distance.  Deterministic for a given seed.  The
    objective is checked to be nonincreasing across iterations.
    """
    X = np.asarray(emb.points, dtype=np.float64)
    w = np.asarray(emb.weights, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(w):
        raise BadParameterError("points and weights shapes disagree")
    if np.any(w < 0) or w.sum() <= 0:
        raise BadParameterError("weights must be nonnegative, not all zero")
    if not (1 <= k <= len(X)):
        raise BadParameterError(f"k={k} outside [1, {len(X)}]")
    if n_init < 1 or max_iter < 1:
        raise BadParameterError("n_init and max_iter must be positive")
    if len(np.unique(X, axis=0)) < k:
        raise DegenerateInputError(
            f"fewer than {k} distinct points")

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        centers = _kmeanspp_seeds(X, w, k, rng)
        labels, d2 = _assign(X, centers)
        prev_obj = float((w * d2).sum())
        n_iter = 0
        for n_iter in range(1, max_iter + 1):
            for j in range(k):
                mask = labels == j
                wj = w[mask].sum()
                if wj > 0:
                    centers[j] = (w[mask, None] * X[mask]).sum(axis=0) / wj
                else:
                    far = int(np.argmax(w * d2))
                    centers[j] = X[far]
            labels, d2 = _assign(X, centers)
            obj = float((w * d2).sum())
            if obj > prev_obj + 1e-12 * max(1.0, prev_obj):
                raise NoConvergenceError(
                    f"k-means objective increased: {prev_obj} -> {obj}")
            if prev_obj - obj <= tol * max(1.0, prev_obj):
                prev_obj = obj
                break
            prev_obj = obj
        if best is None or prev_obj < best.objective:
            best = ClusterAssignment(labels=labels.copy(),
                                     centroids=centers.copy(),
                                     objective=prev_obj, n_iter=n_iter)
    return best


def node_labels_from_edge_labels(edge_labels, idx: OrientedEdgeIndex,
                                 k: int | None = None,
                                 rule: str = "majority_by_end") -> np.ndarray:
    """Each node takes the most frequent label among edges ending there.

    Ties go to the lowest label index.
    """
    if rule != "majority_by_end":
        raise BadParameterError(f"unknown rule {rule!r}")
    edge_labels = np.asarray(edge_labels)
    if edge_labels.shape[0] != 2 * idx.m:
        raise LengthMismatchError(
            f"expected {2 * idx.m} edge labels, got {edge_labels.shape[0]}")
    nlab = int(edge_labels.max()) + 1 if k is None else k
    counts = np.zeros((idx.n, nlab), dtype=np.int64)
    np.add.at(counts, (idx.end, edge_labels), 1)
    if np.any(counts.sum(axis=1) == 0):
        missing = int(np.nonzero(counts.sum(axis=1) == 0)[0][0])
        raise IsolatedNodeError(f"node {missing} has no incident edges")
    return np.argmax(counts, axis=1)


def overlap(pred, truth, k: int) -> float:
    """Permutation-maximized accuracy rescaled so chance = 0 and perfect = 1.

    Ranges over [-1/(k-1), 1]; the permutation is found by optimal
    assignment on the k x k confusion matrix.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise LengthMismatchError(
            f"{pred.shape[0]} predictions vs {truth.shape[0]} truths")
    if k < 2:
        raise BadParameterError(f"k must be at least 2, got {k}")
    conf = np.zeros((k, k), dtype=np.int64)
    np.add.at(conf, (pred, truth), 1)
    rows, cols = linear_sum_assignment(-conf)
    acc = conf[rows, cols].sum() / len(pred)
    return float((acc - 1.0 / k) / (1.0 - 1.0 / k))


def pipeline(source, k: int, mode: str = "edge_vote", seed: int = 0,
             truth=None, return_labels: bool = False):
    """Full run: 2-core, eigenbasis, embedding, k-means, node labels, report.

    ``source`` is a SimpleGraph or SbmParams (sampled with its own seed; the
    planted labels become the truth).  Eigenpairs of T and the leading reals
    of B are solved dense when 2m <= spectra.AUTO_DENSE_CAP, iteratively
    otherwise.  mode 'edge_vote' clusters the 'drow_sqrt' oriented-edge
    embedding with D_row weights and majority-votes per end node; 'deflate'
    clusters node representatives and falls back to edge voting when the
    deflation loses the signal.  If fewer than k positive real eigenvalues
    stabilize, the run degrades to the largest feasible basis (recorded in
    the fallback flag) instead of failing; the below-threshold regime lands
    here by construction.  The B reals and the bound are best effort: a
    partial B solve is used as far as it goes, and the bound is skipped
    (mu empty, radii None) when no positive mu_1 is found.

    Returns a report dict with the fixed key set {lambda, mu, R_paper,
    R_numeric, objective, overlap, mode, fallback, seeds}; with
    ``return_labels`` the node label array is returned alongside.
    """
    if mode not in ("edge_vote", "deflate"):
        raise BadParameterError(f"unknown mode {mode!r}")
    if isinstance(source, SbmParams):
        smp = sample(source)
        g = smp.graph
        if truth is None:
            truth = smp.labels
    elif isinstance(source, SimpleGraph):
        g, table = two_core(source)
        if truth is not None:
            truth = np.asarray(truth)[np.asarray(table) >= 0]
    else:
        raise BadParameterError(
            f"source must be SimpleGraph or SbmParams, got {type(source)}")
    if g.n == 0:
        raise BadParameterError("graph reduced to nothing; cannot cluster")
    idx = oriented_edges(g)
    eig_mode = spectra.auto_mode(idx)

    fallback = False
    basis = None
    for k_try in range(k, 0, -1):
        try:
            basis = spectra.real_eigenbasis_T(idx, k_try, mode=eig_mode,
                                              seed=seed)
            break
        except (NotEnoughPositiveRealsError, InsufficientRealRitzError,
                NoConvergenceError):
            fallback = True
            continue
    if basis is None:
        raise NoConvergenceError("not even the trivial eigenpair converged")
    if basis.k < k:
        fallback = True

    used_mode = mode
    emb = None
    if mode == "deflate":
        emb = deflate_to_nodes(basis, idx, side="end")
        if emb.low_signal:
            fallback = True
            used_mode = "edge_vote"
    if used_mode == "edge_vote":
        emb = edge_embedding(basis, idx)

    try:
        assign = weighted_kmeans(emb, k, seed=seed)
        entity_labels = assign.labels
        objective = assign.objective
    except DegenerateInputError:
        # embedding collapsed to identical points: chance-level single block
        fallback = True
        entity_labels = np.zeros(len(emb.points), dtype=np.int64)
        objective = 0.0
    if used_mode == "edge_vote":
        node_labels = node_labels_from_edge_labels(entity_labels, idx, k=k)
    else:
        node_labels = np.asarray(entity_labels, dtype=np.int64)

    ov = None
    if truth is not None:
        ov = overlap(node_labels, np.asarray(truth), k)

    try:
        mus = spectra.leading_reals_B(idx, basis.k, eig_mode, seed=seed)
    except (InsufficientRealRitzError, NoConvergenceError) as exc:
        found = getattr(exc, "found", None)
        mus = found.values[: basis.k] if found is not None else []
    bound = None
    if len(mus) and mus[0] > 0:
        bound = perturb.bound_report(idx, basis, mus, seed=seed)
    else:
        mus = []
    report = {
        "lambda": [float(x) for x in basis.values],
        "mu": [float(x) for x in mus],
        "R_paper": bound.R_paper if bound is not None else None,
        "R_numeric": bound.R_numeric if bound is not None else None,
        "objective": objective,
        "overlap": ov,
        "mode": used_mode,
        "fallback": fallback,
        "seeds": {"master": seed, "graph": source.seed
                  if isinstance(source, SbmParams) else None},
    }
    if return_labels:
        return report, node_labels
    return report

