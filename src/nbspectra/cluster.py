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
import scipy.sparse as sp
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from . import nbmat, perturb, spectra
from .errors import (
    BadParameterError,
    CountMismatchError,
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

LOW_SIGNAL_RATIO = 1e-6
N_INIT = 10               # k-means++ restarts; the best objective is kept
MAX_LLOYD = 300           # Lloyd iterations per restart
LLOYD_RTOL = 1e-9         # a restart ends once the objective drops by at most this


@dataclass
class Embedding:
    """Row-per-entity coordinates with nonnegative weights."""

    points: np.ndarray           # (N, d)
    weights: np.ndarray          # (N,)
    low_signal: bool = False


@dataclass
class ClusterAssignment:
    labels: np.ndarray
    centroids: np.ndarray
    objective: float
    n_iter: int = 0


def edge_embedding(basis: RealEigenBasis, idx: OrientedEdgeIndex) -> Embedding:
    """One row per oriented edge: the eigenbasis columns scaled row-wise by
    sqrt(d_end(e) - 1), with the D_row diagonal as weights.

    The column of the trivial constant pair carries no cluster signal and is
    dropped, unless it is the basis's only column.
    """
    drow = nbmat.build_D_row(idx)
    pts = np.sqrt(drow)[:, None] * basis.Z
    if pts.shape[1] > 1:
        pts = pts[:, 1:]
    return Embedding(points=pts, weights=drow)


def deflate_to_nodes(basis: RealEigenBasis, idx: OrientedEdgeIndex) -> Embedding:
    """Aggregate the edge embedding to one representative row per node.

    Node j, column i holds (1/d_j) * sum over edges e ending at j of row e,
    column i of :func:`edge_embedding`.  Weights are node degrees.
    low_signal fires when the deflated matrix norm falls below 1e-6 times
    the edge-level norm of the same columns (exact end-sum cancellation
    nulls the map).
    """
    Y = edge_embedding(basis, idx).points
    deg = idx.degrees.astype(np.float64)
    pts = np.empty((idx.n, Y.shape[1]))
    for i in range(Y.shape[1]):
        pts[:, i] = np.bincount(idx.end, weights=Y[:, i], minlength=idx.n) / deg
    edge_norm = float(np.linalg.norm(Y))
    low = bool(np.linalg.norm(pts) < LOW_SIGNAL_RATIO * max(edge_norm, 1e-300))
    return Embedding(points=pts, weights=deg, low_signal=low)


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


class _Points:
    """Lloyd steps on points of any dimension; a partition is the label and
    the squared distance to its centre of every point."""

    def __init__(self, X, w):
        self.X, self.w = X, w

    def assign(self, centers):
        X = self.X
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        d2 = d2[np.arange(len(X)), labels]
        return (labels, d2), float((self.w * d2).sum())

    def update(self, centers, part):
        labels, d2 = part
        X, w = self.X, self.w
        for j in range(len(centers)):
            mask = labels == j
            wj = w[mask].sum()
            if wj > 0:
                centers[j] = (w[mask, None] * X[mask]).sum(axis=0) / wj
            else:
                centers[j] = X[int(np.argmax(w * d2))]

    def labels(self, part):
        return part[0]


class _SortedLine:
    """Lloyd steps on one-column points, sorted once with prefix sums of w
    and w x.  Every cluster is a run of the sorted points, so a partition is
    the run [lo_j, hi_j) of each centre j (empty for a centre no point is
    assigned to) with the weighted squared distance of every sorted point to
    its centre; each centroid is a difference of prefix sums.  Assignment
    follows :class:`_Points`: the nearest centre, ties to the lowest index,
    so centre j keeps label j.
    """

    def __init__(self, X, w):
        self.order = np.argsort(X[:, 0], kind="stable")
        self.x = X[self.order, 0]
        self.w = w[self.order]
        self.cw = np.concatenate([[0.0], np.cumsum(self.w)])
        self.cwx = np.concatenate([[0.0], np.cumsum(self.w * self.x)])

    def _cut(self, ca, cb, low_first, floor):
        """First sorted index, at least ``floor``, of the points that go to
        centre cb > ca rather than ca; ``low_first`` when ca has the lower
        index.  The midpoint places it, and the squared distances decide the
        points beside it exactly as :class:`_Points` would."""
        x = self.x

        def right(v):
            dl, dr = v - ca, v - cb
            dl, dr = dl * dl, dr * dr
            return dr < dl or (dr == dl and not low_first)

        s = max(int(np.searchsorted(x, 0.5 * (ca + cb))), floor)
        while s > floor and right(x[s - 1]):
            s = max(int(np.searchsorted(x, x[s - 1])), floor)
        while s < len(x) and not right(x[s]):
            s = int(np.searchsorted(x, x[s], side="right"))
        return s

    def assign(self, centers):
        c = centers[:, 0]
        # centres in ascending order; of equal ones only the lowest index
        # gets points, as argmin gives them
        run = np.argsort(c, kind="stable")
        run = run[np.r_[True, np.diff(c[run]) > 0]]
        cuts = [0]
        for a, b in zip(run[:-1], run[1:]):
            cuts.append(self._cut(c[a], c[b], a < b, cuts[-1]))
        cuts.append(len(self.x))
        lo = np.zeros(len(c), dtype=np.int64)
        hi = np.zeros(len(c), dtype=np.int64)
        lo[run], hi[run] = cuts[:-1], cuts[1:]
        # summed per cluster around its own centre, so it does not cancel
        wd2, obj = np.empty(len(self.x)), 0.0
        for j in run:
            d = self.x[lo[j]:hi[j]] - c[j]
            np.multiply(self.w[lo[j]:hi[j]], d * d, out=wd2[lo[j]:hi[j]])
            obj += float(wd2[lo[j]:hi[j]].sum())
        return (lo, hi, wd2), obj

    def update(self, centers, part):
        lo, hi, wd2 = part
        wj = self.cw[hi] - self.cw[lo]
        for j in range(len(centers)):
            if wj[j] > 0:
                centers[j, 0] = (self.cwx[hi[j]] - self.cwx[lo[j]]) / wj[j]
            else:
                # the farthest point, ties to the lowest index as argmax gives
                top = np.flatnonzero(wd2 == wd2.max())
                centers[j, 0] = self.x[top[np.argmin(self.order[top])]]

    def labels(self, part):
        lo, hi, _ = part
        labels = np.empty(len(self.x), dtype=np.int64)
        for j in range(len(lo)):
            labels[self.order[lo[j]:hi[j]]] = j
        return labels


def weighted_kmeans(emb: Embedding, k: int, seed: int = 0) -> ClusterAssignment:
    """Weighted Lloyd iterations from weighted k-means++ seeding.

    Weights enter the seeding probabilities, the centroid updates, and the
    objective sum w_i ||x_i - c_{label_i}||^2.  Runs N_INIT restarts of at
    most MAX_LLOYD iterations, each stopping once an iteration lowers the
    objective by at most LLOYD_RTOL relative, and keeps the best objective;
    empty clusters are reseeded at the point with the largest weighted
    distance.  One-column points (every k = 2 embedding) are sorted once
    and run on prefix sums (:class:`_SortedLine`), with the same labels as
    the general path; their objective and centroids agree to rounding.
    Deterministic for a given seed.  The objective is checked to be
    nonincreasing across iterations.
    """
    X = np.asarray(emb.points, dtype=np.float64)
    w = np.asarray(emb.weights, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(w):
        raise BadParameterError("points and weights shapes disagree")
    if np.any(w < 0) or w.sum() <= 0:
        raise BadParameterError("weights must be nonnegative, not all zero")
    if not (1 <= k <= len(X)):
        raise BadParameterError(f"k={k} outside [1, {len(X)}]")
    rest = X    # k - 1 passes drop one distinct row each; np.unique sorts all
    for _ in range(k - 1):
        rest = rest[(rest != rest[0]).any(axis=1)]
        if not len(rest):
            raise DegenerateInputError(f"fewer than {k} distinct points")

    lloyd = _SortedLine(X, w) if X.shape[1] == 1 else _Points(X, w)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(N_INIT):
        centers = _kmeanspp_seeds(X, w, k, rng)
        part, prev_obj = lloyd.assign(centers)
        n_iter = 0
        for n_iter in range(1, MAX_LLOYD + 1):
            lloyd.update(centers, part)
            part, obj = lloyd.assign(centers)
            if obj > prev_obj + 1e-12 * max(1.0, prev_obj):
                raise NoConvergenceError(
                    f"k-means objective increased: {prev_obj} -> {obj}")
            if prev_obj - obj <= LLOYD_RTOL * max(1.0, prev_obj):
                prev_obj = obj
                break
            prev_obj = obj
        if best is None or prev_obj < best[2]:
            best = (part, centers.copy(), prev_obj, n_iter)
    part, centers, objective, n_iter = best
    return ClusterAssignment(labels=lloyd.labels(part), centroids=centers,
                             objective=objective, n_iter=n_iter)


def node_labels_from_edge_labels(edge_labels, idx: OrientedEdgeIndex,
                                 k: int) -> np.ndarray:
    """Each node takes the most frequent of the k labels among edges ending
    there.

    Ties go to the lowest label index.
    """
    edge_labels = np.asarray(edge_labels)
    if edge_labels.shape[0] != 2 * idx.m:
        raise LengthMismatchError(
            f"expected {2 * idx.m} edge labels, got {edge_labels.shape[0]}")
    counts = np.zeros((idx.n, k), dtype=np.int64)
    np.add.at(counts, (idx.end, edge_labels), 1)
    if np.any(counts.sum(axis=1) == 0):
        missing = int(np.nonzero(counts.sum(axis=1) == 0)[0][0])
        raise IsolatedNodeError(f"node {missing} has no incident edges")
    return np.argmax(counts, axis=1)


def _check_scorable(k: int, **labels) -> None:
    """The checks of :func:`overlap` on k and on each named label array:
    k >= 2, and the labels nonempty and in [0, k)."""
    if k < 2:
        raise BadParameterError(f"k must be at least 2, got {k}")
    for name, lab in labels.items():
        if not lab.size:
            raise BadParameterError("cannot score an empty labelling")
        if not 0 <= lab.min() <= lab.max() < k:
            raise BadParameterError(
                f"{name} labels must lie in [0, {k}), got {lab.min()} to "
                f"{lab.max()}")


def overlap(pred, truth, k: int) -> float:
    """Permutation-maximized accuracy rescaled so chance = 0 and perfect = 1.

    Ranges over [-1/(k-1), 1]; the permutation is the maximum-weight full
    matching on the k x k confusion matrix, found by csgraph's
    :func:`~scipy.sparse.csgraph.min_weight_full_bipartite_matching`
    (LAPJVsp) on the matrix plus one, so that no pair is missing from the
    sparse input; the shift adds k to every full matching and leaves the
    optimum where it was.  The labels must be nonempty, and every label,
    predicted or true, must lie in [0, k).
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise LengthMismatchError(
            f"{pred.shape[0]} predictions vs {truth.shape[0]} truths")
    _check_scorable(k, predicted=pred, true=truth)
    conf = np.zeros((k, k), dtype=np.int64)
    np.add.at(conf, (pred, truth), 1)
    rows, cols = min_weight_full_bipartite_matching(sp.csr_array(conf + 1),
                                                    maximize=True)
    acc = conf[rows, cols].sum() / len(pred)
    return float((acc - 1.0 / k) / (1.0 - 1.0 / k))


def pipeline(source, k: int, mode: str = "edge_vote", seed: int = 0,
             truth=None, return_labels: bool = False):
    """Full run: 2-core, eigenbasis, embedding, k-means, node labels, report.

    ``source`` is a SimpleGraph or SbmParams (sampled with its own seed; the
    planted labels become the truth unless ``truth`` labels the sample's
    nodes, one per node, CountMismatchError otherwise).  A SimpleGraph is
    reduced to its 2-core first; ``truth`` then labels the nodes of the
    input graph, one per node (CountMismatchError otherwise), and is
    restricted to the core.  Truth
    that :func:`overlap` could not score (k < 2, or a label outside
    [0, k)) fails before the solve.
    Eigenpairs of T and the leading reals of B are solved iteratively at
    every size, B's on its Ihara-Bass companion.  mode 'edge_vote' clusters
    the oriented-edge embedding (:func:`edge_embedding`) and majority-votes
    per end node; 'deflate' clusters node representatives and falls back to
    edge voting when the deflation loses the signal.  The
    eigenbasis of T is solved once: if only j < k positive real eigenvalues
    are found, the run degrades to the j-dimensional basis that solve
    already assembled (recorded in the fallback flag) instead of failing;
    the below-threshold regime lands here by construction, and there the
    solve ends once the k-th Ritz value has sat inside the bulk disk (see
    spectra.leading_real_eigenpairs).  The B reals and the bound are best
    effort: a partial B solve is used as far as it goes, and the bound is
    skipped (mu empty, radii None) when no positive mu_1 is found.

    Returns a report dict with the fixed key set {lambda, mu, R_paper,
    R_numeric, objective, overlap, mode, fallback, seeds}; with
    ``return_labels`` the node label array is returned alongside.  For a
    SimpleGraph it is indexed by the nodes of the input graph, with -1 at
    the nodes the 2-core dropped; for SbmParams, by the nodes of the sample.
    """
    if mode not in ("edge_vote", "deflate"):
        raise BadParameterError(f"unknown mode {mode!r}")
    kept = None     # input nodes the 2-core keeps, for a SimpleGraph source
    if isinstance(source, SbmParams):
        smp = sample(source)
        g = smp.graph
        if truth is None:
            truth = smp.labels
        elif len(truth) != g.n:
            raise CountMismatchError(
                f"truth has {len(truth)} labels, sample has {g.n} nodes")
    elif isinstance(source, SimpleGraph):
        if truth is not None and len(truth) != source.n:
            raise CountMismatchError(
                f"truth has {len(truth)} labels, graph has {source.n} nodes")
        g, table = two_core(source)
        kept = np.asarray(table) >= 0
        if truth is not None:
            truth = np.asarray(truth)[kept]
    else:
        raise BadParameterError(
            f"source must be SimpleGraph or SbmParams, got {type(source)}")
    if g.n == 0:
        raise BadParameterError("graph reduced to nothing; cannot cluster")
    if truth is not None:
        # fail before the solve on truth that overlap could not score
        _check_scorable(k, true=np.asarray(truth, dtype=np.int64))
    idx = oriented_edges(g)

    fallback = False
    try:
        basis = spectra.real_eigenbasis_T(idx, k, mode="iterative", seed=seed)
    except NotEnoughPositiveRealsError as exc:
        if exc.basis is None:
            raise NoConvergenceError(
                "not even the trivial eigenpair converged") from exc
        basis, fallback = exc.basis, True

    used_mode = mode
    emb = None
    if mode == "deflate":
        emb = deflate_to_nodes(basis, idx)
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
        mus = spectra.leading_reals_B(idx, basis.k, seed=seed)
    except InsufficientRealRitzError as exc:
        mus = exc.found.values[: basis.k]
    except NoConvergenceError:
        mus = []
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
    if not return_labels:
        return report
    if kept is not None:
        full = np.full(source.n, -1, dtype=np.int64)
        full[kept] = node_labels
        node_labels = full
    return report, node_labels

