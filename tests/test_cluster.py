import numpy as np
import pytest

import nbspectra as nb
from nbspectra import cluster, fileio, nbmat, spectra
from nbspectra.errors import (
    BadParameterError,
    CountMismatchError,
    DegenerateInputError,
    InsufficientRealRitzError,
    LengthMismatchError,
    NoConvergenceError,
)

from conftest import assert_ritz_contract, k4, k23, petersen, petersen_with_tails


def _k4_basis(k=2):
    g = k4()
    idx = nb.oriented_edges(g)
    return nb.real_eigenbasis_T(idx, k), idx


def test_edge_embedding_k4_weights():
    basis, idx = _k4_basis()
    emb = nb.edge_embedding(basis, idx)
    assert np.array_equal(emb.weights, np.full(12, 2.0))
    assert emb.points.shape == (12, 1)            # trivial column dropped


def test_edge_embedding_trivial_column_constant():
    # a k = 1 basis holds only the trivial column, so the embedding keeps it
    basis, idx = _k4_basis(k=1)
    emb = nb.edge_embedding(basis, idx)
    assert emb.points.shape == (12, 1)
    col = emb.points[:, 0]
    assert np.max(np.abs(col - col[0])) <= 1e-12  # constant on a regular graph
    assert col[0] == pytest.approx(np.sqrt(2.0 / 24.0), rel=1e-12)


def test_edge_embedding_scales_rows_by_sqrt_drow():
    idx = nb.oriented_edges(k23())                # degrees 3 and 2
    basis = nb.real_eigenbasis_T(idx, 2)
    drow = nb.build_D_row(idx)
    emb = nb.edge_embedding(basis, idx)
    assert np.array_equal(emb.points, np.sqrt(drow)[:, None] * basis.Z[:, 1:])
    assert np.array_equal(emb.weights, drow)


def test_deflate_trivial_closed_form():
    basis, idx = _k4_basis(k=1)
    emb = nb.deflate_to_nodes(basis, idx)
    a = 1.0 / np.sqrt(24.0)
    expected = np.sqrt(idx.degrees - 1.0) * a
    assert np.allclose(emb.points[:, 0], expected, atol=1e-12)
    assert np.array_equal(emb.weights, idx.degrees.astype(float))


def test_deflate_k4_low_signal():
    basis, idx = _k4_basis()
    emb = nb.deflate_to_nodes(basis, idx)
    assert emb.low_signal
    assert np.max(np.abs(emb.points)) <= 1e-9     # end-sums cancel exactly


def test_weighted_kmeans_two_lobes():
    eps = 1e-3
    X = np.array([[0.0, 0.0], [0.0, eps], [10.0, 0.0], [10.0, eps]])
    emb = cluster.Embedding(points=X, weights=np.ones(4))
    out = nb.weighted_kmeans(emb, 2, seed=0)
    assert out.labels[0] == out.labels[1]
    assert out.labels[2] == out.labels[3]
    assert out.labels[0] != out.labels[2]
    assert out.objective <= 2 * eps ** 2 + 1e-15


def test_weighted_kmeans_weighted_mean_k1():
    X = np.array([[0.0], [1.0], [2.0]])
    w = np.array([0.0, 0.0, 5.0])
    emb = cluster.Embedding(points=X, weights=w)
    out = nb.weighted_kmeans(emb, 1, seed=0)
    assert out.centroids[0, 0] == pytest.approx(2.0)


def test_weighted_kmeans_determinism():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 2))
    w = rng.random(50) + 0.1
    emb = cluster.Embedding(points=X, weights=w)
    a = nb.weighted_kmeans(emb, 3, seed=9)
    b = nb.weighted_kmeans(emb, 3, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert a.objective == b.objective


def test_weighted_kmeans_uniform_weight_scale_invariance():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 2))
    e1 = cluster.Embedding(points=X, weights=np.ones(40))
    e2 = cluster.Embedding(points=X, weights=np.full(40, 7.5))
    a = nb.weighted_kmeans(e1, 3, seed=2)
    b = nb.weighted_kmeans(e2, 3, seed=2)
    assert np.array_equal(a.labels, b.labels)
    assert b.objective == pytest.approx(7.5 * a.objective, rel=1e-12)


def test_weighted_kmeans_degenerate_input():
    X = np.zeros((5, 2))
    emb = cluster.Embedding(points=X, weights=np.ones(5))
    with pytest.raises(DegenerateInputError):
        nb.weighted_kmeans(emb, 2, seed=0)


def _one_column_and_padded(x, w, k, seed):
    emb = cluster.Embedding(points=np.asarray(x, dtype=float)[:, None],
                            weights=np.asarray(w, dtype=float))
    padded = cluster.Embedding(
        points=np.column_stack([emb.points, np.zeros(len(x))]),
        weights=emb.weights)
    return (nb.weighted_kmeans(emb, k, seed=seed),
            nb.weighted_kmeans(padded, k, seed=seed))


def test_one_column_kmeans_midpoint_ties_go_to_the_lower_index():
    # with centres 0 and 2 the points at 1 are equally far from both, and
    # argmin gives them the centre of lower index, whichever side it is on
    X = np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]])
    w = np.ones(6)
    line = cluster._SortedLine(X, w)
    for centers, tie_label in (([[0.0], [2.0]], 0), ([[2.0], [0.0]], 0),
                               ([[5.0], [2.0], [0.0]], 1)):
        part, obj = line.assign(np.array(centers))
        labels = line.labels(part)
        assert np.all(labels[2:4] == tie_label)
        assert obj == 2.0
    # of equal centres the lower index takes the points, the other none;
    # the points at 2 tie between 1 and 3 and go to label 0
    part, _ = line.assign(np.array([[3.0], [1.0], [1.0]]))
    assert np.array_equal(line.labels(part), [1, 1, 1, 1, 0, 0])
    # every sum is exact here, so the paths agree bit for bit
    for seed in range(10):
        a, b = _one_column_and_padded(X[:, 0], w, 2, seed)
        assert np.array_equal(a.labels, b.labels) and a.n_iter == b.n_iter
        assert np.array_equal(a.centroids[:, 0], b.centroids[:, 0])
        assert a.objective == b.objective


def test_one_column_kmeans_reseeds_an_empty_cluster_like_the_general_path(
        monkeypatch):
    # the point at 5 weighs nothing, so the third k-means++ seed is a random
    # point: one already a centre, or 5, whose cluster has no weight
    reseeds, update = [], cluster._SortedLine.update

    def counting(self, centers, part):
        lo, hi, _ = part
        reseeds.extend(np.flatnonzero(self.cw[hi] == self.cw[lo]))
        return update(self, centers, part)

    monkeypatch.setattr(cluster._SortedLine, "update", counting)
    x, w = [0.0, 10.0, 5.0, 0.0, 10.0], [1.0, 1.0, 0.0, 1.0, 1.0]
    for seed in range(10):
        a, b = _one_column_and_padded(x, w, 3, seed)
        assert np.array_equal(a.labels, b.labels) and a.n_iter == b.n_iter
        assert np.array_equal(a.centroids[:, 0], b.centroids[:, 0])
        assert a.objective == b.objective == 0.0
    assert reseeds


def test_node_labels_majority_and_ties():
    g = k4()
    idx = nb.oriented_edges(g)
    labels = np.zeros(12, dtype=int)
    into_3 = idx.end == 3
    labels[into_3] = 2
    out = nb.node_labels_from_edge_labels(labels, idx, k=3)
    assert out[3] == 2
    # tie at a node goes to the lower label
    labels = np.array([e % 2 for e in range(12)])
    counts = np.zeros((4, 2), dtype=int)
    np.add.at(counts, (idx.end, labels), 1)
    out = nb.node_labels_from_edge_labels(labels, idx, k=2)
    for j in range(4):
        if counts[j, 0] == counts[j, 1]:
            assert out[j] == 0


def test_overlap_basic():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assert nb.overlap(truth, truth, 3) == pytest.approx(1.0)
    swapped = (truth + 1) % 3
    assert nb.overlap(swapped, truth, 3) == pytest.approx(1.0)
    with pytest.raises(LengthMismatchError):
        nb.overlap([0, 1], [0, 1, 2], 2)


def test_overlap_rejects_labels_outside_0_to_k():
    # unchecked, a label of k would index past the confusion matrix and -1
    # would wrap around to label k - 1
    for pred, truth in (([0, 1, 2], [0, 1, 1]), ([0, 1, 1], [0, 1, 2]),
                        ([0, 1, -1], [0, 1, 1]), ([0, 1, 1], [-1, 1, 0])):
        with pytest.raises(BadParameterError, match=r"\[0, 2\)"):
            nb.overlap(pred, truth, 2)


def test_overlap_rejects_empty_labels():
    with pytest.raises(BadParameterError, match="empty"):
        nb.overlap([], [], 2)


def test_overlap_random_is_near_zero():
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 2, size=10000)
    pred = rng.integers(0, 2, size=10000)
    assert abs(nb.overlap(pred, truth, 2)) <= 0.05


def test_pipeline_k4_deflate_falls_back():
    rep = nb.pipeline(k4(), 2, mode="deflate", seed=0)
    assert rep["fallback"] is True
    assert rep["mode"] == "edge_vote"
    assert rep["R_paper"] == pytest.approx(0.5)
    assert set(rep) == {"lambda", "mu", "R_paper", "R_numeric", "objective",
                        "overlap", "mode", "fallback", "seeds"}


def test_pipeline_deterministic_bytes():
    p = nb.SbmParams(n=200, k=2, a=16.0, b=4.0, seed=3)
    r1 = nb.pipeline(p, 2, seed=3)
    r2 = nb.pipeline(p, 2, seed=3)
    assert fileio.to_json(r1) == fileio.to_json(r2)


def test_pipeline_sbm_recovers_blocks():
    p = nb.SbmParams(n=300, k=2, a=16.0, b=4.0, seed=1)
    rep = nb.pipeline(p, 2, seed=1)
    assert rep["overlap"] is not None and rep["overlap"] >= 0.6
    assert rep["fallback"] is False
    assert rep["lambda"][0] == pytest.approx(1.0, abs=1e-9)
    assert len(rep["mu"]) == 2 and rep["mu"][0] > rep["mu"][1]


def test_pipeline_petersen_no_truth():
    rep, labels = nb.pipeline(petersen(), 2, seed=0, return_labels=True)
    assert rep["overlap"] is None
    assert len(labels) == 10
    assert set(labels) <= {0, 1}


def test_pipeline_rejects_truth_of_the_wrong_length():
    g = petersen_with_tails()
    with pytest.raises(CountMismatchError):
        nb.pipeline(g, 2, truth=np.zeros(g.n - 1, dtype=np.int64))


def test_pipeline_rejects_model_truth_of_the_wrong_length_before_the_solve(
        monkeypatch):
    def unreached(*args, **kwargs):
        raise AssertionError("the T eigenbasis was solved")

    monkeypatch.setattr(spectra, "real_eigenbasis_T", unreached)
    with pytest.raises(CountMismatchError, match="3 labels"):
        nb.pipeline(nb.SbmParams(n=2000, k=2, a=16.0, b=4.0, seed=0), 2,
                    truth=[0, 1, 1])


def test_pipeline_labels_the_nodes_of_the_input_graph():
    g = petersen_with_tails()
    core, table = nb.two_core(g)
    assert 0 < core.n < g.n
    truth = np.arange(g.n) % 2
    rep, labels = nb.pipeline(g, 2, seed=0, truth=truth, return_labels=True)
    core_rep, core_labels = nb.pipeline(core, 2, seed=0,
                                        truth=truth[table >= 0],
                                        return_labels=True)
    assert rep == core_rep
    assert len(labels) == g.n
    assert np.array_equal(labels == -1, table < 0)
    assert np.array_equal(labels[table >= 0], core_labels)


def test_pipeline_null_regime_falls_back_at_n60():
    # 2m = 596 is above SMALL_DIM, so the T solve stops at the bulk disk, as
    # it does at n=2000, and keeps no real from inside it
    p = nb.SbmParams(n=60, k=2, a=11.0, b=9.0, seed=0)
    assert 2 * nb.sample(p).graph.m > spectra.SMALL_DIM
    rep = nb.pipeline(p, 2, seed=0)
    assert rep["fallback"] is True
    assert rep["lambda"] == [1.0]


@pytest.mark.parametrize("k, a, b", [(2, 16.0, 4.0), (3, 24.0, 3.0)])
def test_pipeline_deflate_keeps_the_signal_above_threshold(k, a, b):
    rep = nb.pipeline(nb.SbmParams(n=300, k=k, a=a, b=b, seed=0), k,
                      mode="deflate", seed=0)
    assert rep["mode"] == "deflate"
    assert rep["fallback"] is False
    assert rep["overlap"] >= 0.5


@pytest.mark.parametrize("n_found", [1, 3])
def test_pipeline_takes_what_a_partial_B_solve_found(n_found, monkeypatch):
    found = []
    solve = spectra.leading_reals_B

    def partial(idx, k, seed=0):
        values = np.r_[solve(idx, k, seed=seed), 1.0][:n_found]
        found.append(spectra.LeadingEigenResult(
            values=values, vectors=np.zeros((2 * idx.n, n_found)),
            residuals=np.zeros(n_found), iterations=0, block_size=k + 1,
            extractions=0))
        raise InsufficientRealRitzError("partial", found=found[0])

    monkeypatch.setattr(spectra, "leading_reals_B", partial)
    rep = nb.pipeline(nb.SbmParams(n=300, k=2, a=16.0, b=4.0, seed=1), 2,
                      seed=1)
    assert rep["mu"] == found[0].values[:2].tolist()
    assert len(rep["mu"]) == min(n_found, 2)
    assert rep["R_paper"] is not None and rep["R_numeric"] is not None


def test_pipeline_skips_the_bound_when_the_B_solve_finds_nothing(monkeypatch):
    def stalled(idx, k, seed=0):
        raise NoConvergenceError("no real Ritz value stabilized")

    monkeypatch.setattr(spectra, "leading_reals_B", stalled)
    rep = nb.pipeline(nb.SbmParams(n=300, k=2, a=16.0, b=4.0, seed=1), 2,
                      seed=1)
    assert rep["mu"] == []
    assert rep["R_paper"] is None and rep["R_numeric"] is None
    assert rep["fallback"] is False


@pytest.mark.parametrize("mode", ["edge_vote", "deflate"])
def test_pipeline_degenerate_kmeans_gives_one_block(mode, monkeypatch):
    def degenerate(points, k, seed=0):
        raise DegenerateInputError("fewer distinct points than clusters")

    monkeypatch.setattr(cluster, "weighted_kmeans", degenerate)
    p = nb.SbmParams(n=300, k=2, a=16.0, b=4.0, seed=1)
    rep, labels = nb.pipeline(p, 2, mode=mode, seed=1, return_labels=True)
    assert rep["fallback"] is True
    assert rep["objective"] == 0.0
    assert len(labels) == nb.sample(p).graph.n
    assert not labels.any()


def test_pipeline_null_regime_solves_the_eigenbasis_once(monkeypatch):
    calls = []
    solve = spectra.real_eigenbasis_T

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    stops = []
    leading = spectra.leading_real_eigenpairs

    def caught(M, *args, **kwargs):
        try:
            return leading(M, *args, **kwargs)
        except InsufficientRealRitzError as exc:
            stops.append((M, kwargs.get("inner"), exc))
            raise

    norms = []
    spectral_norm = nbmat.spectral_norm

    def norm_counted(*args, **kwargs):
        norms.append(args[0])
        return spectral_norm(*args, **kwargs)

    builds = []
    for name in ("build_B", "build_T"):
        def build(idx, name=name, orig=getattr(nbmat, name)):
            builds.append(name)
            return orig(idx)

        monkeypatch.setattr(nbmat, name, build)

    monkeypatch.setattr(spectra, "real_eigenbasis_T", counted)
    monkeypatch.setattr(spectra, "leading_real_eigenpairs", caught)
    monkeypatch.setattr(nbmat, "spectral_norm", norm_counted)
    p = nb.SbmParams(n=300, k=2, a=11.0, b=9.0, seed=0)
    g = nb.sample(p).graph
    rep = nb.pipeline(p, 2, seed=0)
    assert calls == [2]
    # the iterative solves and the bound build neither CSR
    assert builds == []
    # Lanczos runs only for the Bauer-Fike difference, on the reduced pair
    # of dimension n + r + 1 rather than 2m; the T and B solves take their
    # residual scale from the entries
    assert len(norms) == 1
    assert g.n < norms[0].shape[0] <= g.n + 2 * 2 + 1 < 2 * g.m
    assert rep["fallback"] is True
    assert rep["lambda"] == [1.0]
    # the T solve under the D_row metric stopped at the bulk disk
    [(T, inner, exc)] = stops
    assert inner is not None and "bulk disk" in str(exc)
    assert_ritz_contract(T, exc.found)
