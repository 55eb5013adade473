import numpy as np
import pytest

import nbspectra as nb
from nbspectra import cluster, fileio
from nbspectra.errors import (
    BadParameterError,
    DegenerateInputError,
    LengthMismatchError,
)

from conftest import k4, petersen


def _k4_basis():
    g = k4()
    idx = nb.oriented_edges(g)
    return nb.real_eigenbasis_T(idx, 2), idx


def test_edge_embedding_k4_weights():
    basis, idx = _k4_basis()
    emb = nb.edge_embedding(basis, idx, variant="raw_z", weighting="drow")
    assert np.array_equal(emb.weights, np.full(12, 2.0))
    assert emb.points.shape == (12, 1)            # trivial column dropped
    assert emb.entity == "edge"


def test_edge_embedding_trivial_column_constant():
    basis, idx = _k4_basis()
    emb = nb.edge_embedding(basis, idx, variant="drow_sqrt",
                            weighting="uniform", drop_trivial=False)
    col = emb.points[:, 0]
    assert np.max(np.abs(col - col[0])) <= 1e-12  # constant on a regular graph
    assert np.array_equal(emb.weights, np.ones(12))


def test_edge_embedding_variants_differ():
    basis, idx = _k4_basis()
    raw = nb.edge_embedding(basis, idx, variant="raw_z").points
    up = nb.edge_embedding(basis, idx, variant="drow_sqrt").points
    down = nb.edge_embedding(basis, idx, variant="drow_invsqrt").points
    assert np.allclose(up, raw * np.sqrt(2.0))    # D_row = 2I on K4
    assert np.allclose(down, raw / np.sqrt(2.0))
    with pytest.raises(BadParameterError):
        nb.edge_embedding(basis, idx, variant="nope")


def test_deflate_trivial_closed_form():
    basis, idx = _k4_basis()
    emb = nb.deflate_to_nodes(basis, idx, side="end", drop_trivial=False)
    a = 1.0 / np.sqrt(24.0)
    expected = np.sqrt(idx.degrees - 1.0) * a
    assert np.allclose(emb.points[:, 0], expected, atol=1e-12)
    assert np.array_equal(emb.weights, idx.degrees.astype(float))


def test_deflate_k4_low_signal():
    basis, idx = _k4_basis()
    emb = nb.deflate_to_nodes(basis, idx, side="end")
    assert emb.low_signal
    assert np.max(np.abs(emb.points)) <= 1e-9     # end-sums cancel exactly


def test_weighted_kmeans_two_lobes():
    eps = 1e-3
    X = np.array([[0.0, 0.0], [0.0, eps], [10.0, 0.0], [10.0, eps]])
    emb = cluster.Embedding(points=X, weights=np.ones(4), entity="node")
    out = nb.weighted_kmeans(emb, 2, seed=0)
    assert out.labels[0] == out.labels[1]
    assert out.labels[2] == out.labels[3]
    assert out.labels[0] != out.labels[2]
    assert out.objective <= 2 * eps ** 2 + 1e-15


def test_weighted_kmeans_weighted_mean_k1():
    X = np.array([[0.0], [1.0], [2.0]])
    w = np.array([0.0, 0.0, 5.0])
    emb = cluster.Embedding(points=X, weights=w, entity="node")
    out = nb.weighted_kmeans(emb, 1, seed=0)
    assert out.centroids[0, 0] == pytest.approx(2.0)


def test_weighted_kmeans_determinism():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 2))
    w = rng.random(50) + 0.1
    emb = cluster.Embedding(points=X, weights=w, entity="edge")
    a = nb.weighted_kmeans(emb, 3, seed=9)
    b = nb.weighted_kmeans(emb, 3, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert a.objective == b.objective


def test_weighted_kmeans_uniform_weight_scale_invariance():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 2))
    e1 = cluster.Embedding(points=X, weights=np.ones(40), entity="edge")
    e2 = cluster.Embedding(points=X, weights=np.full(40, 7.5), entity="edge")
    a = nb.weighted_kmeans(e1, 3, seed=2)
    b = nb.weighted_kmeans(e2, 3, seed=2)
    assert np.array_equal(a.labels, b.labels)
    assert b.objective == pytest.approx(7.5 * a.objective, rel=1e-12)


def test_weighted_kmeans_degenerate_input():
    X = np.zeros((5, 2))
    emb = cluster.Embedding(points=X, weights=np.ones(5), entity="node")
    with pytest.raises(DegenerateInputError):
        nb.weighted_kmeans(emb, 2, seed=0)


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
