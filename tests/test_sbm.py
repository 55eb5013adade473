import numpy as np
import pytest

import nbspectra as nb
from nbspectra import graph, sbm
from nbspectra.errors import BadParameterError, EmptyCoreError


def test_expected_quantities_main():
    q = nb.expected_quantities(nb.SbmParams(n=2000, k=2, a=16.0, b=4.0))
    assert q["c"] == pytest.approx(10.0)
    assert q["mu1"] == pytest.approx(10.0)
    assert q["mu2"] == pytest.approx(6.0)
    assert q["snr"] == pytest.approx(3.6)
    assert q["detectable"]


def test_expected_quantities_symmetric_undetectable():
    q = nb.expected_quantities(nb.SbmParams(n=1000, k=2, a=10.0, b=10.0))
    assert q["mu2"] == pytest.approx(0.0)
    assert q["snr"] == pytest.approx(0.0)
    assert not q["detectable"]


def test_expected_quantities_three_blocks():
    q = nb.expected_quantities(nb.SbmParams(n=3000, k=3, a=24.0, b=3.0))
    assert q["c"] == pytest.approx(10.0)
    assert q["mu2"] == pytest.approx(7.0)
    assert q["snr"] == pytest.approx(4.9)


def test_params_validation():
    with pytest.raises(BadParameterError):
        nb.SbmParams(n=100, k=2, a=4.0, b=16.0)      # disassortative
    with pytest.raises(BadParameterError):
        nb.SbmParams(n=100, k=2, a=200.0, b=1.0)     # a >= n
    with pytest.raises(BadParameterError):
        nb.SbmParams(n=100, k=2, a=8.0, b=1.0, proportions=(0.7, 0.7))


def test_expected_adjacency():
    p = nb.SbmParams(n=2000, k=2, a=16.0, b=4.0)
    bs = nb.expected_adjacency(p)
    assert np.allclose(bs.rates, np.array([[0.008, 0.002], [0.002, 0.008]]))
    assert list(bs.block_sizes) == [1000, 1000]
    eigs = np.sort(np.linalg.eigvals(bs.reduced).real)[::-1]
    assert np.allclose(eigs, [10.0, 6.0])
    # equal blocks: the reduced matrix is symmetric with a +/- step eigenvector
    w, V = np.linalg.eigh(bs.reduced)
    step = V[:, 0]
    assert abs(abs(step[0]) - abs(step[1])) <= 1e-12
    assert np.sign(step[0]) != np.sign(step[1])


def test_sample_determinism_and_distinctness():
    p = nb.SbmParams(n=400, k=2, a=16.0, b=4.0, seed=11)
    s1, s2 = nb.sample(p), nb.sample(p)
    assert np.array_equal(s1.graph.edges, s2.graph.edges)
    assert np.array_equal(s1.labels, s2.labels)
    hashes = set()
    for seed in range(10):
        s = nb.sample(nb.SbmParams(n=400, k=2, a=16.0, b=4.0, seed=seed))
        hashes.add(hash(s.graph.edges.tobytes()))
    assert len(hashes) == 10


def test_sample_labels_and_meta():
    p = nb.SbmParams(n=500, k=3, a=24.0, b=3.0, seed=2)
    s = nb.sample(p)
    assert len(s.labels) == s.graph.n
    assert s.labels.max() < 3
    assert s.meta["c"] == pytest.approx(10.0)
    assert 0 < s.meta["surviving_fraction"] <= 1
    assert abs(s.meta["empirical_mean_degree"] - 10.0) < 2.0
    assert s.meta["degree_concentration"] > 0


def test_surviving_fraction_high_at_c10():
    for seed in range(3):
        s = nb.sample(nb.SbmParams(n=1000, k=2, a=16.0, b=4.0, seed=seed))
        assert s.graph.n >= 0.99 * 1000


def test_empty_core_subcritical():
    with pytest.raises(EmptyCoreError):
        nb.sample(nb.SbmParams(n=100, k=2, a=0.5, b=0.1, seed=3))


def test_two_core_applied():
    s = nb.sample(nb.SbmParams(n=300, k=2, a=16.0, b=4.0, seed=4))
    assert s.graph.degrees.min() >= 2
    assert len(nb.connected_components(s.graph)) == 1


def test_sample_validates_edges_once(monkeypatch):
    calls, real = [], graph.from_edge_list

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(graph, "from_edge_list", counting)
    monkeypatch.setattr(sbm, "from_edge_list", counting)
    nb.sample(nb.SbmParams(n=300, k=2, a=16.0, b=4.0))
    assert len(calls) == 1
