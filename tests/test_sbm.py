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


def _draw_edges_per_row(labels, a_n, b_n, rng):
    """The sampler's former draw, one Generator.random call per row."""
    n = len(labels)
    rows = [np.empty((0, 2), dtype=np.int64)]
    for i in range(n - 1):
        rates = np.where(labels[i + 1:] == labels[i], a_n, b_n)
        hits = i + 1 + np.nonzero(rng.random(n - 1 - i) < rates)[0]
        rows.append(np.column_stack([np.full(hits.size, i), hits]))
    return np.concatenate(rows)


@pytest.mark.parametrize("chunk", [sbm.SAMPLE_CHUNK, 7])
def test_chunked_draws_match_the_per_row_draws(monkeypatch, chunk):
    # a chunk of 7 slots splits rows across chunks, and rows of up to n - 1
    # slots are longer than a chunk
    monkeypatch.setattr(sbm, "SAMPLE_CHUNK", chunk)
    for n in (1, 2, 40, 2000):
        a_n, b_n = min(16.0 / n, 0.9), min(4.0 / n, 0.3)
        for seed in range(3 if n < 2000 else 1):
            labels = np.random.default_rng(seed).integers(0, 2, n)
            want = _draw_edges_per_row(labels, a_n, b_n,
                                       np.random.default_rng(seed))
            got = sbm._draw_edges(labels, a_n, b_n, np.random.default_rng(seed))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def test_sample_does_not_depend_on_the_chunk(monkeypatch):
    p = nb.SbmParams(n=300, k=3, a=24.0, b=3.0, seed=6)
    want = nb.sample(p)
    monkeypatch.setattr(sbm, "SAMPLE_CHUNK", 7)
    got = nb.sample(p)
    assert np.array_equal(got.graph.edges, want.graph.edges)
    assert np.array_equal(got.labels, want.labels)
