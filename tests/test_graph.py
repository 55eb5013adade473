import numpy as np
import pytest

import nbspectra as nb
from nbspectra.errors import (
    BadParameterError,
    DuplicateEdgeError,
    LengthMismatchError,
    NodeOutOfRangeError,
    SelfLoopError,
)

from conftest import k4, k23, random_two_core, triangle


def test_from_edge_list_triangle():
    g = nb.from_edge_list([(0, 1), (1, 2), (0, 2)], 3)
    assert g.n == 3 and g.m == 3
    assert list(g.degrees) == [2, 2, 2]
    assert [tuple(e) for e in g.edges] == [(0, 1), (0, 2), (1, 2)]


def test_from_edge_list_normalizes_order():
    g = nb.from_edge_list([(2, 0), (1, 0)], 3)
    assert [tuple(e) for e in g.edges] == [(0, 1), (0, 2)]


def test_from_edge_list_rejects_duplicates():
    with pytest.raises(DuplicateEdgeError):
        nb.from_edge_list([(0, 1), (0, 1)], 2)
    with pytest.raises(DuplicateEdgeError):
        nb.from_edge_list([(0, 1), (1, 0)], 2)


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        nb.from_edge_list([(1, 1)], 2)


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(NodeOutOfRangeError):
        nb.from_edge_list([(0, 5)], 3)


def test_from_edge_list_contract():
    pairs = [(2, 0), (1, 0), (1, 2)]
    g = nb.from_edge_list(np.array(pairs), 3)
    assert g.edges.dtype == np.int64
    assert np.array_equal(g.edges, nb.from_edge_list(pairs, 3).edges)
    with pytest.raises(BadParameterError):
        nb.from_edge_list(np.array([[0, 1, 2], [1, 2, 0]]), 3)
    with pytest.raises(BadParameterError):
        nb.from_edge_list([(0, 1), (1, 2, 0)], 3)
    # the first bad pair in input order is reported, a self-loop before
    # a range error
    with pytest.raises(SelfLoopError, match=r"^self-loop at node 2$"):
        nb.from_edge_list([(0, 1), (2, 2), (0, 9)], 3)
    with pytest.raises(NodeOutOfRangeError,
                       match=r"^edge \(0, 9\) outside \[0, 3\)$"):
        nb.from_edge_list([(0, 9), (2, 2)], 3)
    with pytest.raises(SelfLoopError, match=r"^self-loop at node 5$"):
        nb.from_edge_list([(5, 5)], 3)
    with pytest.raises(DuplicateEdgeError, match=r"^duplicate edge \(0, 1\)$"):
        nb.from_edge_list([(1, 2), (1, 0), (0, 1)], 3)


def test_degree_sum_is_2m():
    for seed in range(10):
        g = random_two_core(seed)
        assert g.degrees.sum() == 2 * g.m


def test_two_core_k4_identity():
    core, table = nb.two_core(k4())
    assert core.n == 4 and core.m == 6
    assert list(table) == [0, 1, 2, 3]


def test_two_core_path_empty():
    g = nb.from_edge_list([(0, 1), (1, 2)], 3)
    core, table = nb.two_core(g)
    assert core.n == 0 and core.m == 0
    assert list(table) == [-1, -1, -1]


def test_two_core_triangle_plus_pendant():
    for length in (1, 20000):
        path = [(i, i + 1) for i in range(2, length + 2)]
        g = nb.from_edge_list([(0, 1), (0, 2), (1, 2)] + path, length + 3)
        core, table = nb.two_core(g)
        assert core.n == 3 and core.m == 3
        assert list(table) == [0, 1, 2] + [-1] * length


def test_two_core_idempotent():
    for seed in range(10):
        g = random_two_core(seed)
        core, table = nb.two_core(g)
        assert core.n == g.n
        assert np.array_equal(core.edges, g.edges)
        assert list(table) == list(range(g.n))


def test_connected_components_counts():
    two_k4 = nb.from_edge_list(
        [(i, j) for i in range(4) for j in range(i + 1, 4)]
        + [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)], 8)
    comps = nb.connected_components(two_k4)
    assert len(comps) == 2
    assert list(comps[0]) == [0, 1, 2, 3]
    assert len(nb.connected_components(k4())) == 1
    empty = nb.from_edge_list([], 0)
    assert nb.connected_components(empty) == []


def test_is_bipartite():
    assert nb.is_bipartite(k23()) is True
    assert nb.is_bipartite(k4()) is False
    assert nb.is_bipartite(nb.from_edge_list([(0, 1)], 2))
    assert nb.is_bipartite(nb.from_edge_list([], 0))
    # isolated nodes next to an even cycle change nothing
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert nb.is_bipartite(nb.from_edge_list(square, 6))
    # one odd-cycle component makes the whole graph non-bipartite
    path, triangle = [(0, 1), (1, 2)], [(3, 4), (4, 5), (3, 5)]
    assert not nb.is_bipartite(nb.from_edge_list(path + triangle, 7))


def test_oriented_edges_k4_convention():
    idx = nb.oriented_edges(k4())
    assert idx.m == 6
    assert tuple(idx.edges[0]) == (0, 1)
    assert idx.start[0] == 0 and idx.end[0] == 1
    assert idx.reverse(0) == 6
    assert idx.start[6] == 1 and idx.end[6] == 0


def test_oriented_edges_reverse_involution():
    idx = nb.oriented_edges(random_two_core(3))
    for e in range(2 * idx.m):
        assert idx.reverse(idx.reverse(e)) == e
        assert idx.start[idx.reverse(e)] == idx.end[e]


def test_oriented_edges_triangle_forward_list():
    idx = nb.oriented_edges(triangle())
    assert [tuple(e) for e in idx.edges] == [(0, 1), (0, 2), (1, 2)]


def test_swap_halves_involution():
    idx = nb.oriented_edges(k4())
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2 * idx.m)
    assert np.array_equal(idx.swap_halves(idx.swap_halves(x)), x)
    with pytest.raises(LengthMismatchError):
        idx.swap_halves(np.ones(5))
