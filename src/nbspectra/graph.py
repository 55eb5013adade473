"""Simple-graph ingestion, preprocessing, and the oriented-edge index.

A :class:`SimpleGraph` is an undirected graph without self-loops or parallel
edges.  A :class:`OrientedEdgeIndex` fixes a global numbering of the 2m
oriented edges: the m undirected edges sorted lexicographically as (u, v)
with u < v occupy indices 0..m-1, and the reversed copies occupy m..2m-1 in
the same order.  With this convention the reversal involution is realized by
swapping the first and second halves of any length-2m coordinate vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import (
    BadParameterError,
    DuplicateEdgeError,
    LengthMismatchError,
    NodeOutOfRangeError,
    SelfLoopError,
)


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Validated undirected graph: n nodes and the lex-sorted edge rows."""

    n: int
    edges: np.ndarray            # (m, 2) int64, each row u < v, rows lex-sorted

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency in CSR form, column indices sorted per row."""
        u, v = self.edges.T
        return sp.csr_matrix((np.ones(2 * self.m), (np.r_[u, v], np.r_[v, u])),
                             shape=(self.n, self.n))


@dataclass(frozen=True, eq=False)
class OrientedEdgeIndex:
    """Bijection between oriented edges and indices 0..2m-1.

    ``start[e]`` and ``end[e]`` give the startpoint and endpoint of oriented
    edge ``e``; ``reverse(e) == (e + m) % 2m`` is the reversal involution.
    """

    n: int
    m: int
    edges: np.ndarray            # forward list, (m, 2) with u < v, lex order
    start: np.ndarray            # (2m,) startpoint per oriented edge
    end: np.ndarray              # (2m,) endpoint per oriented edge
    degrees: np.ndarray          # (n,) node degrees

    def reverse(self, e):
        return (e + self.m) % (2 * self.m)

    def swap_halves(self, x: np.ndarray) -> np.ndarray:
        """Apply the reversal involution to a length-2m coordinate vector."""
        x = np.asarray(x)
        if x.shape[0] != 2 * self.m:
            raise LengthMismatchError(
                f"expected length {2 * self.m}, got {x.shape[0]}")
        return x[reversal_permutation(self.m)]


def reversal_permutation(m: int) -> np.ndarray:
    """Index array of the reversal involution: the half-swap of 0..2m-1.

    ``x[perm]`` reverses the oriented-edge coordinates of ``x`` (along the
    first axis); ``M[:, perm]`` is ``M V`` and ``M[perm]`` is ``V M``.
    """
    return np.concatenate([np.arange(m, 2 * m), np.arange(m)])


def from_edge_list(pairs, n: int) -> SimpleGraph:
    """Build a validated SimpleGraph from unordered node pairs.

    ``pairs`` is any (m, 2) array-like of integer node ids.  The first bad
    pair in input order raises SelfLoopError or NodeOutOfRangeError (a
    self-loop is reported before a range error); a repeated pair raises
    DuplicateEdgeError; any other shape raises BadParameterError.  Edge order
    is normalized to u < v and rows are lex-sorted.
    """
    if n < 0:
        raise NodeOutOfRangeError(f"node count must be nonnegative, got {n}")
    try:
        pairs = np.asarray(pairs, dtype=np.int64)
    except (ValueError, TypeError, OverflowError) as exc:
        raise BadParameterError(
            "edges must be an (m, 2) array of integer node pairs") from exc
    if pairs.shape == (0,):
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise BadParameterError(
            f"edges must be an (m, 2) array, got shape {pairs.shape}")
    u, v = pairs.T
    bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        i = int(np.argmax(bad))
        if u[i] == v[i]:
            raise SelfLoopError(f"self-loop at node {u[i]}")
        raise NodeOutOfRangeError(f"edge ({u[i]}, {v[i]}) outside [0, {n})")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    edges = np.column_stack([lo, hi])[np.lexsort((hi, lo))]
    dup = np.all(edges[1:] == edges[:-1], axis=1)
    if dup.any():
        a, b = edges[np.argmax(dup)]
        raise DuplicateEdgeError(f"duplicate edge ({a}, {b})")
    return SimpleGraph(n=n, edges=edges)


def induced_subgraph(g: SimpleGraph, keep):
    """The subgraph on the nodes ``keep`` selects: a mask or increasing ids.

    Returns (sub, table) where table maps old node ids to new compact ids,
    with -1 for dropped nodes.  Relabeling preserves node order, so the kept
    rows stay u < v and lex-sorted and are not validated again.
    """
    kept = np.arange(g.n)[keep]
    table = np.full(g.n, -1, dtype=np.int64)
    table[kept] = np.arange(kept.size)
    rows = table[g.edges]
    return SimpleGraph(n=kept.size, edges=rows[np.all(rows >= 0, axis=1)]), table


def two_core(g: SimpleGraph):
    """Iteratively delete degree <= 1 nodes until min degree >= 2 or empty.

    Returns (core_graph, table) as :func:`induced_subgraph` does.
    """
    indptr, indices = g.adjacency.indptr, g.adjacency.indices
    deg = g.degrees
    alive = np.ones(g.n, dtype=bool)
    stack = list(np.nonzero(deg <= 1)[0])
    while stack:
        j = stack.pop()
        if not alive[j]:
            continue
        alive[j] = False
        for u in indices[indptr[j]:indptr[j + 1]]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] <= 1:
                    stack.append(u)
    return induced_subgraph(g, alive)


def connected_components(g: SimpleGraph):
    """Partition nodes into sorted int64 arrays, ordered by smallest node."""
    count, labels = csgraph.connected_components(g.adjacency, directed=False)
    nodes = np.argsort(labels, kind="stable")
    comps = np.split(nodes, np.cumsum(np.bincount(labels, minlength=count)))
    return sorted(comps[:-1], key=lambda comp: comp[0])


def is_bipartite(g: SimpleGraph) -> bool:
    """Whether the graph is two-colorable.

    A graph is bipartite exactly when its bipartite double cover
    ``[[0, A], [A, 0]]`` has twice as many connected components as the
    graph: an odd cycle lifts to one cycle of twice its length, which joins
    the two copies of its component.
    """
    if g.n == 0:
        return True
    cover = sp.bmat([[None, g.adjacency], [g.adjacency, None]], format="csr")
    count = csgraph.connected_components(g.adjacency, directed=False)[0]
    return csgraph.connected_components(cover, directed=False)[0] == 2 * count


def oriented_edges(g: SimpleGraph) -> OrientedEdgeIndex:
    """Index the 2m oriented edges: forward lex block first, reverses second."""
    m = g.m
    start = np.empty(2 * m, dtype=np.int64)
    end = np.empty(2 * m, dtype=np.int64)
    start[:m], end[:m] = g.edges[:, 0], g.edges[:, 1]
    start[m:], end[m:] = g.edges[:, 1], g.edges[:, 0]
    return OrientedEdgeIndex(n=g.n, m=m, edges=g.edges.copy(),
                             start=start, end=end, degrees=g.degrees)
