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

import numpy as np

from .errors import (
    DuplicateEdgeError,
    LengthMismatchError,
    NodeOutOfRangeError,
    SelfLoopError,
)


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Validated undirected graph with sorted adjacency."""

    n: int
    edges: np.ndarray            # (m, 2) int64, each row u < v, rows lex-sorted
    neighbors: tuple             # per-node sorted int64 arrays

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.neighbors], dtype=np.int64)

    def degree(self, j: int) -> int:
        return len(self.neighbors[j])


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

    Raises SelfLoopError, DuplicateEdgeError, or NodeOutOfRangeError on bad
    input.  Edge order is normalized to u < v and rows are lex-sorted.
    """
    if n < 0:
        raise NodeOutOfRangeError(f"node count must be nonnegative, got {n}")
    normalized = []
    for u, v in pairs:
        u, v = int(u), int(v)
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise NodeOutOfRangeError(f"edge ({u}, {v}) outside [0, {n})")
        normalized.append((u, v) if u < v else (v, u))
    normalized.sort()
    for a, b in zip(normalized, normalized[1:]):
        if a == b:
            raise DuplicateEdgeError(f"duplicate edge {a}")
    edges = np.array(normalized, dtype=np.int64).reshape(-1, 2)
    adj = [[] for _ in range(n)]
    for u, v in normalized:
        adj[u].append(v)
        adj[v].append(u)
    neighbors = tuple(np.array(sorted(a), dtype=np.int64) for a in adj)
    return SimpleGraph(n=n, edges=edges, neighbors=neighbors)


def two_core(g: SimpleGraph):
    """Iteratively delete degree <= 1 nodes until min degree >= 2 or empty.

    Returns (core_graph, table) where table maps old node ids to new compact
    ids, with -1 for deleted nodes.  Relabeling preserves node order.
    """
    deg = g.degrees.copy()
    alive = np.ones(g.n, dtype=bool)
    stack = [j for j in range(g.n) if deg[j] <= 1]
    while stack:
        j = stack.pop()
        if not alive[j]:
            continue
        alive[j] = False
        for u in g.neighbors[j]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] <= 1:
                    stack.append(u)
    table = np.full(g.n, -1, dtype=np.int64)
    table[alive] = np.arange(int(alive.sum()))
    kept = [(table[u], table[v]) for u, v in g.edges if alive[u] and alive[v]]
    return from_edge_list(kept, int(alive.sum())), table


def connected_components(g: SimpleGraph):
    """Partition nodes into components, numbered by smallest contained node."""
    seen = np.zeros(g.n, dtype=bool)
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp, stack = [s], [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(int(v))
                    stack.append(int(v))
        comps.append(np.array(sorted(comp), dtype=np.int64))
    return comps


def is_bipartite(g: SimpleGraph):
    """BFS two-coloring.

    Returns (True, colors, None) with colors in {0, 1}, or
    (False, None, walk) where walk is a closed walk of odd length.
    """
    color = np.full(g.n, -1, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop(0)
            for v in g.neighbors[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(int(v))
                elif color[v] == color[u]:
                    # closed odd walk: root -> u -> v -> root along tree paths
                    up_u = [int(u)]
                    while parent[up_u[-1]] >= 0:
                        up_u.append(int(parent[up_u[-1]]))
                    up_v = [int(v)]
                    while parent[up_v[-1]] >= 0:
                        up_v.append(int(parent[up_v[-1]]))
                    walk = up_u[::-1] + up_v
                    return False, None, walk
    return True, color, None


def is_cycle_graph(g: SimpleGraph) -> bool:
    """True iff the graph is connected and every degree equals 2."""
    if g.n == 0:
        return False
    if not np.all(g.degrees == 2):
        return False
    return len(connected_components(g)) == 1


def oriented_edges(g: SimpleGraph) -> OrientedEdgeIndex:
    """Index the 2m oriented edges: forward lex block first, reverses second."""
    m = g.m
    start = np.empty(2 * m, dtype=np.int64)
    end = np.empty(2 * m, dtype=np.int64)
    start[:m], end[:m] = g.edges[:, 0], g.edges[:, 1]
    start[m:], end[m:] = g.edges[:, 1], g.edges[:, 0]
    return OrientedEdgeIndex(n=g.n, m=m, edges=g.edges.copy(),
                             start=start, end=end, degrees=g.degrees)
