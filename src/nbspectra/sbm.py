"""Sparse stochastic block model sampling with planted labels.

The n nodes fall into k equal blocks (sizes differ by at most one), and
edges are drawn as independent per-pair Bernoulli variables with rate a/n
inside blocks and b/n between blocks (assortative: b <= a).  The sample is
reduced to the 2-core of its largest connected component, with planted labels
carried through the relabeling.  Model-level predictions (average degree c,
structural eigenvalue magnitudes, signal-to-noise ratio) come with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameterError, EmptyCoreError
from .graph import (SimpleGraph, connected_components, from_edge_list,
                    induced_subgraph, two_core)

SAMPLE_CHUNK = 1 << 16    # pair slots drawn per call of Generator.random


@dataclass(frozen=True)
class SbmParams:
    """Model parameters: within-rate a/n, between-rate b/n, k equal blocks."""

    n: int
    k: int
    a: float
    b: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise BadParameterError(f"n must be positive, got {self.n}")
        if self.k < 1:
            raise BadParameterError(f"k must be positive, got {self.k}")
        if not (0 <= self.b <= self.a):
            raise BadParameterError(
                f"need 0 <= b <= a (assortative), got a={self.a}, b={self.b}")
        if self.a >= self.n:
            raise BadParameterError(f"a={self.a} must be below n={self.n}")


@dataclass
class SbmSample:
    """A sampled graph after 2-core and giant-component reduction."""

    graph: SimpleGraph
    labels: np.ndarray           # planted block per surviving node
    meta: dict = field(default_factory=dict)


def expected_quantities(p: SbmParams) -> dict:
    """Model predictions: c, structural magnitudes mu, SNR, detectability.

    The mu's are the eigenvalues of the reduced k x k rate matrix, which for
    the equal blocks gives c = (a + (k-1) b) / k, mu_1 = c and
    mu_i = (a - b) / k for i >= 2.  SNR = mu_2^2 / mu_1 with detection
    feasible above 1.
    """
    pi = np.full(p.k, 1.0 / p.k)
    M = np.full((p.k, p.k), float(p.b))
    np.fill_diagonal(M, float(p.a))
    c = float(pi @ M @ pi)
    mu = np.sort(np.linalg.eigvals(M @ np.diag(pi)).real)[::-1]
    mu2 = float(mu[1]) if p.k > 1 else 0.0
    snr = mu2 ** 2 / c if c > 0 else 0.0
    return {
        "c": c,
        "mu": [float(x) for x in mu],
        "mu1": float(mu[0]),
        "mu2": mu2,
        "snr": snr,
        "detectable": bool(snr > 1.0),
    }


def _draw_edges(labels: np.ndarray, a_n: float, b_n: float,
                rng: np.random.Generator) -> np.ndarray:
    """Bernoulli edges over the node pairs (i, j), i < j, in row-major order.

    Pair slot s of row i is s = off[i] + j - i - 1, and each slot takes one
    uniform draw, compared with a_n when labels i and j agree and b_n
    otherwise.  The draws come SAMPLE_CHUNK slots at a time; a Generator
    fills its output one double after another, so the stream is that of one
    draw per row.  Only the slots below max(a_n, b_n) are decoded to their
    pair and tested against its own rate.
    """
    n = len(labels)
    off = np.zeros(n, dtype=np.int64)       # first slot of each row
    np.cumsum(np.arange(n - 1, 0, -1), out=off[1:])
    total = n * (n - 1) // 2
    top = max(a_n, b_n)
    slots, draws = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for lo in range(0, total, SAMPLE_CHUNK):
        r = rng.random(min(SAMPLE_CHUNK, total - lo))
        hit = np.flatnonzero(r < top)
        slots.append(lo + hit)
        draws.append(r[hit])
    slot, r = np.concatenate(slots), np.concatenate(draws)
    row = np.searchsorted(off, slot, side="right") - 1
    col = slot - off[row] + row + 1
    keep = r < np.where(labels[row] == labels[col], a_n, b_n)
    return np.column_stack([row[keep], col[keep]])


def sample(p: SbmParams) -> SbmSample:
    """Draw one graph, reduce to the 2-core of the giant component.

    Deterministic per seed.  Raises EmptyCoreError when nothing survives.
    The meta record holds the model predictions plus the empirical mean
    degree, surviving fraction, and the degree-concentration statistic
    max_j |d_j - c| of the surviving graph.
    """
    rng = np.random.default_rng(p.seed)
    sizes = np.full(p.k, p.n // p.k)    # equal blocks; n % k of them one larger
    sizes[:p.n % p.k] += 1
    labels = np.repeat(np.arange(p.k), sizes)
    rng.shuffle(labels)

    edges = _draw_edges(labels, p.a / p.n, p.b / p.n, rng)
    core, table = two_core(from_edge_list(edges, p.n))
    if core.n == 0:
        raise EmptyCoreError("the 2-core of the sample is empty")
    labels_core = labels[table >= 0]

    comps = connected_components(core)
    giant = max(comps, key=lambda comp: (len(comp), -comp[0]))
    graph, _ = induced_subgraph(core, giant)
    labels_final = labels_core[giant]

    expected = expected_quantities(p)
    deg = graph.degrees
    meta = dict(expected)
    meta.update({
        "n_requested": p.n,
        "n_surviving": graph.n,
        "m": graph.m,
        "surviving_fraction": graph.n / p.n,
        "empirical_mean_degree": float(2 * graph.m / graph.n) if graph.n else 0.0,
        "degree_concentration": float(np.max(np.abs(deg - expected["c"])))
        if graph.n else 0.0,
        "seed": p.seed,
    })
    return SbmSample(graph=graph, labels=labels_final, meta=meta)
