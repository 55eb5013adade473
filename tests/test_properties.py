"""Property tests of the exact identities (acceptance criteria 1 and 5)
and of the graph front end.

Graphs are drawn at random and reduced to their 2-core.  The examples are
derandomized so the suite is reproducible; the identities are checked bit
for bit except the start/end-sum relation, which involves computed
eigenvectors, and the matrix-free T, which matches its CSR to rounding.  The front end (edge validation, 2-core, components,
bipartiteness) is checked against a per-pair loop and against networkx on
raw graphs with pendant trees and several components.  The iterative T
eigenbasis is checked against the dense spectrum on block-model samples on
both sides of the detection threshold, and the k-means degeneracy check
against np.unique.  The one-column k-means is checked against the general
path, and the Ihara-Bass companion route for the leading reals of B against
the dense spectrum of B and the 2m route.  The Bauer-Fike radius on the
reduced pair of perturb is checked against a dense SVD of the 2m difference.
The overlap score is checked against scipy.optimize's assignment solver.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import nbspectra as nb
from nbspectra import cluster, nbmat, perturb, spectra, verify
from nbspectra.errors import (
    DegenerateInputError,
    DuplicateEdgeError,
    EmptyCoreError,
    NbspectraError,
    NodeOutOfRangeError,
    NotEnoughPositiveRealsError,
    SelfLoopError,
)

from conftest import k4, k33, petersen, random_two_core
from test_nbmat import bit_equal

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None,
                             derandomize=True)


@st.composite
def two_cores(draw, n_max=14):
    """The nonempty 2-core of a random simple graph on at most n_max nodes."""
    n = draw(st.integers(3, n_max))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = nb.from_edge_list([p for p, k in zip(pairs, keep) if k], n)
    core, _ = nb.two_core(g)
    assume(core.m > 0)
    return core


@PROPERTY_SETTINGS
@given(two_cores())
def test_operator_identities_bit_exact(g):
    idx = nb.oriented_edges(g)
    B = nb.build_B(idx)
    # the definition, pair by pair: b_ef = 1 iff e feeds into f != e^-1
    n2, reverse = 2 * idx.m, idx.reverse(np.arange(2 * idx.m))
    rows, cols = zip(*[(e, f) for e in range(n2) for f in range(n2)
                       if idx.end[e] == idx.start[f] and f != reverse[e]])
    assert bit_equal(B, sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                                      shape=(n2, n2)))
    assert bit_equal(nbmat.transpose(B), nbmat.conjugate_by_V(B))
    # the same symmetry for T
    T = nb.build_T(idx)
    assert bit_equal(nbmat.transpose(T), nbmat.conjugate_by_V(T))
    End, Start = nb.build_End(idx), nb.build_Start(idx)
    gram = (End @ End.T - sp.eye(2 * idx.m, format="csr")).tocsr()
    gram.eliminate_zeros()
    assert bit_equal(B[:, reverse], gram)
    D = np.diag(g.degrees.astype(np.float64))
    assert np.array_equal((End.T @ End).toarray(), D)
    assert np.array_equal((Start.T @ Start).toarray(), D)


@PROPERTY_SETTINGS
@given(two_cores(), st.integers(0, 2 ** 32 - 1))
def test_reversal_helpers_agree_and_are_involutions(g, seed):
    idx = nb.oriented_edges(g)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(2 * idx.m)
    X = rng.standard_normal((2 * idx.m, 3))
    reverse = idx.reverse(np.arange(2 * idx.m))
    assert np.array_equal(idx.swap_halves(x), x[reverse])
    assert np.array_equal(idx.swap_halves(X), X[reverse])
    assert np.array_equal(idx.swap_halves(idx.swap_halves(X)), X)
    assert np.array_equal(reverse[reverse], np.arange(2 * idx.m))


@PROPERTY_SETTINGS
@given(two_cores(), st.integers(0, 2 ** 32 - 1))
def test_matrix_free_operators_match_the_csr(g, seed):
    idx = nb.oriented_edges(g)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2 * idx.m, 3))
    op, M = nbmat.T_operator(idx), nb.build_T(idx)
    tol = 1e-14 * nbmat.norm_bound(M) * np.abs(X).max()
    assert op.shape == M.shape
    assert np.max(np.abs(op @ X - M @ X)) <= tol
    # the solver's access path: a C-ordered row block, passed as its .T
    rows = np.ascontiguousarray(X.T)
    assert np.max(np.abs((op @ rows.T).T - (M @ X).T)) <= tol
    assert op.matvec(X[:, 0]).shape == (2 * idx.m,)
    assert np.max(np.abs(op.matvec(X[:, 0]) - M @ X[:, 0])) <= tol
    assert nbmat.norm_bound(op) == pytest.approx(nbmat.norm_bound(M),
                                                  rel=1e-14)


@PROPERTY_SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8),
       st.integers(0, 2 ** 32 - 1))
def test_one_product_kernel_for_the_matrix_free_T(graph_seed, p, seed):
    # the solver's buffered product and the LinearOperator product are the
    # same kernel; a smaller block reuses the operator's node-sum rows
    idx = nb.oriented_edges(random_two_core(graph_seed))
    X = np.random.default_rng(seed).standard_normal((p, 2 * idx.m))
    op = nbmat.T_operator(idx)
    out = op.product_rows(X, np.empty_like(X))
    assert (np.max(np.abs(out - (nb.build_T(idx) @ X.T).T))
            <= 1e-14 * np.linalg.norm(X))
    assert np.array_equal((op @ X.T).T, out)
    assert np.array_equal(op.product_rows(X[-1:], np.empty((1, 2 * idx.m))),
                          out[-1:])


@PROPERTY_SETTINGS
@given(st.data())
def test_kmeans_distinct_row_check_matches_np_unique(data):
    # few values, so rows repeat and whole blocks can be equal; -0.0 == 0.0
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 3))
    value = st.sampled_from([0.0, -0.0, 1.0, -2.5])
    X = np.array(data.draw(st.lists(st.lists(value, min_size=cols,
                                             max_size=cols),
                                    min_size=rows, max_size=rows)))
    k = data.draw(st.integers(1, rows))
    emb = nb.Embedding(points=X, weights=np.ones(rows))
    degenerate = len(np.unique(X, axis=0)) < k
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "N_INIT", 1)
        mp.setattr(cluster, "MAX_LLOYD", 1)
        try:
            nb.weighted_kmeans(emb, k)
        except DegenerateInputError:
            assert degenerate
        else:
            assert not degenerate


def _padded(emb):
    """The same points with a zero second column, which changes no
    distance but sends weighted_kmeans down its general path."""
    return nb.Embedding(points=np.column_stack([emb.points,
                                                np.zeros(len(emb.points))]),
                        weights=emb.weights)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(2, 80), k=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_column_kmeans_matches_the_general_path(n, k, seed):
    # continuous values drawn from a small pool, so points repeat; some
    # weights are zero
    rng = np.random.default_rng(seed)
    x = rng.choice(rng.standard_normal(max(1, n // 3)), n)
    w = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.1, 3.0, n))
    assume(w.sum() > 0 and len(np.unique(x)) >= k)
    # relative to the weighted sum of squares: clusters of repeated points
    # leave an objective of pure rounding
    scale = 1e-12 * float(w @ x ** 2)
    emb = nb.Embedding(points=x[:, None], weights=w)
    line = nb.weighted_kmeans(emb, k, seed=seed)
    general = nb.weighted_kmeans(_padded(emb), k, seed=seed)
    assert np.array_equal(line.labels, general.labels)
    assert line.n_iter == general.n_iter
    assert line.centroids[:, 0] == pytest.approx(general.centroids[:, 0],
                                                 rel=1e-12, abs=1e-15)
    assert line.objective == pytest.approx(general.objective, rel=1e-12,
                                           abs=scale)

    # centres placed about a point, so that it sits on their midpoint up to
    # rounding, go through the same assignment on both paths
    X = x[:, None]
    for _ in range(5):
        v, step = rng.choice(x), rng.uniform(1e-3, 2.0)
        centers = rng.permutation(np.array([[v - step], [v + step],
                                            [rng.standard_normal()]])[:k])
        ours = cluster._SortedLine(X, w)
        part, obj = ours.assign(centers)
        theirs = cluster._Points(X, w)
        want, want_obj = theirs.assign(centers)
        assert np.array_equal(ours.labels(part), theirs.labels(want))
        assert obj == pytest.approx(want_obj, rel=1e-12, abs=scale)


@PROPERTY_SETTINGS
@given(two_cores())
def test_start_sums_equal_lambda_end_sums(g):
    idx = nb.oriented_edges(g)
    assume(2 * idx.m <= 200)
    spec, V = nb.dense_eigendecomposition(nb.build_T(idx), want_vectors=True,
                                          source="T")
    for i, lam in enumerate(spec.values):
        if abs(lam.imag) > 1e-9 * (1.0 + abs(lam)):
            continue
        z = np.real(V[:, i])
        ss, es = nb.node_sums(z, idx)
        assert np.max(np.abs(ss - lam.real * es)) <= 1e-8 * np.linalg.norm(z)


@PROPERTY_SETTINGS
@given(two_cores())
def test_pairing_deviation_is_lambda_times_the_end_sum_norm(g):
    # z'D_row z = 1 and B = End Start' - V give z'Vz = E'S - lambda, and
    # S = lambda E (above): the pairing deviation is lambda * sum_v E(v)^2
    idx = nb.oriented_edges(g)
    assume(2 * idx.m <= 200)
    spec, V = nb.dense_eigendecomposition(nb.build_T(idx), want_vectors=True,
                                          source="T")
    drow = nb.build_D_row(idx)
    for i, lam in enumerate(spec.values):
        if abs(lam.imag) > 1e-9 * (1.0 + abs(lam)):
            continue
        lam = lam.real
        z = np.real(V[:, i])
        z /= np.sqrt(z @ (drow * z))
        _, es = nb.node_sums(z, idx)
        assert abs(z @ idx.swap_halves(z) + lam - lam * (es @ es)) <= 1e-10


@st.composite
def raw_graphs(draw, n_max=20):
    """A random forest plus a few chords, edges given in random order.

    The forest gives pendant trees, isolated nodes and several components;
    the chords close cycles, some of them odd.
    """
    n = draw(st.integers(1, n_max))
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(-1, i - 1))        # -1 starts a new tree
        if j >= 0:
            edges.add((j, i))
    node = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(node, node), max_size=n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return nb.from_edge_list(draw(st.permutations(sorted(edges))), n)


def networkx_graph(g):
    """``g`` as a networkx Graph; skips the test when networkx is missing."""
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges.tolist())
    return nx, G


def loop_from_edge_list(pairs, n):
    """Per-pair reference for from_edge_list: sorted edges, or the error."""
    normalized = []
    for u, v in pairs:
        if u == v:
            return SelfLoopError, f"self-loop at node {u}"
        if not (0 <= u < n and 0 <= v < n):
            return NodeOutOfRangeError, f"edge ({u}, {v}) outside [0, {n})"
        normalized.append((min(u, v), max(u, v)))
    normalized.sort()
    for a, b in zip(normalized, normalized[1:]):
        if a == b:
            return DuplicateEdgeError, f"duplicate edge {a}"
    return normalized


@st.composite
def pair_lists(draw):
    """n and node pairs in range, some repeated, with up to two bad pairs."""
    n = draw(st.integers(2, 6))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                          max_size=8))
    bad = st.tuples(st.integers(-1, n), st.integers(-1, n))
    for pair in draw(st.lists(bad, max_size=2)):
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return n, pairs


@PROPERTY_SETTINGS
@given(pair_lists())
def test_from_edge_list_matches_the_per_pair_loop(case):
    n, pairs = case
    expected = loop_from_edge_list(pairs, n)
    if isinstance(expected, list):
        assert nb.from_edge_list(pairs, n).edges.tolist() == \
            [list(e) for e in expected]
    else:
        error, message = expected
        with pytest.raises(error) as info:
            nb.from_edge_list(pairs, n)
        assert str(info.value) == message


@PROPERTY_SETTINGS
@given(raw_graphs())
def test_two_core_matches_networkx(g):
    nx, G = networkx_graph(g)
    core, table = nb.two_core(g)
    kept = np.nonzero(table >= 0)[0]
    K = nx.k_core(G, 2)
    assert kept.tolist() == sorted(K.nodes)
    assert table[kept].tolist() == list(range(core.n))   # order-preserving
    relabeled = sorted(tuple(sorted((table[u], table[v]))) for u, v in K.edges)
    assert core.edges.tolist() == [list(e) for e in relabeled]


@PROPERTY_SETTINGS
@given(raw_graphs())
def test_connected_components_match_networkx(g):
    nx, G = networkx_graph(g)
    comps = nb.connected_components(g)
    assert all(comp.dtype == np.int64 for comp in comps)
    expected = sorted(sorted(c) for c in nx.connected_components(G))
    assert [comp.tolist() for comp in comps] == expected


@PROPERTY_SETTINGS
@given(raw_graphs())
def test_is_bipartite_matches_networkx(g):
    nx, G = networkx_graph(g)
    assert nb.is_bipartite(g) == nx.is_bipartite(G)


# (k, a, b): two regimes above the detection threshold (16/4, 24/3), two
# below it (13/7, 11/9); at n of about 100 the average degree is about 10
@pytest.mark.parametrize("k, a, b", [(2, 16.0, 4.0), (3, 24.0, 3.0),
                                     (2, 13.0, 7.0), (2, 11.0, 9.0)])
@settings(max_examples=2, deadline=None, derandomize=True)
@given(n=st.integers(80, 120), seed=st.integers(0, 2 ** 32 - 1))
def test_iterative_T_basis_finds_the_dense_structural_reals(k, a, b, n, seed):
    idx = nb.oriented_edges(nb.sample(nb.SbmParams(n=n, k=k, a=a, b=b,
                                                   seed=seed)).graph)
    assume(spectra.SMALL_DIM < 2 * idx.m <= 1300)
    c = 2.0 * idx.m / idx.n
    edge = 1.0 / np.sqrt(c - 1.0)
    spec, _ = nb.dense_eigendecomposition(nb.build_T(idx), source="T")
    reals = spec.real_values()
    assume(np.all(np.abs(reals - edge) > 2 * spectra.BULK_MARGIN * edge))
    structural = nb.classify_spectrum(spec, c).structural()
    expected = np.sort(structural[structural > 0])[::-1][:3]
    try:
        values = nb.real_eigenbasis_T(idx, 3, mode="iterative", seed=0).values
    except NotEnoughPositiveRealsError as exc:
        values = exc.basis.values
    assert len(values) == len(expected)
    assert values == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("k, a, b", [(2, 16.0, 4.0), (3, 24.0, 3.0),
                                     (2, 13.0, 7.0), (2, 11.0, 9.0)])
@pytest.mark.parametrize("n_lo, n_hi", [(60, 80), (280, 320)])
@settings(max_examples=1, deadline=None, derandomize=True)
@given(data=st.data())
def test_companion_route_finds_the_leading_reals_of_B(k, a, b, n_lo, n_hi,
                                                      data):
    """The 2n x 2n Ihara-Bass companion lacks m - n copies each of +1 and -1
    of the spectrum of B, so the two agree while the k-th real exceeds 1.

    Below the threshold the reals of B after the Perron value lie in the
    bulk, where neither route separates them, so those regimes ask for one.  The smaller graphs (2m under 1000) are
    checked against the dense spectrum of B, the larger ones, whose
    companion exceeds SMALL_DIM, against the block iteration on the 2m B.
    """
    n, seed = data.draw(st.integers(n_lo, n_hi)), data.draw(
        st.integers(0, 2 ** 32 - 1))
    p = nb.SbmParams(n=n, k=k, a=a, b=b, seed=seed)
    j = k if nb.expected_quantities(p)["detectable"] else 1
    idx = nb.oriented_edges(nb.sample(p).graph)
    if 2 * idx.m <= 1000:
        spec, _ = nb.dense_eigendecomposition(nb.build_B(idx), source="B")
        reals = np.sort(spec.real_values())[::-1]
        assert reals[j - 1] > 1
        expected = reals[:j]
    else:
        assert 2 * idx.n > spectra.SMALL_DIM
        expected = nb.leading_real_eigenpairs(nb.build_B(idx), j,
                                              seed=seed).values
    got = spectra.leading_reals_B(idx, j, seed=seed)
    assert got == pytest.approx(expected, rel=1e-8)


@st.composite
def sbm_graphs(draw):
    """A small block-model sample: the 2-core of its giant component."""
    k, a, b = draw(st.sampled_from([(2, 16.0, 4.0), (2, 11.0, 9.0),
                                    (3, 24.0, 3.0)]))
    p = nb.SbmParams(n=draw(st.integers(30, 60)), k=k, a=a, b=b,
                     seed=draw(st.integers(0, 2 ** 32 - 1)))
    try:
        return nb.sample(p).graph
    except EmptyCoreError:
        assume(False)


@PROPERTY_SETTINGS
@given(st.one_of(two_cores(), sbm_graphs()), st.sampled_from([1, 2, 3]))
def test_reduced_pair_gives_the_bauer_fike_radius(g, k):
    """||Z Lambda W^T - B/mu_1|| on the n + r dimensional pair, r <= 2k,
    equals the dense SVD norm in the 2m edge space."""
    # a cycle or a disconnected core has eigenvalue 1 of T more than once
    assume(len(nb.connected_components(g)) == 1 and g.degrees.max() > 2)
    idx = nb.oriented_edges(g)
    try:
        basis = nb.real_eigenbasis_T(idx, k, mode="dense")
    except NotEnoughPositiveRealsError as exc:
        basis = exc.basis
    mu1 = nb.dense_eigendecomposition(
        nb.build_B(idx), source="B")[0].real_values().max()
    base, section = perturb.reduced_pair(idx, basis, mu1)
    assert base.shape == section.shape
    assert base.shape[0] <= idx.n + 2 * basis.k + 1
    E = (basis.Z @ np.diag(basis.values) @ basis.W.T
         - nb.build_B(idx).toarray() / mu1)
    expected = (nb.spectral_condition_number(basis.Z)
                * np.linalg.svd(E, compute_uv=False)[0])
    assert nb.bauer_fike_radius(basis.Z, base, section) == pytest.approx(
        expected, rel=1e-12)


def _verify_outcome(g, suites):
    """The findings of run_suites, or the type and message of its error."""
    try:
        return verify.run_suites(g, suites)[1]
    except NbspectraError as exc:
        return type(exc), str(exc)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from([k4, k33, petersen]).map(lambda f: f()),
                 st.integers(0, 2 ** 32 - 1).map(
                     lambda seed: random_two_core(seed, n_max=24))))
def test_verify_sharing_changes_no_finding(g):
    """A run that shares one index and one decomposition of T among its
    suites finds exactly what the suites find run one by one, up to the
    first suite that raises (theorem1 on a disconnected or cycle core)."""
    expected = []
    for suite in verify.ALL_SUITES:
        got = _verify_outcome(g, [suite])
        if isinstance(got, tuple):
            expected = got
            break
        expected += got
    assert _verify_outcome(g, None) == expected


def _overlap_oracle(pred, truth, k):
    conf = np.zeros((k, k), dtype=np.int64)
    np.add.at(conf, (pred, truth), 1)
    rows, cols = linear_sum_assignment(-conf)
    acc = conf[rows, cols].sum() / len(pred)
    return float((acc - 1.0 / k) / (1.0 - 1.0 / k))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_overlap_matches_the_assignment_oracle(data):
    """The csgraph matcher gives the same float as linear_sum_assignment,
    also when the predicted or true labels use only some of the k values
    (empty rows or columns of the confusion matrix), down to one."""
    k = data.draw(st.integers(2, 8))
    n = data.draw(st.integers(1, 60))
    used_pred = data.draw(st.integers(1, k))
    used_truth = data.draw(st.integers(1, k))
    pred = np.array(data.draw(st.lists(st.integers(0, used_pred - 1),
                                       min_size=n, max_size=n)))
    truth = np.array(data.draw(st.lists(st.integers(0, used_truth - 1),
                                        min_size=n, max_size=n)))
    # shift the labels so the unused values are not always the top ones
    pred = (pred + data.draw(st.integers(0, k - 1))) % k
    truth = (truth + data.draw(st.integers(0, k - 1))) % k
    assert cluster.overlap(pred, truth, k) == _overlap_oracle(pred, truth, k)
