"""Property tests of the exact identities (acceptance criteria 1 and 5).

Graphs are drawn at random and reduced to their 2-core.  The examples are
derandomized so the suite is reproducible; the identities are checked bit
for bit except the start/end-sum relation, which involves computed
eigenvectors.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nbspectra as nb
from nbspectra import nbmat

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
    assert bit_equal(nbmat.transpose(B), nbmat.conjugate_by_V(B))
    End, Start = nb.build_End(idx), nb.build_Start(idx)
    gram = (End @ End.T - sp.eye(2 * idx.m, format="csr")).tocsr()
    gram.eliminate_zeros()
    reverse = idx.reverse(np.arange(2 * idx.m))
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
    assert np.array_equal(nbmat.apply_V(x), x[reverse])
    assert np.array_equal(idx.swap_halves(x), x[reverse])
    assert np.array_equal(idx.swap_halves(X), X[reverse])
    assert np.array_equal(nbmat.apply_V(nbmat.apply_V(x)), x)
    assert np.array_equal(idx.swap_halves(idx.swap_halves(X)), X)
    assert np.array_equal(reverse[reverse], np.arange(2 * idx.m))


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
