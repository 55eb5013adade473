import numpy as np
import pytest
import scipy.sparse as sp

import nbspectra as nb
from nbspectra import spectra
from nbspectra.errors import (
    BadParameterError,
    DegreeTooSmallError,
    DimensionCapError,
    InsufficientRealRitzError,
    LengthMismatchError,
    NotEnoughPositiveRealsError,
)

from conftest import (
    ihara_bass_eigenvalues,
    k4,
    k23,
    k33,
    multiset_match_distance,
    petersen,
    random_tree,
    random_two_core,
    triangle,
)

# K4 closed-form eigenvalues: root pairs of mu^2 - alpha mu + 2 for alpha in
# spec(A) = {3, -1, -1, -1}, plus (mu^2 - 1)^(m - n) = two extra +/-1 pairs
K4_B_EIGS = np.array(
    [2, 1, 1, 1, -1, -1]
    + [(-1 + 1j * np.sqrt(7)) / 2] * 3
    + [(-1 - 1j * np.sqrt(7)) / 2] * 3, dtype=complex)


def test_dense_identity_and_swap():
    spec, _ = nb.dense_eigendecomposition(np.eye(2))
    assert np.allclose(spec.values, [1.0, 1.0])
    spec, _ = nb.dense_eigendecomposition(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.values, [1.0, -1.0])


class _NoDensify(sp.csr_matrix):
    def toarray(self, *args, **kwargs):
        raise AssertionError("densified before the cap check")


def test_dense_dimension_cap():
    with pytest.raises(DimensionCapError):
        nb.dense_eigendecomposition(np.eye(10), cap=5)
    with pytest.raises(DimensionCapError):
        nb.dense_eigendecomposition(_NoDensify(sp.eye(10, format="csr")), cap=5)


def test_k4_B_spectrum_matches_closed_form_and_oracle():
    g = k4()
    B = nb.build_B(nb.oriented_edges(g))
    spec, _ = nb.dense_eigendecomposition(B, source="B")
    assert multiset_match_distance(spec.values, K4_B_EIGS) <= 1e-8
    assert multiset_match_distance(spec.values, ihara_bass_eigenvalues(g)) <= 1e-8


def test_k4_T_spectrum_reference():
    g = k4()
    T = nb.build_T(nb.oriented_edges(g))
    spec, _ = nb.dense_eigendecomposition(T, source="T")
    assert multiset_match_distance(spec.values, K4_B_EIGS / 2.0) <= 1e-8


def test_ihara_bass_oracle_random_two_cores():
    for seed in range(10):
        g = random_two_core(seed, n_max=16)
        B = nb.build_B(nb.oriented_edges(g))
        spec, _ = nb.dense_eigendecomposition(B, source="B")
        assert multiset_match_distance(spec.values,
                                       ihara_bass_eigenvalues(g)) <= 1e-6


def test_conjugate_pair_closure():
    for seed in range(5):
        g = random_two_core(seed)
        spec, _ = nb.dense_eigendecomposition(
            nb.build_T(nb.oriented_edges(g)), source="T")
        conj = np.conj(spec.values)
        assert multiset_match_distance(spec.values, conj) <= 1e-8


def test_L_spectrum_is_one_minus_T():
    for g in [k4(), k23(), petersen()]:
        idx = nb.oriented_edges(g)
        st, _ = nb.dense_eigendecomposition(nb.build_T(idx), source="T")
        sl, _ = nb.dense_eigendecomposition(nb.build_L(idx), source="L")
        assert multiset_match_distance(1.0 - st.values, sl.values) <= 1e-10


def test_minus_one_iff_bipartite():
    for g, bip in [(k23(), True), (k33(), True), (k4(), False),
                   (petersen(), False)]:
        spec, _ = nb.dense_eigendecomposition(
            nb.build_T(nb.oriented_edges(g)), source="T")
        assert (np.min(np.abs(spec.values + 1.0)) <= 1e-8) == bip


def test_zero_in_B_iff_degree_one():
    for seed in range(5):
        tree = random_tree(seed)
        B = nb.build_B(nb.oriented_edges(tree))
        spec, _ = nb.dense_eigendecomposition(B, source="B")
        assert np.min(np.abs(spec.values)) <= 1e-8
    for seed in range(5):
        core = random_two_core(seed)
        B = nb.build_B(nb.oriented_edges(core))
        spec, _ = nb.dense_eigendecomposition(B, source="B")
        assert np.min(np.abs(spec.values)) > 1e-6


def test_zero_multiplicity_of_L_counts_components():
    two_k4 = nb.from_edge_list(
        [(i, j) for i in range(4) for j in range(i + 1, 4)]
        + [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)], 8)
    L = nb.build_L(nb.oriented_edges(two_k4))
    spec, _ = nb.dense_eigendecomposition(L, source="L")
    assert int(np.sum(np.abs(spec.values) <= 1e-10)) == 2


def test_classify_k4():
    g = k4()
    idx = nb.oriented_edges(g)
    spec, _ = nb.dense_eigendecomposition(nb.build_B(idx), source="B")
    spec = nb.classify_spectrum(spec, c=3.0)
    assert spec.count_class(spectra.PERRON) == 1
    assert spec.values[spec.classes.index(spectra.PERRON)].real == pytest.approx(2.0)
    # the eigenvalues 1 sit inside sqrt(3): real bulk
    assert spec.count_class(spectra.STRUCTURAL_REAL) == 0
    assert spec.count_class(spectra.REAL_BULK) == 5
    assert spec.count_class(spectra.COMPLEX_BULK) == 6

    spec_t, _ = nb.dense_eigendecomposition(nb.build_T(idx), source="T")
    spec_t = nb.classify_spectrum(spec_t, c=3.0)
    assert spec_t.count_class(spectra.PERRON) == 1
    assert spec_t.values[spec_t.classes.index(spectra.PERRON)].real == pytest.approx(1.0)
    # 0.5 < 1.05 / sqrt(2): real bulk
    assert spec_t.count_class(spectra.STRUCTURAL_REAL) == 0


def test_classify_bad_parameters():
    spec = nb.Spectrum(values=np.array([1.0 + 0j]), source="B")
    with pytest.raises(BadParameterError):
        nb.classify_spectrum(spec, c=1.0)
    with pytest.raises(BadParameterError):
        nb.classify_spectrum(spec, c=3.0, delta=-0.1)


def test_leading_diag():
    res = nb.leading_real_eigenpairs(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(res.values, [3.0, 2.0], atol=1e-10)


def test_leading_k4_matches_dense():
    T = nb.build_T(nb.oriented_edges(k4()))
    res = nb.leading_real_eigenpairs(T, 2, seed=0)
    assert np.allclose(res.values, [1.0, 0.5], atol=1e-8)


def test_leading_insufficient_reals():
    # pure rotation block: no real eigenvalue at all beyond none
    M = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises((InsufficientRealRitzError, Exception)):
        nb.leading_real_eigenpairs(M, 1, max_iter=50)


def test_leading_matches_dense_on_sbm():
    p = nb.SbmParams(n=120, k=2, a=16.0, b=4.0, seed=5)
    g = nb.sample(p).graph
    idx = nb.oriented_edges(g)
    T = nb.build_T(idx)
    res = nb.leading_real_eigenpairs(T, 2, inner=nb.build_D_row(idx), seed=1)
    spec, _ = nb.dense_eigendecomposition(T, source="T")
    dense_reals = np.sort(spec.real_values())[::-1][:2]
    assert np.max(np.abs(res.values - dense_reals)) <= 1e-8


def test_real_eigenbasis_k4_frozen_values():
    g = k4()
    idx = nb.oriented_edges(g)
    basis = nb.real_eigenbasis_T(idx, 2)
    assert np.allclose(basis.values, [1.0, 0.5], atol=1e-10)
    assert np.allclose(basis.Z[:, 0], 1.0 / np.sqrt(24.0))
    assert basis.diagnostics["pairing"][1] == pytest.approx(-0.5, abs=1e-10)
    assert basis.diagnostics["norm_sq"][1] == pytest.approx(0.5, abs=1e-10)
    # w1 = 1/(2m a) * ones with a = 1/sqrt(24)
    assert np.allclose(basis.W[:, 0], np.sqrt(24.0) / 12.0)


def test_real_eigenbasis_invariants():
    for g in [k4(), k33(), petersen()]:
        idx = nb.oriented_edges(g)
        basis = nb.real_eigenbasis_T(idx, 2)
        drow = nb.build_D_row(idx)
        k = basis.k
        assert np.max(np.abs(basis.Z.T @ (drow[:, None] * basis.Z)
                             - np.eye(k))) <= 1e-8
        assert np.max(np.abs(basis.Z.T @ basis.W - np.eye(k))) <= 1e-8
        T = nb.build_T(idx)
        resid = np.linalg.norm(T @ basis.Z - basis.Z * basis.values[None, :],
                               axis=0)
        assert np.max(resid) <= 1e-8


def test_real_eigenbasis_sign_convention():
    g = petersen()
    idx = nb.oriented_edges(g)
    basis = nb.real_eigenbasis_T(idx, 2)
    for j in range(basis.k):
        col = basis.Z[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_real_eigenbasis_dense_vs_iterative():
    for g in [k4(), petersen()]:
        idx = nb.oriented_edges(g)
        b1 = nb.real_eigenbasis_T(idx, 2, mode="dense")
        b2 = nb.real_eigenbasis_T(idx, 2, mode="iterative", seed=0)
        assert np.max(np.abs(b1.values - b2.values)) <= 1e-8


def test_real_eigenbasis_preconditions():
    path = nb.from_edge_list([(0, 1), (1, 2)], 3)
    with pytest.raises(BadParameterError):
        nb.real_eigenbasis_T(nb.oriented_edges(path), 1)
    tri = triangle()
    with pytest.raises(BadParameterError, match="^graph must not be a cycle$"):
        nb.real_eigenbasis_T(nb.oriented_edges(tri), 1)
    two_k4 = nb.from_edge_list([(u + s, v + s) for s in (0, 4)
                                for u, v in k4().edges], 8)
    with pytest.raises(BadParameterError, match="^graph must be connected$"):
        nb.real_eigenbasis_T(nb.oriented_edges(two_k4), 1)
    g = k4()
    with pytest.raises(NotEnoughPositiveRealsError):
        nb.real_eigenbasis_T(nb.oriented_edges(g), 11)


def test_node_sums_examples():
    g = k4()
    idx = nb.oriented_edges(g)
    ss, es = nb.node_sums(np.ones(12), idx)
    assert np.array_equal(ss, np.full(4, 3.0))
    assert np.array_equal(es, np.full(4, 3.0))
    with pytest.raises(LengthMismatchError):
        nb.node_sums(np.ones(5), idx)

    basis = nb.real_eigenbasis_T(idx, 2)
    ss, es = nb.node_sums(basis.Z[:, 1], idx)
    assert np.max(np.abs(ss)) <= 1e-9
    assert np.max(np.abs(es)) <= 1e-9


def test_k33_minus_one_eigenvector_closed_form():
    """x_e = u_start/2 + u_end with u the bipartition signs: eigenpair at -1."""
    g = k33()
    idx = nb.oriented_edges(g)
    u = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    z = 0.5 * u[idx.start] + u[idx.end]
    T = nb.build_T(idx)
    assert np.max(np.abs(T @ z + z)) <= 1e-12
    ss, es = nb.node_sums(z, idx)
    assert np.max(np.abs(es)) > 1e-3                    # end-sums do not vanish
    assert np.max(np.abs(ss - (-1.0) * es)) <= 1e-9     # reversal relation


def test_reversal_relation_random_two_cores():
    """start-sums == lambda * end-sums for every real eigenpair of T."""
    worst = 0.0
    worst_total = 0.0
    for seed in range(30):
        g = random_two_core(seed, n_max=8)
        idx = nb.oriented_edges(g)
        T = nb.build_T(idx)
        spec, V = nb.dense_eigendecomposition(T, want_vectors=True, source="T")
        for i, lam in enumerate(spec.values):
            if abs(lam.imag) > 1e-9 * (1 + abs(lam)):
                continue
            z = np.real(V[:, i])
            nz = np.linalg.norm(z)
            if nz == 0:
                continue
            ss, es = nb.node_sums(z, idx)
            worst = max(worst, np.max(np.abs(ss - lam.real * es)) / nz)
            if abs(lam.real - 1.0) > 1e-8:
                worst_total = max(worst_total, abs(z.sum()) / nz)
    assert worst <= 1e-8
    assert worst_total <= 1e-8           # coordinates sum to 0 off lambda = 1


def test_closed_form_singular_values():
    idx = nb.oriented_edges(k4())
    sv = nb.closed_form_singular_values_B(idx)
    assert np.array_equal(sv, np.array([2.0] * 4 + [1.0] * 8))
    numeric = np.sort(np.linalg.svd(nb.build_B(idx).toarray(),
                                    compute_uv=False))[::-1]
    assert np.max(np.abs(sv - numeric)) <= 1e-10

    idx23 = nb.oriented_edges(k23())
    sv23 = nb.closed_form_singular_values_B(idx23)
    assert np.array_equal(sv23, np.array([2.0] * 2 + [1.0] * 10))
    numeric23 = np.sort(np.linalg.svd(nb.build_B(idx23).toarray(),
                                      compute_uv=False))[::-1]
    assert np.max(np.abs(sv23 - numeric23)) <= 1e-10

    tri = nb.oriented_edges(triangle())
    assert np.array_equal(nb.closed_form_singular_values_B(tri), np.ones(6))


def test_spectrum_csv_shape():
    idx = nb.oriented_edges(k4())
    spec, _ = nb.dense_eigendecomposition(nb.build_B(idx), source="B")
    spec = nb.classify_spectrum(spec, c=3.0)
    text = spectra.spectrum_to_csv(spec)
    lines = text.strip().split("\n")
    assert lines[0] == "re,im,class"
    assert len(lines) == 13
    assert lines[1].split(",")[2] == "perron"
