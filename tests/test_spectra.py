import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import nbspectra as nb
from nbspectra import nbmat, spectra
from nbspectra.errors import (
    BadParameterError,
    DegenerateBilinearFormError,
    DegreeTooSmallError,
    DimensionCapError,
    InsufficientRealRitzError,
    LengthMismatchError,
    NoConvergenceError,
    NotEnoughPositiveRealsError,
)

from conftest import (
    assert_ritz_contract,
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


def test_dense_dimension_cap(monkeypatch):
    monkeypatch.setattr(spectra, "DENSE_CAP", 5)
    with pytest.raises(DimensionCapError):
        nb.dense_eigendecomposition(np.eye(10))
    with pytest.raises(DimensionCapError):
        nb.dense_eigendecomposition(_NoDensify(sp.eye(10, format="csr")))


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


def test_dense_residual_check_covers_the_imaginary_parts(monkeypatch):
    # a scaled rotation block has the pair 0.3 +- 2i; the check takes
    # A Re(V) and A Im(V) as two real products, and a shift of Im(V) alone
    # must fail it
    A = np.array([[0.3, -2.0, 0.0], [2.0, 0.3, 0.0], [0.0, 0.0, 0.5]])
    spec, V = nb.dense_eigendecomposition(A, want_vectors=True)
    assert spec.values == pytest.approx([0.5, 0.3 + 2j, 0.3 - 2j], abs=1e-12)
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig",
                        lambda M: (eig(M)[0], eig(M)[1] + 1e-6j))
    with pytest.raises(NoConvergenceError, match="exceeds 1e-8 relative"):
        nb.dense_eigendecomposition(A, want_vectors=True)


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
    assert spec.classes.count(spectra.PERRON) == 1
    assert spec.values[spec.classes.index(spectra.PERRON)].real == pytest.approx(2.0)
    # the eigenvalues 1 sit inside sqrt(3): real bulk
    assert spec.classes.count(spectra.STRUCTURAL_REAL) == 0
    assert spec.classes.count(spectra.REAL_BULK) == 5
    assert spec.classes.count(spectra.COMPLEX_BULK) == 6

    spec_t, _ = nb.dense_eigendecomposition(nb.build_T(idx), source="T")
    spec_t = nb.classify_spectrum(spec_t, c=3.0)
    assert spec_t.classes.count(spectra.PERRON) == 1
    assert spec_t.values[spec_t.classes.index(spectra.PERRON)].real == pytest.approx(1.0)
    # 0.5 < 1.05 / sqrt(2): real bulk
    assert spec_t.classes.count(spectra.STRUCTURAL_REAL) == 0


def test_classify_bad_parameters():
    spec = nb.Spectrum(values=np.array([1.0 + 0j]), source="B")
    with pytest.raises(BadParameterError):
        nb.classify_spectrum(spec, c=1.0)


def test_leading_diag():
    M = np.diag([3.0, 2.0, 1.0])
    res = nb.leading_real_eigenpairs(M, 2)
    assert np.allclose(res.values, [3.0, 2.0], atol=1e-10)
    assert_ritz_contract(M, res)


def _metric_block(rng, cond, rank=None):
    """A 3000 x 6 block with singular values spread over [1/cond, 1] (the
    last 6 - rank of them zero), and a D_row-like diagonal metric."""
    U, _ = np.linalg.qr(rng.standard_normal((3000, 6)))
    V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = np.geomspace(1.0, 1.0 / cond, 6)
    if rank is not None:
        s[rank:] = 0.0
    d = rng.integers(1, 20, 3000).astype(np.float64)
    return (U * s) @ V / np.sqrt(d)[:, None], d


@pytest.fixture
def householder_calls(monkeypatch):
    """The shapes of the blocks sent to Householder QR, in call order."""
    calls = []
    orig = spectra._householder_orthonormalize

    def spy(X, d):
        calls.append(X.shape)
        return orig(X, d)

    monkeypatch.setattr(spectra, "_householder_orthonormalize", spy)
    return calls


def _assert_orthonormal_span(Q, X, d, tol):
    """Q D Q^T = I to ``tol`` and the rows of X lie in the span of Q's."""
    w = np.ones(X.shape[1]) if d is None else d
    assert Q.shape == X.shape
    assert np.abs(Q @ (Q * w).T - np.eye(len(Q))).max() <= tol
    # same span: X is its own projection onto the rows of Q
    proj = (X * w) @ Q.T @ Q
    assert np.abs(proj - X).max() <= 1e-12 * np.abs(X).max()


def test_metric_orthonormalize_cholesky_and_householder_fallback(
        householder_calls):
    # the solver's block holds one vector per row: pass X.T, a 6 x 3000
    # block; one CholeskyQR pass loses about cond^2 u of orthogonality
    rng = np.random.default_rng(7)
    X, d = _metric_block(rng, cond=10.0)
    for metric in (d, None):
        Q = spectra._metric_orthonormalize(X.T, metric)
        _assert_orthonormal_span(Q, X.T, metric, 1e-13)
    assert householder_calls == []

    # cond 1e4, 1e7 and 1e9: Cholesky succeeds, but cond(L) is past
    # CHOLQR_MAX_COND; rank 4: Cholesky rejects the Gram matrix
    for X, d in (_metric_block(rng, cond=1e4), _metric_block(rng, cond=1e7),
                 _metric_block(rng, cond=1e9), _metric_block(rng, 10.0, rank=4)):
        Q = spectra._metric_orthonormalize(X.T, d)
        assert np.abs(Q @ (Q * d).T - np.eye(6)).max() <= 1e-12
    assert householder_calls == [X.T.shape] * 4


def test_metric_orthonormalize_ignores_the_scale_of_each_row(householder_calls):
    # without the diag(G)^(-1/2) scaling, cond(L) here would be about 2e12
    X, d = _metric_block(np.random.default_rng(11), cond=10.0)
    X = X.T * np.geomspace(1e-6, 1e6, 6)[:, None]
    for metric in (d, None):
        Q = spectra._metric_orthonormalize(X, metric)
        _assert_orthonormal_span(Q, X, metric, 1e-13)
    assert householder_calls == []


def test_metric_orthonormalize_sends_a_zero_row_to_householder(
        householder_calls):
    X, d = _metric_block(np.random.default_rng(13), cond=10.0)
    X = X.T.copy()
    X[2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        Q = spectra._metric_orthonormalize(X, d)
    _assert_orthonormal_span(Q, X, d, 1e-12)
    assert householder_calls == [X.shape]


def test_leading_k4_matches_dense():
    T = nb.build_T(nb.oriented_edges(k4()))
    res = nb.leading_real_eigenpairs(T, 2, seed=0)
    assert np.allclose(res.values, [1.0, 0.5], atol=1e-8)


def test_leading_insufficient_reals():
    # a pure rotation has no real eigenvalue, so no real Ritz value
    # stabilizes; the 2x2 block is the full space, where the projection is
    # exact, so the round ends after its one extraction
    M = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(NoConvergenceError,
                       match="^no real Ritz value stabilized after 1 sweeps$"):
        nb.leading_real_eigenpairs(M, 1)


def _bulk_operator(r, pairs=300, extra=()):
    """Perron value 1, then 2x2 rotation blocks of moduli in [r/2, r] (the
    bulk disk), then 1x1 blocks holding the values in ``extra``."""
    blocks = [sp.csr_matrix([[1.0]])]
    for i in range(pairs):
        rho = r * (0.5 + 0.5 * i / (pairs - 1))
        phi = 0.2 + 2.7 * i / (pairs - 1)
        c, s = rho * math.cos(phi), rho * math.sin(phi)
        blocks.append(sp.csr_matrix([[c, -s], [s, c]]))
    blocks += [sp.csr_matrix([[x]]) for x in extra]
    return sp.block_diag(blocks, format="csr")


def _bulk_window(dim):
    return math.ceil(math.log(math.sqrt(dim))
                     / math.log1p(spectra.BULK_MARGIN))


def test_leading_stops_once_kth_ritz_value_is_in_bulk():
    # only positive reals are wanted, so a negative value outside the disk
    # must not hold off the stop
    for extra in ((), (-1.2 * 0.3,)):
        M = _bulk_operator(0.3, extra=extra)
        assert M.shape[0] >= 600
        with pytest.raises(InsufficientRealRitzError,
                           match="bulk disk") as info:
            nb.leading_real_eigenpairs(M, 2, bulk_radius=0.3)
        found = info.value.found
        assert found.values.tolist() == [1.0]
        assert (found.iterations
                <= _bulk_window(M.shape[0]) + spectra.STABLE_WINDOW)
        assert_ritz_contract(M, found)


def _sbm_T(a=11.0, b=9.0):
    """T of the 2-core of one block-model sample (null regime a=11, b=9 by
    default, n=2000), with its D_row and bulk radius 1/sqrt(c - 1)."""
    g = nb.sample(nb.SbmParams(n=2000, k=2, a=a, b=b, seed=0)).graph
    idx = nb.oriented_edges(nb.two_core(g)[0])
    return (nbmat.T_operator(idx), nb.build_D_row(idx),
            1.0 / math.sqrt(2.0 * idx.m / idx.n - 1.0))


def test_leading_batches_products_while_the_bulk_window_counts(
        householder_calls):
    T, drow, radius = _sbm_T()
    for M, kwargs in ((_bulk_operator(0.3), {"bulk_radius": 0.3}),
                      (T, {"inner": drow, "bulk_radius": radius})):
        assert M.shape[0] > spectra.SMALL_DIM
        with pytest.raises(InsufficientRealRitzError,
                           match="bulk disk") as info:
            nb.leading_real_eigenpairs(M, 2, **kwargs)
        found = info.value.found
        window = _bulk_window(M.shape[0])
        assert found.extractions < found.iterations
        assert (window <= found.iterations
                <= window + spectra.STABLE_WINDOW + spectra.WINDOW_PRODUCTS)
        assert found.values == pytest.approx([1.0], abs=1e-10)
        assert_ritz_contract(M, found)
    # the raw batched products keep the scaled CholeskyQR well conditioned
    assert householder_calls == []


def test_leading_work_counts_of_the_n2000_T_solves():
    # (iterations, extractions, block_size): the null solve stops at the
    # bulk disk, the main-regime one converges after a short window
    T, drow, radius = _sbm_T()
    with pytest.raises(InsufficientRealRitzError, match="bulk disk") as info:
        nb.leading_real_eigenpairs(T, 2, inner=drow, bulk_radius=radius)
    found = info.value.found
    assert (found.iterations, found.extractions, found.block_size) == (105, 27, 6)
    T, drow, radius = _sbm_T(a=16.0, b=4.0)
    res = nb.leading_real_eigenpairs(T, 2, inner=drow, bulk_radius=radius)
    assert (res.iterations, res.extractions, res.block_size) == (33, 18, 6)


def test_leading_forms_one_ritz_block_per_solve(monkeypatch):
    # the Ritz vectors and residuals, two row-norm passes, are formed only in
    # a sweep whose leading values have held; on these solves that is the
    # final sweep alone, however many extractions ran before it
    calls = []
    row_norms = spectra._row_norms

    def counted(X):
        calls.append(len(X))
        return row_norms(X)

    monkeypatch.setattr(spectra, "_row_norms", counted)
    T, drow, radius = _sbm_T()
    found = _found(T, 2, inner=drow, bulk_radius=radius)
    assert (found.iterations, found.extractions, found.block_size) == (105, 27, 6)
    assert len(calls) == 2
    T, drow, radius = _sbm_T(a=16.0, b=4.0)
    res = nb.leading_real_eigenpairs(T, 2, inner=drow, bulk_radius=radius)
    assert (res.iterations, res.extractions, res.block_size) == (33, 18, 6)
    assert len(calls) == 4
    g = nb.two_core(nb.sample(nb.SbmParams(n=40, k=2, a=11.0, b=9.0,
                                           seed=0)).graph)[0]
    idx = nb.oriented_edges(g)
    res = nb.leading_real_eigenpairs(
        nbmat.ihara_bass_companion(idx), 2,
        bulk_radius=spectra.bulk_disk_radius("B", 2.0 * idx.m / idx.n))
    assert res.extractions > 1
    assert len(calls) == 6


def _found(M, k, **kwargs):
    with pytest.raises(InsufficientRealRitzError) as info:
        nb.leading_real_eigenpairs(M, k, **kwargs)
    return info.value.found


def test_leading_results_never_alias_the_work_buffers():
    # a converged result, and the pairs found by the null early stop and by a
    # stall (800 products, through a grown block), each followed by a solve
    # on another operator: all stay as they were, with their own residuals
    T, drow, radius = _sbm_T(a=16.0, b=4.0)
    null_T, null_drow, null_radius = _sbm_T()
    M = _bulk_operator(0.3)
    solves = (
        (T, lambda: nb.leading_real_eigenpairs(T, 2, inner=drow,
                                               bulk_radius=radius)),
        (null_T, lambda: _found(null_T, 2, inner=null_drow,
                                bulk_radius=null_radius)),
        (M, lambda: _found(M, 2)),
        (None, lambda: nb.leading_real_eigenpairs(
            nb.build_T(nb.oriented_edges(k4())), 2)),
    )
    kept = []
    for op, solve in solves:
        res = solve()
        if op is not None:
            kept.append((op, res, [a.copy() for a in
                                   (res.values, res.vectors, res.residuals)]))
    assert [len(res.values) for _, res, _ in kept] == [2, 1, 1]
    for op, res, before in kept:
        after = (res.values, res.vectors, res.residuals)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
        # the vectors own their memory: no view into a larger block
        assert (res.vectors.base is None
                or res.vectors.base.nbytes == res.vectors.nbytes)
        assert_ritz_contract(op, res)


def test_null_T_solve_peaks_under_three_and_a_half_blocks():
    # the solve keeps three p x 2m blocks, and the start draw is freed before
    # the other two are allocated
    T, drow, radius = _sbm_T()
    block = 6 * T.shape[0] * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        found = _found(T, 2, inner=drow, bulk_radius=radius)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert found.block_size == 6
    assert peak <= 3.5 * block


def test_leading_counts_one_extraction_per_product_outside_the_window():
    M = _bulk_operator(0.3)
    with pytest.raises(InsufficientRealRitzError) as info:
        nb.leading_real_eigenpairs(M, 2)
    assert info.value.found.extractions == info.value.found.iterations == 800
    res = nb.leading_real_eigenpairs(_bulk_operator(0.3, extra=(0.36,)), 2)
    assert res.extractions == res.iterations == 77


def test_leading_bulk_radius_keeps_an_eigenvalue_outside_the_disk():
    M = _bulk_operator(0.3, extra=(1.2 * 0.3,))
    res = nb.leading_real_eigenpairs(M, 2, bulk_radius=0.3)
    assert res.values == pytest.approx([1.0, 0.36], abs=1e-10)
    assert_ritz_contract(M, res)


def test_leading_without_bulk_radius_spends_the_same_sweeps():
    # sweep counts of the block iteration before the early stop existed
    M = _bulk_operator(0.3)
    with pytest.raises(InsufficientRealRitzError,
                       match="^only 1 real Ritz value") as info:
        nb.leading_real_eigenpairs(M, 2)
    assert info.value.found.iterations == 800
    assert_ritz_contract(M, info.value.found)
    # -0.36 stabilizes but sits below the block's modulus floor, where a
    # larger real value could hide: the message names that, not a shortfall
    M = _bulk_operator(0.3, extra=(-1.2 * 0.3,))
    with pytest.raises(InsufficientRealRitzError,
                       match=r"^real Ritz value 2 \(-0\.36\) stabilized below "
                             r"the modulus floor 0\.29\d* of the block after "
                             r"800 sweeps") as info:
        nb.leading_real_eigenpairs(M, 2)
    assert info.value.found.values == pytest.approx([1.0, -0.36], abs=1e-10)
    assert info.value.found.iterations == 800
    assert_ritz_contract(M, info.value.found)
    M = _bulk_operator(0.3, extra=(1.2 * 0.3,))
    assert nb.leading_real_eigenpairs(M, 2).iterations == 77


@pytest.mark.parametrize("n, seed", [(220, 0), (250, 1)])
def test_small_companion_jumps_to_the_full_block_on_a_stall(n, seed):
    # below the threshold B has one real above 1, so asking its companion
    # for two stalls the first round; a companion of at most SMALL_DIM then
    # takes the full block at once, where Rayleigh-Ritz reads the exact
    # spectrum (a doubling ladder spent 2000 products here)
    g = nb.two_core(nb.sample(nb.SbmParams(n=n, k=2, a=11.0, b=9.0,
                                           seed=seed)).graph)[0]
    C = nbmat.ihara_bass_companion(nb.oriented_edges(g))
    assert C.shape[0] <= spectra.SMALL_DIM
    res = nb.leading_real_eigenpairs(C, 2, seed=0)
    assert res.block_size == C.shape[0]
    assert spectra.ROUND_SWEEPS < res.iterations < 2 * spectra.ROUND_SWEEPS
    mus = ihara_bass_eigenvalues(g)
    reals = np.sort(mus.real[np.abs(mus.imag) < 1e-8])[::-1]
    assert res.values[0] == pytest.approx(reals[0], rel=1e-10)
    assert res.values[1] == pytest.approx(1.0, abs=1e-10)
    assert_ritz_contract(C, res)


def _small_companion_short_by_one():
    """The Ihara-Bass companion of a null n=60 sample, asked for one real
    more than it has, with its reals in descending order."""
    g = nb.two_core(nb.sample(nb.SbmParams(n=60, k=2, a=11.0, b=9.0,
                                           seed=0)).graph)[0]
    C = nbmat.ihara_bass_companion(nb.oriented_edges(g))
    mus = np.linalg.eigvals(C.toarray())
    reals = np.sort(mus.real[np.abs(mus.imag) < 1e-8])[::-1]
    return C, len(reals) + 1, {"seed": 0}, reals


def test_full_block_round_ends_once_the_stability_window_is_full():
    # asked for one real more than the companion has, the first round stalls
    # and the full block reads every real exactly; further products at the
    # full block change nothing, so its stability window is one extraction
    # long and the round ends after it
    C, k, kwargs, reals = _small_companion_short_by_one()
    assert C.shape[0] <= spectra.SMALL_DIM
    with pytest.raises(InsufficientRealRitzError,
                       match=f"^only {len(reals)} real Ritz value") as info:
        nb.leading_real_eigenpairs(C, k, **kwargs)
    found = info.value.found
    assert found.block_size == C.shape[0]
    assert found.iterations <= spectra.ROUND_SWEEPS + 1
    assert found.values == pytest.approx(reals, abs=1e-8)
    assert_ritz_contract(C, found)


def _null_T_short_by_one():
    T, drow, radius = _sbm_T()
    # T is stochastic: its largest real eigenvalue is 1
    return T, 2, {"inner": drow, "bulk_radius": radius}, [1.0]


# each short exit: () -> (operator, k, solver arguments, its leading reals)
SHORT_EXITS = {
    "bulk disk stop": lambda: (_bulk_operator(0.3), 2, {"bulk_radius": 0.3},
                               [1.0]),
    "stall": lambda: (_bulk_operator(0.3), 2, {}, [1.0]),
    "below the floor": lambda: (_bulk_operator(0.3, extra=(-1.2 * 0.3,)), 2,
                                {}, [1.0, -0.36]),
    "full-block stall": _small_companion_short_by_one,
    "null T bulk disk stop": _null_T_short_by_one,
}


@pytest.mark.parametrize("case", list(SHORT_EXITS))
def test_a_short_exit_carries_the_leading_pairs_its_message_counts(case):
    # every short exit carries the j leading pairs of its final sweep, j as
    # the message names it ("only j real Ritz value(s)", or "real Ritz value
    # j" for the k-th stabilizing below the floor)
    M, k, kwargs, reals = SHORT_EXITS[case]()
    with pytest.raises(InsufficientRealRitzError) as info:
        nb.leading_real_eigenpairs(M, k, **kwargs)
    j = int(re.match(r"(?:only|real Ritz value) (\d+) ",
                     str(info.value)).group(1))
    found = info.value.found
    assert len(found.values) == j
    assert found.values == pytest.approx(reals[:j], abs=1e-8)
    assert_ritz_contract(M, found)


def _spy_on_solves(monkeypatch):
    """Record the result, or the pairs found, of every block iteration."""
    solve, seen = spectra.leading_real_eigenpairs, []

    def spy(*args, **kwargs):
        try:
            seen.append(solve(*args, **kwargs))
        except InsufficientRealRitzError as exc:
            seen.append(exc.found)
            raise
        return seen[-1]

    monkeypatch.setattr(spectra, "leading_real_eigenpairs", spy)
    return seen


def test_small_T_takes_the_full_block_once_the_bulk_window_fills(monkeypatch):
    # on a null sample the second Ritz value settles inside the bulk disk;
    # a T of dimension at most SMALL_DIM then takes the full block at once,
    # where one exact extraction reads every positive real, including those
    # inside the disk, instead of first spending a whole round of products
    g = nb.sample(nb.SbmParams(n=40, k=2, a=11.0, b=9.0, seed=0)).graph
    idx = nb.oriented_edges(g)
    assert 2 * idx.m <= spectra.SMALL_DIM
    seen = _spy_on_solves(monkeypatch)
    basis = nb.real_eigenbasis_T(idx, 2, mode="iterative", seed=0)
    [res] = seen
    assert res.block_size == 2 * idx.m
    assert res.iterations < spectra.ROUND_SWEEPS
    w = np.linalg.eigvals(nb.build_T(idx).toarray())
    reals = np.sort(w.real[(np.abs(w.imag) < 1e-8) & (w.real > 1e-10)])[::-1]
    assert basis.values == pytest.approx(reals[:2], abs=1e-10)


def test_small_companion_takes_the_full_block_at_the_bulk_disk(monkeypatch):
    # below the threshold the second real of B lies inside its bulk disk of
    # radius sqrt(c); given that radius, the small companion takes the full
    # block once the bulk window fills, not after a stalled round of
    # ROUND_SWEEPS products
    g = nb.sample(nb.SbmParams(n=40, k=2, a=11.0, b=9.0, seed=0)).graph
    idx = nb.oriented_edges(g)
    C = nbmat.ihara_bass_companion(idx)
    assert C.shape[0] <= spectra.SMALL_DIM
    seen = _spy_on_solves(monkeypatch)
    mus = spectra.leading_reals_B(idx, 2, seed=0)
    [res] = seen
    assert res.block_size == C.shape[0]
    assert res.iterations <= 50
    w = np.linalg.eigvals(C.toarray())
    reals = np.sort(w.real[np.abs(w.imag) < 1e-8])[::-1]
    assert mus == pytest.approx(reals[:2], rel=1e-8)


# (k, a, b): the criterion-8 regimes, each asked for its structural reals
CRITERION_8 = [(2, 16.0, 4.0), (1, 11.0, 9.0), (3, 24.0, 3.0)]


@pytest.mark.parametrize("k, a, b", CRITERION_8)
def test_bulk_radius_batches_extractions_but_changes_no_products(k, a, b):
    # the radius lets the solve batch products short of the predicted
    # convergence point; it must end on the same product with the same block
    # and values, in no more extractions
    for n in (100, 200, 300):
        for seed in range(3):
            g = nb.sample(nb.SbmParams(n=n, k=max(k, 2), a=a, b=b,
                                       seed=seed)).graph
            idx = nb.oriented_edges(g)
            c = 2.0 * idx.m / idx.n
            for M, kwargs, radius in (
                    (nbmat.T_operator(idx), {"inner": nb.build_D_row(idx)},
                     spectra.bulk_disk_radius("T", c)),
                    (nbmat.ihara_bass_companion(idx), {},
                     spectra.bulk_disk_radius("B", c))):
                free = nb.leading_real_eigenpairs(M, k, seed=seed, **kwargs)
                held = nb.leading_real_eigenpairs(M, k, seed=seed,
                                                  bulk_radius=radius, **kwargs)
                assert held.iterations == free.iterations
                assert held.block_size == free.block_size
                assert held.extractions <= free.extractions
                assert held.values == pytest.approx(free.values, rel=1e-12)


def test_leading_matches_dense_on_sbm():
    p = nb.SbmParams(n=120, k=2, a=16.0, b=4.0, seed=5)
    g = nb.sample(p).graph
    idx = nb.oriented_edges(g)
    T = nb.build_T(idx)
    res = nb.leading_real_eigenpairs(T, 2, inner=nb.build_D_row(idx), seed=1)
    spec, _ = nb.dense_eigendecomposition(T, source="T")
    dense_reals = np.sort(spec.real_values())[::-1][:2]
    assert np.max(np.abs(res.values - dense_reals)) <= 1e-8
    assert res.iterations == 32          # as before the bulk-disk early stop
    assert_ritz_contract(T, res)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_leading_on_the_matrix_free_T_matches_the_csr(seed):
    # EdgeOperator takes the row block as Q.T; the CSR product copies it
    idx = nb.oriented_edges(
        nb.sample(nb.SbmParams(n=300, k=2, a=16.0, b=4.0, seed=seed)).graph)
    drow = nb.build_D_row(idx)
    free = nb.leading_real_eigenpairs(nbmat.T_operator(idx), 2, inner=drow,
                                      seed=1)
    csr = nb.leading_real_eigenpairs(nb.build_T(idx), 2, inner=drow, seed=1)
    assert free.iterations == csr.iterations
    assert free.block_size == csr.block_size
    assert np.max(np.abs(free.values - csr.values)) <= 1e-12


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


def test_real_eigenbasis_shortfall_carries_the_smaller_basis():
    idx = nb.oriented_edges(k4())
    with pytest.raises(NotEnoughPositiveRealsError,
                       match="^only 4 positive real eigenvalues, wanted 11$"
                       ) as info:
        nb.real_eigenbasis_T(idx, 11)
    basis = info.value.basis
    assert basis.k == 4 and basis.Z.shape == (12, 4)
    assert np.allclose(basis.values, [1.0, 0.5, 0.5, 0.5], atol=1e-10)
    drow = nb.build_D_row(idx)
    assert np.max(np.abs(basis.Z.T @ (drow[:, None] * basis.Z)
                         - np.eye(4))) <= 1e-8
    assert np.max(np.abs(basis.Z.T @ basis.W - np.eye(4))) <= 1e-8


def test_basis_keeps_one_column_for_a_repeated_vector_in_a_cluster():
    # the 0.5 eigenspace of T on K4 has dimension three; a cluster that
    # carries one of its vectors twice has Gram rank one, so the basis keeps
    # one column for it, and two distinct vectors keep two
    idx = nb.oriented_edges(k4())
    T, drow = nb.build_T(idx), nb.build_D_row(idx)
    Z = nb.real_eigenbasis_T(idx, 4).Z
    vals = np.array([1.0, 0.5, 0.5])
    twice = spectra._basis_from_pairs(idx, T, drow, vals, Z[:, [0, 1, 1]], 3)
    assert twice.k == 2
    assert np.allclose(twice.values, [1.0, 0.5])
    assert np.allclose(np.abs(twice.Z[:, 1]), np.abs(Z[:, 1]), atol=1e-12)
    assert np.max(twice.diagnostics["eigen_residual"]) <= 1e-12
    assert np.max(np.abs(twice.Z.T @ (drow[:, None] * twice.Z)
                         - np.eye(2))) <= 1e-12
    distinct = spectra._basis_from_pairs(idx, T, drow, vals, Z[:, :3], 3)
    assert distinct.k == 3


def test_vanishing_reversal_pairing_raises_at_every_dimension():
    # z = e_0 - e_1 lies on the forward half, so z'Vz = 0 exactly, and on a
    # regular graph it is D_row-orthogonal to the constant vector; one graph
    # has 2m below the dense cap and the other above it
    n = 1700
    circulant = nb.from_edge_list(
        [(i, (i + s) % n) for i in range(n) for s in (1, 2)], n)
    for g in (petersen(), circulant):
        idx = nb.oriented_edges(g)
        z = np.zeros(2 * idx.m)
        z[:2] = 1.0, -1.0
        vecs = np.column_stack([np.ones(2 * idx.m), z])
        with pytest.raises(DegenerateBilinearFormError, match="pair 1$"):
            spectra._basis_from_pairs(idx, nbmat.T_operator(idx),
                                      nb.build_D_row(idx),
                                      np.array([1.0, 0.5]), vecs, 2)
    assert 2 * idx.m > spectra.DENSE_CAP


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


def test_spectrum_csv_shape():
    idx = nb.oriented_edges(k4())
    spec, _ = nb.dense_eigendecomposition(nb.build_B(idx), source="B")
    spec = nb.classify_spectrum(spec, c=3.0)
    text = spectra.spectrum_to_csv(spec)
    lines = text.strip().split("\n")
    assert lines[0] == "re,im,class"
    assert len(lines) == 13
    assert lines[1].split(",")[2] == "perron"
