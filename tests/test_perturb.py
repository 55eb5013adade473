import numpy as np
import pytest

import nbspectra as nb
from nbspectra import perturb
from nbspectra.errors import (
    BadParameterError,
    CountMismatchError,
    RankDeficientError,
)

from conftest import k4, petersen, rank_k_section


def test_condition_number_identity():
    assert nb.spectral_condition_number(np.eye(4)) == pytest.approx(1.0)


def test_condition_number_diag():
    assert nb.spectral_condition_number(np.diag([2.0, 1.0])) == pytest.approx(2.0)


def test_condition_number_permuted_orthonormal_block():
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    Q = Q[:, [2, 0, 1]]
    assert nb.spectral_condition_number(Q) == pytest.approx(1.0, abs=1e-10)


def test_condition_number_rank_deficient():
    U = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(RankDeficientError):
        nb.spectral_condition_number(U)


def test_bauer_fike_zero_perturbation():
    A = np.diag([1.0, 0.0])
    assert nb.bauer_fike_radius(np.eye(2), A, A) == pytest.approx(0.0, abs=1e-12)


def test_bauer_fike_diagonal_example():
    A = np.diag([1.0, 0.0])
    Bp = np.diag([1.1, 0.0])
    assert nb.bauer_fike_radius(np.eye(2), A, Bp) == pytest.approx(0.1, rel=1e-9)


def test_bauer_fike_k4_rank_k_section():
    g = k4()
    idx = nb.oriented_edges(g)
    basis = nb.real_eigenbasis_T(idx, 2)
    B = nb.build_B(idx)
    R = nb.bauer_fike_radius(basis.Z, B.toarray() / 2.0,
                             rank_k_section(basis))
    assert R >= 0
    # regular graph: T = B/2 shares eigenvectors with B, deviations vanish
    rep = nb.match_and_verify(basis.values, np.array([2.0, 1.0]), R,
                              d_min=3, d_max=3)
    assert np.max(rep.deviations) <= 1e-10
    assert bool(np.all(rep.within_R))
    assert rep.mu1_sane


def test_paper_R_bound_k4():
    raw, closed = nb.paper_R_bound(3, 3, 3.0, 0.5)
    assert closed == pytest.approx(0.5)
    assert raw == pytest.approx(0.5)        # ratio=1: 1*(0 + 0.5)


def test_paper_R_bound_irregular():
    _, closed = nb.paper_R_bound(8, 12, 10.0, 0.3)
    assert closed == pytest.approx((11 / 7) * (4 / 7) + 1 / 7)
    assert closed == pytest.approx(51 / 49)


def test_paper_R_bound_boundary_and_errors():
    raw, _ = nb.paper_R_bound(5, 5, 6.0, 0.0)
    assert raw == pytest.approx(0.0)
    with pytest.raises(BadParameterError):
        nb.paper_R_bound(1, 3, 4.0, 0.5)
    with pytest.raises(BadParameterError):
        nb.paper_R_bound(3, 3, 0.5, 0.5)
    with pytest.raises(BadParameterError):
        nb.paper_R_bound(3, 3, 4.0, 1.5)


def test_paper_R_bound_monotonicity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d_min = int(rng.integers(2, 8))
        d_max = d_min + int(rng.integers(0, 8))
        c = float(rng.uniform(1.5, 12.0))
        lam = float(rng.uniform(0.0, 1.0))
        raw, closed = nb.paper_R_bound(d_min, d_max, c, lam)
        raw_up, closed_up = nb.paper_R_bound(d_min, d_max + 1, c, lam)
        assert raw_up >= raw - 1e-12 and closed_up >= closed - 1e-12
        raw_lam, _ = nb.paper_R_bound(d_min, d_max, c, min(1.0, lam + 0.1))
        assert raw_lam >= raw - 1e-12
        if d_min + 1 <= d_max:
            raw_dm, closed_dm = nb.paper_R_bound(d_min + 1, d_max, c, lam)
            assert raw_dm <= raw + 1e-12 and closed_dm <= closed + 1e-12


def test_match_and_verify_errors_and_sanity():
    with pytest.raises(CountMismatchError):
        nb.match_and_verify([1.0], [2.0, 1.0], 0.5, d_min=3, d_max=3)
    with pytest.raises(BadParameterError):                 # not decreasing
        nb.match_and_verify([0.5, 1.0], [2.0, 1.0], 0.5, d_min=3, d_max=3)
    rep = nb.match_and_verify([1.0, 0.5], [5.0, 2.0], 0.5, d_min=3, d_max=4)
    assert rep.mu1_sane is False                           # 5 > d_max - 1


def test_mu1_sanity_allows_the_eigensolver_rounding():
    # the dense mu_1 of the 3-regular K4 is 2.0000000000000004
    rep = nb.match_and_verify([1.0], [2.0000000000000004], 0.5, d_min=3, d_max=3)
    assert rep.mu1_sane is True
    rep = nb.match_and_verify([1.0], [2.0 + 1e-6], 0.5, d_min=3, d_max=3)
    assert rep.mu1_sane is False


def test_bound_report_k4():
    g = k4()
    idx = nb.oriented_edges(g)
    basis = nb.real_eigenbasis_T(idx, 2)
    rep = nb.bound_report(idx, basis, np.array([2.0, 1.0]))
    assert rep.R_paper == pytest.approx(0.5)
    assert rep.kappa_numeric == pytest.approx(1.0, abs=1e-9)
    assert rep.kappa_bound_ratio == pytest.approx(1.0)
    assert all(m["deviation"] <= 1e-10 for m in rep.matches)
    assert all(m["within_R"] for m in rep.matches)


def test_kappa_bounds_reported_on_petersen():
    g = petersen()
    idx = nb.oriented_edges(g)
    basis = nb.real_eigenbasis_T(idx, 2)
    rep = nb.bound_report(idx, basis, np.array([2.0, 1.0]))
    # 3-regular: both degree-based bounds are exact here
    assert rep.kappa_numeric <= rep.kappa_bound_ratio + 1e-9
