"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; runtimes are asserted where the criterion pins them.

Criterion 6 carries one deliberately red sub-check: the reversal-pairing
identity z'Vz == -lambda holds only for eigenvectors whose per-node end-sums
vanish (regular-graph eigenspaces such as K4's).  For a D_row-normalized
eigenvector of T, z'Vz + lambda == lambda * sum_v E(v)^2 with E the per-node
end-sums, so on block-model samples the check fails by 0.63-0.67.  The check
is asserted faithfully at its stated tolerance and fails honestly; all
quantities it relies on are reported by the basis diagnostics.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp

import nbspectra as nb
from nbspectra import fileio, nbmat, perturb

from conftest import (
    ihara_bass_eigenvalues,
    k4,
    k23,
    k33,
    multiset_match_distance,
    petersen,
    random_tree,
    random_two_core,
)

K4_B_EIGS = np.array(
    [2, 1, 1, 1, -1, -1]
    + [(-1 + 1j * np.sqrt(7)) / 2] * 3
    + [(-1 - 1j * np.sqrt(7)) / 2] * 3, dtype=complex)


def report(num, ok, detail=""):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


@pytest.fixture(scope="session")
def suite1_graphs():
    graphs = [(f"random-{seed}", random_two_core(seed, n_max=40))
              for seed in range(100)]
    graphs += [("K4", k4()), ("K23", k23()), ("K33", k33()),
               ("Petersen", petersen())]
    return graphs


def _bit_equal(A, B):
    A, B = A.tocsr().copy(), B.tocsr().copy()
    for M in (A, B):
        M.sum_duplicates()
        M.sort_indices()
        M.eliminate_zeros()
    return (A.shape == B.shape and np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data))


def test_criterion_1_exact_identities(suite1_graphs):
    t0 = time.time()
    for name, g in suite1_graphs:
        idx = nb.oriented_edges(g)
        B = nb.build_B(idx)
        m = idx.m
        perm = np.concatenate([np.arange(m, 2 * m), np.arange(m)])
        assert _bit_equal(nbmat.transpose(B), nbmat.conjugate_by_V(B)), name
        BV = B.tocsr()[:, perm].tocsr()
        End = nb.build_End(idx)
        Start = nb.build_Start(idx)
        gram = (End @ End.T - sp.eye(2 * m, format="csr")).tocsr()
        gram.eliminate_zeros()
        assert _bit_equal(BV, gram), name
        D = np.diag(g.degrees.astype(float))
        assert np.array_equal((End.T @ End).toarray(), D), name
        assert np.array_equal((Start.T @ Start).toarray(), D), name
        T = nb.build_T(idx)
        ones = np.ones(2 * m)
        assert np.max(np.abs(T @ ones - 1.0)) <= 1e-12, name
        assert np.max(np.abs(T.T @ ones - 1.0)) <= 1e-12, name
        assert B.nnz == int(np.sum(g.degrees ** 2) - 2 * m), name
    elapsed = time.time() - t0
    ok = elapsed <= 10.0
    report(1, ok, f"exact identities on {len(suite1_graphs)} graphs "
                  f"({elapsed:.1f}s <= 10s)")
    assert ok


def test_criterion_2_ihara_bass_oracle(suite1_graphs):
    t0 = time.time()
    checked = 0
    worst = 0.0
    for name, g in suite1_graphs:
        if g.n > 20:
            continue
        B = nb.build_B(nb.oriented_edges(g))
        spec, _ = nb.dense_eigendecomposition(B, source="B")
        dist = multiset_match_distance(spec.values, ihara_bass_eigenvalues(g))
        worst = max(worst, dist)
        assert dist <= 1e-6, f"{name}: {dist}"
        checked += 1
    elapsed = time.time() - t0
    ok = elapsed <= 60.0 and checked > 0
    report(2, ok, f"eigenvalues of B match the degree-polynomial oracle on "
                  f"{checked} graphs, worst {worst:.2e} ({elapsed:.1f}s <= 60s)")
    assert ok


def test_criterion_3_spectrum_relations(suite1_graphs):
    # L == 1 - T as multisets
    for name, g in [("K4", k4()), ("K23", k23()), ("Petersen", petersen())]:
        idx = nb.oriented_edges(g)
        st, _ = nb.dense_eigendecomposition(nb.build_T(idx), source="T")
        sl, _ = nb.dense_eigendecomposition(nb.build_L(idx), source="L")
        assert multiset_match_distance(1.0 - st.values, sl.values) <= 1e-10
    # -1 exactly for the bipartite members, for no odd-girth member
    for g, bip in [(k23(), True), (k33(), True), (k4(), False),
                   (petersen(), False)]:
        spec, _ = nb.dense_eigendecomposition(
            nb.build_T(nb.oriented_edges(g)), source="T")
        assert (np.min(np.abs(spec.values + 1.0)) <= 1e-8) == bip
    # 0-multiplicity of L on two disjoint K4s
    two_k4 = nb.from_edge_list(
        [(i, j) for i in range(4) for j in range(i + 1, 4)]
        + [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)], 8)
    sl, _ = nb.dense_eigendecomposition(
        nb.build_L(nb.oriented_edges(two_k4)), source="L")
    assert int(np.sum(np.abs(sl.values) <= 1e-10)) == 2
    # 0 in spectrum(B) on trees, never on the 2-core suite
    for seed in range(20):
        tree = random_tree(seed)
        spec, _ = nb.dense_eigendecomposition(
            nb.build_B(nb.oriented_edges(tree)), source="B")
        assert np.min(np.abs(spec.values)) <= 1e-8
    for name, g in suite1_graphs:
        spec, _ = nb.dense_eigendecomposition(
            nb.build_B(nb.oriented_edges(g)), source="B")
        assert np.min(np.abs(spec.values)) > 1e-6, name
    report(3, True, "walk-Laplacian, bipartite, component, and tree relations")


def test_criterion_4_k4_reference_spectrum():
    idx = nb.oriented_edges(k4())
    spec_b, _ = nb.dense_eigendecomposition(nb.build_B(idx), source="B")
    db = multiset_match_distance(spec_b.values, K4_B_EIGS)
    spec_t, _ = nb.dense_eigendecomposition(nb.build_T(idx), source="T")
    dt = multiset_match_distance(spec_t.values, K4_B_EIGS / 2.0)
    sv = np.sort(np.linalg.svd(nb.build_B(idx).toarray(),
                               compute_uv=False))[::-1]
    dsv = float(np.max(np.abs(sv - np.array([2.0] * 4 + [1.0] * 8))))
    ok = db <= 1e-8 and dt <= 1e-8 and dsv <= 1e-8
    report(4, ok, f"K4 reference spectra (B {db:.1e}, T {dt:.1e}, "
                  f"singular values {dsv:.1e})")
    assert ok


def test_criterion_5_reversal_identity():
    worst = 0.0
    for seed in range(200):
        g = random_two_core(seed, n_max=8)
        idx = nb.oriented_edges(g)
        T = nb.build_T(idx)
        spec, V = nb.dense_eigendecomposition(T, want_vectors=True, source="T")
        for i, lam in enumerate(spec.values):
            if abs(lam.imag) > 1e-9 * (1.0 + abs(lam)):
                continue
            z = np.real(V[:, i])
            nz = np.linalg.norm(z)
            if nz == 0:
                continue
            ss, es = nb.node_sums(z, idx)
            worst = max(worst, float(np.max(np.abs(ss - lam.real * es)) / nz))
    ok = worst <= 1e-8
    report(5, ok, f"start-sums == lambda * end-sums over 200 small 2-cores, "
                  f"worst {worst:.2e}")
    assert ok


@pytest.fixture(scope="session")
def theorem1_runs():
    runs = []
    for seed in range(10):
        t0 = time.time()
        smp = nb.sample(nb.SbmParams(n=600, k=2, a=16.0, b=4.0, seed=seed))
        g = smp.graph
        idx = nb.oriented_edges(g)
        basis = nb.real_eigenbasis_T(idx, 2, mode="iterative", seed=seed)
        drow = nb.build_D_row(idx)
        gram_err = float(np.max(np.abs(
            basis.Z.T @ (drow[:, None] * basis.Z) - np.eye(2))))
        biorth_err = float(np.max(np.abs(basis.Z.T @ basis.W - np.eye(2))))
        pairing_dev = float(basis.diagnostics["pairing_deviation"][1])
        pairing_pred = float(basis.values[1] * np.sum(
            basis.diagnostics["end_sums"][1] ** 2))
        res = nb.leading_real_eigenpairs(nb.build_B(idx), 2, seed=seed)
        rep = perturb.bound_report(idx, basis, res.values, seed=seed)
        c = 2.0 * idx.m / idx.n
        threshold = 1.05 / np.sqrt(c - 1.0)
        runs.append({
            "seed": seed,
            "values": basis.values,
            "n_structural": int(np.sum(basis.values > threshold)),
            "gram_err": gram_err,
            "biorth_err": biorth_err,
            "pairing_dev": pairing_dev,
            "pairing_pred": pairing_pred,
            "deviations": [m["deviation"] for m in rep.matches],
            "R_paper": rep.R_paper,
            "elapsed": time.time() - t0,
        })
    return runs


def test_criterion_6a_structural_reals(theorem1_runs):
    ok = all(r["n_structural"] == 2 for r in theorem1_runs)
    report("6a", ok, "two positive structural real eigenvalues of T in 10/10 "
                     "seeds")
    assert ok


def test_criterion_6b_metric_orthonormality(theorem1_runs):
    worst = max(r["gram_err"] for r in theorem1_runs)
    ok = worst <= 1e-8
    report("6b", ok, f"max |Z' D_row Z - I| = {worst:.2e} <= 1e-8")
    assert ok


def test_criterion_6c_biorthonormality(theorem1_runs):
    worst = max(r["biorth_err"] for r in theorem1_runs)
    ok = worst <= 1e-8
    report("6c", ok, f"max |Z' W - I| = {worst:.2e} <= 1e-8")
    assert ok


def test_criterion_6d_reversal_pairing_identity(theorem1_runs):
    """Faithful check of z'Vz == -lambda_2 at 1e-6; red by mathematics.

    For any z, z'Bz == <S, E> - z'Vz with S and E the per-node start- and
    end-sums.  For a D_row-normalized eigenvector S == lambda * E
    (criterion 5) and z'Bz == lambda, hence

        z'Vz + lambda == lambda * sum_v E(v)^2,

    which vanishes only when the end-sums do (K4).  On these block-model
    samples the deviation is 0.63-0.67 and agrees with lambda_2 * ||E||^2
    to within about 5e-5, the remainder being the eigen-residual of the
    D_row projection against z_1.  z_2 of a simple eigenvalue is fixed up
    to sign by the normalization, so no choice of basis can pass this.
    """
    passes = sum(1 for r in theorem1_runs if r["pairing_dev"] <= 1e-6)
    devs = ", ".join(f"{r['pairing_dev']:.3f}" for r in theorem1_runs)
    preds = ", ".join(f"{r['pairing_pred']:.3f}" for r in theorem1_runs)
    ok = passes >= 9
    report("6d", ok, f"|z2'Vz2 + lambda2| <= 1e-6 in {passes}/10 seeds "
                     f"(deviations: {devs}; lambda2*||E||^2: {preds})")
    assert ok, ("reversal-pairing identity does not hold on SBM samples; "
                "deviations are reported by the basis diagnostics")


def test_criterion_6e_eigenvalue_matching(theorem1_runs):
    good = sum(1 for r in theorem1_runs
               if all(d <= r["R_paper"] for d in r["deviations"]))
    timing = max(r["elapsed"] for r in theorem1_runs)
    ok = good >= 9 and timing <= 300.0
    report("6e", ok, f"|lambda_i - mu_i/mu_1| <= closed-form R in {good}/10 "
                     f"seeds (max {timing:.1f}s/seed <= 300s)")
    assert ok


def test_criterion_7_iterative_vs_dense():
    graphs = [k4(), k33(), petersen()]
    graphs += [random_two_core(seed, n_max=14, c=5.0) for seed in range(9)]
    for seed in range(8):
        smp = nb.sample(nb.SbmParams(n=80, k=2, a=16.0, b=4.0, seed=seed))
        graphs.append(smp.graph)
    worst = 0.0
    checked = 0
    for g in graphs:
        idx = nb.oriented_edges(g)
        if 2 * idx.m > 1000:
            continue
        T = nb.build_T(idx)
        res = nb.leading_real_eigenpairs(T, 2, seed=0)
        spec, _ = nb.dense_eigendecomposition(T, source="T")
        dense_reals = np.sort(spec.real_values())[::-1][:2]
        worst = max(worst, float(np.max(np.abs(res.values - dense_reals))))
        checked += 1
    ok = worst <= 1e-6 and checked >= 20
    report(7, ok, f"block iteration matches dense on {checked} graphs, "
                  f"worst {worst:.2e} <= 1e-6")
    assert ok


def _median_overlap(n, k, a, b, seeds):
    overlaps, slowest = [], 0.0
    for seed in seeds:
        t0 = time.time()
        rep = nb.pipeline(nb.SbmParams(n=n, k=k, a=a, b=b, seed=seed), k,
                          mode="edge_vote", seed=seed)
        overlaps.append(rep["overlap"])
        slowest = max(slowest, time.time() - t0)
    return float(np.median(overlaps)), overlaps, slowest


def test_criterion_8_clustering():
    med_main, ov_main, t_main = _median_overlap(2000, 2, 16.0, 4.0, range(10))
    med_null, ov_null, t_null = _median_overlap(2000, 2, 11.0, 9.0, range(10))
    med_k3, ov_k3, t_k3 = _median_overlap(2000, 3, 24.0, 3.0, range(10))
    slowest = max(t_main, t_null, t_k3)
    ok = (med_main >= 0.5 and med_null <= 0.15 and med_k3 >= 0.3
          and slowest <= 600.0)
    report(8, ok, f"median overlaps: main {med_main:.3f} >= 0.5, "
                  f"null {med_null:.3f} <= 0.15, k3 {med_k3:.3f} >= 0.3 "
                  f"(max {slowest:.0f}s/seed <= 600s)")
    assert med_main >= 0.5, ov_main
    assert med_null <= 0.15, ov_null
    assert med_k3 >= 0.3, ov_k3
    assert slowest <= 600.0


def _run_cli(args, cwd):
    """Run ``python -m nbspectra.cli`` in ``cwd`` and require exit code 0.

    The child imports ``nbspectra`` from the same directory as this test
    process, whatever ``cwd`` is and whether PYTHONPATH is relative.
    """
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(nb.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_parent] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "nbspectra.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, (
        f"nbspectra.cli {' '.join(args)} exited with {proc.returncode}:\n"
        f"{proc.stderr}")


def test_criterion_9_cli_determinism(tmp_path):
    k4_path = tmp_path / "k4.tsv"
    fileio.write_text_atomic(str(k4_path), fileio.graph_to_text(k4()))
    gen_dir = tmp_path / "gen"
    _run_cli(["gen", "--n", "300", "--k", "2", "--a", "16", "--b", "4",
              "--seed", "5", "--out-dir", str(gen_dir)], tmp_path)

    def run_twice(args, out_name):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{out_name}.{tag}"
            _run_cli(args + ["--out", str(out)], tmp_path)
            with open(out, "rb") as fh:
                outs.append(fh.read())
        return outs[0] == outs[1]

    checks = {
        "spectrum-dense": run_twice(
            ["spectrum", "--graph", str(k4_path), "--matrix", "B"], "sd"),
        "spectrum-iter": run_twice(
            ["spectrum", "--graph", str(k4_path), "--matrix", "T",
             "--mode", "iterative", "--k", "2", "--seed", "3"], "si"),
        "verify": run_twice(
            ["verify", "--graph", str(k4_path)], "vf"),
        "bound": run_twice(
            ["bound", "--graph", str(k4_path), "--k", "2", "--seed", "3"],
            "bd"),
        "cluster": run_twice(
            ["cluster", "--graph", str(gen_dir / "graph.tsv"), "--k", "2",
             "--truth", str(gen_dir / "labels.tsv"), "--seed", "5"], "cl"),
        "pipeline": run_twice(
            ["pipeline", "--n", "200", "--a", "16", "--b", "4", "--k", "2",
             "--seed", "9"], "pl"),
    }
    gen2 = tmp_path / "gen2"
    _run_cli(["gen", "--n", "300", "--k", "2", "--a", "16", "--b", "4",
              "--seed", "5", "--out-dir", str(gen2)], tmp_path)
    same = all(
        open(gen_dir / f, "rb").read() == open(gen2 / f, "rb").read()
        for f in ("graph.tsv", "labels.tsv", "meta.json"))
    checks["gen"] = same
    ok = all(checks.values())
    report(9, ok, "byte-identical reruns: "
           + ", ".join(f"{k}={'ok' if v else 'DIFF'}"
                       for k, v in sorted(checks.items())))
    assert ok
