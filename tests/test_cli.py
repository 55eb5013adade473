import argparse
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import nbspectra as nb
from nbspectra import cli, cluster, errors, fileio, spectra, verify
from nbspectra.cli import main
from nbspectra.errors import DimensionCapError

from conftest import k4, petersen_with_tails


def write_k4(tmp_path, name="k4.tsv"):
    path = tmp_path / name
    fileio.write_text_atomic(str(path), fileio.graph_to_text(k4()))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_gen_deterministic(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        rc = main(["gen", "--n", "300", "--k", "2", "--a", "16", "--b", "4",
                   "--seed", "7", "--out-dir", str(d)])
        assert rc == 0
    for name in ("graph.tsv", "labels.tsv", "meta.json"):
        assert read_bytes(d1 / name) == read_bytes(d2 / name)
    meta = json.loads(read_bytes(d1 / "meta.json"))
    assert meta["snr"] == 3.6


def test_gen_rejects_disassortative(tmp_path):
    rc = main(["gen", "--n", "100", "--k", "2", "--a", "4", "--b", "16",
               "--out-dir", str(tmp_path)])
    assert rc == 2


def test_spectrum_k4_dense(tmp_path):
    graph = write_k4(tmp_path)
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--graph", graph, "--matrix", "B",
               "--out", str(out)])
    assert rc == 0
    lines = read_bytes(out).decode().strip().split("\n")
    assert lines[0] == "re,im,class"
    assert len(lines) == 13


def test_spectrum_k4_BV_values(tmp_path):
    graph = write_k4(tmp_path)
    out = tmp_path / "bv.csv"
    assert main(["spectrum", "--graph", graph, "--matrix", "BV",
                 "--out", str(out)]) == 0
    rows = read_bytes(out).decode().strip().split("\n")[1:]
    vals = sorted(float(r.split(",")[0]) for r in rows)
    assert vals == pytest.approx([-1.0] * 8 + [2.0] * 4)


def test_spectrum_path_graph_T_exit_2(tmp_path):
    path = tmp_path / "p3.tsv"
    fileio.write_text_atomic(str(path),
                             fileio.graph_to_text(
                                 nb.from_edge_list([(0, 1), (1, 2)], 3)))
    assert main(["spectrum", "--graph", str(path), "--matrix", "T"]) == 2


def test_spectrum_iterative_too_many_reals_exit_4(tmp_path):
    # T of K4 has only 6 real eigenvalues; asking for 9 cannot stabilize
    graph = write_k4(tmp_path)
    out = tmp_path / "x.csv"
    rc = main(["spectrum", "--graph", graph, "--matrix", "T",
               "--mode", "iterative", "--k", "9", "--out", str(out)])
    assert rc == 4


def test_spectrum_iterative_L_solves_T_for_the_smallest_reals(tmp_path):
    # the largest reals of L = I - T lie in the bulk, where the iteration
    # cannot separate them; its smallest reals are 1 - the leading reals of T.
    # 2m is above SMALL_DIM, so the T solve does not take the full block
    assert main(["gen", "--n", "60", "--a", "16", "--b", "4", "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 0
    graph = str(tmp_path / "graph.tsv")
    assert 2 * fileio.read_graph(graph).m > spectra.SMALL_DIM
    dense, iterative = tmp_path / "dense.csv", tmp_path / "iterative.csv"
    assert main(["spectrum", "--graph", graph, "--matrix", "L",
                 "--out", str(dense)]) == 0
    assert main(["spectrum", "--graph", graph, "--matrix", "L",
                 "--mode", "iterative", "--k", "2", "--out", str(iterative)]) == 0

    def rows(path):
        return [r.split(",") for r in read_bytes(path).decode().split()[1:]]

    got = [float(re) for re, im, _ in rows(iterative)]
    assert got == sorted(got, reverse=True)
    reals = sorted(float(re) for re, _, cls in rows(dense)
                   if cls != spectra.COMPLEX_BULK)
    assert sorted(got) == pytest.approx(reals[:2], abs=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectrum_iterative_B_matches_the_dense_leading_reals(seed, tmp_path):
    # the iterative mode solves the Ihara-Bass companion, whose reals above 1
    # are those of B
    assert main(["gen", "--n", "60", "--a", "16", "--b", "4", "--seed",
                 str(seed), "--out-dir", str(tmp_path)]) == 0
    graph = str(tmp_path / "graph.tsv")
    dense, iterative = tmp_path / "dense.csv", tmp_path / "iterative.csv"
    assert main(["spectrum", "--graph", graph, "--matrix", "B",
                 "--out", str(dense)]) == 0
    assert main(["spectrum", "--graph", graph, "--matrix", "B",
                 "--mode", "iterative", "--k", "2", "--out", str(iterative)]) == 0

    def rows(path):
        return [r.split(",") for r in read_bytes(path).decode().split()[1:]]

    got = [float(re) for re, _, _ in rows(iterative)]
    reals = sorted((float(re) for re, im, _ in rows(dense) if float(im) == 0),
                   reverse=True)
    assert got == pytest.approx(reals[:2], rel=1e-8)


def test_verify_k4_all_suites(tmp_path):
    graph = write_k4(tmp_path)
    out = tmp_path / "v.json"
    rc = main(["verify", "--graph", graph, "--out", str(out)])
    assert rc == 0
    report = json.loads(read_bytes(out))
    assert report["pass"] is True
    assert all(f["pass"] for f in report["findings"])


def test_verify_k33_sums_diagnostic_informational(tmp_path):
    # the -1 eigenpair of K_{3,3} has nonvanishing end-sums; the suite must
    # record that as information and still exit 0
    from conftest import k33
    path = tmp_path / "k33.tsv"
    fileio.write_text_atomic(str(path), fileio.graph_to_text(k33()))
    out = tmp_path / "v.json"
    assert main(["verify", "--graph", str(path), "--suites", "sums",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        report = json.load(fh)
    assert report["pass"] is True
    info = [f for f in report["findings"] if f["informational"]]
    assert info and max(f["residual"] for f in info) > 1e-3


def test_verify_components_cycle_and_plain():
    k4_edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    # a triangle component is a cycle: L's 0-multiplicity is informational
    tri_k4 = nb.from_edge_list(
        [(0, 1), (0, 2), (1, 2)] + [(3 + i, 3 + j) for i, j in k4_edges], 7)
    ok, findings = verify.run_suites(tri_k4, ["components"])
    assert ok and findings == [{
        "suite": "components",
        "check": "0-multiplicity of L (cycle component present)",
        "residual": 3.0, "tolerance": None, "pass": True,
        "informational": True}]
    two_k4 = nb.from_edge_list(
        k4_edges + [(4 + i, 4 + j) for i, j in k4_edges], 8)
    ok, findings = verify.run_suites(two_k4, ["components"])
    assert ok and findings == [{
        "suite": "components",
        "check": "0-multiplicity of L == number of components",
        "residual": 0.0, "tolerance": 0.0, "pass": True,
        "informational": False}]


def test_verify_pt_stays_sparse_on_many_nodes():
    # K4 plus 3000 isolated nodes: one dense n x n degree matrix takes 72 MB
    g = nb.from_edge_list(k4().edges, 3004)
    tracemalloc.start()
    try:
        ok, findings = verify.run_suites(g, ["pt"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and len(findings) == 7
    assert peak < 20e6


def test_verify_builds_one_index_and_one_decomposition(monkeypatch):
    g = nb.sample(nb.SbmParams(n=40, k=2, a=16.0, b=4.0, seed=0)).graph
    decompose, index = spectra.dense_eigendecomposition, verify.oriented_edges
    vectors, indexes = [], []

    def spy_decompose(M, want_vectors=False, source=""):
        vectors.append(want_vectors)
        return decompose(M, want_vectors, source)

    def spy_index(graph):
        indexes.append(graph)
        return index(graph)

    monkeypatch.setattr(spectra, "dense_eigendecomposition", spy_decompose)
    monkeypatch.setattr(verify, "oriented_edges", spy_index)
    ok, _ = verify.run_suites(g)
    assert ok and vectors == [True] and len(indexes) == 1
    vectors.clear()
    verify.run_suites(g, ["bipartite", "components"])
    assert vectors == [False]


def test_verify_corrupt_file_exit_3(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\t1\n")          # missing n= header
    assert main(["verify", "--graph", str(bad)]) == 3
    assert main(["verify", "--graph", str(tmp_path / "missing.tsv")]) == 3


def test_verify_graph_without_nodes_exit_2(tmp_path, capsys):
    # exit 1 means a check failed; a graph with no nodes has no T to check
    path = tmp_path / "g0.tsv"
    fileio.write_text_atomic(str(path),
                             fileio.graph_to_text(nb.from_edge_list([], 0)))
    assert read_bytes(path).startswith(b"# n=0")
    for suites in ([], ["--suites", "stochastic"], ["--suites", "bipartite"]):
        assert main(["verify", "--graph", str(path)] + suites) == 2
        assert "graph has no nodes" in capsys.readouterr().err


def test_verify_dimension_cap_exit_2(tmp_path, monkeypatch):
    # K4 has 2m = 12; the dense suites must refuse to densify above the cap,
    # which they read at call time
    monkeypatch.setattr(spectra, "DENSE_CAP", 11)
    graph = write_k4(tmp_path)
    for suite in ("theorem1", "sums", "bipartite", "components"):
        with pytest.raises(DimensionCapError):
            verify.run_suites(k4(), [suite])
        assert main(["verify", "--graph", graph, "--suites", suite]) == 2


def test_verify_svd_runs_past_the_dense_cap(tmp_path, monkeypatch):
    # the svd suite checks B V = End End^T - I sparsely, so no cap applies
    monkeypatch.setattr(spectra, "DENSE_CAP", 11)
    ok, findings = verify.run_suites(k4(), ["svd"])
    assert ok and [f["check"] for f in findings] == [
        "extreme eigenvalues of B V match closed form",
        "-1 multiplicity of B V == 2m - n"]
    graph = write_k4(tmp_path)
    assert main(["verify", "--graph", graph, "--suites", "svd"]) == 0
    # two isolated nodes: End has rank n - 2, so -1 is 2 short of 2m - n
    ok, findings = verify.run_suites(petersen_with_tails(), ["svd"])
    assert not ok and findings[1]["residual"] == 2.0
    # 2m < n: the closed form fails its checks instead of raising
    ok, findings = verify.run_suites(nb.from_edge_list([(0, 1)], 3), ["svd"])
    assert [f["residual"] for f in findings] == [1.0, 1.0]


# the exit codes of the package errors, as the CLI has always mapped them
PARSE_ERRORS = {"GraphFormatError"}
NUMERIC_ERRORS = {"NoConvergenceError", "InsufficientRealRitzError",
                  "NotEnoughPositiveRealsError", "DegenerateBilinearFormError"}
PACKAGE_ERRORS = [c for c in vars(errors).values()
                  if isinstance(c, type) and issubclass(c, errors.NbspectraError)]


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda c: c.__name__)
def test_package_error_exit_codes(error, monkeypatch, capsys):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_verify", fail)
    expected = (3 if error.__name__ in PARSE_ERRORS
                else 4 if error.__name__ in NUMERIC_ERRORS else 2)
    assert main(["verify", "--graph", "unused.tsv"]) == expected
    assert capsys.readouterr().err == "error: boom\n"


def test_bound_k4(tmp_path):
    graph = write_k4(tmp_path)
    out = tmp_path / "b.json"
    assert main(["bound", "--graph", graph, "--k", "2",
                 "--out", str(out)]) == 0
    rep = json.loads(read_bytes(out))
    assert rep["R_paper"] == 0.5
    assert all(m["deviation"] <= 1e-10 for m in rep["matches"])
    assert all(m["within_R"] for m in rep["matches"])


def test_bound_reports_the_mu1_sanity_check(tmp_path):
    # mu_1 of B lies in [d_min - 1, d_max - 1]: 2 on the 3-regular K4
    graph = write_k4(tmp_path)
    out = tmp_path / "b.json"
    assert main(["bound", "--graph", graph, "--out", str(out)]) == 0
    rep = json.loads(read_bytes(out))
    assert rep["mu1_sane"] is True
    assert list(rep)[-1] == "mu1_sane"


def test_bound_and_pipeline_take_no_dense_solve(tmp_path, monkeypatch):
    # both solve T and B iteratively at every size, n=40 included
    def dense(*args, **kwargs):
        raise AssertionError("dense eigendecomposition called")

    monkeypatch.setattr(spectra, "dense_eigendecomposition", dense)
    p = nb.SbmParams(n=40, k=2, a=16.0, b=4.0, seed=3)
    rep = nb.pipeline(p, 2, seed=3)
    assert rep["R_paper"] is not None
    graph = str(tmp_path / "graph.tsv")
    fileio.write_text_atomic(graph, fileio.graph_to_text(nb.sample(p).graph))
    assert main(["bound", "--graph", graph, "--k", "2", "--seed", "3",
                 "--out", str(tmp_path / "b.json")]) == 0
    assert json.loads(read_bytes(tmp_path / "b.json"))["R_paper"] == \
        rep["R_paper"]


def test_cluster_with_truth_overlap_range(tmp_path):
    d = tmp_path / "gen"
    assert main(["gen", "--n", "300", "--k", "2", "--a", "16", "--b", "4",
                 "--seed", "5", "--out-dir", str(d)]) == 0
    out = tmp_path / "rep.json"
    assign = tmp_path / "assign.tsv"
    rc = main(["cluster", "--graph", str(d / "graph.tsv"), "--k", "2",
               "--truth", str(d / "labels.tsv"), "--assign", str(assign),
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    rep = json.loads(read_bytes(out))
    assert -1.0 <= rep["overlap"] <= 1.0
    labels = fileio.read_labels(str(assign))
    g = fileio.read_graph(str(d / "graph.tsv"))
    assert len(labels) == g.n


def test_cluster_run_loads_no_scipy_optimize(tmp_path):
    # the package needs only scipy.sparse, its linalg and csgraph; the check
    # runs in a fresh process, because conftest imports scipy.optimize here
    graph = write_k4(tmp_path)
    truth = str(tmp_path / "truth.tsv")
    fileio.write_text_atomic(truth, fileio.labels_to_text([0, 0, 1, 1]))
    args = ["cluster", "--graph", graph, "--k", "2", "--truth", truth,
            "--out", str(tmp_path / "rep.json")]
    code = ("import sys\n"
            "import nbspectra, nbspectra.cli\n"
            "assert 'scipy.optimize' not in sys.modules, 'on import'\n"
            f"assert nbspectra.cli.main({args!r}) == 0\n"
            "assert 'scipy.optimize' not in sys.modules, 'after cluster'\n")
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(nb.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_parent] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(read_bytes(tmp_path / "rep.json"))["overlap"] is not None


def test_cluster_assign_onto_a_directory_exit_3_leaves_no_temp(tmp_path,
                                                               capsys):
    graph = write_k4(tmp_path)
    (tmp_path / "assign").mkdir()
    assert main(["cluster", "--graph", graph, "--k", "2",
                 "--assign", str(tmp_path / "assign"),
                 "--out", str(tmp_path / "rep.json")]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not [p.name for p in tmp_path.iterdir() if ".tmp." in p.name]


@pytest.mark.parametrize("bad", [2, -1])
def test_cluster_truth_label_outside_k_exit_2(bad, tmp_path, capsys):
    graph = write_k4(tmp_path)
    truth = str(tmp_path / "truth.tsv")
    fileio.write_text_atomic(truth, fileio.labels_to_text([0, 0, 1, bad]))
    assert main(["cluster", "--graph", graph, "--k", "2", "--truth", truth,
                 "--out", str(tmp_path / "rep.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: true labels must lie in [0, 2)")
    assert "Traceback" not in err


@pytest.mark.parametrize("k, truth, message", [
    (1, None, "k must be at least 2, got 1"),
    (2, [0, 0, 1, 2], "true labels must lie in [0, 2), got 0 to 2"),
])
def test_pipeline_rejects_unscorable_truth_before_the_solve(
        k, truth, message, tmp_path, capsys, monkeypatch):
    # the planted labels of a model, or a truth file: either fails with
    # overlap's message before the eigenbasis is solved
    def unreached(*args, **kwargs):
        raise AssertionError("the eigenbasis was solved")

    monkeypatch.setattr(spectra, "real_eigenbasis_T", unreached)
    if truth is None:
        source = ["--n", "300"]
    else:
        path = str(tmp_path / "truth.tsv")
        fileio.write_text_atomic(path, fileio.labels_to_text(truth))
        source = ["--graph", write_k4(tmp_path), "--truth", path]
    assert main(["pipeline", *source, "--k", str(k)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bound_and_cluster_agree(tmp_path):
    # both commands report the same eigenbasis, B reals and closed-form radius
    for seed in ("3", "4"):
        d = tmp_path / f"gen{seed}"
        assert main(["gen", "--n", "40", "--k", "2", "--a", "16", "--b", "4",
                     "--seed", seed, "--out-dir", str(d)]) == 0
        graph = str(d / "graph.tsv")
        b_out, c_out = d / "bound.json", d / "cluster.json"
        assert main(["bound", "--graph", graph, "--k", "2", "--seed", seed,
                     "--out", str(b_out)]) == 0
        assert main(["cluster", "--graph", graph, "--k", "2", "--seed", seed,
                     "--truth", str(d / "labels.tsv"),
                     "--assign", str(d / "assign.tsv"),
                     "--out", str(c_out)]) == 0
        bound = json.loads(read_bytes(b_out))
        clus = json.loads(read_bytes(c_out))
        assert len(bound["matches"]) == len(clus["lambda"]) == 2
        for i, match in enumerate(bound["matches"]):
            assert clus["lambda"][i] == match["lambda"]
            assert clus["mu"][i] / clus["mu"][0] == match["mu_over_mu1"]
        assert clus["R_paper"] == bound["R_paper"]


def test_cluster_and_pipeline_take_one_two_core_and_agree(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    g = petersen_with_tails()
    graph, truth = str(tmp_path / "g.tsv"), str(tmp_path / "truth.tsv")
    short = str(tmp_path / "short.tsv")
    fileio.write_text_atomic(graph, fileio.graph_to_text(g))
    fileio.write_text_atomic(truth, fileio.labels_to_text(np.arange(g.n) % 2))
    fileio.write_text_atomic(short, fileio.labels_to_text(np.zeros(g.n - 1)))
    calls = []

    def counted(h):
        calls.append(h.n)
        return nb.two_core(h)

    monkeypatch.setattr(cli, "two_core", counted)
    monkeypatch.setattr(cluster, "two_core", counted)
    reports = []
    for command in ("cluster", "pipeline"):
        calls.clear()
        out = tmp_path / f"{command}.json"
        assert main([command, "--graph", graph, "--k", "2", "--truth", truth,
                     "--seed", "1", "--out", str(out)]) == 0
        assert calls == [g.n]
        reports.append(read_bytes(out))
        assert main([command, "--graph", graph, "--k", "2",
                     "--truth", short]) == 2
        assert "truth" in capsys.readouterr().err
    assert reports[0] == reports[1]


def test_pipeline_deflate_k4_fallback(tmp_path):
    graph = write_k4(tmp_path)
    out = tmp_path / "rep.json"
    assert main(["pipeline", "--graph", graph, "--k", "2",
                 "--mode", "deflate", "--out", str(out)]) == 0
    rep = json.loads(read_bytes(out))
    assert rep["fallback"] is True


def test_pipeline_deterministic_bytes(tmp_path):
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["pipeline", "--n", "200", "--a", "16", "--b", "4", "--k", "2",
            "--seed", "9"]
    assert main(args + ["--out", str(o1)]) == 0
    assert main(args + ["--out", str(o2)]) == 0
    assert read_bytes(o1) == read_bytes(o2)


def test_seed_env_var(tmp_path, monkeypatch):
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    monkeypatch.setenv("NBSPECTRA_SEED", "21")
    assert main(["gen", "--n", "120", "--a", "8", "--b", "2",
                 "--out-dir", str(d1)]) == 0
    monkeypatch.delenv("NBSPECTRA_SEED")
    assert main(["gen", "--n", "120", "--a", "8", "--b", "2", "--seed", "21",
                 "--out-dir", str(d2)]) == 0
    assert main(["gen", "--n", "120", "--a", "8", "--b", "2", "--seed", "22",
                 "--out-dir", str(d3)]) == 0
    assert read_bytes(d1 / "graph.tsv") == read_bytes(d2 / "graph.tsv")
    assert read_bytes(d1 / "graph.tsv") != read_bytes(d3 / "graph.tsv")


def test_main_twice_in_one_process_matches_fresh_processes(tmp_path,
                                                          monkeypatch):
    # the parser is built once per process, but each call reads its own
    # arguments and NBSPECTRA_SEED
    runs = [(["gen", "--n", "60", "--a", "16", "--b", "4", "--out-dir", "{}"],
             "3", ["graph.tsv", "labels.tsv", "meta.json"]),
            (["pipeline", "--n", "60", "--a", "11", "--b", "9",
              "--out", "{}/report.json"], "5", ["report.json"])]
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(nb.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_parent] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for i, (args, seed, names) in enumerate(runs):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.setenv("NBSPECTRA_SEED", seed)
        assert main([a.format(here) for a in args]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "nbspectra.cli",
             *[a.format(fresh) for a in args]],
            env=dict(env, NBSPECTRA_SEED=seed), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for name in names:
            assert read_bytes(here / name) == read_bytes(fresh / name)


def test_subcommand_options_are_pinned():
    # each option is a setting a user can pass; a new one is a design change
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings}
               - {"-h", "--help"} for name, p in sub.choices.items()}
    assert options == {
        "gen": {"--n", "--k", "--a", "--b", "--seed", "--out-dir"},
        "spectrum": {"--graph", "--matrix", "--mode", "--k", "--seed",
                     "--out"},
        "verify": {"--graph", "--suites", "--out"},
        "bound": {"--graph", "--k", "--seed", "--out"},
        "cluster": {"--graph", "--k", "--mode", "--truth", "--assign",
                    "--seed", "--out"},
        "pipeline": {"--graph", "--truth", "--n", "--a", "--b", "--k",
                     "--mode", "--seed", "--out"},
    }
