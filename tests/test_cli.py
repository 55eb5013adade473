import json

import pytest

import nbspectra as nb
from nbspectra import fileio, spectra, verify
from nbspectra.cli import main
from nbspectra.errors import DimensionCapError

from conftest import k4


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


def test_verify_corrupt_file_exit_3(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\t1\n")          # missing n= header
    assert main(["verify", "--graph", str(bad)]) == 3
    assert main(["verify", "--graph", str(tmp_path / "missing.tsv")]) == 3


def test_verify_svd_dimension_cap_exit_2(tmp_path, monkeypatch):
    # K4 has 2m = 12; the svd suite must refuse to densify B above the cap
    monkeypatch.setattr(spectra, "DENSE_CAP", 11)
    with pytest.raises(DimensionCapError):
        verify.run_suites(k4(), ["svd"])
    graph = write_k4(tmp_path)
    assert main(["verify", "--graph", graph, "--suites", "svd"]) == 2


def test_bound_k4(tmp_path):
    graph = write_k4(tmp_path)
    out = tmp_path / "b.json"
    assert main(["bound", "--graph", graph, "--k", "2",
                 "--out", str(out)]) == 0
    rep = json.loads(read_bytes(out))
    assert rep["R_paper"] == 0.5
    assert all(m["deviation"] <= 1e-10 for m in rep["matches"])
    assert all(m["within_R"] for m in rep["matches"])


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
