import numpy as np
import pytest

import nbspectra as nb
from nbspectra import fileio
from nbspectra.errors import GraphFormatError


def test_graph_round_trip_with_isolated_node(tmp_path):
    g = nb.from_edge_list([(0, 1), (1, 2)], 4)       # node 3 isolated
    path = tmp_path / "g.tsv"
    fileio.write_text_atomic(str(path), fileio.graph_to_text(g))
    back = fileio.read_graph(str(path))
    assert back.n == 4
    assert np.array_equal(back.edges, g.edges)


def test_failed_write_leaves_no_temp_file(tmp_path):
    # os.replace cannot put a file over a directory; the temp file must go
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        fileio.write_text_atomic(str(target), "text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(target.iterdir()) == []


def test_graph_header_required():
    with pytest.raises(GraphFormatError):
        fileio.parse_graph_text("0\t1\n")


def test_graph_comments_ignored():
    g = fileio.parse_graph_text("# n=3\n# a comment\n0\t1\n\n1\t2\n")
    assert g.n == 3 and g.m == 2


def test_graph_bad_line():
    with pytest.raises(GraphFormatError):
        fileio.parse_graph_text("# n=3\n0\t1\tx\n")
    with pytest.raises(GraphFormatError):
        fileio.parse_graph_text("# n=3\nzero\tone\n")


def test_labels_round_trip(tmp_path):
    labels = np.array([2, 0, 1, 1])
    path = tmp_path / "l.tsv"
    fileio.write_text_atomic(str(path), fileio.labels_to_text(labels))
    back = fileio.read_labels(str(path))
    assert np.array_equal(back, labels)


def test_labels_must_be_contiguous():
    with pytest.raises(GraphFormatError):
        fileio.parse_labels_text("0\t1\n2\t0\n")


def test_json_floats_17_digits():
    text = fileio.to_json({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text


def test_json_deterministic_and_typed():
    obj = {"a": [1, 2.5, None, True], "b": {"c": "s\n"}, "d": np.float64(2.0)}
    t1, t2 = fileio.to_json(obj), fileio.to_json(obj)
    assert t1 == t2
    assert '"a"' in t1 and "2.0" in t1 and "null" in t1 and "true" in t1
    assert '"s\\n"' in t1


def test_json_round_trips_through_stdlib():
    import json
    obj = {"lambda": [1.0, 0.5], "overlap": None, "flag": False,
           "nested": {"xs": [0.1, -2.0]}}
    parsed = json.loads(fileio.to_json(obj))
    assert parsed["lambda"] == [1.0, 0.5]
    assert parsed["overlap"] is None
    assert parsed["nested"]["xs"][1] == -2.0
