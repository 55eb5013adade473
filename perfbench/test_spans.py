"""Tests of the benchmark's tracing: python3 -m pytest perfbench -q"""

import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import nbspectra  # noqa: E402
import nbspectra.cli  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _originals() -> dict:
    """'module.function' -> the object each tracing target names now."""
    return {f"{m}.{f}": getattr(importlib.import_module(f"nbspectra.{m}"), f)
            for m, f, _ in spans.TARGETS}


def _wrapped_bindings() -> list:
    return [(name, attr) for name, mod in list(sys.modules.items())
            if name == "nbspectra" or name.startswith("nbspectra.")
            for attr, value in vars(mod).items()
            if callable(value) and hasattr(value, "__wrapped__")]


class _SmallWorkload(workloads.PipelineWorkload):
    """Main regime at n=300; records what each report would call."""

    def __init__(self):
        super().__init__(300, ("main",))
        self.seen = []

    def job(self, i):
        kind, call = super().job(i)

        def probe():
            self.seen.append((_originals(), _wrapped_bindings()))
            return call()
        return kind, probe


def test_untraced_run_calls_the_original_functions():
    before = _originals()
    wl = _SmallWorkload()
    reports = run.run_reports(wl, seed=3, seconds=0)
    assert reports[0]["problems"] == []
    during, wrapped = wl.seen[0]
    assert wrapped == []
    assert all(during[k] is before[k] for k in before)
    assert nbspectra.pipeline is before["cluster.pipeline"]


def test_traced_run_patches_every_binding_then_restores_them():
    before = _originals()
    copies = [nbspectra.cluster.sample, nbspectra.sbm.two_core,
              nbspectra.spectra.connected_components, nbspectra.cli.two_core,
              nbspectra.fileio.from_edge_list, nbspectra.pipeline]
    tracer = spans.Tracer()
    with tracer:
        for orig, now in zip(copies, [
                nbspectra.cluster.sample, nbspectra.sbm.two_core,
                nbspectra.spectra.connected_components, nbspectra.cli.two_core,
                nbspectra.fileio.from_edge_list, nbspectra.pipeline]):
            assert now is not orig and now.__wrapped__ is orig
        run.run_reports(workloads.PipelineWorkload(300, ("main",)), seed=3,
                        seconds=0, tracer=tracer)
    after = _originals()
    assert all(after[k] is before[k] for k in before)
    assert _wrapped_bindings() == []

    by_id = {s.id: s for s in tracer.spans}
    sample = [s for s in tracer.spans
              if s.name == "sbm.sample" and s.report == 0]
    assert len(sample) == 1
    assert by_id[sample[0].parent].name == "cluster.pipeline"
    names = {s.name for s in tracer.spans if s.report == 0}
    assert {"graph.two_core", "spectra.real_eigenbasis_T",
            "spectra.leading_real_eigenpairs", "perturb.bauer_fike_radius",
            "nbmat.spectral_norm"} <= names
    # the untimed re-sample in the check is not part of any report
    assert any(s.name == "sbm.sample" and s.report is None
               for s in tracer.spans)


def test_self_time_subtracts_direct_children():
    a = spans.Span(id=0, name="a", parent=None, report=0, start=0.0, end=10.0)
    b = spans.Span(id=1, name="b", parent=0, report=0, start=2.0, end=5.0)
    c = spans.Span(id=2, name="c", parent=1, report=0, start=3.0, end=4.0)
    assert spans.self_times([c, b, a]) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_cycled_graphs_count_once_at_their_median_round():
    wl = workloads.CliFilesWorkload(40, "main", graphs=2)
    assert [wl.graph_of(i) for i in range(12)] == [0, 0, 0, 1, 1, 1] * 2
    assert [i for i in range(19) if wl.may_stop(i)] == [12, 18]
    reports = [{"kind": "cluster", "graph": g, "seconds": t, "edges": e}
               for g, t, e in [(0, 1.0, 300), (1, 9.0, 340), (0, 5.0, 300),
                               (1, 2.0, 340), (0, 2.0, 300), (1, 3.0, 340)]]
    assert run.per_graph(reports) == [(2.0, 300), (3.0, 340)]
    assert run.end_to_end(reports, [1.0])["report_p25_s"] == 2.25


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS[:2])
    assert set(spans.layer_metrics([], 1)) == set(spans.PER_LAYER)
