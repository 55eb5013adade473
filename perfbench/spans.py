"""Timing wrappers around nbspectra's public functions, for traced runs.

A :class:`Tracer` replaces each target function with a wrapper in every
``nbspectra`` module that binds it, including ``from .x import y`` copies such
as ``cluster.sample`` or ``cli.two_core``, so calls between modules are seen
too.  Each call becomes a span (name, start, end, parent, report id, counts).
Spans stay in memory until the run ends; :meth:`Tracer.remove` puts every
original function object back.  Untraced runs never create a tracer.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import time
from dataclasses import dataclass, field

def _eigen_counts(args, kwargs, result, exc):
    res = result if exc is None else getattr(exc, "found", None)
    inner = kwargs.get("inner", args[2] if len(args) > 2 else None)
    return {
        "operator": "T" if inner is not None else "B",
        "converged": exc is None,
        "sweeps": res.iterations if res is not None else 0,
        "block_size": res.block_size if res is not None else 0,
    }


def _dense_counts(args, kwargs, result, exc):
    return {"dim": int(args[0].shape[0])}


def _kmeans_counts(args, kwargs, result, exc):
    return {"points": len(args[0].points),
            "n_iter": result.n_iter if result is not None else 0}


def _failed(args, kwargs, result, exc):
    return {"failed": exc is not None}


def _file_bytes(args, kwargs, result, exc):
    path = args[0]
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _text_bytes(args, kwargs, result, exc):
    return {"bytes": len(args[1].encode("utf-8"))}


# (module, function, counts extractor or None)
TARGETS = (
    ("sbm", "sample", None),
    ("graph", "from_edge_list", None),
    ("graph", "two_core", None),
    ("graph", "connected_components", None),
    ("graph", "oriented_edges", None),
    ("nbmat", "build_B", None),
    ("nbmat", "build_T", None),
    ("nbmat", "spectral_norm", None),
    ("spectra", "real_eigenbasis_T", _failed),
    ("spectra", "leading_real_eigenpairs", _eigen_counts),
    ("spectra", "dense_eigendecomposition", _dense_counts),
    ("cluster", "pipeline", None),
    ("cluster", "edge_embedding", None),
    ("cluster", "node_labels_from_edge_labels", None),
    ("cluster", "overlap", None),
    ("cluster", "weighted_kmeans", _kmeans_counts),
    ("perturb", "bound_report", None),
    ("perturb", "bauer_fike_radius", None),
    ("perturb", "spectral_condition_number", None),
    ("fileio", "read_graph", _file_bytes),
    ("fileio", "read_labels", _file_bytes),
    ("fileio", "write_text_atomic", _text_bytes),
    ("fileio", "write_json", _file_bytes),
    ("cli", "main", None),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    report: int | None
    start: float = 0.0
    end: float = 0.0
    overhead_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "report": self.report, "start": self.start, "end": self.end,
                "overhead_s": self.overhead_s, "counts": self.counts}

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(**d)


def bindings(func) -> list:
    """Every (module, attribute) in the nbspectra package bound to ``func``."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "nbspectra"
                               or name.startswith("nbspectra.")):
            continue
        for attr, value in vars(mod).items():
            if value is func:
                found.append((mod, attr))
    return found


class Tracer:
    """Records a span per call of each target function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.report: int | None = None
        self._stack: list[Span] = []
        self._patches: list = []
        self._ids = itertools.count()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, func_name, counts in TARGETS:
            mod = importlib.import_module(f"nbspectra.{mod_name}")
            orig = getattr(mod, func_name)
            wrapper = self._wrap(f"{mod_name}.{func_name}", orig, counts)
            for owner, attr in bindings(orig):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.remove()
        return False

    def _wrap(self, name, orig, counts):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            span = Span(id=next(self._ids), name=name,
                        parent=self._stack[-1].id if self._stack else None,
                        report=self.report)
            self._stack.append(span)
            result, error = None, None
            t1 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t2 = time.perf_counter()
                self._stack.pop()
                span.start, span.end = t1, t2
                if counts is not None:
                    span.counts = counts(args, kwargs, result, error)
                elif error is not None:
                    span.counts = {"failed": True}
                self.spans.append(span)
                span.overhead_s = (t1 - t0) + (time.perf_counter() - t2)

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child.get(s.id, 0.0) for s in spans}


def ancestors(spans) -> dict:
    """Span id -> set of names of every enclosing span."""
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        names, p = set(), s.parent
        while p is not None:
            names.add(by_id[p].name)
            p = by_id[p].parent
        out[s.id] = names
    return out


_EIGEN = ("calls", "sweeps", "block_size", "matvec_cols", "converged_ratio")

#: (span family, counters besides self_s), in module order
LAYERS = (
    ("sbm.sample", ()),
    ("graph.from_edge_list", ()),
    ("graph.two_core", ()),
    ("graph.connected_components", ()),
    ("graph.oriented_edges", ()),
    ("nbmat.build_B", ("calls",)),
    ("nbmat.build_T", ("calls",)),
    ("nbmat.spectral_norm", ("calls",)),
    ("nbmat.spectral_norm.bauer_fike", ()),
    ("spectra.real_eigenbasis_T", ("calls", "failed")),
    ("spectra.leading_real_eigenpairs.T", _EIGEN),
    ("spectra.leading_real_eigenpairs.B", _EIGEN),
    ("spectra.dense_eigendecomposition", ("calls", "dim_sum")),
    ("cluster.pipeline", ()),
    ("cluster.edge_embedding", ()),
    ("cluster.node_labels_from_edge_labels", ()),
    ("cluster.overlap", ()),
    ("cluster.weighted_kmeans", ("points", "n_iter")),
    ("perturb.bound_report", ()),
    ("perturb.bauer_fike_radius", ()),
    ("perturb.spectral_condition_number", ()),
    ("fileio.read_graph", ("bytes",)),
    ("fileio.read_labels", ("bytes",)),
    ("fileio.write_text_atomic", ("bytes",)),
    ("fileio.write_json", ("bytes",)),
    ("cli.main", ()),
)

# counters averaged per call; every other metric is a total per report
_PER_CALL = {"block_size": "count", "converged_ratio": "ratio"}
_UNITS = {"self_s": "s/report", "bytes": "B/report"}

#: per-layer metric name -> unit
PER_LAYER = {
    f"{family}.{counter}": _PER_CALL.get(counter) or _UNITS.get(
        counter, "count/report")
    for family, counters in LAYERS for counter in ("self_s",) + counters
}
PER_LAYER["trace.overhead_s"] = "s/report"


def layer_metrics(spans, n_reports: int) -> dict:
    """Aggregate the spans of ``n_reports`` reports into PER_LAYER values.

    Spans recorded outside a report (``report is None``) are ignored.
    ``matvec_cols`` is computed as sweeps times the final block size of each
    call, so it over-counts a call whose block grew part way.
    """
    spans = [s for s in spans if s.report is not None]
    selfs, anc = self_times(spans), ancestors(spans)
    tot = dict.fromkeys(PER_LAYER, 0.0)
    for s in spans:
        key = s.name
        c = s.counts
        if key == "spectra.leading_real_eigenpairs":
            key += "." + c["operator"]
            tot[key + ".sweeps"] += c["sweeps"]
            tot[key + ".block_size"] += c["block_size"]
            tot[key + ".matvec_cols"] += c["sweeps"] * c["block_size"]
            tot[key + ".converged_ratio"] += c["converged"]
        if key == "nbmat.spectral_norm" and "perturb.bauer_fike_radius" in anc[s.id]:
            tot["nbmat.spectral_norm.bauer_fike.self_s"] += selfs[s.id]
        tot[key + ".self_s"] += selfs[s.id]
        tot["trace.overhead_s"] += s.overhead_s
        for name, value in (("calls", 1), ("failed", c.get("failed", False)),
                            ("dim_sum", c.get("dim", 0)),
                            ("points", c.get("points", 0)),
                            ("n_iter", c.get("n_iter", 0)),
                            ("bytes", c.get("bytes", 0))):
            if f"{key}.{name}" in tot:
                tot[f"{key}.{name}"] += value
    out = {}
    for name, value in tot.items():
        family, _, counter = name.rpartition(".")
        if counter in _PER_CALL:
            calls = tot[family + ".calls"]
            out[name] = value / calls if calls else 0.0
        else:
            out[name] = value / n_reports
    return out
