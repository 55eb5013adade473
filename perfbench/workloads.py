"""The benchmark's workloads: what each report runs and how it is checked.

A report is one timed unit of user work: one block-model graph through
``nbspectra.pipeline``, or one command of the in-process CLI.  Each workload
derives every graph seed from the run's ``--seed``.  Reports cycle through
the workload's kinds (regimes or CLI commands) in a fixed order.

Why these: each stresses a layer the others mostly skip.

- detect-n2000: main (k=2, a=16, b=4) and k=3 (a=24, b=3) regimes at n=2000,
  above the detectability threshold, so the T eigenbasis converges at once
  and the Bauer-Fike power-iteration norm dominates.
- null-n2000: a=11, b=9 is below the threshold; the T solve spends its whole
  sweep budget at k=2 and retries at k=1.  Only this workload wastes solves.
- scale-n20000: main regime at n=20000 (2m about 2e5), where the O(n^2)
  sampler, the Python edge loops and k-means on 2m points dominate.
- dense-files-n40: CLI gen, cluster and bound through files at n=40, where
  2m is under the dense cap; the only workload on the dense eigensolver and
  on file writes and reads.  Rounds cycle through a fixed set of graphs, and
  a round that repeats a graph must write byte-identical files.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass

import numpy as np

import nbspectra
import nbspectra.cli

REPORT_KEYS = {"lambda", "mu", "R_paper", "R_numeric", "objective", "overlap",
               "mode", "fallback", "seeds"}


@dataclass(frozen=True)
class Regime:
    k: int
    a: float
    b: float
    overlap_min: float | None = None     # median overlap must reach this
    overlap_max: float | None = None     # or stay at or below this


REGIMES = {
    "main": Regime(k=2, a=16.0, b=4.0, overlap_min=0.5),
    "k3": Regime(k=3, a=24.0, b=3.0, overlap_min=0.3),
    "null": Regime(k=2, a=11.0, b=9.0, overlap_max=0.15),
}


@dataclass
class Outcome:
    """What the untimed check of one report found."""

    overlap: float | None = None
    problems: tuple = ()


def check_pipeline_report(report: dict) -> list:
    """Fixed key set, trivial eigenvalue 1, and |lambda_i - mu_i/mu_1| <= R."""
    problems = []
    if set(report) != REPORT_KEYS:
        return [f"report keys {sorted(report)}"]
    lam, mu, R = report["lambda"], report["mu"], report["R_paper"]
    if not lam or abs(lam[0] - 1.0) > 1e-6:
        problems.append(f"lambda[0] = {lam[:1]}, not 1")
    if R is None or not mu:
        problems.append("no bound in the report")
    else:
        for i in range(min(len(lam), len(mu))):
            if abs(lam[i] - mu[i] / mu[0]) > R:
                problems.append(f"|lambda_{i} - mu_{i}/mu_1| exceeds R_paper")
    return problems


def overlap_problems(kind: str, regime: Regime, overlaps: list) -> list:
    """Median-overlap rule of the regime a kind of report runs in."""
    if not overlaps:
        return []
    med = statistics.median(overlaps)
    if regime.overlap_min is not None and med < regime.overlap_min:
        return [f"{kind}: median overlap {med:.3f} < {regime.overlap_min}"]
    if regime.overlap_max is not None and med > regime.overlap_max:
        return [f"{kind}: median overlap {med:.3f} > {regime.overlap_max}"]
    return []


class PipelineWorkload:
    """Graphs sampled from one or more regimes, each through ``pipeline``.

    Every report takes a new graph.
    """

    def __init__(self, n: int, kinds: tuple):
        self.n = n
        self.kinds = kinds
        self._params = []

    def may_stop(self, i: int) -> bool:
        """Whether a run may end before report i: after an odd number of
        reports of each kind, at least five, so that the lower quartile of a
        kind moves only when four of its reports stall."""
        per_kind, rest = divmod(i, len(self.kinds))
        return rest == 0 and per_kind % 2 == 1 and per_kind >= 5

    def graph_of(self, i: int) -> int:
        """Index of the graph report i works on."""
        return i

    def regime(self, kind: str) -> Regime:
        return REGIMES[kind]

    def start(self, seed: int, workdir: str) -> None:
        self._rng = np.random.default_rng(seed)

    def job(self, i: int):
        """(kind, zero-argument callable doing the timed work) of report i."""
        kind = self.kinds[i % len(self.kinds)]
        r = REGIMES[kind]
        s = int(self._rng.integers(2**31))
        params = nbspectra.SbmParams(n=self.n, k=r.k, a=r.a, b=r.b, seed=s)
        self._params.append(params)
        return kind, lambda: nbspectra.pipeline(params, r.k, mode="edge_vote",
                                                seed=s)

    def check(self, i: int, kind: str, report) -> Outcome:
        return Outcome(overlap=report["overlap"],
                       problems=tuple(check_pipeline_report(report)))

    def edges(self, i: int) -> int:
        """Oriented edges 2m of report i's graph (samples it again: pipeline
        does not return m, and sampling is deterministic per seed)."""
        return 2 * nbspectra.sample(self._params[i]).graph.m


class CliFilesWorkload:
    """gen, cluster and bound through files, on a fixed set of graphs.

    A round runs the three commands on one graph.  Rounds cycle through the
    run's ``graphs`` graphs, so a pass over all of them takes several
    seconds and the rounds on one graph lie that far apart.  Every
    round after the first pass repeats a round on the same graph and must
    write byte-identical files.  The graphs differ in size with the seed
    (the dense solves cost the cube of 2m), so a run averages over several.
    """

    kinds = ("gen", "cluster", "bound")
    writes = {"gen": ("graph.tsv", "labels.tsv", "meta.json"),
              "cluster": ("assign.tsv", "report.json"),
              "bound": ("bound.json",)}

    def __init__(self, n: int, regime: str, graphs: int):
        self.n = n
        self._regime = REGIMES[regime]
        self.graphs = graphs

    def may_stop(self, i: int) -> bool:
        """Whether a run may end before report i: after whole passes, at
        least two, so every graph is worked on equally often and repeated."""
        passes, rest = divmod(i, self.graphs * len(self.kinds))
        return rest == 0 and passes >= 2

    def graph_of(self, i: int) -> int:
        """Index of the graph report i works on."""
        return (i // len(self.kinds)) % self.graphs

    def regime(self, kind: str) -> Regime:
        return self._regime

    def start(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self._graph_seeds = [int(s) for s in rng.integers(2**31,
                                                          size=self.graphs)]

    def _dir(self, rnd: int) -> str:
        return os.path.join(self.workdir, f"round-{rnd}")

    def job(self, i: int):
        rnd, which = divmod(i, len(self.kinds))
        kind = self.kinds[which]
        d = self._dir(rnd)
        r = self._regime
        seed = ["--seed", str(self._graph_seeds[self.graph_of(i)])]
        argv = {
            "gen": ["gen", "--n", str(self.n), "--k", str(r.k),
                    "--a", str(r.a), "--b", str(r.b), "--out-dir", d],
            "cluster": ["cluster", "--graph", f"{d}/graph.tsv", "--k", str(r.k),
                        "--truth", f"{d}/labels.tsv",
                        "--assign", f"{d}/assign.tsv",
                        "--out", f"{d}/report.json"],
            "bound": ["bound", "--graph", f"{d}/graph.tsv", "--k", str(r.k),
                      "--out", f"{d}/bound.json"],
        }[kind] + seed
        return kind, lambda: nbspectra.cli.main(argv)

    def check(self, i: int, kind: str, rc) -> Outcome:
        rnd = i // len(self.kinds)
        d = self._dir(rnd)
        problems = []
        if rc != 0:
            problems.append(f"{kind} exited with {rc}")
        missing = [f for f in self.writes[kind]
                   if not os.path.isfile(os.path.join(d, f))]
        if missing:
            return Outcome(problems=tuple(problems + [
                f"{kind} did not write {missing}"]))
        overlap = None
        if kind == "cluster":
            with open(os.path.join(d, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            problems += check_pipeline_report(report)
            overlap = report["overlap"]
        elif kind == "bound":
            with open(os.path.join(d, "bound.json"), encoding="utf-8") as fh:
                bound = json.load(fh)
            if not bound["matches"] or not all(
                    row["within_R"] for row in bound["matches"]):
                problems.append("bound: a match lies outside R_paper")
        first = self.graph_of(i)            # the first round on this graph
        if rnd != first:
            for f in self.writes[kind]:
                with open(os.path.join(d, f), "rb") as fa, \
                        open(os.path.join(self._dir(first), f), "rb") as fb:
                    if fa.read() != fb.read():
                        problems.append(
                            f"{kind}: {f} differs from round {first}")
        return Outcome(overlap=overlap, problems=tuple(problems))

    def edges(self, i: int) -> int:
        """Oriented edges 2m of the graph file report i worked on."""
        meta = os.path.join(self._dir(i // len(self.kinds)), "meta.json")
        with open(meta, encoding="utf-8") as fh:
            return 2 * json.load(fh)["m"]


def make(name: str):
    """The workload called ``name``; KeyError for an unknown name."""
    return {
        "detect-n2000": lambda: PipelineWorkload(2000, ("main", "k3")),
        "null-n2000": lambda: PipelineWorkload(2000, ("null",)),
        "scale-n20000": lambda: PipelineWorkload(20000, ("main",)),
        "dense-files-n40": lambda: CliFilesWorkload(40, "main", graphs=16),
    }[name]()


def warm_up() -> None:
    """Load scipy's lazily imported parts before any report is timed."""
    nbspectra.pipeline(nbspectra.SbmParams(n=300, k=2, a=16.0, b=4.0, seed=0),
                       2, seed=0)
