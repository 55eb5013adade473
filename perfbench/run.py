"""nbspectra benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload null-n2000 --seed 1 --seconds 40 --trace 0

The run imports ``nbspectra`` from ``src/`` of the tree it sits in, derives
every graph from ``--seed``, starts reports until ``--seconds`` have passed
(and until the workload may stop: see workloads.py), checks every output, and
prints one line per report, one per metric, and last a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the package's public
functions (see spans.py), reports the per-layer metrics, and writes the spans
to ``.perfbench_work/``.  Exits with code 2 when the source tree is missing.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, so every run uses the same count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# BENCHMARK.json lists the first two.  report.py also runs the last two, whose
# report times a run cannot hold steady or within its time limit (README.md).
WORKLOADS = ("null-n2000", "dense-files-n40", "scale-n20000", "detect-n2000")
SETUP_REPEATS = 5

#: end-to-end metric name -> unit
END_TO_END = {"report_p25_s": "s", "edges_per_s": "1/s", "peak_rss_mb": "MB",
              "setup_s": "s"}


def setup_once() -> float:
    """Seconds to import nbspectra and warm it up on a small graph."""
    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and nbspectra
    workloads.warm_up()
    return time.perf_counter() - t0


def setup_in_child() -> float:
    out = subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe"],
                         capture_output=True, text=True, timeout=150,
                         check=True, cwd=ROOT)
    return float(out.stdout.split()[-1])


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS}


def run_reports(wl, seed: int, seconds: float, tracer=None) -> list:
    """Run reports until ``seconds`` pass and the workload may stop.

    Returns one dict per report: id, kind, graph (index of its graph),
    seconds, edges (2m of its graph, None if it failed), overlap and problems.
    Only the call into nbspectra is timed; checks run between reports.
    """
    import workloads
    workdir = WORK / f"run-{os.getpid()}"
    reports = []
    try:
        wl.start(seed, str(workdir))
        t_start = time.perf_counter()
        i = 0
        while not (wl.may_stop(i)
                   and time.perf_counter() - t_start >= seconds):
            kind, call = wl.job(i)
            if tracer is not None:
                tracer.report = i
            t0 = time.perf_counter()
            try:
                out, error = call(), None
            except Exception as exc:  # a failed report is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.report = None
            if error is None:
                outcome = wl.check(i, kind, out)
            else:
                outcome = workloads.Outcome(problems=(error,))
            reports.append({"id": i, "kind": kind, "graph": wl.graph_of(i),
                            "seconds": dt, "edges": None,
                            "overlap": outcome.overlap,
                            "problems": list(outcome.problems)})
            i += 1
        for r in reports:
            if not r["problems"]:
                r["edges"] = wl.edges(r["id"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return reports


def kinds_in_order(reports) -> list:
    return list(dict.fromkeys(r["kind"] for r in reports))


def lower_quartile(values) -> float:
    """First quartile, interpolated between order statistics: the second
    fastest of five, the mean of the two fastest of three."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def per_graph(reports) -> list:
    """(median report time, 2m) of each graph, in order of first report.

    A workload that works on each graph once gives every report's time; one
    that cycles through a fixed set of graphs gives each graph's median
    round, which leaves out most rounds that met a busy machine (README.md).
    """
    times, edges = {}, {}
    for r in reports:
        times.setdefault(r["graph"], []).append(r["seconds"])
        edges[r["graph"]] = r["edges"] or 0
    return [(statistics.median(times[g]), edges[g]) for g in times]


def end_to_end(reports, setup: list) -> dict:
    """Bounded metrics of one untraced run.

    report_p25_s is the mean over report kinds of each kind's lower quartile
    over graphs of the graph's median report time; edges_per_s is the sum
    over kinds of the median 2m over the sum of those times.  The lower
    quartile, because a quarter to a third of the graphs at n=2000 stall in
    the Bauer-Fike power iteration, often enough that three of a run's five
    reports do (see README.md).
    """
    t_q1, e_med = [], []
    for kind in kinds_in_order(reports):
        graphs = per_graph(r for r in reports if r["kind"] == kind)
        t_q1.append(lower_quartile(t for t, _ in graphs))
        e_med.append(statistics.median(e for _, e in graphs))
    return {
        "report_p25_s": sum(t_q1) / len(t_q1),
        "edges_per_s": sum(e_med) / sum(t_q1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def tail(times) -> tuple:
    """(percentile, value, samples beyond) for the highest of p50, p90, p99,
    p99.9 with at least ten samples beyond it, or None when there is none."""
    times = sorted(times)
    n = len(times)
    for p in (99.9, 99.0, 90.0, 50.0):
        beyond = int(n * (1 - p / 100))
        if beyond >= 10:
            return p, times[n - beyond - 1], beyond
    return None


def run_checks(wl, reports) -> list:
    """Run-level checks: the median overlap rule of each kind."""
    import workloads
    problems = []
    for kind in kinds_in_order(reports):
        overlaps = [r["overlap"] for r in reports
                    if r["kind"] == kind and r["overlap"] is not None]
        problems += workloads.overlap_problems(kind, wl.regime(kind), overlaps)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nbspectra" / "__init__.py").is_file():
        print(f"error: no nbspectra source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup_once())
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    setup = [setup_once()]
    setup += [setup_in_child() for _ in range(SETUP_REPEATS - 1)]
    print("env", json.dumps(environment()))

    import spans
    import workloads
    wl = workloads.make(args.workload)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        reports = run_reports(wl, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.remove()

    for r in reports:
        print("report", json.dumps(r))
    problems = run_checks(wl, reports)
    failed = sum(1 for r in reports if r["problems"])
    for p in problems:
        print("problem", p)

    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(reports, setup).items()}
        for kind in kinds_in_order(reports):
            times = [r["seconds"] for r in reports if r["kind"] == kind]
            print("info report_p50_s", kind, statistics.median(times), "s")
            ov = [r["overlap"] for r in reports
                  if r["kind"] == kind and r["overlap"] is not None]
            if ov:
                print("info overlap_p50", kind, statistics.median(ov))
        t = tail([r["seconds"] for r in reports])
        print("info report_tail_s",
              f"p{t[0]:g} {t[1]} s, {t[2]} reports beyond" if t else
              f"n/a: {len(reports)} reports, a tail needs 20 or more")
        print("info failed_share", failed / len(reports))
    else:
        metrics = {k: {"value": v, "unit": spans.PER_LAYER[k]}
                   for k, v in spans.layer_metrics(tracer.spans,
                                                   len(reports)).items()}
        WORK.mkdir(exist_ok=True)
        path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
        print("info spans", len(tracer.spans), "written to",
              path.relative_to(ROOT))
    for name, m in metrics.items():
        print("metric", name, m["value"], m["unit"])
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": len(reports), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
