"""Print every benchmark metric, by name and unit, for each workload.

Usage (from the repository root):

    python3 perfbench/report.py [--seeds 0 1 2] [--seconds 40] [--out FILE]

Runs ``run.py`` untraced once per seed and traced once (first seed) for every
workload, each in its own process, then prints per workload: the median and
quartiles of each end-to-end metric, the pooled report tail, the median
overlap per report kind, the failed share, the per-layer metrics of the
traced run and the structural predictions of the README.  ``--out`` also
writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import spans


def one_run(workload: str, seed: int, seconds: float, trace: int):
    """The parsed output lines of one run.py process, or None when the run
    failed or took longer than ten minutes."""
    try:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=600, cwd=run.ROOT,
            check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"  {workload} seed {seed} trace {trace}: no result ({exc})")
        return None
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["reports"] = [json.loads(ln.split(" ", 1)[1]) for ln in lines
                      if ln.startswith("report ")]
    out["env"] = json.loads(next(ln.split(" ", 1)[1] for ln in lines
                                 if ln.startswith("env ")))
    return out


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def predictions(layer: dict, workload: str) -> list:
    """The structural predictions a traced run must confirm."""
    dense = layer["spectra.dense_eigendecomposition.calls"]
    failed = layer["spectra.real_eigenbasis_T.failed"]
    on_dense = workload.startswith("dense-files")
    on_null = workload.startswith("null")
    return [
        ("dense_eigendecomposition.calls > 0 only on dense-files",
         (dense > 0) == on_dense),
        ("real_eigenbasis_T.failed > 0 only on null", (failed > 0) == on_null),
        ("trace.overhead_s reported", "trace.overhead_s" in layer),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    summary = {}
    ok = True
    for workload in args.workload or run.WORKLOADS:
        print(f"== {workload}")
        runs = [r for r in (one_run(workload, s, args.seconds, 0)
                            for s in args.seeds) if r is not None]
        traced = one_run(workload, args.seeds[0], args.seconds, 1)
        if not runs or traced is None:
            ok = False
            continue
        print(f"  {len(runs)} untraced runs of seeds {args.seeds}; "
              f"env {json.dumps(runs[0]['env'])}")
        e2e = {}
        for name, unit in run.END_TO_END.items():
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
            e2e[name] = {"median": med, "q1": q1, "q3": q3, "unit": unit}
            print(f"  {name:<14} {med:12.5g} {unit:<4} "
                  f"[q1 {q1:.5g}, q3 {q3:.5g}]")
        reports = [rep for r in runs for rep in r["reports"]]
        t = run.tail([rep["seconds"] for rep in reports])
        tail = ({"percentile": t[0], "value": t[1], "beyond": t[2]} if t
                else None)
        print("  report_tail_s  " + (f"p{t[0]:g} = {t[1]:.4f} s, {t[2]} of "
                                     f"{len(reports)} pooled reports beyond"
                                     if t else f"n/a ({len(reports)} reports)"))
        overlaps = {}
        for kind in run.kinds_in_order(reports):
            ov = [rep["overlap"] for rep in reports
                  if rep["kind"] == kind and rep["overlap"] is not None]
            if ov:
                overlaps[kind] = statistics.median(ov)
                print(f"  overlap_p50    {overlaps[kind]:.4f} ({kind})")
        attempted = sum(r["attempted"] for r in runs)
        failed_share = sum(r["failed"] for r in runs) / attempted
        print(f"  failed_share   {failed_share:g} of {attempted} reports; "
              f"correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs")
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  traced run (seed {args.seeds[0]}, "
              f"{traced['attempted']} reports), per report:")
        for name, value in layer.items():
            print(f"    {name:<52} {value:12.5g} {spans.PER_LAYER[name]}")
        checks = predictions(layer, workload)
        for text, passed in checks:
            print(f"  prediction: {text}: {'yes' if passed else 'NO'}")
        ok = ok and all(p for _, p in checks) and failed_share == 0
        summary[workload] = {
            "env": runs[0]["env"], "seeds": args.seeds,
            "seconds": args.seconds, "end_to_end": e2e, "report_tail": tail,
            "overlap_p50": overlaps, "failed_share": failed_share,
            "attempted": attempted, "per_layer": layer,
            "predictions": {text: passed for text, passed in checks},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
