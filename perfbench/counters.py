"""Check that the work counters of traced runs repeat exactly.

Usage (from the repository root):

    python3 perfbench/counters.py --seed 0 [--workload NAME ...]

For each workload, runs ``run.py --trace 1 --seconds 0`` (the shortest run
the workload allows: two passes over the graphs for dense-files-n40) twice
in fresh processes and compares every counter of the per-layer metrics (all
but times) report by report.  Prints the counters that differ with their
spread and exits with 1 if any do.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import spans


def traced_counters(workload: str, seed: int) -> dict:
    """Report id -> {counter metric: value} from one traced run."""
    subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload",
                    workload, "--seed", str(seed), "--seconds", "0",
                    "--trace", "1"], check=True, stdout=subprocess.DEVNULL,
                   timeout=900, cwd=run.ROOT)
    path = run.WORK / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, encoding="utf-8") as fh:
        recorded = [spans.Span.from_dict(json.loads(line)) for line in fh]
    out = {}
    for rid in sorted({s.report for s in recorded if s.report is not None}):
        metrics = spans.layer_metrics(
            [s for s in recorded if s.report == rid], 1)
        out[rid] = {k: v for k, v in metrics.items()
                    if spans.PER_LAYER[k] != "s/report"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    differing = 0
    for workload in args.workload or run.WORKLOADS:
        first = traced_counters(workload, args.seed)
        second = traced_counters(workload, args.seed)
        names = sorted({k for c in first.values() for k in c})
        bad = []
        for name in names:
            pairs = [(first[r][name], second[r][name])
                     for r in first if r in second]
            spread = max(abs(a - b) for a, b in pairs)
            if spread:
                bad.append(f"{name} differs by up to {spread:g}")
        print(f"{workload}: {len(first)} reports, {len(names)} counters, "
              + ("all repeat exactly" if not bad else "; ".join(bad)))
        differing += len(bad)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
