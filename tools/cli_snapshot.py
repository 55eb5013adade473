"""Snapshot the outputs of a fixed set of CLI runs, for diffing two trees.

Usage (from the repository root):

    python3 tools/cli_snapshot.py OUTDIR [--src SRC]

Runs ``nbspectra.cli.main`` in-process, with one BLAS thread, on a fixed set
of commands, and writes under OUTDIR, which must not exist yet:

- ``graphs/<tag>/``: the ``gen`` outputs (graph.tsv, labels.tsv, meta.json);
- ``runs/<name>/``: each run's ``stdout``, ``stderr`` and ``exit`` code, and
  the files it writes through ``--out`` and ``--assign``.

Every path handed to the CLI is relative to OUTDIR, so two snapshots compare
with ``diff -r``.  ``--src`` names the ``src/`` directory that ``nbspectra``
is imported from (default: the one next to this tool), so a second checkout
is snapshotted with this same command set:

    python3 tools/cli_snapshot.py ../snap-new
    python3 tools/cli_snapshot.py ../snap-old --src ../old-checkout/src
    diff -r ../snap-old ../snap-new

The set: at n=40, for (a, b, k) = (16, 4, 2), (11, 9, 2) and (24, 3, 3) and
seeds 0, 1, 2, 3, 5, ``gen``, ``cluster --truth --assign`` in both modes,
``bound`` and ``verify``, and iterative ``spectrum`` of T and B asked for
k + 1 reals (the stall and full-block exits); dense ``spectrum`` of B, T, L
and BV on each seed-0 graph; ``pipeline`` at n=2000 in both modes for the
same regimes and seeds 0 and 1; and ``gen --n 301 --k 3`` with iterative
``spectrum`` of T, B and L.
"""

from __future__ import annotations

import os

# one BLAS thread before numpy loads, so that float outputs repeat
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
REGIMES = ((16.0, 4.0, 2), (11.0, 9.0, 2), (24.0, 3.0, 3))
SEEDS = (0, 1, 2, 3, 5)
PIPELINE_SEEDS = (0, 1)
MODES = ("edge_vote", "deflate")


def commands():
    """(name, argv) of every run, in order; argv paths are relative."""
    runs = []
    for a, b, k in REGIMES:
        for seed in SEEDS:
            tag = f"n40-a{a:g}-b{b:g}-k{k}-s{seed}"
            graph = f"graphs/{tag}/graph.tsv"
            common = ["--graph", graph, "--seed", str(seed)]
            runs.append((f"gen-{tag}", ["gen", "--n", "40", "--k", str(k),
                                        "--a", str(a), "--b", str(b),
                                        "--seed", str(seed),
                                        "--out-dir", f"graphs/{tag}"]))
            for mode in MODES:
                name = f"cluster-{mode}-{tag}"
                runs.append((name, ["cluster", *common, "--k", str(k),
                                    "--mode", mode, "--truth",
                                    f"graphs/{tag}/labels.tsv",
                                    "--assign", f"runs/{name}/assign.tsv",
                                    "--out", f"runs/{name}/report.json"]))
            name = f"bound-{tag}"
            runs.append((name, ["bound", *common, "--k", str(k),
                                "--out", f"runs/{name}/bound.json"]))
            name = f"verify-{tag}"
            runs.append((name, ["verify", "--graph", graph,
                                "--out", f"runs/{name}/verify.json"]))
            for matrix in ("T", "B"):
                runs.append((f"spectrum-iterative-{matrix}-k{k + 1}-{tag}",
                             ["spectrum", *common, "--matrix", matrix,
                              "--mode", "iterative", "--k", str(k + 1)]))
            if seed == 0:
                for matrix in ("B", "T", "L", "BV"):
                    runs.append((f"spectrum-dense-{matrix}-{tag}",
                                 ["spectrum", "--graph", graph,
                                  "--matrix", matrix]))
    for a, b, k in REGIMES:
        for seed in PIPELINE_SEEDS:
            for mode in MODES:
                runs.append((f"pipeline-{mode}-n2000-a{a:g}-b{b:g}-k{k}-s{seed}",
                             ["pipeline", "--n", "2000", "--k", str(k),
                              "--a", str(a), "--b", str(b), "--mode", mode,
                              "--seed", str(seed)]))
    tag = "n301-a16-b4-k3-s0"
    graph = f"graphs/{tag}/graph.tsv"
    runs.append((f"gen-{tag}", ["gen", "--n", "301", "--k", "3", "--a", "16",
                                "--b", "4", "--seed", "0",
                                "--out-dir", f"graphs/{tag}"]))
    for matrix in ("T", "B", "L"):
        runs.append((f"spectrum-iterative-{matrix}-{tag}",
                     ["spectrum", "--graph", graph, "--matrix", matrix,
                      "--mode", "iterative", "--k", "3", "--seed", "0"]))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path, default=SRC)
    args = parser.parse_args(argv)
    if not (args.src / "nbspectra" / "cli.py").is_file():
        parser.error(f"no nbspectra package under {args.src}")
    args.outdir.mkdir(parents=True)
    sys.path.insert(0, str(args.src.resolve()))
    from nbspectra import cli

    os.chdir(args.outdir)
    runs, failed = commands(), 0
    for name, argv_ in runs:
        run = Path("runs") / name
        run.mkdir(parents=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv_)
        (run / "stdout").write_text(out.getvalue())
        (run / "stderr").write_text(err.getvalue())
        (run / "exit").write_text(f"{code}\n")
        failed += code != 0
        print(f"{code} {name}", flush=True)
    print(f"{len(runs)} runs, {failed} with a nonzero exit code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
