"""Command-line surface: gen, spectrum, verify, bound, cluster, pipeline.

Exit codes: 0 success, 2 parameter or domain error, 3 I/O or parse error,
4 numerical non-convergence.  All randomness flows from one resolved seed
(--seed flag, else the NBSPECTRA_SEED environment variable, else 0), and
outputs are byte-deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import cluster, fileio, nbmat, perturb, sbm, spectra, verify
from .errors import (
    BadParameterError,
    CountMismatchError,
    DegenerateBilinearFormError,
    DegenerateInputError,
    DegreeTooSmallError,
    DimensionCapError,
    DuplicateEdgeError,
    EmptyCoreError,
    GraphFormatError,
    InsufficientRealRitzError,
    IsolatedNodeError,
    LengthMismatchError,
    NbspectraError,
    NoConvergenceError,
    NodeOutOfRangeError,
    NotEnoughPositiveRealsError,
    RankDeficientError,
    SelfLoopError,
    ShapeMismatchError,
)
from .graph import oriented_edges, reversal_permutation, two_core

_PARAM_ERRORS = (
    BadParameterError, DegreeTooSmallError, SelfLoopError, DuplicateEdgeError,
    NodeOutOfRangeError, EmptyCoreError, DimensionCapError,
    CountMismatchError, DegenerateInputError, LengthMismatchError,
    ShapeMismatchError, RankDeficientError, IsolatedNodeError,
)
_NUMERIC_ERRORS = (
    NoConvergenceError, InsufficientRealRitzError,
    NotEnoughPositiveRealsError, DegenerateBilinearFormError,
)


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("NBSPECTRA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise BadParameterError(
                f"NBSPECTRA_SEED={env!r} is not an integer") from exc
    return 0


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        fileio.write_text_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    seed = _resolve_seed(args.seed)
    params = sbm.SbmParams(n=args.n, k=args.k, a=args.a, b=args.b, seed=seed)
    smp = sbm.sample(params)
    os.makedirs(args.out_dir, exist_ok=True)
    fileio.write_text_atomic(os.path.join(args.out_dir, "graph.tsv"),
                             fileio.graph_to_text(smp.graph))
    fileio.write_text_atomic(os.path.join(args.out_dir, "labels.tsv"),
                             fileio.labels_to_text(smp.labels))
    fileio.write_json(os.path.join(args.out_dir, "meta.json"), smp.meta)
    return 0


def _build_matrix(idx, name):
    if name == "B":
        return nbmat.build_B(idx)
    if name == "T":
        return nbmat.build_T(idx)
    if name == "L":
        return nbmat.build_L(idx)
    if name == "BV":
        return nbmat.build_B(idx)[:, reversal_permutation(idx.m)]
    raise BadParameterError(f"unknown matrix {name!r}")


def cmd_spectrum(args) -> int:
    seed = _resolve_seed(args.seed)
    g = fileio.read_graph(args.graph)
    idx = oriented_edges(g)
    M = _build_matrix(idx, args.matrix)
    c = 2.0 * g.m / g.n if g.n else 0.0
    if args.mode == "dense":
        spec, _ = spectra.dense_eigendecomposition(M, source=args.matrix,
                                                   cap=args.dense_cap)
    else:
        res = spectra.leading_real_eigenpairs(M, args.k, seed=seed)
        spec = spectra.Spectrum(values=res.values.astype(complex),
                                source=args.matrix)
    try:
        spec = spectra.classify_spectrum(spec, c)
    except BadParameterError:
        pass  # c <= 1: leave the class column empty
    _emit(spectra.spectrum_to_csv(spec), args.out)
    return 0


def cmd_verify(args) -> int:
    g = fileio.read_graph(args.graph)
    suites = args.suites.split(",") if args.suites else None
    if suites:
        unknown = [s for s in suites if s not in verify.ALL_SUITES]
        if unknown:
            raise BadParameterError(f"unknown suites: {unknown}")
    ok, findings = verify.run_suites(g, suites)
    _emit(fileio.to_json({"pass": ok, "findings": findings}) + "\n", args.out)
    return 0 if ok else 1


def cmd_bound(args) -> int:
    seed = _resolve_seed(args.seed)
    g = fileio.read_graph(args.graph)
    core, _ = two_core(g)
    idx = oriented_edges(core)
    mode = spectra.auto_mode(idx, args.dense_cap)
    basis = spectra.real_eigenbasis_T(idx, args.k, mode=mode, seed=seed)
    mus = spectra.leading_reals_B(idx, args.k, mode, seed=seed)
    report = perturb.bound_report(idx, basis, mus, seed=seed)
    _emit(fileio.to_json(report.to_dict()) + "\n", args.out)
    return 0


def cmd_cluster(args) -> int:
    seed = _resolve_seed(args.seed)
    g = fileio.read_graph(args.graph)
    truth = fileio.read_labels(args.truth) if args.truth else None
    core, table = two_core(g)
    core_truth = None
    if truth is not None:
        if len(truth) != g.n:
            raise CountMismatchError(
                f"truth file covers {len(truth)} nodes, graph has {g.n}")
        core_truth = truth[table >= 0]
    report, labels = cluster.pipeline(core, args.k, mode=args.mode, seed=seed,
                                      truth=core_truth, return_labels=True)
    full = np.full(g.n, -1, dtype=np.int64)
    full[table >= 0] = labels
    if args.assign:
        fileio.write_text_atomic(args.assign, fileio.labels_to_text(full))
    _emit(fileio.to_json(report) + "\n", args.out)
    return 0


def cmd_pipeline(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.graph:
        source = fileio.read_graph(args.graph)
        truth = fileio.read_labels(args.truth) if args.truth else None
        if truth is not None and len(truth) != source.n:
            raise CountMismatchError(
                f"truth file covers {len(truth)} nodes, graph has {source.n}")
    else:
        if args.n is None:
            raise BadParameterError("pipeline needs --graph or --n/--a/--b")
        source = sbm.SbmParams(n=args.n, k=args.k, a=args.a, b=args.b,
                               seed=seed)
        truth = None
    report = cluster.pipeline(source, args.k, mode=args.mode, seed=seed,
                              truth=truth)
    _emit(fileio.to_json(report) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbspectra",
        description="Non-backtracking operators, spectra, bounds, clustering")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a block-model graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("spectrum", help="eigenvalues of B, T, L, or BV")
    p.add_argument("--graph", required=True)
    p.add_argument("--matrix", choices=["B", "T", "L", "BV"], default="B")
    p.add_argument("--mode", choices=["dense", "iterative"], default="dense")
    p.add_argument("--k", type=int, default=2,
                   help="eigenpair count for iterative mode")
    p.add_argument("--dense-cap", type=int, default=spectra.DENSE_CAP)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run identity suites on a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--suites", default=None,
                   help=f"comma list from {','.join(verify.ALL_SUITES)}")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="eigenvalue closeness radii")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--dense-cap", type=int, default=spectra.AUTO_DENSE_CAP)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("cluster", help="cluster the nodes of a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["edge_vote", "deflate"],
                   default="edge_vote")
    p.add_argument("--truth", default=None)
    p.add_argument("--assign", default=None,
                   help="write node<TAB>label assignment here")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("pipeline", help="end-to-end run on a file or a model")
    p.add_argument("--graph", default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--a", type=float, default=16.0)
    p.add_argument("--b", type=float, default=4.0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mode", choices=["edge_vote", "deflate"],
                   default="edge_vote")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PARAM_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NbspectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
