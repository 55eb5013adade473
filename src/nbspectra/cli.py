"""Command-line surface: gen, spectrum, verify, bound, cluster, pipeline.

Exit codes: 0 success, 2 parameter or domain error, 3 I/O or parse error,
4 numerical non-convergence; each package error carries its code as
``exit_code``.  All randomness flows from one resolved seed
(--seed flag, else the NBSPECTRA_SEED environment variable, else 0), and
outputs are byte-deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import cluster, fileio, nbmat, perturb, sbm, spectra, verify
from .errors import BadParameterError, NbspectraError
from .graph import oriented_edges, reversal_permutation, two_core


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
    # the smallest reals of L = I - T are 1 - the largest reals of T, so the
    # iterative mode solves T for them (the largest reals of L lie in the
    # bulk); it solves the 2n x 2n Ihara-Bass companion for the leading reals
    # of B, which are its reals above 1
    on_T = args.mode == "iterative" and args.matrix == "L"
    if args.mode == "iterative" and args.matrix == "B":
        M = nbmat.ihara_bass_companion(idx)
    else:
        M = _build_matrix(idx, "T" if on_T else args.matrix)
    c = 2.0 * g.m / g.n if g.n else 0.0
    if args.mode == "dense":
        spec, _ = spectra.dense_eigendecomposition(M, source=args.matrix)
    else:
        vals = spectra.leading_real_eigenpairs(M, args.k, seed=seed).values
        if on_T:
            vals = (1.0 - vals)[::-1]           # canonical: descending
        spec = spectra.Spectrum(values=vals.astype(complex),
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
    basis = spectra.real_eigenbasis_T(idx, args.k, mode="iterative", seed=seed)
    mus = spectra.leading_reals_B(idx, args.k, seed=seed)
    report = perturb.bound_report(idx, basis, mus, seed=seed)
    _emit(fileio.to_json(dataclasses.asdict(report)) + "\n", args.out)
    return 0


def cmd_cluster(args) -> int:
    """Serve ``cluster`` (a graph file) and ``pipeline`` (a file or a model)."""
    seed = _resolve_seed(args.seed)
    if args.graph is not None:      # always so for cluster, which requires it
        source = fileio.read_graph(args.graph)
        truth = fileio.read_labels(args.truth) if args.truth else None
    else:
        if args.n is None:
            raise BadParameterError("pipeline needs --graph or --n/--a/--b")
        source = sbm.SbmParams(n=args.n, k=args.k, a=args.a, b=args.b,
                               seed=seed)
        truth = None
    report, labels = cluster.pipeline(source, args.k, mode=args.mode, seed=seed,
                                      truth=truth, return_labels=True)
    if args.assign:
        fileio.write_text_atomic(args.assign, fileio.labels_to_text(labels))
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
    p.set_defaults(func="cmd_gen")

    p = sub.add_parser("spectrum", help="eigenvalues of B, T, L, or BV")
    p.add_argument("--graph", required=True)
    p.add_argument("--matrix", choices=["B", "T", "L", "BV"], default="B")
    p.add_argument("--mode", choices=["dense", "iterative"], default="dense")
    p.add_argument("--k", type=int, default=2,
                   help="eigenpair count for iterative mode")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_spectrum")

    p = sub.add_parser("verify", help="run identity suites on a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--suites", default=None,
                   help=f"comma list from {','.join(verify.ALL_SUITES)}")
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_verify")

    p = sub.add_parser("bound", help="eigenvalue closeness radii")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_bound")

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
    p.set_defaults(func="cmd_cluster")

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
    p.set_defaults(func="cmd_cluster", assign=None)
    return parser


_PARSER = None   # built on the first call of main; parse_args leaves it as is


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        # the parser names its command function, which is looked up here, so
        # the cached parser holds no function; each command reads
        # NBSPECTRA_SEED when it runs
        return globals()[args.func](args)
    except NbspectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
