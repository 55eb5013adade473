"""Deterministic text formats: edge lists, label files, JSON reports.

Graph files carry a required "# n=<count>" header so isolated nodes round
trip; floats serialize with 17 significant digits in insertion key order so
rerunning a command reproduces output files byte for byte.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .errors import GraphFormatError
from .graph import SimpleGraph, from_edge_list


def write_text_atomic(path: str, text: str) -> None:
    """Write through a temporary file beside ``path``, removed on failure."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def graph_to_text(g: SimpleGraph) -> str:
    lines = [f"# n={g.n}"]
    lines += [f"{u}\t{v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> SimpleGraph:
    """Parse "u<TAB>v" lines under a mandatory "# n=<count>" header."""
    n = None
    pairs = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                try:
                    n = int(body[2:].strip())
                except ValueError as exc:
                    raise GraphFormatError(
                        f"line {ln}: bad node count {body!r}") from exc
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {ln}: expected 'u<TAB>v', got {raw!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphFormatError(f"line {ln}: non-integer node id") from exc
    if n is None:
        raise GraphFormatError('missing required "# n=<count>" header')
    return from_edge_list(pairs, n)


def read_graph(path: str) -> SimpleGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph_text(fh.read())
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc


def labels_to_text(labels) -> str:
    return "".join(f"{i}\t{int(v)}\n" for i, v in enumerate(labels))


def parse_labels_text(text: str) -> np.ndarray:
    entries = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"line {ln}: expected 'node<TAB>label', got {raw!r}")
        try:
            entries[int(parts[0])] = int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {ln}: non-integer field") from exc
    if not entries:
        raise GraphFormatError("empty labels file")
    size = max(entries) + 1
    if sorted(entries) != list(range(size)):
        raise GraphFormatError("labels file must cover nodes 0..max contiguously")
    return np.array([entries[i] for i in range(size)], dtype=np.int64)


def read_labels(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_labels_text(fh.read())
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc


def _format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    if x == int(x) and abs(x) < 1e16:
        return f"{int(x)}.0"
    return format(x, ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Serialize with insertion key order and 17-significant-digit floats."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        escaped = (obj.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\t", "\\t"))
        return f'"{escaped}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{key}": {to_json(val, indent + 2)}'
                 for key, val in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{to_json(val, indent + 2)}" for val in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(path: str, obj) -> None:
    write_text_atomic(path, to_json(obj) + "\n")
