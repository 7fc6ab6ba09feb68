"""Instance and reduction file I/O.

Two serialisations are supported:

* a line-based text format with 1-based vertex ids::

      c optional comment
      p hs <n> <m>
      e <u> <v>          (m lines)
      t <v> <threshold>  (n lines, one per vertex)
      k <k>              (optional, at most once)

* a JSON document with 0-based ids and fields ``n``, ``edges``,
  ``thresholds``, ``k`` and optional ``roles`` annotations.

Multicoloured-clique inputs use the analogous ``p mcc <k> <n>`` header with
``e <i> <s> <j> <t>`` edge lines (colour, member index, colour, member index,
all 1-based).
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import IO, Union

from .errors import ParseError
from .graph import Graph, Instance

Source = Union[str, Path, IO[str]]

_SHOWN_MISSING = 5  # missing-threshold ids quoted in an error message


def _read_text(source: Source) -> str:
    try:
        if isinstance(source, (str, Path)):
            return Path(source).read_text()
        return source.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {exc.start} cannot be decoded") from None


def _write_text(target: Source, text: str) -> None:
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)


def _int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer {what}, got {token!r}", lineno) from None


def load_instance(source: Source) -> Instance:
    """Parse the text format; raises ParseError with a line number on bad input."""
    n = m = None
    edges: list[tuple[int, int]] = []
    edge_seen: set[tuple[int, int]] = set()
    thresholds: dict[int, int] = {}
    k = None
    for lineno, raw in enumerate(_read_text(source).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise ParseError("duplicate problem header", lineno)
            if len(parts) != 4 or parts[1] != "hs":
                raise ParseError(f"malformed header {line!r}, expected 'p hs <n> <m>'", lineno)
            n = _int(parts[2], "vertex count", lineno)
            m = _int(parts[3], "edge count", lineno)
            if n < 0 or m < 0:
                raise ParseError("vertex and edge counts must be non-negative", lineno)
        elif tag == "e":
            if n is None:
                raise ParseError("edge line before the problem header", lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {line!r}", lineno)
            u = _int(parts[1], "vertex id", lineno)
            v = _int(parts[2], "vertex id", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range 1..{n} in edge {u} {v}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in edge_seen:
                raise ParseError(f"duplicate edge {u} {v}", lineno)
            edge_seen.add(key)
            edges.append(key)
        elif tag == "t":
            if n is None:
                raise ParseError("threshold line before the problem header", lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed threshold line {line!r}", lineno)
            v = _int(parts[1], "vertex id", lineno)
            t = _int(parts[2], "threshold", lineno)
            if not 1 <= v <= n:
                raise ParseError(f"vertex id {v} out of range 1..{n}", lineno)
            if t < 1:
                raise ParseError(f"threshold of vertex {v} must be >= 1, got {t}", lineno)
            if v - 1 in thresholds:
                raise ParseError(f"duplicate threshold for vertex {v}", lineno)
            thresholds[v - 1] = t
        elif tag == "k":
            if len(parts) != 2:
                raise ParseError(f"malformed target line {line!r}", lineno)
            if k is not None:
                raise ParseError("duplicate target line", lineno)
            k = _int(parts[1], "target size", lineno)
            if k < 0:
                raise ParseError("target size k must be non-negative", lineno)
        else:
            raise ParseError(f"unknown line tag {tag!r}", lineno)
    if n is None:
        raise ParseError("missing 'p hs <n> <m>' header")
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges but {len(edges)} were given")
    if len(thresholds) < n:
        # thresholds only holds ids below n, so the scan stops within
        # len(thresholds) + _SHOWN_MISSING steps whatever the header says
        missing = n - len(thresholds)
        shown = list(islice((v + 1 for v in range(n) if v not in thresholds), _SHOWN_MISSING))
        more = f" and {missing - len(shown)} more" if missing > len(shown) else ""
        raise ParseError(f"missing threshold for vertices {shown}{more}")
    graph = Graph.from_edges(n, edges)
    return Instance(graph, tuple(thresholds[v] for v in range(n)), k)


def save_instance(instance: Instance, target: Source) -> None:
    """Write the canonical text form (sorted edges, thresholds in id order)."""
    out = [f"p hs {instance.n} {instance.graph.m}"]
    for u, v in instance.graph.edges():
        out.append(f"e {u + 1} {v + 1}")
    for v, t in enumerate(instance.thresholds):
        out.append(f"t {v + 1} {t}")
    if instance.k is not None:
        out.append(f"k {instance.k}")
    _write_text(target, "\n".join(out) + "\n")


def instance_to_doc(instance: Instance, roles: dict | None = None) -> dict:
    doc = {
        "format": "harmlesskit-instance",
        "n": instance.n,
        "edges": [[u, v] for u, v in instance.graph.edges()],
        "thresholds": list(instance.thresholds),
        "k": instance.k,
    }
    if roles is not None:
        doc["roles"] = roles
    return doc


def _json_int(value, what: str) -> int:
    # a JSON integer decodes to int; int() would also take a float such as
    # 1.9 or a boolean, which are no integers
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, not {type(value).__name__}")
    return value


def doc_to_instance(doc: dict) -> Instance:
    try:
        n = _json_int(doc["n"], "n")
        edges = [(_json_int(u, "an edge end"), _json_int(v, "an edge end"))
                 for u, v in doc["edges"]]
        thresholds = tuple(_json_int(t, "a threshold") for t in doc["thresholds"])
        k = doc.get("k")
        k = None if k is None else _json_int(k, "k")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed instance document: {exc}") from None
    if len(thresholds) != n:  # before the graph allocates n adjacency lists
        raise ParseError(
            f"malformed instance document: {len(thresholds)} thresholds for {n} vertices"
        )
    return Instance(Graph.from_edges(n, edges), thresholds, k)


def load_instance_json(source: Source) -> Instance:
    # the decoded text as it is: splitlines would also split at U+2028,
    # U+2029 and U+0085, which JSON allows raw inside a string
    text = _read_text(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg} (column {exc.colno})", exc.lineno) from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise ParseError("invalid JSON: nested too deeply") from None
    return doc_to_instance(doc)


def save_instance_json(instance: Instance, target: Source, roles: dict | None = None) -> None:
    _write_text(target, dumps(instance_to_doc(instance, roles)) + "\n")


def load_any_instance(path: str | Path) -> Instance:
    """Dispatch on extension: .json documents, anything else the text format."""
    path = Path(path)
    if path.suffix == ".json":
        return load_instance_json(path)
    return load_instance(path)


def save_any_instance(instance: Instance, path: str | Path, roles: dict | None = None) -> None:
    """Dispatch on extension like ``load_any_instance``; the text format has
    no place for ``roles`` and leaves them out."""
    path = Path(path)
    if path.suffix == ".json":
        save_instance_json(instance, path, roles)
    else:
        save_instance(instance, path)


def dumps(doc: dict) -> str:
    """Canonical JSON used for all reports: sorted keys, stable layout."""
    return json.dumps(doc, indent=2, sort_keys=True)
