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
import math
from itertools import islice
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import IO, Union

from .errors import ParseError
from .graph import Graph, Instance, _rows

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
    """Parse the text format; raises ParseError with a line number on bad input.

    Each edge is checked once, here (ids, self-loop, duplicate), and the
    graph's rows are built from the checked pairs without a second check.
    """
    n = m = None
    edges: list[tuple[int, int]] = []
    edge_seen: set[tuple[int, int]] = set()
    thresholds: dict[int, int] = {}  # by 1-based vertex id
    k = None
    for lineno, raw in enumerate(_read_text(source).splitlines(), start=1):
        # split() and strip() share one definition of whitespace, so the
        # stripped line is needed only where a message quotes it
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "e":
            if n is None:
                raise ParseError("edge line before the problem header", lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {raw.strip()!r}", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:  # one of these raises, naming the bad token
                _int(parts[1], "vertex id", lineno)
                _int(parts[2], "vertex id", lineno)
                raise
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range 1..{n} in edge {u} {v}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if key in edge_seen:
                raise ParseError(f"duplicate edge {u} {v}", lineno)
            edge_seen.add(key)
            edges.append(key)
        elif tag == "t":
            if n is None:
                raise ParseError("threshold line before the problem header", lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed threshold line {raw.strip()!r}", lineno)
            try:
                v, t = int(parts[1]), int(parts[2])
            except ValueError:
                _int(parts[1], "vertex id", lineno)
                _int(parts[2], "threshold", lineno)
                raise
            if not 1 <= v <= n:
                raise ParseError(f"vertex id {v} out of range 1..{n}", lineno)
            if t < 1:
                raise ParseError(f"threshold of vertex {v} must be >= 1, got {t}", lineno)
            if v in thresholds:
                raise ParseError(f"duplicate threshold for vertex {v}", lineno)
            thresholds[v] = t
        elif tag[0] == "c":
            continue
        elif tag == "p":
            if n is not None:
                raise ParseError("duplicate problem header", lineno)
            if len(parts) != 4 or parts[1] != "hs":
                raise ParseError(
                    f"malformed header {raw.strip()!r}, expected 'p hs <n> <m>'", lineno
                )
            n = _int(parts[2], "vertex count", lineno)
            m = _int(parts[3], "edge count", lineno)
            if n < 0 or m < 0:
                raise ParseError("vertex and edge counts must be non-negative", lineno)
        elif tag == "k":
            if len(parts) != 2:
                raise ParseError(f"malformed target line {raw.strip()!r}", lineno)
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
        # thresholds only holds ids 1..n, so the scan stops within
        # len(thresholds) + _SHOWN_MISSING steps whatever the header says
        missing = n - len(thresholds)
        shown = list(islice((v for v in range(1, n + 1) if v not in thresholds), _SHOWN_MISSING))
        more = f" and {missing - len(shown)} more" if missing > len(shown) else ""
        raise ParseError(f"missing threshold for vertices {shown}{more}")
    graph = Graph(n, _rows(n, edges))
    return Instance(graph, tuple(map(thresholds.__getitem__, range(1, n + 1))), k)


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
    """Canonical JSON used for all reports: sorted keys, stable layout.

    The text is byte for byte that of ``json.dumps(doc, indent=2,
    sort_keys=True)``, errors included.  With an indent the stdlib takes
    its pure-Python encoder; this writer instead emits a list of plain ints,
    or of ``[int, int]`` pairs (a kernel's edges), with one join.
    """
    return _encode(doc, "\n", set())


_int_text = int.__repr__  # as the stdlib spells an int, also of an int subclass
_ARRAYS = (list, tuple)


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _encode(value, nl: str, open_ids: set[int]) -> str:
    """``value`` as json.dumps(indent=2, sort_keys=True) writes it where
    ``nl`` (a newline and the current indentation) ends a line.

    ``open_ids`` holds the containers being written, to refuse a cycle.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, _ARRAYS):
        return _encode_array(value, nl, open_ids)
    if isinstance(value, dict):
        return _encode_object(value, nl, open_ids)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _int_pairs(items) -> bool:
    for item in items:
        if type(item) not in _ARRAYS or len(item) != 2:
            return False
        if type(item[0]) is not int or type(item[1]) is not int:
            return False
    return True


def _encode_array(items, nl: str, open_ids: set[int]) -> str:
    if not items:
        return "[]"
    inner = nl + "  "
    sep = "," + inner
    if {*map(type, items)} == {int}:
        body = sep.join(map(_int_text, items))
    elif _int_pairs(items):
        deeper = inner + "  "
        body = sep.join([f"[{deeper}{a},{deeper}{b}{inner}]" for a, b in items])
    else:
        _enter(items, open_ids)
        body = sep.join([_encode(item, inner, open_ids) for item in items])
        open_ids.discard(id(items))
    return f"[{inner}{body}{nl}]"


def _encode_object(doc: dict, nl: str, open_ids: set[int]) -> str:
    if not doc:
        return "{}"
    _enter(doc, open_ids)
    inner = nl + "  "
    fields = []
    for key, value in sorted(doc.items()):
        if isinstance(key, str):
            pass
        elif isinstance(key, float):
            key = _float_text(key)
        elif key is True:
            key = "true"
        elif key is False:
            key = "false"
        elif key is None:
            key = "null"
        elif isinstance(key, int):
            key = _int_text(key)
        else:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        fields.append(f"{_encode_str(key)}: {_encode(value, inner, open_ids)}")
    open_ids.discard(id(doc))
    return "{" + inner + ("," + inner).join(fields) + nl + "}"


def _enter(container, open_ids: set[int]) -> None:
    if id(container) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(container))
