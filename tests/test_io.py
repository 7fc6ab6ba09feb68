import io
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmlesskit import Graph, Instance, ParseError, load_instance, save_instance
from harmlesskit.io import (
    doc_to_instance,
    dumps,
    instance_to_doc,
    load_instance_json,
    save_any_instance,
    save_instance_json,
)
from harmlesskit.reduction import MccInstance, load_mcc, save_mcc
from harmlesskit.generators import random_instance
from oracles import reference_load_instance

TRIANGLE_TEXT = """\
c a triangle
p hs 3 3
e 1 2
e 2 3
e 1 3
t 1 2
t 2 2
t 3 2
k 1
"""


def test_load_triangle():
    inst = load_instance(io.StringIO(TRIANGLE_TEXT))
    assert inst.n == 3
    assert inst.graph.m == 3
    assert inst.thresholds == (2, 2, 2)
    assert inst.k == 1


def test_missing_threshold_is_an_error():
    text = "p hs 2 1\ne 1 2\nt 1 1\n"
    with pytest.raises(ParseError, match="missing threshold"):
        load_instance(io.StringIO(text))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p hs 2 1\ne 1 3\nt 1 1\nt 2 1\n", "out of range"),
        ("p hs 2 1\ne 1 1\nt 1 1\nt 2 1\n", "self-loop"),
        ("p hs 2 2\ne 1 2\ne 2 1\nt 1 1\nt 2 1\n", "duplicate edge"),
        ("p hs 2 1\ne 1 2\nt 1 0\nt 2 1\n", ">= 1"),
        ("p hs 2 1\ne 1 2\nt 1 1\nt 1 2\nt 2 1\n", "duplicate threshold"),
        ("p hs 2 0\nt 1 2\nt 2 2\nk 1\nk 5\n", "duplicate target line"),
        ("e 1 2\n", "before the problem header"),
        ("p hs 2 0\nt 1 1\nt 2 1\nz 3\n", "unknown line tag"),
        ("p hs 2 2\ne 1 2\nt 1 1\nt 2 1\n", "declares 2 edges"),
        ("", "missing 'p hs"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        load_instance(io.StringIO(text))


def test_parse_error_carries_line_number():
    text = "p hs 2 1\ne 1 2\nt 1 0\nt 2 1\n"
    with pytest.raises(ParseError, match="line 3"):
        load_instance(io.StringIO(text))


def test_text_round_trip_random():
    rng = random.Random(42)
    inst = random_instance(rng, 50, edge_prob=0.1, t_max=7, k=5)
    buf = io.StringIO()
    save_instance(inst, buf)
    again = load_instance(io.StringIO(buf.getvalue()))
    assert again == inst
    # and saving again is byte-stable
    buf2 = io.StringIO()
    save_instance(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_round_trip_without_k_and_empty():
    inst = Instance(Graph.from_edges(2, [(0, 1)]), (1, 2), None)
    buf = io.StringIO()
    save_instance(inst, buf)
    assert load_instance(io.StringIO(buf.getvalue())) == inst
    empty = Instance(Graph.from_edges(0, ()), (), 0)
    buf = io.StringIO()
    save_instance(empty, buf)
    assert load_instance(io.StringIO(buf.getvalue())) == empty


def test_json_round_trip(tmp_path):
    rng = random.Random(1)
    inst = random_instance(rng, 12, edge_prob=0.3, t_max=4, k=3)
    path = tmp_path / "inst.json"
    save_instance_json(inst, path, roles={"core": [0, 1]})
    assert load_instance_json(path) == inst
    doc = instance_to_doc(inst)
    assert doc_to_instance(doc) == inst


@pytest.mark.parametrize("suffix", [".json", ".hs", ""])
def test_save_any_instance_dispatches_on_the_suffix(tmp_path, suffix):
    inst = random_instance(random.Random(2), 9, edge_prob=0.3, t_max=3, k=2)
    roles = {"core": [0, 4]}
    want = io.StringIO()
    if suffix == ".json":
        save_instance_json(inst, want, roles=roles)
    else:
        save_instance(inst, want)  # the text format has no place for roles
    path = tmp_path / f"inst{suffix}"
    save_any_instance(inst, path, roles=roles)
    assert path.read_text() == want.getvalue()


def test_json_rejects_malformed():
    with pytest.raises(ParseError):
        doc_to_instance({"n": 2, "edges": [[0, 1]]})


def test_header_only_huge_n_fails_fast_with_a_short_message():
    # nothing proportional to n may be built before the thresholds are counted
    with pytest.raises(ParseError, match="missing threshold") as text_err:
        load_instance(io.StringIO(f"p hs {10**9} 0\n"))
    assert "[1, 2, 3, 4, 5] and 999999995 more" in str(text_err.value)
    with pytest.raises(ParseError, match="0 thresholds for 1000000000 vertices"):
        doc_to_instance({"n": 10**9, "edges": [], "thresholds": []})


def test_missing_thresholds_are_listed_in_full_when_few():
    with pytest.raises(ParseError, match=r"vertices \[1, 3\]$"):
        load_instance(io.StringIO("p hs 3 0\nt 2 1\n"))


def test_mcc_round_trip():
    mcc = MccInstance.from_edges(3, 2, [(1, 1, 2, 2), (2, 1, 3, 1), (3, 2, 1, 1)])
    buf = io.StringIO()
    save_mcc(mcc, buf)
    again = load_mcc(io.StringIO(buf.getvalue()))
    assert again == mcc


def test_mcc_parse_errors():
    with pytest.raises(ParseError, match="intra-class"):
        load_mcc(io.StringIO("p mcc 2 2\ne 1 1 1 2\n"))
    with pytest.raises(ParseError, match="header"):
        load_mcc(io.StringIO("e 1 1 2 1\n"))
    with pytest.raises(ParseError, match="malformed edge"):
        load_mcc(io.StringIO("p mcc 2 1\ne 1 1 2\n"))


# -- the report writer: the bytes of json.dumps(indent=2, sort_keys=True) --

def _stdlib_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def _outcome(write, doc):
    """The text a writer gives, or the type and message of what it raises."""
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
_FLOATS = st.floats() | _SPECIAL_FLOATS
_TEXT = st.text(max_size=6) | st.sampled_from(["", "\x00", "\x1f\t\n", "é", "\u2028", "😀", '"\\/'])
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT


@st.composite
def _int_lists(draw):
    items = draw(st.lists(st.integers(), max_size=8))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), True)
    return items


@st.composite
def _pair_lists(draw):
    pair = st.tuples(st.integers(), st.integers()).map(list) | st.tuples(st.integers(), st.integers())
    items = draw(st.lists(pair, max_size=6))
    odd = draw(st.sampled_from([None, "float", "triple"]))
    if items and odd:
        i = draw(st.integers(0, len(items) - 1))
        a, b = items[i]
        items[i] = [a, float(b)] if odd == "float" else [a, b, draw(st.integers())]
    return items


def _objects(values):
    """Dicts with one kind of key each (mixed kinds need not sort), and
    mixed int, float and bool keys, which do."""
    return (
        st.dictionaries(_TEXT, values, max_size=4)
        | st.dictionaries(st.integers(), values, max_size=3)
        | st.dictionaries(_FLOATS, values, max_size=3)
        | st.dictionaries(st.booleans(), values, max_size=2)
        | st.dictionaries(st.none(), values, max_size=1)
        | st.dictionaries(st.integers() | st.booleans() | st.floats(allow_nan=False), values, max_size=3)
    )


_DOCS = st.recursive(
    # one leaf in three a list the writer joins in one go, or nearly so
    st.integers(0, 2).flatmap(lambda i: (_SCALARS, _int_lists(), _pair_lists())[i]),
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple) | _objects(kids),
    max_leaves=24,
)


@settings(max_examples=400, derandomize=True)
@given(_DOCS)
def test_dumps_writes_the_bytes_of_the_stdlib(doc):
    assert _outcome(dumps, doc) == _outcome(_stdlib_dumps, doc)


def _circular():
    items = [1, "a"]
    items.append({"loop": items})
    return items


@pytest.mark.parametrize(
    "doc,error",
    [
        ({1, 2}, TypeError),
        ({"a": [1, {2}]}, TypeError),
        ([[1, 2], [3, {4}]], TypeError),
        ({(1, 2): 3}, TypeError),
        ({"a": 1, 2: "b"}, TypeError),
        (_circular(), ValueError),
    ],
    ids=["set", "nested-set", "set-in-pairs", "tuple-key", "unsortable-keys", "circular"],
)
def test_dumps_raises_what_the_stdlib_raises(doc, error):
    got = _outcome(dumps, doc)
    assert got == _outcome(_stdlib_dumps, doc)
    assert got[0] is error


# -- the text loader against the loader it replaced --

@st.composite
def _instance_lines(draw):
    """The lines of a valid instance file, edges in a drawn order."""
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    lines = ["c drawn instance", f"p hs {n} {len(edges)}"]
    lines += [f"e {v} {u}" if draw(st.booleans()) else f"e {u} {v}" for u, v in edges]
    lines += [f"t {v} {draw(st.integers(1, 3))}" for v in range(1, n + 1)]
    if draw(st.booleans()):
        lines.append(f"k {draw(st.integers(0, n))}")
    return lines


_MUTATIONS = (
    "drop", "duplicate", "swap", "tab", "nbsp", "crlf", "pad", "comment", "plus", "underscore",
    "reversed-edge", "self-loop", "out-of-range", "zero-id", "repeat-header", "repeat-target",
    "bad-token", "extra-token", "unknown-tag",
)


def _mutate(lines, draw):
    op = draw(st.sampled_from(_MUTATIONS))
    if not lines:
        return lines
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    tokens = line.split(" ")
    at = draw(st.integers(0, len(tokens) - 1))
    edges = [s for s in lines if s.startswith("e ")]
    if op == "drop":
        return lines[:i] + lines[i + 1 :]
    if op == "duplicate":
        return lines[:i] + [line] + lines[i:]
    if op == "swap":
        lines = list(lines)
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    if op in ("tab", "nbsp"):
        return lines[:i] + [line.replace(" ", "\t" if op == "tab" else "\u00a0", 1)] + lines[i + 1 :]
    if op == "crlf":
        return lines[:i] + [line + "\r"] + lines[i + 1 :]
    if op == "pad":
        return lines[:i] + [f" \t{line}\u00a0 "] + lines[i + 1 :]
    if op == "comment":
        return lines[:i] + [draw(st.sampled_from(["cx 1 2", "c", "comment e 1 2", "  c t 1 1"]))] + lines[i:]
    if op in ("plus", "underscore") and at > 0:
        tok = tokens[at]
        tokens[at] = f"+{tok}" if op == "plus" else (f"{tok[0]}_{tok[1:]}" if len(tok) > 1 else f"{tok}_0")
        return lines[:i] + [" ".join(tokens)] + lines[i + 1 :]
    if op == "reversed-edge" and edges:
        _, u, v = draw(st.sampled_from(edges)).split()
        return lines[:j] + [f"e {v} {u}"] + lines[j:]
    if op == "self-loop":
        v = draw(st.integers(1, 4))
        return lines[:j] + [f"e {v} {v}"] + lines[j:]
    if op == "unknown-tag":
        return lines[:j] + [draw(st.sampled_from(["z 1", "E 1 2", "x", "hs 1"]))] + lines[j:]
    if op in ("out-of-range", "zero-id"):
        bad = str(draw(st.integers(7, 12))) if op == "out-of-range" else draw(st.sampled_from(["0", "-1"]))
        return lines[:j] + [draw(st.sampled_from([f"e 1 {bad}", f"e {bad} 2", f"t {bad} 1"]))] + lines[j:]
    if op == "repeat-header":
        return lines[:j] + [draw(st.sampled_from(["p hs 3 0", "p hs 2", "p mcc 2 2"]))] + lines[j:]
    if op == "repeat-target":
        return lines[:j] + [draw(st.sampled_from(["k 1", "k -1", "k", "k 1 2"]))] + lines[j:]
    if op == "bad-token" and at > 0:
        tokens[at] = draw(st.sampled_from(["x", "1.5", "", "١", "0x1"]))
        return lines[:i] + [" ".join(tokens)] + lines[i + 1 :]
    if op == "extra-token":  # padded, as the message quotes the stripped line
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " \u00a0"]))
        return lines[:i] + [f"{lead}{line} 1{trail}"] + lines[i + 1 :]
    return lines


@st.composite
def _mutated_files(draw):
    lines = draw(_instance_lines())
    for _ in range(draw(st.integers(0, 3))):
        lines = _mutate(lines, draw)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _load_outcome(load, text):
    try:
        return load(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


@settings(max_examples=600, derandomize=True)
@given(_mutated_files())
def test_loader_matches_the_loader_it_replaced(text):
    got = _load_outcome(lambda s: load_instance(io.StringIO(s)), text)
    assert got == _load_outcome(reference_load_instance, text)


@pytest.mark.parametrize(
    "line",
    [
        "e x 2", "e 1 y", "e 1.0 2", "e +1 1_0", "t x 1", "t 1 y", "t ٣ 1", "t\t1\u00a02 ",
        "\te 1 2 3 ", " t 1 2 3\u00a0", "k 1 2\t", "\u00a0p hs 3", "p hs 3 1",
    ],
)
def test_loader_quotes_what_the_old_loader_quoted(line):
    # the line is the second one, after the header, or the first without it
    for text in (f"p hs 3 1\n{line}\ne 1 2\nt 1 1\nt 2 1\nt 3 1\n", f"{line}\n"):
        got = _load_outcome(lambda s: load_instance(io.StringIO(s)), text)
        assert got == _load_outcome(reference_load_instance, text)


def test_loader_checks_each_edge_once(monkeypatch):
    # the loader builds rows from the pairs it has checked; from_edges
    # would check them again with a second set of seen pairs
    def refuse(*args):
        raise AssertionError("Graph.from_edges called by the text loader")

    monkeypatch.setattr(Graph, "from_edges", refuse)
    inst = load_instance(io.StringIO(TRIANGLE_TEXT))
    assert inst.graph.adj == ((1, 2), (0, 2), (0, 1))
