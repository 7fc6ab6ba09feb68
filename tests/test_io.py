import io
import random

import pytest

from harmlesskit import Graph, Instance, ParseError, load_instance, save_instance
from harmlesskit.io import (
    doc_to_instance,
    instance_to_doc,
    load_instance_json,
    save_any_instance,
    save_instance_json,
)
from harmlesskit.reduction import MccInstance, load_mcc, save_mcc
from harmlesskit.generators import random_instance

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
