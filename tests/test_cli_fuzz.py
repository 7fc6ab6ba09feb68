"""Malformed input files never crash the command line.

Every file drawn here is malformed by construction: it carries at least one
fault that each loader rejects wherever it stands (a bad header, a bad
line, a missing field, a byte that is not UTF-8, a cut-off document).  The
rest of the file is random, so the fault may not be the first error the
loader meets, but some error it must meet.  Whatever it is, ``cli.main``
has to return 2 after printing exactly one message line.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmlesskit.cli import main

NUMBERS = st.one_of(st.integers(-2, 9), st.integers(), st.just(10**30)).map(str)
TOKENS = st.one_of(
    NUMBERS,
    st.sampled_from(["p", "hs", "mcc", "e", "t", "k", "c", "1.5", "0x1", "-", "١"]),
    st.text(max_size=4),
)
FREE_TEXT = st.text(max_size=12)
NOT_UTF8 = b"\xff"  # never part of a UTF-8 sequence

# fields after each line tag of a well-formed file
HS_ARITY = {"p hs": 2, "e": 2, "t": 2, "k": 1, "c": 1}
MCC_ARITY = {"p mcc": 2, "e": 4, "c": 1}
# each line alone makes a file malformed, before or after a header
HS_FAULTS = ["p hs x 0", "p hs -1 0", "e 1", "e 1 1", "t 1", "t 1 0", "k", "k -1", "z 1"]
MCC_FAULTS = ["p mcc x 1", "p mcc 1 1", "p mcc 2 0", "e 1", "e 1 1 1 1", "e 1 0 2 1", "z 1"]


@st.composite
def _shaped_line(draw, arity):
    """A tag and mostly the right number of random fields."""
    tag = draw(st.sampled_from(sorted(arity)))
    size = draw(st.one_of(st.just(arity[tag]), st.integers(0, 5)))
    return " ".join([tag, *draw(st.lists(TOKENS, min_size=size, max_size=size))])


@st.composite
def _with_fault(draw, arity, faults):
    lines = draw(st.lists(st.one_of(_shaped_line(arity), FREE_TEXT), max_size=10))
    if draw(st.booleans()):  # a sound header, so the lines after it are parsed in full
        header = next(tag for tag in arity if tag.startswith("p "))
        lines.insert(0, f"{header} {draw(st.integers(2, 4))} {draw(st.integers(1, 4))}")
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(faults)))
    return "\n".join(lines).encode()


@st.composite
def _valid_hs_minus_one_line(draw):
    """A valid instance without one of its edge or threshold lines."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = [p for p in pairs if draw(st.booleans())]
    lines = [f"p hs {n} {len(edges)}"]
    lines += [f"e {u} {v}" for u, v in edges]
    lines += [f"t {v} {draw(st.integers(1, 4))}" for v in range(1, n + 1)]
    del lines[draw(st.integers(1, len(lines) - 1))]
    if draw(st.booleans()):
        lines.append(f"k {draw(st.integers(0, n))}")
    return "\n".join(lines).encode()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=5), kids, max_size=4),
    max_leaves=12,
)
REQUIRED_KEYS = ("n", "edges", "thresholds")


@st.composite
def _instance_doc(draw, min_n=0):
    n = draw(st.integers(min_n, 6))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    return {
        "n": n,
        "edges": [p for p in pairs if draw(st.booleans())],
        "thresholds": [draw(st.integers(1, 4)) for _ in range(n)],
        "k": draw(st.none() | st.integers(0, n)),
    }


@st.composite
def _faulty_doc(draw):
    """An instance document with one field out of its domain."""
    doc = draw(_instance_doc(min_n=1))
    n = doc["n"]
    fault = draw(st.sampled_from(["threshold", "self-loop", "edge-range", "k", "count", "drop"]))
    if fault == "threshold":
        doc["thresholds"][draw(st.integers(0, n - 1))] = draw(st.integers(max_value=0))
    elif fault == "self-loop":
        v = draw(st.integers(0, n - 1))
        doc["edges"].append([v, v])
    elif fault == "edge-range":
        doc["edges"].append([0, n + draw(st.integers(0, 3))])
    elif fault == "k":
        doc["k"] = draw(st.integers(max_value=-1))
    elif fault == "count":
        doc["n"] = n + draw(st.sampled_from([-1, 1, 10**9]))
    else:
        del doc[draw(st.sampled_from(REQUIRED_KEYS))]
    return doc


@st.composite
def _json_files(draw):
    kind = draw(st.sampled_from(["not-an-object", "missing-key", "bad-field", "cut-off"]))
    if kind == "not-an-object":
        doc = draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    elif kind == "missing-key":
        keys = st.sampled_from(["k", "roles", "format"]) | st.text(max_size=5)
        keys = keys.filter(lambda key: key not in REQUIRED_KEYS)
        doc = draw(st.dictionaries(keys, JSON_VALUES, max_size=4))
        present = draw(st.sets(st.sampled_from(REQUIRED_KEYS), max_size=2))
        doc.update({key: draw(JSON_VALUES) for key in present})
    elif kind == "bad-field":
        doc = draw(_faulty_doc())
    else:
        text = json.dumps(draw(_instance_doc()))
        return text[: draw(st.integers(0, len(text) - 1))].encode()
    return json.dumps(doc).encode()


@st.composite
def _not_utf8(draw, files):
    data = draw(files)
    at = draw(st.integers(0, len(data)))
    return data[:at] + NOT_UTF8 + data[at:]


def _malformed(files):
    return st.one_of(files, _not_utf8(files))


CASES = {
    ".hs": (
        ["solve", "kernelize", "stats"],
        _malformed(st.one_of(_with_fault(HS_ARITY, HS_FAULTS), _valid_hs_minus_one_line())),
    ),
    ".json": (["solve", "kernelize", "stats"], _malformed(_json_files())),
    ".mcc": (["reduce-mcc", "verify-reduction"], _malformed(_with_fault(MCC_ARITY, MCC_FAULTS))),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("suffix", sorted(CASES))
def test_malformed_file_exits_2_with_one_line(fuzz_dir, suffix):
    commands, files = CASES[suffix]
    path = fuzz_dir / f"input{suffix}"

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(command=st.sampled_from(commands), data=files)
    def check(command, data):
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        message = err.getvalue()
        assert (code, out.getvalue()) == (2, ""), message
        assert message.startswith("harmlesskit: error: ") and message.count("\n") == 1
        assert "Traceback" not in message

    check()
