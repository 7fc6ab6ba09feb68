import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harmlesskit
from harmlesskit import Instance, cli, compute_core, reduction
from harmlesskit.cli import main
from harmlesskit.generators import grid_graph, random_instance
from harmlesskit.io import load_instance, save_instance
from harmlesskit.solvers import DEFAULT_BRUTE_CAP, brute_force_max
from harmlesskit.sparsity import build_waterlily

from cases import deep_packing_instance

TRIANGLE_TEXT = """\
p hs 3 3
e 1 2
e 2 3
e 1 3
t 1 2
t 2 2
t 3 2
k 1
"""

NO_CORE_TEXT = """\
p hs 2 1
e 1 2
t 1 1
t 2 1
k 1
"""

MCC_EDGE = "p mcc 2 1\ne 1 1 2 1\n"


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "triangle.hs"
    path.write_text(TRIANGLE_TEXT)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_solve_brute_triangle(capsys, triangle):
    code, out = run(capsys, "solve", "--method", "brute", triangle)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["optimum"] == 1
    assert doc["result"]["decision"] is True
    assert doc["version"]
    assert doc["config"]["method"] == "brute"


def test_solve_vc_matches(capsys, triangle):
    code, out = run(capsys, "solve", "--method", "vc", triangle)
    assert code == 0
    assert json.loads(out)["result"]["optimum"] == 1


def test_solve_accepts_json_instances(capsys, tmp_path):
    doc = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "thresholds": [2, 2, 2], "k": 1}
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "solve", path)
    assert code == 0
    assert json.loads(out)["result"]["optimum"] == 1


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
def test_solve_accepts_line_separators_inside_json_strings(capsys, tmp_path, separator):
    # JSON allows these raw inside a string, though str.splitlines splits at them
    doc = {"n": 1, "edges": [], "thresholds": [1], "note": f"a{separator}b"}
    path = tmp_path / "note.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code, out = run(capsys, "solve", path)
    assert code == 0
    assert json.loads(out)["result"]["optimum"] == 1


def test_solve_decide_exit_code(capsys, tmp_path):
    path = tmp_path / "no.hs"
    path.write_text(NO_CORE_TEXT)
    code, _ = run(capsys, "solve", "--decide", path)
    assert code == 1
    code, _ = run(capsys, "solve", path)
    assert code == 0


def test_solve_text_format(capsys, triangle):
    code, out = run(capsys, "solve", "--format", "text", triangle)
    assert code == 0
    assert "optimum 1" in out
    assert "YES" in out


def test_reports_are_byte_identical(capsys, triangle):
    _, first = run(capsys, "solve", triangle)
    _, second = run(capsys, "solve", triangle)
    assert first == second


def test_timing_flag_adds_timing(capsys, triangle):
    _, out = run(capsys, "solve", "--timing", triangle)
    assert "timing_ms" in json.loads(out)["result"]


@pytest.mark.parametrize("command", ["solve", "kernelize", "reduce-mcc", "verify-reduction"])
def test_timing_adds_only_timing_ms(capsys, triangle, tmp_path, command):
    argv = _subcommand_argv(command, triangle, tmp_path)
    plain = run(capsys, *argv)
    timed = run(capsys, *argv, "--timing")
    assert timed[0] == plain[0] == 0
    plain_doc, timed_doc = json.loads(plain[1]), json.loads(timed[1])
    ms = timed_doc["result"].pop("timing_ms")
    assert isinstance(ms, float) and ms >= 0
    assert timed_doc["config"].pop("timing") is True
    assert plain_doc["config"].pop("timing") is False
    assert timed_doc == plain_doc
    # the text renderings do not show timing
    assert run(capsys, *argv, "--format", "text", "--timing") == run(
        capsys, *argv, "--format", "text"
    )


def test_kernelize_no_instance_exits_1(capsys, tmp_path):
    path = tmp_path / "no.hs"
    path.write_text(NO_CORE_TEXT)
    code, out = run(capsys, "kernelize", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["decision"] == "no"
    assert doc["result"]["report"]["outcome"] == "kernel"


def test_kernelize_writes_kernel(capsys, triangle, tmp_path):
    # the triangle with k=1 resolves to an early YES: the emitted kernel is
    # the canonical constant-size YES instance, which holds only the two guards
    out_path = tmp_path / "kernel.hs"
    code, out = run(capsys, "kernelize", triangle, "--plain", "--kernel-out", out_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["decision"] == "yes"
    kernel = load_instance(out_path)
    assert (kernel.n, kernel.k) == (2, 0)

    # a NO instance passes through as a real kernel
    no_path = tmp_path / "no.hs"
    no_path.write_text(NO_CORE_TEXT)
    code, out = run(capsys, "kernelize", no_path, "--plain", "--kernel-out", tmp_path / "k2.hs")
    assert code == 1
    kernel = load_instance(tmp_path / "k2.hs")
    assert kernel.k == 1 and kernel.n >= 1


# optimum 2 < k: kernelize answers NO, while its annotated kernel, solved
# without the core, reaches 3
CORE_BOUND_TEXT = """\
p hs 6 4
e 1 3
e 1 4
e 1 6
e 3 4
t 1 1
t 2 1
t 3 1
t 4 1
t 5 1
t 6 1
k 3
"""


@pytest.mark.parametrize("suffix", [".hs", ".json"])
def test_kernel_out_needs_plain(capsys, tmp_path, suffix):
    path = tmp_path / "in.hs"
    path.write_text(CORE_BOUND_TEXT)
    kernel_path = tmp_path / f"kernel{suffix}"
    assert main(["kernelize", str(path), "--kernel-out", str(kernel_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("harmlesskit: error: ") and err.count("\n") == 1
    assert "--plain" in err and not kernel_path.exists()

    code, out = run(capsys, "kernelize", path, "--plain", "--kernel-out", kernel_path)
    assert (code, json.loads(out)["result"]["decision"]) == (1, "no")
    code, out = run(capsys, "solve", "--decide", kernel_path)
    assert (code, json.loads(out)["result"]["optimum"]) == (1, 2)


def test_plain_kernel_files_keep_the_decision(capsys, tmp_path):
    rng = random.Random(11)
    for case in range(100):
        n = rng.randint(1, 9)
        inst = random_instance(rng, n, t_max=rng.randint(1, 3), k=rng.randint(0, n))
        path = tmp_path / f"in{case}.hs"
        save_instance(inst, path)
        kernel_path = tmp_path / f"kernel{case}{('.hs', '.json')[case % 2]}"
        run(capsys, "kernelize", path, "--plain", "--kernel-out", kernel_path)
        want = brute_force_max(inst)[0] >= inst.k
        assert run(capsys, "solve", "--decide", kernel_path)[0] == (0 if want else 1), case


def test_reduce_and_verify_round_trip(capsys, tmp_path):
    mcc_path = tmp_path / "edge.mcc"
    mcc_path.write_text(MCC_EDGE)
    inst_path = tmp_path / "reduction.hs"
    roles_path = tmp_path / "reduction.roles.json"
    code, out = run(
        capsys,
        "reduce-mcc", mcc_path,
        "--instance-out", inst_path,
        "--roles-out", roles_path,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["instance_vertices"] == 16
    assert doc["result"]["target"] == 3
    inst = load_instance(inst_path)
    assert inst.n == 16 and inst.k == 3
    roles = json.loads(roles_path.read_text())
    assert roles["format"] == "harmlesskit-roles"
    assert len(roles["roles"]) == 16
    assert len(roles["modulator"]) == 6

    code, out = run(capsys, "verify-reduction", mcc_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["equivalence_ok"] and doc["result"]["forbidden_ok"]


def test_reduce_mcc_report_lists_few_missing_pairs(capsys, tmp_path):
    # the header alone declares C(1000, 2) = 499,500 colour pairs, none with an edge
    mcc_path = tmp_path / "header.mcc"
    mcc_path.write_text("p mcc 1000 3\n")
    roles_path = tmp_path / "header.roles.json"
    start = time.perf_counter()
    code, out = run(capsys, "reduce-mcc", mcc_path, "--roles-out", roles_path)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0
    first = [[1, j] for j in range(2, 12)]
    for doc in (json.loads(out)["result"], json.loads(roles_path.read_text())):
        assert doc["degenerate"] is True
        assert doc["missing_pair_count"] == 499500
        assert doc["missing_pairs"] == first


def test_main_reuses_its_parser_without_carrying_options(capsys, triangle):
    code, out = run(capsys, "solve", "--brute-cap", "5", triangle)
    assert code == 0
    assert json.loads(out)["config"]["brute_cap"] == 5
    code, out = run(capsys, "solve", triangle)
    assert code == 0
    assert json.loads(out)["config"]["brute_cap"] is None


def test_solve_decide_without_k_exits_2(capsys, tmp_path):
    path = tmp_path / "no-k.hs"
    path.write_text(NO_CORE_TEXT.replace("k 1\n", ""))
    assert main(["solve", "--decide", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("harmlesskit: error: ") and err.count("\n") == 1
    assert "--decide" in err
    assert run(capsys, "solve", path)[0] == 0


@pytest.mark.parametrize("option", ["--lily-depth", "--lily-target"])
def test_stats_lily_option_without_radius_exits_2(capsys, triangle, option):
    assert main(["stats", str(triangle), option, "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("harmlesskit: error: ") and err.count("\n") == 1
    assert f"{option} needs --lily-radius" in err


def test_stats_reports_profiles(capsys, triangle):
    code, out = run(capsys, "stats", triangle, "--radius", "1", "--x-ids", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["profile_count"] >= 1
    assert doc["result"]["x"] == [0, 1]


def test_stats_waterlily_dump(capsys, tmp_path):
    star = ["p hs 7 6"] + [f"e 1 {i}" for i in range(2, 8)]
    star += [f"t {i} 2" for i in range(1, 8)]
    path = tmp_path / "star.hs"
    path.write_text("\n".join(star) + "\n")
    code, out = run(
        capsys,
        "stats", path,
        "--x-ids", ",".join(str(i) for i in range(2, 8)),
        "--lily-radius", "2", "--lily-depth", "1", "--lily-target", "6",
    )
    assert code == 0
    lily = json.loads(out)["result"]["waterlily"]
    assert lily["ok"] and lily["roots"] == [0]


@pytest.mark.parametrize(
    "option, value, quoted",
    [
        ("--x-ids", "a", "'a'"),
        ("--x-ids", "0", "vertex 0 "),
        ("--x-ids", "9", "vertex 9 "),
        ("--x-size", "-1", "-1"),
        ("--x-ids", "", "got ''"),
    ],
    ids=["x-ids-not-int", "x-ids-0", "x-ids-9", "x-size-negative", "x-ids-empty"],
)
def test_stats_bad_target_set_exits_2(capsys, triangle, option, value, quoted):
    assert main(["stats", str(triangle), option, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("harmlesskit: error: ") and err.count("\n") == 1
    assert option in err and quoted in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["stats", "{f}", "--radius", "-1"], "--radius"),
        (["stats", "{f}", "--lily-radius", "-1", "--lily-depth", "-1"], "--lily-radius"),
        (["stats", "{f}", "--lily-radius", "1", "--lily-depth", "-1"], "--lily-depth"),
        (["fuzz", "--count", "-1"], "--count"),
    ],
    ids=["radius", "lily-radius", "lily-depth", "fuzz-count"],
)
def test_negative_size_option_exits_2(capsys, triangle, argv, option):
    assert main([a.format(f=triangle) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("harmlesskit: error: ") and err.count("\n") == 1
    assert f"{option} must be non-negative" in err


def test_stats_waterlily_uses_the_closure_bound(capsys, tmp_path):
    # on this grid the closure bound decides the stage at which the lily
    # fails: "closure" at bound 2, "profile-class" at the default 4
    grid = grid_graph(6, 6)
    path = tmp_path / "grid.hs"
    save_instance(Instance(grid, (2,) * grid.n), path)
    X = range(0, grid.n, 2)
    code, out = run(
        capsys,
        "stats", path,
        "--x-ids", ",".join(str(v + 1) for v in X),
        "--closure-bound", "2",
        "--lily-radius", "2", "--lily-depth", "1", "--lily-target", "3",
    )
    assert code == 0
    want = build_waterlily(grid, X, 2, 1, 3, c_close=2)
    assert want.stage != build_waterlily(grid, X, 2, 1, 3).stage
    assert json.loads(out)["result"]["waterlily"] == {
        "ok": False, "stage": want.stage, "detail": want.detail
    }


@pytest.mark.parametrize("suite", ["hereditary", "kernel", "vc", "reduction"])
def test_fuzz_suites_pass(capsys, suite):
    code, out = run(capsys, "fuzz", "--suite", suite, "--count", "8", "--seed", "3")
    assert code == 0
    assert json.loads(out)["result"]["passed"]


@pytest.mark.parametrize("suite", ["hereditary", "kernel", "vc", "reduction"])
def test_fuzz_count_0_exits_2(capsys, suite):
    _assert_one_line_error(capsys, ["fuzz", "--suite", suite, "--count", "0"])


@pytest.mark.parametrize("workers", ["0", "2"])
def test_workers_other_than_1_exits_2(capsys, triangle, workers):
    assert main(["solve", "--method", "vc", "--workers", workers, str(triangle)]) == 2
    err = capsys.readouterr().err
    assert err == f"harmlesskit: error: --workers accepts only 1, got {workers}\n"


def test_solve_vc_report_is_the_same_with_workers_1(capsys, triangle):
    code, out = run(capsys, "solve", "--method", "vc", triangle)
    assert run(capsys, "solve", "--method", "vc", "--workers", "1", triangle) == (code, out)
    assert code == 0 and json.loads(out)["config"]["workers"] == 1


EMPTY_TEXT = "p hs 0 0\nk 0\n"
BRUTE_CAP_REFUSAL = "the brute-force cap must be non-negative, got -1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--brute-cap", "-1", "{f}"], BRUTE_CAP_REFUSAL),
        (["solve", "--method", "vc", "--cover-cap", "-1", "{f}"],
         "the cover cap must be non-negative, got -1"),
        (["verify-reduction", "--brute-cap", "-1", "{m}"], BRUTE_CAP_REFUSAL),
        (["fuzz", "--suite", "kernel", "--brute-cap", "-1"], BRUTE_CAP_REFUSAL),
        (["fuzz", "--suite", "vc", "--brute-cap", "-1"], BRUTE_CAP_REFUSAL),
        (["fuzz", "--suite", "reduction", "--brute-cap", "-1"], BRUTE_CAP_REFUSAL),
        (["kernelize", "-p", "0", "{f}"], "the threshold bound p must be at least 1, got 0"),
        (["kernelize", "-p", "-1", "{f}"], "the threshold bound p must be at least 1, got -1"),
    ],
    ids=[
        "solve-brute-cap", "solve-cover-cap", "verify-reduction", "fuzz-kernel", "fuzz-vc",
        "fuzz-reduction", "kernelize-p-0", "kernelize-p-negative",
    ],
)
def test_out_of_domain_cap_or_bound_exits_2(capsys, tmp_path, argv, message):
    # an empty instance: the value is refused, not a search it would bound
    empty = tmp_path / "empty.hs"
    empty.write_text(EMPTY_TEXT)
    mcc = tmp_path / "edge.mcc"
    mcc.write_text(MCC_EDGE)
    assert main([a.format(f=empty, m=mcc) for a in argv]) == 2
    assert capsys.readouterr().err == f"harmlesskit: error: {message}\n"


@pytest.mark.parametrize("suite", ["kernel", "vc", "reduction"])
def test_fuzz_passes_the_brute_cap_to_the_oracle(capsys, suite):
    argv = ["fuzz", "--suite", suite, "--count", "8", "--seed", "3", "--brute-cap", "0"]
    assert main(argv) == 2
    assert "exceed the brute-force cap 0" in capsys.readouterr().err


def test_fuzz_reduction_skips_by_the_brute_cap(capsys):
    argv = ["fuzz", "--suite", "reduction", "--count", "40", "--seed", "3"]
    default = run(capsys, *argv)
    wider = run(capsys, *argv, "--brute-cap", "40")
    assert default[0] == wider[0] == 0
    skipped = json.loads(default[1])["result"]["skipped"]
    assert skipped > json.loads(wider[1])["result"]["skipped"]
    code, out = run(capsys, *argv, "--format", "text")
    assert out == f"fuzz reduction x40: all passed, {skipped} skipped\n"


def test_fuzz_reduction_builds_h_once_per_case(capsys, monkeypatch):
    # every case is built once, few reduce to the degenerate NO-instance, and
    # a case is skipped only when the oracle refuses H's core
    built = []
    real = reduction.build_reduction

    def counted(mcc):
        built.append(real(mcc))
        return built[-1]

    monkeypatch.setattr(reduction, "build_reduction", counted)
    monkeypatch.setattr(cli, "build_reduction", counted)
    code, out = run(capsys, "fuzz", "--suite", "reduction", "--count", "200", "--seed", "0")
    assert code == 0
    assert len(built) == 200
    assert sum(h.degenerate for h in built) <= 40
    refused = sum(len(compute_core(h.instance)) > DEFAULT_BRUTE_CAP for h in built)
    assert json.loads(out)["result"]["skipped"] == refused <= 45


def test_fuzz_reduction_finds_each_cases_cliques_once(capsys, monkeypatch):
    calls = []
    real = reduction.MccInstance.cliques

    def counted(mcc):
        calls.append(mcc)
        return real(mcc)

    monkeypatch.setattr(reduction.MccInstance, "cliques", counted)
    code, out = run(capsys, "fuzz", "--suite", "reduction", "--count", "200", "--seed", "0")
    assert code == 0
    checked = 200 - json.loads(out)["result"]["skipped"]
    assert len(calls) == checked == 159


def test_bad_input_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.hs"
    path.write_text("p hs 1 0\n")  # missing threshold line
    code, _ = run(capsys, "solve", path)
    assert code == 2
    code, _ = run(capsys, "solve", tmp_path / "missing.hs")
    assert code == 2


def _assert_one_line_error(capsys, argv):
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("harmlesskit: error: ") and err.count("\n") == 1


def test_verify_reduction_refuses_before_building_h(capsys, tmp_path):
    # H would have 2kn + m(n+1) = 500,001 selectable vertices, far above the cap
    path = tmp_path / "wide.mcc"
    path.write_text("p mcc 2 100000\ne 1 1 2 1\n")
    start = time.perf_counter()
    assert main(["verify-reduction", str(path)]) == 2
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert err == "harmlesskit: error: 500001 selectable vertices exceed the brute-force cap 24\n"
    assert elapsed < 1.0


def test_reduce_mcc_refuses_an_oversized_h_before_building_it(capsys, tmp_path):
    # H would have 3kn + 5C(k,2) + m(2n+1) + 2 = 1,600,008 vertices
    path = tmp_path / "wide.mcc"
    path.write_text("p mcc 2 200000\ne 1 1 2 1\n")
    start = time.perf_counter()
    assert main(["reduce-mcc", str(path)]) == 2
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert err == (
        "harmlesskit: error: the reduction would build 1600008 vertices, "
        "above the limit 1000000\n"
    )
    assert elapsed < 1.0


def test_verify_reduction_of_complete_k3_n2(capsys, tmp_path):
    # every one of the 12 possible edges: H has 2kn + m(n+1) = 48 selectable
    # vertices and the 2^3 member choices are all cliques
    pairs = ((1, 2), (1, 3), (2, 3))
    edges = [f"e {i} {x} {j} {y}" for i, j in pairs for x in (1, 2) for y in (1, 2)]
    path = tmp_path / "complete.mcc"
    path.write_text("\n".join(["p mcc 3 2", *edges]) + "\n")
    code, out = run(capsys, "verify-reduction", "--brute-cap", "48", path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["equivalence_ok"] and result["forbidden_ok"]
    assert result["clique_count"] == 8
    assert result["optimum"] == result["target"] == 21
    assert len(result["witness"]) == 21


MALFORMED_INSTANCE_FILES = {
    "truncated.json": b'{"n": 2, "edges": [[0, 1]], "thresh',
    "latin1.hs": b"p hs 1 0\nt 1 1\nc caf\xe9\n",
    "latin1.json": b'{"n": 1, "edges": [], "thresholds": [1], "k": "\xe9"}',
    "overflow.json": b'{"n": 1, "edges": [], "thresholds": [1e400]}',
    "deep.json": b"[" * 100_000,
    # int() would read these as integers: 1.9 as 1, true as 1
    "float-threshold.json": b'{"n": 1, "edges": [], "thresholds": [1.9]}',
    "float-k.json": b'{"n": 1, "edges": [], "thresholds": [1], "k": 1.0}',
    "bool-n.json": b'{"n": true, "edges": [], "thresholds": [true]}',
    "bool-edge.json": b'{"n": 2, "edges": [[false, true]], "thresholds": [1, 1]}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INSTANCE_FILES))
def test_malformed_instance_file_exits_2(capsys, tmp_path, name):
    path = tmp_path / name
    path.write_bytes(MALFORMED_INSTANCE_FILES[name])
    _assert_one_line_error(capsys, ["solve", path])


def test_non_utf8_mcc_file_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.mcc"
    path.write_bytes(b"p mcc 2 1\ne 1 1 2 1\nc caf\xe9\n")
    _assert_one_line_error(capsys, ["verify-reduction", path])


@pytest.mark.parametrize("header", ["p mcc 2 1500", "p mcc 300 3"])
def test_verify_reduction_of_header_only_file_is_fast(capsys, tmp_path, header):
    # cliques() used to try all n^k member tuples whatever the edges
    path = tmp_path / "empty.mcc"
    path.write_text(header + "\n")
    start = time.perf_counter()
    code, out = run(capsys, "verify-reduction", path)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["result"]["clique_count"] == 0


def test_brute_force_on_1500_free_vertices(capsys, tmp_path):
    # the brute-force search used to recurse once per candidate
    path = tmp_path / "edgeless.hs"
    path.write_text("p hs 1500 0\n" + "".join(f"t {v} 1\n" for v in range(1, 1501)))
    code, out = run(capsys, "solve", "--method", "brute", "--brute-cap", "5000", path)
    assert code == 0
    assert json.loads(out)["result"]["optimum"] == 1500


# the options each subcommand reads, beyond --format and --output (common to
# all), and so the keys of its report's config
CONFIG_KEYS = {
    "solve": {"input", "method", "decide", "timing", "brute_cap", "cover_cap", "workers"},
    "kernelize": {"input", "max_threshold", "kernel_out", "plain", "timing"},
    "reduce-mcc": {"input", "instance_out", "roles_out", "timing"},
    "verify-reduction": {"input", "timing", "brute_cap"},
    "stats": {
        "input", "radius", "x_ids", "x_size", "closure_bound",
        "lily_radius", "lily_depth", "lily_target", "seed",
    },
    "fuzz": {"suite", "count", "brute_cap", "seed"},
}
SHARED_OPTIONS = {
    "--timing": "timing",
    "--seed": "seed",
    "--workers": "workers",
    "--brute-cap": "brute_cap",
    "--cover-cap": "cover_cap",
}


def _subcommand_argv(command, triangle, tmp_path):
    if command in ("reduce-mcc", "verify-reduction"):
        mcc_path = tmp_path / "edge.mcc"
        mcc_path.write_text(MCC_EDGE)
        return [command, mcc_path]
    if command == "fuzz":
        return [command, "--count", "1"]
    return [command, triangle]


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_lists_only_options_the_subcommand_reads(capsys, triangle, tmp_path, command):
    code, out = run(capsys, *_subcommand_argv(command, triangle, tmp_path))
    assert code == 0
    assert set(json.loads(out)["config"]) == CONFIG_KEYS[command]


@pytest.mark.parametrize(
    "command, option",
    [
        (command, option)
        for command in sorted(CONFIG_KEYS)
        for option, key in SHARED_OPTIONS.items()
        if key not in CONFIG_KEYS[command]
    ],
)
def test_inert_option_is_a_usage_error(capsys, triangle, tmp_path, command, option):
    value = [] if option == "--timing" else ["1"]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in _subcommand_argv(command, triangle, tmp_path)] + [option, *value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "variable, method", [("HARMLESSKIT_BRUTE_CAP", "brute"), ("HARMLESSKIT_COVER_CAP", "vc")]
)
def test_cap_variables_change_nothing(capsys, monkeypatch, triangle, variable, method):
    # a cap that config does not record must not change the outcome
    argv = ["solve", "--method", method, triangle]
    before = run(capsys, *argv)
    monkeypatch.setenv(variable, "1")
    assert run(capsys, *argv) == before
    assert before[0] == 0


def _run_optimised(args):
    """``python -O -m harmlesskit.cli``: asserts are stripped, so every
    guard the run relies on must be an explicit raise."""
    src = str(Path(harmlesskit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-m", "harmlesskit.cli", *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_cli_under_python_O_never_shows_a_traceback(triangle, tmp_path):
    deep = tmp_path / "deep.hs"
    save_instance(deep_packing_instance(), deep)
    done = _run_optimised(["solve", "--method", "vc", deep])
    assert (done.returncode, json.loads(done.stdout)["result"]["optimum"]) == (0, 1001)
    assert "Traceback" not in done.stderr

    done = _run_optimised(["stats", triangle, "--x-ids", "a"])
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "--x-ids" in done.stderr

    bad = tmp_path / "bad-header.hs"
    bad.write_text("p hs three 0\n")
    done = _run_optimised(["solve", bad])
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "line 1" in done.stderr
