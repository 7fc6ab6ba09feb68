import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import harmlesskit
from harmlesskit.cli import main
from harmlesskit.io import load_instance, save_instance

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
    # the canonical constant-size YES instance
    out_path = tmp_path / "kernel.hs"
    code, out = run(capsys, "kernelize", triangle, "--kernel-out", out_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["decision"] == "yes"
    kernel = load_instance(out_path)
    assert (kernel.n, kernel.k) == (0, 0)

    # a NO instance passes through as a real (annotated) kernel
    no_path = tmp_path / "no.hs"
    no_path.write_text(NO_CORE_TEXT)
    code, out = run(capsys, "kernelize", no_path, "--kernel-out", tmp_path / "k2.hs")
    assert code == 1
    kernel = load_instance(tmp_path / "k2.hs")
    assert kernel.k == 1 and kernel.n >= 1


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


@pytest.mark.parametrize("suite", ["hereditary", "kernel", "vc", "reduction"])
def test_fuzz_suites_pass(capsys, suite):
    code, out = run(capsys, "fuzz", "--suite", suite, "--count", "8", "--seed", "3")
    assert code == 0
    assert json.loads(out)["result"]["passed"]


def test_bad_input_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.hs"
    path.write_text("p hs 1 0\n")  # missing threshold line
    code, _ = run(capsys, "solve", path)
    assert code == 2
    code, _ = run(capsys, "solve", tmp_path / "missing.hs")
    assert code == 2


@pytest.mark.parametrize(
    "variable, method", [("HARMLESSKIT_BRUTE_CAP", "brute"), ("HARMLESSKIT_COVER_CAP", "vc")]
)
def test_malformed_cap_variable_exits_2(capsys, monkeypatch, triangle, variable, method):
    monkeypatch.setenv(variable, "abc")
    assert main(["solve", "--method", method, str(triangle)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert variable in err and "'abc'" in err


def _run_optimised(args, env_extra=()):
    """``python -O -m harmlesskit.cli``: asserts are stripped, so every
    guard the run relies on must be an explicit raise."""
    src = str(Path(harmlesskit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("HARMLESSKIT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_extra)
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

    done = _run_optimised(["solve", triangle], {"HARMLESSKIT_BRUTE_CAP": "abc"})
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "HARMLESSKIT_BRUTE_CAP" in done.stderr

    bad = tmp_path / "bad-header.hs"
    bad.write_text("p hs three 0\n")
    done = _run_optimised(["solve", bad])
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "line 1" in done.stderr
