#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the harmlesskit command line.

Usage (from the root of a source checkout; nothing needs installing):

    python3 perfbench/run.py --workload kernel-hard --seed 1 --seconds 30 --trace 0

Each workload is one process running a closed loop of in-process calls to
``harmlesskit.cli.main``, one after another, cycling over a corpus generated
from ``--seed`` until ``--seconds`` have passed (the first pass always
completes).  Every report is checked against the benchmark's own oracle.

* ``kernel-hard``: ``kernelize`` on bounded-degree graphs and 12x12 grids,
  each at k = opt and k = opt+1 (opt from the MILP oracle).  No rule ends
  the run early, so the waterlily pipeline and its projection closure do
  the work.
* ``kernel-early-yes``: ``kernelize`` on large bounded-degree graphs with k
  at most |core|/10, which is below the size of any maximal 1-scattered
  subset of the core when the maximum degree is 3, so every call ends in
  the scattered-set early YES and the closure is never reached.
* ``exact-solve``: ``solve --method brute``, ``solve --method vc`` and
  ``verify-reduction``; the kernelizer and the sparsity toolkit do no work.

``--trace 0`` prints the end-to-end metrics, measured with no wrappers.
``--trace 1`` alternates plain and traced calls and prints the per-layer
metrics: per pass over the corpus, ``<module>.<function>.<calls|total_s|
self_s>`` plus counts, and ``trace.overhead_s`` (traced minus plain pass
time).  The span tree is written to ``perfbench/out/``.

The last line of stdout is the result object; the line before it carries
the run's details (backend, report fingerprint, error rate, tail
percentile).  A human-readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from corpus import Call, Graph  # noqa: E402
from trace import LILY_STAGES, Tracer  # noqa: E402

SETUP_REPEATS = 3
ORACLE_TIMEOUT_S = 120

# The host's CPU speed drifts by tens of percent from one minute to the
# next, which swamps any change worth measuring.  A fixed pure-Python probe
# runs before every call; every time metric is scaled by PROBE_NOMINAL_S
# over the run's median probe time, so the drift cancels.  The constant
# only sets the scale of the reported times.
PROBE_NOMINAL_S = 0.002

# Sizes, edge counts and threshold proportions are fixed; the seed draws
# only the structure.  The cost of one call still varies with structure
# (exact search most of all), so a pass sums many calls of one shape, and
# the calls fall into groups of similar cost.  On kernel-hard the grids are
# the slowest group and hold the tail.  On exact-solve brute-force calls are
# the cheapest, k=2 reductions sit at the median and vertex-cover calls make
# the tail.
HARD_GRAPHS, HARD_N = 8, 150
HARD_GRIDS, HARD_GRID = 3, (12, 12)
HARD_THRESHOLDS = {1: 0.1, 2: 0.45, 3: 0.45}
EARLY_YES_SIZES = (2000, 2300, 2600, 2900, 3200, 3500, 3800, 4000)
EARLY_YES_THRESHOLDS = {1: 1 / 3, 2: 1 / 3, 3: 1 / 3}
BRUTE_GRAPHS, BRUTE_N, BRUTE_M = 24, 32, 48
VC_GRAPHS, VC_COVER, VC_LEAVES, VC_EXTRA_EDGES = 24, 18, 16, 20
MCC_SHAPES = ((2, 3, 5),) * 24 + ((3, 2, 6),) * 4  # (colours, class size, edges)

WORKLOADS = ("kernel-hard", "kernel-early-yes", "exact-solve")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

RULES = ("core-fragile", "core-exchange", "early-yes", "twin")

PER_LAYER = (
    [f"sparsity.projection_closure.{s}" for s in ("calls", "total_s", "self_s", "rounds")]
    + ["sparsity.r_projection.calls", "graph.check_vertex_set.calls"]
    + ["sparsity.build_waterlily.calls", "sparsity.build_waterlily.total_s"]
    + [f"sparsity.build_waterlily.fail.{stage}" for stage in LILY_STAGES]
    + ["sparsity.build_waterlily.ok_ratio"]
    + [f"sparsity.{f}.total_s" for f in ("greedy_dominating", "uqw_scattered", "verify_waterlily")]
    + ["sparsity.domination_scattered.total_s", "graph.ball.calls"]
    + ["graph.bfs_distances.calls", "graph.bfs_distances.self_s"]
    + ["kernelize.kernelize.total_s"]
    + ["kernelize.shrink_graph_step.calls", "kernelize.shrink_graph_step.total_s"]
    + ["graph.AnnotatedInstance.without_vertex.calls", "graph.AnnotatedInstance.without_vertex.total_s"]
    + [f"kernelize.rules.{rule}" for rule in RULES]
    + ["kernelize.kernel_size_per_k"]
    + ["solvers.brute_force_max.total_s", "core.max_harmless.calls", "core.max_harmless.total_s"]
    + ["solvers.vc_solve.total_s", "core.vc_scan.total_s", "solvers.vc_solve.masks"]
    + ["solvers.ilp_solve.total_s"]
    + ["reduction.build_reduction.total_s", "reduction.verify_reduction.total_s"]
    + ["io.load_any_instance.total_s", "io.dumps.total_s"]
    + ["cli.main.total_s", "cli.main.self_s", "trace.overhead_s"]
)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def _run_oracle(jobs: list[dict], workdir: Path) -> list[int]:
    """Optima from the MILP oracle, solved in a child process."""
    job_path, answer_path = workdir / "oracle-jobs.json", workdir / "oracle-answers.json"
    job_path.write_text(json.dumps(jobs))
    subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), str(job_path), str(answer_path)],
        check=True,
        timeout=ORACLE_TIMEOUT_S,
    )
    return json.loads(answer_path.read_text())


def _job(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edges, "thresholds": g.thresholds}


def build_kernel_hard(rng: random.Random, workdir: Path) -> list[Call]:
    n = HARD_N
    graphs = [
        Graph(n, corpus.bounded_degree_edges(rng, n), corpus.fixed_thresholds(rng, n, HARD_THRESHOLDS))
        for _ in range(HARD_GRAPHS)
    ]
    rows, cols = HARD_GRID
    n = rows * cols
    graphs += [
        Graph(n, corpus.grid_edges(rows, cols), corpus.fixed_thresholds(rng, n, HARD_THRESHOLDS))
        for _ in range(HARD_GRIDS)
    ]
    optima = _run_oracle([_job(g) for g in graphs], workdir)
    calls = []
    for idx, (g, opt) in enumerate(zip(graphs, optima)):
        for k in (opt, opt + 1):
            path = f"hard{idx:02d}-k{k}.hs"
            corpus.write_text(workdir / path, g, k)
            calls.append(Call(["kernelize", path], "kernelize", path, g, k=k, expect={"yes": k <= opt}))
    return calls


def build_kernel_early_yes(rng: random.Random, workdir: Path) -> list[Call]:
    calls = []
    for idx, n in enumerate(EARLY_YES_SIZES):
        g = Graph(n, corpus.bounded_degree_edges(rng, n), corpus.fixed_thresholds(rng, n, EARLY_YES_THRESHOLDS))
        # a maximal 1-scattered subset of the core has >= |core|/10 members:
        # each pick blocks its radius-2 ball, at most 1+3+6 vertices at degree 3
        k = max(1, len(corpus.core(g)) // 10)
        path = f"early{idx:02d}.json"
        corpus.write_json(workdir / path, g, k)
        calls.append(Call(["kernelize", path], "kernelize", path, g, k=k, expect={"yes": True, "early": True}))
    return calls


def build_exact_solve(rng: random.Random, workdir: Path) -> list[Call]:
    n = BRUTE_N
    brute = [
        Graph(n, corpus.gnm_edges(rng, n, BRUTE_M), corpus.fixed_thresholds(rng, n, {2: 0.5, 3: 0.5}))
        for _ in range(BRUTE_GRAPHS)
    ]
    vc = [corpus.cover_graph(rng, VC_COVER, VC_LEAVES, VC_EXTRA_EDGES) for _ in range(VC_GRAPHS)]
    optima = _run_oracle([_job(g) for g in brute + vc], workdir)
    calls = []
    for idx, (g, opt) in enumerate(zip(brute + vc, optima)):
        if idx < len(brute):
            path = f"brute{idx:02d}.json"
            corpus.write_json(workdir / path, g, None)
            argv = ["solve", "--method", "brute", "--brute-cap", "40", path]
        else:
            path = f"vc{idx - len(brute):02d}.hs"
            corpus.write_text(workdir / path, g, None)
            argv = ["solve", "--method", "vc", "--workers", "1", path]
        calls.append(Call(argv, "solve", path, g, expect={"optimum": opt}))
    for idx, (k, n, m) in enumerate(MCC_SHAPES):
        mcc = corpus.random_mcc(rng, k, n, m)
        path = f"mcc{idx:02d}.mcc"
        corpus.write_mcc(workdir / path, mcc)
        argv = ["verify-reduction", "--brute-cap", "40", path]
        calls.append(Call(argv, "verify", path, expect={"cliques": corpus.count_cliques(mcc)}))
    # interleave the commands so a pass cut short still samples all three
    rng.shuffle(calls)
    return calls


BUILDERS = {
    "kernel-hard": build_kernel_hard,
    "kernel-early-yes": build_kernel_early_yes,
    "exact-solve": build_exact_solve,
}


def build(workload: str, seed: int, workdir: Path) -> list[Call]:
    workdir.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, workdir)


# ---------------------------------------------------------------------------
# checks (run after the timed loop, on the first report of every call)
# ---------------------------------------------------------------------------

def _kernel_fixpoint_error(kernel: dict) -> str | None:
    """The kernel must be closed under the cheap rules the pipeline exhausts."""
    kg = Graph(kernel["n"], [tuple(e) for e in kernel["edges"]], kernel["thresholds"])
    in_core = set(kernel["roles"]["core"])
    adj = kg.adjacency()
    if any(kg.thresholds[w] == 1 for v in in_core for w in adj[v]):
        return "a core vertex keeps a threshold-1 neighbour"
    seen = set()
    for u in range(kg.n):
        if u not in in_core:
            key = frozenset(w for w in adj[u] if w in in_core)
            if key in seen:
                return "two vertices outside the core are still core-twins"
            seen.add(key)
    return None


def check_kernelize(call: Call, rc, text: str, milp) -> str | None:
    result = json.loads(text)["result"]
    report, decision = result["report"], result["decision"]
    truth = call.expect["yes"]
    want_rc = 1 if decision == "no" else 0
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if decision not in ("yes", "no", "unresolved") or (decision != "unresolved" and (decision == "yes") != truth):
        return f"decision {decision!r}, oracle says {'yes' if truth else 'no'}"
    if call.expect.get("early") and report["outcome"] != "yes":
        return "no early YES although k <= |core|/10"
    if report["outcome"] == "yes":
        cert = report["certificate"]
        if len(set(cert)) < call.k or not corpus.is_harmless(call.graph, cert):
            return "YES certificate is not a harmless set of size >= k"
        return None
    kernel = result["kernel"]
    if kernel["k"] != call.k:
        return f"kernel k={kernel['k']}, input k={call.k}"
    got = milp(kernel["n"], kernel["edges"], kernel["thresholds"], pool=kernel["roles"]["core"]) >= call.k
    if got != truth:
        return f"kernel decides {'yes' if got else 'no'}, oracle says {'yes' if truth else 'no'}"
    return _kernel_fixpoint_error(kernel)


def check_solve(call: Call, rc, text: str, milp) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    result = json.loads(text)["result"]
    if result["optimum"] != call.expect["optimum"]:
        return f"optimum {result['optimum']}, oracle {call.expect['optimum']}"
    witness = result["witness"]
    if len(set(witness)) != result["optimum"] or not corpus.is_harmless(call.graph, witness):
        return "witness is not a harmless set of the reported size"
    return None


def check_verify(call: Call, rc, text: str, milp) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    result = json.loads(text)["result"]
    if not (result["equivalence_ok"] and result["forbidden_ok"]):
        return "verification reported a failure"
    if result["clique_count"] != call.expect["cliques"]:
        return f"clique count {result['clique_count']}, oracle {call.expect['cliques']}"
    return None


CHECKS = {"kernelize": check_kernelize, "solve": check_solve, "verify": check_verify}


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def speed_probe() -> float:
    """Time a fixed pure-Python loop: the host's current speed, inverted."""
    start = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    return time.perf_counter() - start


def invoke(cli, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


class Loop:
    """Closed loop over the corpus; records times, first outputs and tallies."""

    def __init__(self, cli, calls: list[Call], tracer: Tracer | None):
        self.cli, self.calls, self.tracer = cli, calls, tracer
        n = len(calls)
        self.plain: list[list[float]] = [[] for _ in range(n)]
        self.traced: list[list[float]] = [[] for _ in range(n)]
        self.layer: list[dict[str, float]] = [{} for _ in range(n)]
        self.first: list[tuple | None] = [None] * n
        self.probes: list[float] = []
        self.attempts = [0] * n
        self.mismatches = [0] * n

    def _record(self, i: int, rc, text: str, err: str) -> None:
        self.attempts[i] += 1
        if self.first[i] is None:
            self.first[i] = (rc, text, err)
        elif self.first[i][:2] != (rc, text):
            self.mismatches[i] += 1

    def _estimate(self, i: int) -> float:
        est = statistics.median(self.plain[i])
        return est + (statistics.median(self.traced[i]) if self.traced[i] else 0.0)

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        passes = 0
        while True:
            for i, call in enumerate(self.calls):
                if passes and time.perf_counter() - start + self._estimate(i) > seconds:
                    return
                self.probes.append(speed_probe())
                elapsed, rc, text, err = invoke(self.cli, call.argv)
                self.plain[i].append(elapsed)
                self._record(i, rc, text, err)
                if self.tracer is not None:
                    self._traced_call(i, call)
            passes += 1

    def _traced_call(self, i: int, call: Call) -> None:
        tracer = self.tracer
        tracer.reset()
        tracer.install()
        try:
            elapsed, rc, text, err = invoke(self.cli, call.argv)
        finally:
            tracer.uninstall()
        self.traced[i].append(elapsed)
        self._record(i, rc, text, err)
        sums = self.layer[i]
        for key, value in tracer.flat().items():
            sums[key] = sums.get(key, 0.0) + value

    def per_pass(self) -> dict[str, float]:
        """Per-layer values for one pass: per call, the mean over its traced samples."""
        totals: dict[str, float] = {}
        for sums, samples in zip(self.layer, self.traced):
            for key, value in sums.items():
                totals[key] = totals.get(key, 0.0) + value / len(samples)
        return totals


def pass_time(samples: list[list[float]]) -> float:
    """One pass over the corpus: the sum of each call's median time."""
    return sum(statistics.median(s) for s in samples)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    idx = max(0, len(ordered) - 11)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import harmlesskit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "harmlesskit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no harmlesskit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import harmlesskit.cli as cli
    from harmlesskit._core import DEFAULT_BACKEND

    if Path(cli.__file__).resolve().parents[1] != SRC:
        sys.exit(f"perfbench: imported harmlesskit from {cli.__file__}, not from {SRC}")
    return cli, DEFAULT_BACKEND


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    cli, backend = import_program()
    import_s = time.perf_counter() - start

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        setup_times, corpora = [], []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            corpora.append(build(args.workload, args.seed, Path(tmp) / f"setup{rep}"))
            setup_times.append(time.perf_counter() - start)
        calls = corpora[-1]
        stable_setup = all([c.expect for c in other] == [c.expect for c in calls] for other in corpora)

        tracer = Tracer() if args.trace else None
        loop = Loop(cli, calls, tracer)
        os.chdir(Path(tmp) / f"setup{SETUP_REPEATS - 1}")  # reports name inputs by relative path
        try:
            loop.run(args.seconds)
        finally:
            os.chdir(ROOT)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from oracle import max_harmless  # scipy loads only after the measurement

    errors = []
    failed = sum(loop.mismatches)
    for i, call in enumerate(calls):
        rc, text, err = loop.first[i]
        try:
            problem = rc if isinstance(rc, str) else CHECKS[call.kind](call, rc, text, max_harmless)
        except (ValueError, KeyError, TypeError) as exc:  # unparsable or incomplete report
            problem = f"bad report: {type(exc).__name__}: {exc}; stderr: {err.strip()[:200]}"
        if problem:
            failed += loop.attempts[i] - loop.mismatches[i]
            errors.append(f"{call.path}: {problem}")
        elif loop.mismatches[i]:
            errors.append(f"{call.path}: report differs between repeated calls")
    attempted = sum(loop.attempts)
    kernel_reports = [] if errors else [
        (call, json.loads(loop.first[i][1])["result"]["report"])
        for i, call in enumerate(calls)
        if call.kind == "kernelize"
    ]
    size_per_k = (
        statistics.mean(rep["final"]["graph"] / call.k for call, rep in kernel_reports)
        if kernel_reports
        else 0.0
    )
    fingerprint = hashlib.sha256("".join(f[1] for f in loop.first).encode()).hexdigest()

    plain = [t for s in loop.plain for t in s]
    tail_value, tail_pct, tail_beyond = tail(plain)
    probe_s = statistics.median(loop.probes)
    scale = PROBE_NOMINAL_S / probe_s
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": backend,
        "fingerprint": fingerprint,
        "calls_per_pass": len(calls),
        "error_rate": failed / attempted,
        "errors": errors[:10],
        "op_tail_percentile": round(tail_pct, 2),
        "op_tail_beyond": tail_beyond,
        "op_samples": len(plain),
        "kernel_size_per_k": size_per_k,
        "setup_reproducible": stable_setup,
        "probe_median_s": probe_s,
        "time_scale": scale,
    }
    if tracer is None:
        raw = {
            "setup_s": import_s + statistics.median(setup_times),
            "pass_s": pass_time(loop.plain),
            "op_p50_s": statistics.median(plain),
            "op_tail_s": tail_value,
        }
        details["unscaled"] = raw
        values = {name: value * scale for name, value in raw.items()}
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    else:
        layer = loop.per_pass()
        lily_calls = layer.get("sparsity.build_waterlily.calls", 0.0)
        layer["sparsity.build_waterlily.ok_ratio"] = (
            layer.get("sparsity.build_waterlily.ok", 0.0) / lily_calls if lily_calls else 0.0
        )
        for rule in RULES:  # applications per pass, from the reports
            layer[f"kernelize.rules.{rule}"] = sum(
                rep["rule_counts"].get(rule, 0) for _, rep in kernel_reports
            )
        layer["kernelize.kernel_size_per_k"] = size_per_k
        layer["trace.overhead_s"] = pass_time(loop.traced) - pass_time(loop.plain)
        for name in layer:
            if _unit(name) == "s":
                layer[name] *= scale
        metrics = {name: {"value": layer.get(name, 0.0), "unit": _unit(name)} for name in PER_LAYER}
        busiest = sorted(
            (key[: -len(".total_s")] for key in layer if key.endswith(".total_s")),
            key=lambda name: -layer[f"{name}.total_s"],
        )
        details["busiest_layers"] = busiest[:8]
        details["trace_file"] = _write_trace(args, tracer, layer)

    print(json.dumps(details, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:>16}  {name:<48} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    if errors:
        print("\n".join(errors), file=sys.stderr)
    correct = failed == 0 and stable_setup
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "per_k")):
        return "ratio"
    return "count"


def _write_trace(args, tracer: Tracer, layer: dict) -> str:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {"workload": args.workload, "seed": args.seed, "per_pass": layer, "spans": tracer.span_tree()}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
