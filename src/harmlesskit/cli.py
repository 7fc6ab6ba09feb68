"""Command-line front end.

Subcommands: solve, kernelize, reduce-mcc, verify-reduction, stats, fuzz.
Reports are JSON documents (sorted keys, no timestamps) so identical inputs
and configuration produce byte-identical output; pass ``--timing`` to embed
wall-clock measurements, which naturally breaks that guarantee.

Exit codes: 0 success, 1 for a NO answer when a decision was requested,
2 for errors (bad input, resource limits, failed verification).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from pathlib import Path

from . import __version__
from .errors import InvalidArgumentError, ParseError, ResourceLimitError
from .generators import (
    random_harmless_set,
    random_instance,
    random_mcc,
)
from .graph import compute_core, is_harmless
from .io import (
    dumps,
    instance_to_doc,
    load_any_instance,
    save_any_instance,
)
from .kernelize import kernel_decision, kernelize, to_plain_kernel
from .reduction import (
    MccInstance,
    build_reduction,
    check_reduction,
    construct_clique_solution,
    load_mcc,
    verify_reduction,
)
from .sparsity import (
    DEFAULT_CLOSURE_BOUND,
    LilyFailure,
    build_waterlily,
    count_profiles,
    projection_closure,
)
from .solvers import brute_force_max, vc_solve


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmlesskit",
        description="Harmless-set solvers, kernelization and hardness-instance tools",
    )
    parser.add_argument("--version", action="version", version=f"harmlesskit {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--output", "-o", help="write the report here instead of stdout")
    # every other option goes only to the subcommands that can read it; the
    # report's config records each option its subcommand accepts, also one
    # that the chosen --method, --suite or --x-ids leaves unread
    timing = _option("--timing", action="store_true", help="embed wall-clock timings")
    seed = _option("--seed", type=int, default=0)
    brute_cap = _option("--brute-cap", type=int, default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve", parents=[common, timing, brute_cap], help="exact maximum harmless set"
    )
    p.add_argument("input")
    p.add_argument("--method", choices=("brute", "vc"), default="brute")
    p.add_argument("--cover-cap", type=int, default=None)
    # the cover search runs in one process; --workers stays, accepting only 1,
    # while perfbench/run.py passes "solve --workers 1" and its reports record
    # config.workers
    p.add_argument("--workers", type=int, default=1, help="accepted only as 1")
    p.add_argument("--decide", action="store_true", help="exit 1 when the size-k decision is NO")

    p = sub.add_parser("kernelize", parents=[common, timing], help="run the reduction-rule pipeline")
    p.add_argument("input")
    p.add_argument("-p", "--max-threshold", type=int, default=None)
    p.add_argument("--kernel-out", help="write the plain kernel to this path (needs --plain)")
    p.add_argument(
        "--plain",
        action="store_true",
        help="emit the unannotated kernel (two guard vertices added)",
    )

    p = sub.add_parser(
        "reduce-mcc", parents=[common, timing], help="build the clique-reduction instance"
    )
    p.add_argument("input")
    p.add_argument("--instance-out", help="write the generated instance to this path")
    p.add_argument("--roles-out", help="write the vertex-role registry to this path")

    p = sub.add_parser(
        "verify-reduction",
        parents=[common, timing, brute_cap],
        help="desk-scale check of both reduction directions",
    )
    p.add_argument("input")

    p = sub.add_parser("stats", parents=[common, seed], help="projection/waterlily diagnostics")
    p.add_argument("input")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--x-ids", help="comma-separated 1-based target vertices")
    p.add_argument("--x-size", type=int, default=None, help="sample a random target set")
    p.add_argument("--closure-bound", type=int, default=DEFAULT_CLOSURE_BOUND)
    p.add_argument("--lily-radius", type=int, default=None)
    p.add_argument("--lily-depth", type=int, default=None)
    p.add_argument("--lily-target", type=int, default=None)

    p = sub.add_parser(
        "fuzz", parents=[common, brute_cap, seed], help="randomised oracle cross-checks"
    )
    p.add_argument(
        "--suite",
        choices=("hereditary", "kernel", "vc", "reduction"),
        default="hereditary",
    )
    p.add_argument("--count", type=int, default=50)
    return parser


def _emit(args, result: dict, renderer, ms=None) -> None:
    if ms is not None:
        result["timing_ms"] = ms
    report = {
        "tool": "harmlesskit",
        "version": __version__,
        "command": args.command,
        "config": _config_doc(args),
        "result": result,
    }
    if args.format == "json":
        text = dumps(report) + "\n"
    else:
        text = renderer(result) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _config_doc(args) -> dict:
    skip = {"command", "output", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _maybe_time(args, fn):
    start = time.perf_counter()
    value = fn()
    elapsed = (time.perf_counter() - start) * 1000.0
    return value, (round(elapsed, 3) if args.timing else None)


def _cmd_solve(args) -> int:
    if args.workers != 1:
        raise InvalidArgumentError(f"--workers accepts only 1, got {args.workers}")
    instance = load_any_instance(args.input)
    if args.decide and instance.k is None:
        raise InvalidArgumentError("--decide needs a target size k in the instance")
    if args.method == "brute":
        solver = functools.partial(brute_force_max, instance, cap=args.brute_cap)
    else:
        solver = functools.partial(vc_solve, instance, cap=args.cover_cap)
    (optimum, witness), ms = _maybe_time(args, solver)
    decision = None if instance.k is None else optimum >= instance.k
    result = {
        "method": args.method,
        "n": instance.n,
        "m": instance.graph.m,
        "k": instance.k,
        "optimum": optimum,
        "witness": sorted(witness),
        "decision": decision,
    }

    def render(r):
        lines = [f"optimum {r['optimum']} via {r['method']} on n={r['n']} m={r['m']}"]
        lines.append("witness: " + " ".join(str(v) for v in r["witness"]))
        if r["decision"] is not None:
            lines.append(f"decision (k={r['k']}): {'YES' if r['decision'] else 'NO'}")
        return "\n".join(lines)

    _emit(args, result, render, ms)
    return 1 if (args.decide and decision is False) else 0


def _cmd_kernelize(args) -> int:
    # the annotated kernel needs its core, which a kernel file cannot carry:
    # solved as a file, it would optimise over every vertex
    if args.kernel_out and not args.plain:
        raise InvalidArgumentError("--kernel-out writes the plain kernel only: add --plain")
    instance = load_any_instance(args.input)
    (ann, report), ms = _maybe_time(
        args, lambda: kernelize(instance, args.max_threshold)
    )
    decision = kernel_decision(ann, report)
    kernel_instance = to_plain_kernel(ann) if args.plain else ann.instance
    kernel_doc = instance_to_doc(
        kernel_instance, roles=None if args.plain else {"core": sorted(ann.core)}
    )
    result = {
        "report": report.to_doc(),
        "decision": decision,
        "kernel": kernel_doc,
        "plain": args.plain,
    }
    if args.kernel_out:
        save_any_instance(kernel_instance, args.kernel_out)

    def render(r):
        rep = r["report"]
        return "\n".join(
            [
                f"kernelize: {rep['initial']['graph']}/{rep['initial']['core']} -> "
                f"{rep['final']['graph']}/{rep['final']['core']} (graph/core)",
                f"rules: {rep['rule_counts']}",
                f"outcome: {rep['outcome']}, decision: {r['decision']}",
            ]
        )

    _emit(args, result, render, ms)
    return 1 if decision == "no" else 0


def _cmd_reduce_mcc(args) -> int:
    mcc = load_mcc(args.input)
    out, ms = _maybe_time(args, lambda: build_reduction(mcc))
    roles = out.roles_doc() if args.instance_out or args.roles_out else None
    if args.instance_out:
        save_any_instance(out.instance, args.instance_out, roles=roles)
    if args.roles_out:
        Path(args.roles_out).write_text(dumps(roles) + "\n")
    result = {
        "k": mcc.k,
        "n": mcc.n,
        "m": mcc.m,
        "target": out.target,
        "degenerate": out.degenerate,
        **out.missing_pairs_doc(),
        "instance_vertices": out.instance.n,
        "instance_edges": out.instance.graph.m,
        "modulator_size": len(out.modulator),
    }

    def render(r):
        return (
            f"reduction: k={r['k']} n={r['n']} m={r['m']} -> "
            f"{r['instance_vertices']} vertices, {r['instance_edges']} edges, "
            f"target {r['target']}"
            + (" (degenerate: missing colour pair)" if r["degenerate"] else "")
        )

    _emit(args, result, render, ms)
    return 0


def _cmd_verify_reduction(args) -> int:
    mcc = load_mcc(args.input)
    report, ms = _maybe_time(
        args,
        lambda: verify_reduction(mcc, cap=args.brute_cap),
    )
    result = report.to_doc()

    def render(r):
        status = "CONFIRMED" if report.ok else "FAILED"
        return (
            f"verification {status}: cliques={r['clique_count']} "
            f"optimum={r['optimum']} target={r['target']}"
        )

    _emit(args, result, render, ms)
    return 0 if report.ok else 2


def _vertex_id(token: str, n: int) -> int:
    """One 1-based vertex id from ``--x-ids``, checked against ``n``."""
    try:
        v = int(token)
    except ValueError:
        raise InvalidArgumentError(f"--x-ids: expected a vertex id, got {token!r}") from None
    if not 1 <= v <= n:
        raise InvalidArgumentError(f"--x-ids: vertex {v} out of range 1..{n}")
    return v


def _check_sizes(sizes: dict) -> None:
    """Reject a negative value of a size option; None means unset."""
    for option, value in sizes.items():
        if value is not None and value < 0:
            raise InvalidArgumentError(f"{option} must be non-negative, got {value}")


def _cmd_stats(args) -> int:
    _check_sizes({
        "--radius": args.radius,
        "--x-size": args.x_size,
        "--lily-radius": args.lily_radius,
        "--lily-depth": args.lily_depth,
    })
    if args.lily_radius is None:
        for option, value in (("--lily-depth", args.lily_depth), ("--lily-target", args.lily_target)):
            if value is not None:
                raise InvalidArgumentError(f"{option} needs --lily-radius")
    instance = load_any_instance(args.input)
    g = instance.graph
    rng = random.Random(args.seed)
    if args.x_ids is not None:
        X = frozenset(_vertex_id(tok, g.n) - 1 for tok in args.x_ids.split(","))
    else:
        size = max(1, g.n // 4) if args.x_size is None else args.x_size
        X = frozenset(rng.sample(range(g.n), min(size, g.n)))
    result = {
        "n": g.n,
        "m": g.m,
        "max_degree": max((len(g.adj[v]) for v in range(g.n)), default=0),
        "radius": args.radius,
        "x": sorted(X),
        "profile_count": count_profiles(g, X, args.radius),
        "closure_size": len(projection_closure(g, X, args.radius, args.closure_bound)),
    }
    if args.lily_radius is not None:
        lily = build_waterlily(
            g,
            X,
            args.lily_radius,
            args.lily_depth if args.lily_depth is not None else 1,
            args.lily_target if args.lily_target is not None else 1,
            c_close=args.closure_bound,
        )
        if isinstance(lily, LilyFailure):
            result["waterlily"] = {"ok": False, "stage": lily.stage, "detail": lily.detail}
        else:
            result["waterlily"] = {
                "ok": True,
                "roots": sorted(lily.roots),
                "centres": sorted(lily.centres),
                "radius": lily.radius,
                "depth": lily.depth,
            }

    def render(r):
        lines = [
            f"n={r['n']} m={r['m']} max_degree={r['max_degree']}",
            f"|X|={len(r['x'])} radius={r['radius']}: "
            f"{r['profile_count']} profiles, closure size {r['closure_size']}",
        ]
        if "waterlily" in r:
            lines.append(f"waterlily: {r['waterlily']}")
        return "\n".join(lines)

    _emit(args, result, render)
    return 0


def _cmd_fuzz(args) -> int:
    _check_sizes({"--count": args.count})
    if not args.count:  # a run that checks nothing does not pass
        raise InvalidArgumentError("--count 0 checks no case")
    rng = random.Random(args.seed)
    failures: list[str] = []
    skipped = 0  # cases whose oracle search would exceed the brute-force cap
    count = args.count
    if args.suite == "hereditary":
        for case in range(count):
            inst = random_instance(rng, rng.randint(1, 10))
            S = random_harmless_set(rng, inst)
            sub = frozenset(v for v in S if rng.random() < 0.5)
            if not is_harmless(inst, S):
                failures.append(f"case {case}: generated set not harmless")
            elif not is_harmless(inst, sub):
                failures.append(f"case {case}: subset of a harmless set not harmless")
            elif not S <= compute_core(inst):
                failures.append(f"case {case}: harmless set escapes the core")
    elif args.suite == "kernel":
        for case in range(count):
            n = rng.randint(1, 9)
            inst = random_instance(rng, n, k=rng.randint(0, n))
            ann, rep = kernelize(inst)
            want = brute_force_max(inst, cap=args.brute_cap)[0] >= inst.k
            got = (
                rep.outcome == "yes"
                or brute_force_max(ann.instance, candidates=ann.core, cap=args.brute_cap)[0]
                >= ann.instance.k
            )
            if want != got:
                failures.append(f"case {case}: kernel decision {got} != oracle {want}")
    elif args.suite == "vc":
        for case in range(count):
            inst = random_instance(rng, rng.randint(1, 12))
            b, _ = brute_force_max(inst, cap=args.brute_cap)
            v, w = vc_solve(inst)
            if b != v or not is_harmless(inst, w):
                failures.append(f"case {case}: vc={v} oracle={b}")
    elif args.suite == "reduction":
        for case in range(count):
            mcc = random_mcc(rng, rng.choice((2, 3)), rng.choice((1, 2)))
            # an edge in every colour pair: a missing pair reduces to the
            # canonical two-vertex NO-instance, which checks no gadget
            fill = [(i, rng.randint(1, mcc.n), j, rng.randint(1, mcc.n))
                    for i, j in mcc.missing_pairs()]
            mcc = MccInstance.from_edges(mcc.k, mcc.n, [*mcc.edges, *fill])
            out = build_reduction(mcc)
            try:
                rep = check_reduction(out, cap=args.brute_cap)
            except ResourceLimitError as exc:  # the oracle refuses H's core
                skipped += 1
                if skipped == count:  # a run that checks nothing does not pass
                    raise ResourceLimitError(f"all {count} cases were refused, the last with: {exc}")
                continue
            if not rep.ok:
                failures.append(f"case {case}: reduction check failed: {rep.to_doc()}")
            for clique in rep.cliques:
                sol = construct_clique_solution(out, clique)
                if len(sol) != out.target or not is_harmless(out.instance, sol):
                    failures.append(f"case {case}: clique solution invalid for {clique}")
    result = {
        "suite": args.suite,
        "count": count,
        "skipped": skipped,
        "failures": failures,
        "passed": not failures,
    }

    def render(r):
        status = "all passed" if r["passed"] else f"{len(r['failures'])} FAILURES"
        return f"fuzz {r['suite']} x{r['count']}: {status}, {r['skipped']} skipped"

    _emit(args, result, render)
    return 0 if not failures else 2


_COMMANDS = {
    "solve": _cmd_solve,
    "kernelize": _cmd_kernelize,
    "reduce-mcc": _cmd_reduce_mcc,
    "verify-reduction": _cmd_verify_reduction,
    "stats": _cmd_stats,
    "fuzz": _cmd_fuzz,
}


# built once per process: parsing leaves a parser unchanged, and one build
# constructs 11 of them
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, InvalidArgumentError, ResourceLimitError, OSError) as exc:
        print(f"harmlesskit: error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
