"""Per-layer spans recorded from outside the program.

Each traced function is replaced, in every ``harmlesskit`` namespace that
holds it, by a wrapper that times the call and records the span that caused
it.  Spans are aggregated in memory per (parent, name) edge, which keeps a
traced pass with millions of BFS calls small, and are written out once at
the end.  Self time is a span's duration minus the time of its direct
child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer name, module, attribute); a dotted attribute names a method.
# Layer names are ``<module>.<function>``; the kernels module is called
# ``core`` because metric names must start with a letter.
LAYERS = [
    ("cli.main", "harmlesskit.cli", "main"),
    ("io.load_any_instance", "harmlesskit.io", "load_any_instance"),
    ("io.load_instance", "harmlesskit.io", "load_instance"),
    ("io.load_instance_json", "harmlesskit.io", "load_instance_json"),
    ("io.instance_to_doc", "harmlesskit.io", "instance_to_doc"),
    ("io.dumps", "harmlesskit.io", "dumps"),
    ("graph.check_vertex_set", "harmlesskit.graph", "Graph.check_vertex_set"),
    ("graph.Graph.without_vertex", "harmlesskit.graph", "Graph.without_vertex"),
    ("graph.AnnotatedInstance.without_vertex", "harmlesskit.graph", "AnnotatedInstance.without_vertex"),
    ("graph.bfs_distances", "harmlesskit.graph", "bfs_distances"),
    ("graph.ball", "harmlesskit.graph", "ball"),
    ("graph.is_harmless", "harmlesskit.graph", "is_harmless"),
    ("graph.compute_core", "harmlesskit.graph", "compute_core"),
    ("sparsity.r_projection", "harmlesskit.sparsity", "r_projection"),
    ("sparsity.projection_profile", "harmlesskit.sparsity", "projection_profile"),
    ("sparsity.projection_closure", "harmlesskit.sparsity", "projection_closure"),
    ("sparsity.domination_scattered", "harmlesskit.sparsity", "domination_scattered"),
    ("sparsity.greedy_dominating", "harmlesskit.sparsity", "greedy_dominating"),
    ("sparsity.uqw_scattered", "harmlesskit.sparsity", "uqw_scattered"),
    ("sparsity.verify_waterlily", "harmlesskit.sparsity", "verify_waterlily"),
    ("sparsity.build_waterlily", "harmlesskit.sparsity", "build_waterlily"),
    ("kernelize.kernelize", "harmlesskit.kernelize", "kernelize"),
    ("kernelize.core_reduction", "harmlesskit.kernelize", "_core_reduction"),
    ("kernelize.shrink_graph_step", "harmlesskit.kernelize", "shrink_graph_step"),
    ("kernelize.to_plain_kernel", "harmlesskit.kernelize", "to_plain_kernel"),
    ("solvers.brute_force_max", "harmlesskit.solvers", "brute_force_max"),
    ("solvers.vc_solve", "harmlesskit.solvers", "vc_solve"),
    ("solvers.greedy_vertex_cover", "harmlesskit.solvers", "greedy_vertex_cover"),
    ("solvers.build_ilp", "harmlesskit.solvers", "build_ilp"),
    ("solvers.ilp_solve", "harmlesskit.solvers", "ilp_solve"),
    ("core.max_harmless", "harmlesskit._core._pykernels", "max_harmless"),
    ("core.vc_scan", "harmlesskit._core._pykernels", "vc_scan"),
    ("core.max_harmless", "harmlesskit._core._ckernels", "max_harmless"),
    ("core.vc_scan", "harmlesskit._core._ckernels", "vc_scan"),
    ("reduction.build_reduction", "harmlesskit.reduction", "build_reduction"),
    ("reduction.verify_reduction", "harmlesskit.reduction", "verify_reduction"),
    ("reduction.load_mcc", "harmlesskit.reduction", "load_mcc"),
]

LILY_STAGES = (
    "query-set", "closure", "profile-class", "scattering",
    "roots", "pads", "uniform-class", "verification",
)


def _closure_rounds(tracer, args, kwargs, result):
    # vertices the closure absorbed: |output| - |input|
    start = args[1] if len(args) > 1 else kwargs["X"]
    tracer.counts["sparsity.projection_closure.rounds"] += len(result) - len(frozenset(start))


def _lily_outcome(tracer, args, kwargs, result):
    stage = getattr(result, "stage", None)
    key = "ok" if stage is None else f"fail.{stage}"
    tracer.counts[f"sparsity.build_waterlily.{key}"] += 1


def _cover_masks(tracer, args, kwargs, result):
    tracer.counts["solvers.vc_solve.masks"] += 2 ** len(result)


HOOKS = {
    "sparsity.projection_closure": _closure_rounds,
    "sparsity.build_waterlily": _lily_outcome,
    "solvers.greedy_vertex_cover": _cover_masks,
}


class Tracer:
    """Installs the wrappers, aggregates spans, and removes itself again."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, list] = defaultdict(lambda: [0, 0.0])  # (parent, name)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    def reset(self) -> None:
        """Start a fresh per-call tally; the span tree keeps accumulating."""
        self.stats.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn):
        stack, depth, hook = self._stack, self._depth, HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                row = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                if not depth[name]:  # count nested calls of one layer once
                    row[1] += elapsed
                row[2] += elapsed - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                edge = tracer.edges[(parent[0] if parent else None, name)]
                edge[0] += 1
                edge[1] += elapsed
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module_name, attr in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:  # the compiled kernels are optional
                continue
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, leaf)
            wrapper = self._wrappers.get(id(original))
            if wrapper is None:
                wrapper = self._wrappers[id(original)] = self._wrap(name, original)
            self._patch(holder, leaf, original, wrapper)
            if owner:
                continue
            # modules that imported the function by name call their own copy
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("harmlesskit") and mod is not module:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, holder, attr, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def flat(self) -> dict[str, float]:
        """The current tally as ``<layer>.<calls|total_s|self_s>`` plus counts."""
        out: dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        return out

    def span_tree(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": calls, "total_s": total}
            for (parent, name), (calls, total) in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
            )
        ]
