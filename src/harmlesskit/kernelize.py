"""Reduction rules and the bikernel pipeline for the annotated problem.

The pipeline first shrinks the solution core K (fragile neighbours, an
early-YES via scattering, or the waterlily exchange rule), then shrinks the
graph by removing core-twins outside K.  Every removal fires only when its
correctness-sufficient trigger condition verifiably holds on the current
instance, so the YES/NO answer is preserved unconditionally; the asymptotic
size guarantees of the underlying theory are tracked empirically instead of
being assumed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .errors import InvalidArgumentError, InvariantError
from .graph import (
    AnnotatedInstance,
    Graph,
    Instance,
    cap_thresholds,
    compute_core,
    is_harmless,
)
from .sparsity import LilyFailure, _greedy_scattered, _largest_class, build_waterlily

LILY_RADIUS = 2
LILY_DEPTH = 1


@dataclass(frozen=True)
class YesCertificate:
    """The instance is a YES: ``certificate`` is harmless and has size >= k."""

    certificate: frozenset[int]


@dataclass(frozen=True)
class RemoveVertices:
    """``vertices`` (ascending) can all be dropped from the solution core."""

    vertices: tuple[int, ...]
    rule: str


@dataclass(frozen=True)
class Stuck:
    """No core rule currently fires."""

    reason: str


CoreShrinkOutcome = Union[YesCertificate, RemoveVertices, Stuck]


def _signature(g: Graph, thresholds, R: frozenset[int], v: int):
    return frozenset(
        (thresholds[u], frozenset(w for w in g.adj[u] if w in R))
        for u in g.adj[v]
        if u not in R
    )


def signature(
    instance: Instance, R: Iterable[int], v: int
) -> frozenset[tuple[int, frozenset[int]]]:
    """How v's non-root neighbours connect to R: pairs (threshold, N(u) & R).

    Centres with equal signatures are interchangeable in any solution, which
    is what justifies the exchange rule.
    """
    g = instance.graph
    R = g.check_vertex_set(R)
    g.check_vertex(v)
    if v in R:
        raise InvalidArgumentError(f"vertex {v} lies in the root set")
    return _signature(g, instance.thresholds, R, v)


def _lily_targets(size: int) -> list[int]:
    targets = []
    t = size
    while t >= 1:
        targets.append(t)
        t //= 2
    return targets


def _core_reduction(ann: AnnotatedInstance, p: int) -> CoreShrinkOutcome:
    """One application of the core rules: YES, a batch of removable core
    vertices, or Stuck.  ``kernelize`` applies the whole batch."""
    inst = ann.instance
    g = inst.graph
    t = inst.thresholds
    K = ann.core
    k = inst.require_k()

    # (a) members of K with a fragile neighbour can never be selected
    fragile_hit = tuple(sorted(K - compute_core(inst)))
    if fragile_hit:
        return RemoveVertices(fragile_hit, "core-fragile")

    # (b) a large scattered subset of K is itself harmless: early YES
    scattered = frozenset(_greedy_scattered(g, K, 1))
    if len(scattered) >= k:
        if not is_harmless(inst, scattered):
            raise InvariantError("scattered certificate is not harmless")
        return YesCertificate(scattered)

    # (c) waterlily exchange: an oversized uniform signature class has
    # interchangeable centres, so all but p*|R| of them can leave the core.
    # It cannot fire unless some vertex has more than p neighbours in K, so
    # without one no waterlily is built.  This holds only at LILY_DEPTH = 1:
    # a centre lies in its own pad, which the roots 1-dominate, so it has a
    # root neighbour; uniform centres share their root neighbours, so one
    # root is adjacent to every centre; and the exchange needs more than
    # p*|R| >= p centres, all in K.
    hits = [0] * g.n
    for u in K:
        for w in g.adj[u]:
            hits[w] += 1
    if max(hits, default=0) <= p:
        return Stuck("no vertex has more than p core neighbours")
    for target in _lily_targets(len(K)):
        lily = build_waterlily(g, K, LILY_RADIUS, LILY_DEPTH, target)
        if isinstance(lily, LilyFailure):
            continue
        _, members = _largest_class(lily.centres, lambda c: _signature(g, t, lily.roots, c))
        keep = p * len(lily.roots)
        if len(members) > keep:
            return RemoveVertices(tuple(members[: len(members) - keep]), "core-exchange")
    return Stuck("no oversized uniform signature class found")


# the public name; ``kernelize`` calls ``_core_reduction``, the name a
# profiler or tracer patches
shrink_core_step = _core_reduction


def _twin_removals(ann: AnnotatedInstance) -> list[int]:
    """The core-twins outside K the twin rule removes, in order, as ids of ``ann``.

    Two outside vertices with the same neighbourhood inside K constrain
    solutions identically except for their thresholds; the larger threshold
    is implied by the smaller one, so that vertex goes (ties: higher id).
    Removals change no class, so each loses members in that order down to
    one.  The rule serves the class with the smallest lowest remaining id,
    which only grows: the order sorts by (that id, place in the class).
    """
    g = ann.graph
    t = ann.instance.thresholds
    K = ann.core
    groups: dict[frozenset[int], list[int]] = {}
    for u in range(g.n):
        if u not in K:
            groups.setdefault(frozenset(w for w in g.adj[u] if w in K), []).append(u)
    order = []
    for members in groups.values():
        *gone, low = sorted(members, key=lambda w: (t[w], w), reverse=True)
        for i in range(len(gone) - 1, -1, -1):
            low = min(low, gone[i])
            order.append((low, i, gone[i]))
    return [v for _, _, v in sorted(order)]


def shrink_graph_step(ann: AnnotatedInstance) -> Optional[int]:
    """The core-twin outside K the twin rule removes first, or None."""
    order = _twin_removals(ann)
    return order[0] if order else None


@dataclass(frozen=True)
class KernelStep:
    rule: str
    vertex: Optional[int]
    graph_size: int
    core_size: int


@dataclass(frozen=True)
class KernelReport:
    """Trace of a kernelization run: applied rules and size evolution."""

    p: int
    initial_graph_size: int
    initial_core_size: int
    final_graph_size: int
    final_core_size: int
    outcome: str  # 'kernel' | 'yes'
    certificate: Optional[tuple[int, ...]]
    steps: tuple[KernelStep, ...] = field(repr=False)

    def rule_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.steps:
            counts[s.rule] = counts.get(s.rule, 0) + 1
        return counts

    def to_doc(self) -> dict:
        return {
            "p": self.p,
            "initial": {"graph": self.initial_graph_size, "core": self.initial_core_size},
            "final": {"graph": self.final_graph_size, "core": self.final_core_size},
            "outcome": self.outcome,
            "certificate": None if self.certificate is None else list(self.certificate),
            "rule_counts": self.rule_counts(),
            "steps": [
                {"rule": s.rule, "vertex": s.vertex, "graph": s.graph_size, "core": s.core_size}
                for s in self.steps
            ],
        }


_YES_KERNEL = AnnotatedInstance(Instance(Graph.from_edges(0, ()), (), 0), frozenset())


def kernelize(
    instance: Instance, p: Optional[int] = None
) -> tuple[AnnotatedInstance, KernelReport]:
    """Run core rules to a fixpoint, then remove every core-twin at once.

    Without an explicit bound p the thresholds are first capped at k+1,
    which preserves the size-k decision.  An early YES yields the canonical
    constant-size YES instance with the certificate in the report.  The
    number of rule applications is at most |K| + |G|: the core strictly
    shrinks on core rules and the graph strictly shrinks on twin rules.
    An explicit p below 1 is refused: every threshold is at least 1.
    """
    k = instance.require_k()
    if p is None:
        work = cap_thresholds(instance)
        p = k + 1
    else:
        if p < 1:
            raise InvalidArgumentError(f"the threshold bound p must be at least 1, got {p}")
        if instance.n and instance.max_threshold() > p:
            raise InvalidArgumentError(
                f"threshold {instance.max_threshold()} exceeds the declared bound p={p}"
            )
        work = instance
    ann = AnnotatedInstance(work, compute_core(work))
    initial = (ann.graph.n, len(ann.core))
    steps: list[KernelStep] = []

    outcome = "kernel"
    certificate: Optional[tuple[int, ...]] = None
    while True:
        res = _core_reduction(ann, p)
        if isinstance(res, YesCertificate):
            outcome = "yes"
            certificate = tuple(sorted(res.certificate))
            steps.append(KernelStep("early-yes", None, _YES_KERNEL.graph.n, 0))
            ann = _YES_KERNEL
            break
        if isinstance(res, Stuck):
            break
        # one shrink per batch; each step counts the core as after its own removal
        n, core_size = ann.graph.n, len(ann.core)
        ann = ann.shrink_core(res.vertices)
        for i, x in enumerate(res.vertices, 1):
            steps.append(KernelStep(res.rule, x, n, core_size - i))

    if outcome == "kernel":
        # a step names v as numbered when it went: minus earlier removals below v
        n, core_size = ann.graph.n, len(ann.core)
        removed = _twin_removals(ann)
        gone: list[int] = []
        for v in removed:
            insort(gone, v)
            steps.append(KernelStep("twin", v - bisect_left(gone, v), n - len(gone), core_size))
        if removed:
            g, remap = ann.graph.induced(set(range(n)).difference(removed))
            inst = Instance(g, tuple(ann.instance.thresholds[u] for u in remap), k)
            ann = AnnotatedInstance(inst, frozenset(remap[u] for u in ann.core))

    report = KernelReport(
        p=p,
        initial_graph_size=initial[0],
        initial_core_size=initial[1],
        final_graph_size=ann.graph.n,
        final_core_size=len(ann.core),
        outcome=outcome,
        certificate=certificate,
        steps=tuple(steps),
    )
    return ann, report


def kernel_decision(ann: AnnotatedInstance, report: KernelReport) -> str:
    """Resolve the decision when the kernel makes it trivial."""
    if report.outcome == "yes":
        return "yes"
    k = ann.instance.require_k()
    if k == 0:
        return "yes"
    if len(ann.core) < k:
        return "no"
    return "unresolved"


def to_plain_kernel(ann: AnnotatedInstance) -> Instance:
    """Drop the annotation by adding two threshold-1 guards a and b.

    a is adjacent to everything outside K and to b, so no vertex outside
    K (nor a or b) can join a solution: solutions of the plain instance are
    exactly the annotated ones.  Note the pair is wired to the *complement*
    of K; wiring a to K itself would forbid the core instead.
    """
    inst = ann.instance
    n = inst.n
    a, b = n, n + 1
    edges = list(inst.graph.edges())
    edges.extend((u, a) for u in range(n) if u not in ann.core)
    edges.append((a, b))
    thresholds = inst.thresholds + (1, 1)
    return Instance(Graph.from_edges(n + 2, edges), thresholds, inst.k)
