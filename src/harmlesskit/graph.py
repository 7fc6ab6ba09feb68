"""Graph and instance model, harmlessness semantics and threshold bookkeeping.

Vertices are dense integers ``0..n-1``.  Every type here is immutable after
construction, so instances can be shared read-only; file ids (1-based) are
translated at the I/O boundary only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import InvalidArgumentError

INFINITY = math.inf


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with dense vertex ids and tuple adjacency."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, rejecting self-loops, duplicates and bad ids."""
        if n < 0:
            raise InvalidArgumentError(f"vertex count must be non-negative, got {n}")
        seen: set[tuple[int, int]] = set()
        pairs: list[tuple[int, int]] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidArgumentError(f"edge ({u}, {v}) uses a vertex id outside [0, {n})")
            if u == v:
                raise InvalidArgumentError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidArgumentError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            pairs.append(key)
        return cls(n, _rows(n, pairs))

    @property
    def m(self) -> int:
        return sum(len(ns) for ns in self.adj) // 2

    def neighbors(self, u: int) -> tuple[int, ...]:
        self.check_vertex(u)
        return self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as ordered pairs (u < v), sorted lexicographically."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise InvalidArgumentError(f"vertex id {u} out of range [0, {self.n})")

    def check_vertex_set(self, vs: Iterable[int]) -> frozenset[int]:
        vs = frozenset(vs)
        for u in vs:
            self.check_vertex(u)
        return vs

    def without_vertex(self, v: int) -> "Graph":
        """Delete ``v``; vertices above it shift down by one to stay dense."""
        self.check_vertex(v)
        return self.induced(u for u in range(self.n) if u != v)[0]

    def induced(self, keep: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on ``keep``; returns it plus the old->new id map."""
        kept = sorted(self.check_vertex_set(keep))
        remap = {old: new for new, old in enumerate(kept)}
        # the remap keeps ids in order, so every row stays sorted
        adj = tuple(tuple(remap[w] for w in self.adj[u] if w in remap) for u in kept)
        return Graph(len(kept), adj), remap


def _rows(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency rows of the graph on ``0..n-1`` with edges ``pairs``.

    The caller has checked the pairs: ids in range, no self-loop, no edge
    twice.  ``Graph.from_edges`` and the text loader each check them once.
    """
    neigh: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        neigh[u].append(v)
        neigh[v].append(u)
    return tuple(map(tuple, map(sorted, neigh)))


def bfs_distances(
    g: Graph,
    sources: Iterable[int] | int,
    *,
    blocked: Iterable[int] = (),
    removed: Iterable[int] = (),
    max_depth: Optional[int] = None,
) -> dict[int, int]:
    """Multi-source BFS returning reached vertices and their distances.

    ``removed`` vertices are invisible.  ``blocked`` vertices may be reached
    (they get a distance) but are never expanded, which is exactly the
    semantics of X-avoiding paths: internal vertices must avoid X while the
    endpoint may lie in X.  A blocked source still expands (its distance is
    zero, so it is not internal to any path).
    """
    if isinstance(sources, int):
        sources = (sources,)
    removed = frozenset(removed)
    blocked = frozenset(blocked)
    dist: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in sources:
        g.check_vertex(s)
        if s in removed:
            raise InvalidArgumentError(f"BFS source {s} is in the removed set")
        if s not in dist:
            dist[s] = 0
            queue.append(s)
    adj = g.adj
    while queue:
        u = queue.popleft()
        if u in blocked and dist[u] > 0:
            continue
        d = dist[u]
        if max_depth is not None and d >= max_depth:
            continue
        for w in adj[u]:
            if w in removed or w in dist:
                continue
            dist[w] = d + 1
            queue.append(w)
    return dist


def ball(g: Graph, v: int, radius: int, *, removed: Iterable[int] = ()) -> set[int]:
    """Closed ball: all vertices within ``radius`` of ``v`` (in ``g`` minus ``removed``)."""
    return set(bfs_distances(g, v, removed=removed, max_depth=radius))


def x_avoiding_distance(
    g: Graph, X: Iterable[int], u: int, v: int, r: int
) -> float:
    """Length of a shortest u-v path with internal vertices outside X, if <= r.

    Returns ``INFINITY`` when no such path exists within the radius.  The
    endpoint ``v`` may lie in X; the start ``u`` must not.
    """
    X = g.check_vertex_set(X)
    g.check_vertex(u)
    g.check_vertex(v)
    if u in X:
        raise InvalidArgumentError(f"start vertex {u} lies in the avoided set")
    if r < 0:
        raise InvalidArgumentError(f"radius must be non-negative, got {r}")
    dist = bfs_distances(g, u, blocked=X, max_depth=r)
    d = dist.get(v)
    return INFINITY if d is None or d > r else d


@dataclass(frozen=True)
class Instance:
    """A graph with per-vertex positive thresholds and an optional target size k."""

    graph: Graph
    thresholds: tuple[int, ...]
    k: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        if len(self.thresholds) != self.graph.n:
            raise InvalidArgumentError(
                f"{len(self.thresholds)} thresholds for {self.graph.n} vertices"
            )
        for v, t in enumerate(self.thresholds):
            if t < 1:
                raise InvalidArgumentError(f"threshold of vertex {v} must be >= 1, got {t}")
        if self.k is not None and self.k < 0:
            raise InvalidArgumentError(f"k must be non-negative, got {self.k}")

    @property
    def n(self) -> int:
        return self.graph.n

    def max_threshold(self) -> int:
        return max(self.thresholds, default=1)

    def require_k(self) -> int:
        if self.k is None:
            raise InvalidArgumentError("this operation needs a target size k, but none was set")
        return self.k

    def with_k(self, k: Optional[int]) -> "Instance":
        return Instance(self.graph, self.thresholds, k)

    def without_vertex(self, v: int) -> "Instance":
        g = self.graph.without_vertex(v)
        ts = self.thresholds[:v] + self.thresholds[v + 1 :]
        return Instance(g, ts, self.k)


def is_harmless(instance: Instance, S: Iterable[int]) -> bool:
    """True iff every vertex (members of S included) has fewer than t(v) neighbours in S."""
    S = instance.graph.check_vertex_set(S)
    hits: dict[int, int] = {}
    adj = instance.graph.adj
    for u in S:
        for w in adj[u]:
            hits[w] = hits.get(w, 0) + 1
    t = instance.thresholds
    return all(c < t[w] for w, c in hits.items())


def residual_budget(instance: Instance, S: Iterable[int], u: int) -> int:
    """Remaining selectable capacity at u: t(u) - |N(u) & S| - 1 (may be negative)."""
    S = instance.graph.check_vertex_set(S)
    instance.graph.check_vertex(u)
    used = sum(1 for w in instance.graph.adj[u] if w in S)
    return instance.thresholds[u] - used - 1


def cap_thresholds(instance: Instance) -> Instance:
    """Replace thresholds above k with k+1; the size-k decision is unchanged.

    A set of size k can push at most k neighbours onto any vertex, so
    thresholds beyond k+1 never bind.
    """
    k = instance.require_k()
    capped = tuple(min(t, k + 1) for t in instance.thresholds)
    return Instance(instance.graph, capped, instance.k)


def compute_core(instance: Instance) -> frozenset[int]:
    """All vertices but the threshold-1 vertices' neighbours; harmless sets live inside."""
    adj = instance.graph.adj
    fragile_hit = {w for u, t in enumerate(instance.thresholds) if t == 1 for w in adj[u]}
    return frozenset(range(instance.n)).difference(fragile_hit)


@dataclass(frozen=True)
class AnnotatedInstance:
    """Instance together with a solution core K: solutions are subsets of K."""

    instance: Instance
    core: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "core", self.instance.graph.check_vertex_set(self.core))

    @property
    def graph(self) -> Graph:
        return self.instance.graph

    def without_vertex(self, v: int) -> "AnnotatedInstance":
        inst = self.instance.without_vertex(v)
        core = frozenset(u - (u > v) for u in self.core if u != v)
        return AnnotatedInstance(inst, core)

    def shrink_core(self, drop: Iterable[int]) -> "AnnotatedInstance":
        return AnnotatedInstance(self.instance, self.core - frozenset(drop))
