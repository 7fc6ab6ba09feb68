"""Projections, domination/scattering and waterlily construction.

The cited algorithms behind these routines (Dvorak-style domination, the
quasi-wideness extraction, the projection closure) come with class-dependent
constants that are not available here, so each routine is a deterministic
greedy stand-in whose *output contract* is what downstream code relies on.
Every contract is checkable, and ``build_waterlily`` re-verifies its result
before returning it.

Greedy orders are deterministic throughout: descending degree, then
ascending vertex id.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .errors import InvalidArgumentError
from .graph import Graph, ball, bfs_distances

DEFAULT_CLOSURE_BOUND = 4
DEFAULT_HUB_BUDGET = 4


def _greedy_key(g: Graph):
    return lambda v: (-len(g.adj[v]), v)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def _finite_profile(g: Graph, X: frozenset[int], u: int, r: int) -> tuple[tuple[int, int], ...]:
    """Finite profile entries of ``u`` onto an already validated ``X``."""
    dist = bfs_distances(g, u, blocked=X, max_depth=r)
    return tuple(sorted((x, d) for x, d in dist.items() if x in X))


def projection_profile(g: Graph, X: Iterable[int], u: int, r: int) -> tuple[tuple[int, int], ...]:
    """Profile of ``u`` onto ``X`` at radius ``r``; requires ``u`` outside X.

    The sorted ``(member, distance)`` pairs of the members of X that an
    X-avoiding path of length <= r reaches; every other member is at
    infinity.
    """
    X = g.check_vertex_set(X)
    g.check_vertex(u)
    if u in X:
        raise InvalidArgumentError(f"vertex {u} lies in the target set")
    return _finite_profile(g, X, u, r)


def r_projection(g: Graph, X: Iterable[int], u: int, r: int) -> frozenset[int]:
    """Members of X reachable from u by an X-avoiding path of length <= r."""
    return frozenset(x for x, _ in projection_profile(g, X, u, r))


def count_profiles(g: Graph, X: Iterable[int], r: int) -> int:
    """Number of distinct r-projection profiles realised outside X.

    Diagnostic for tracking the linear-in-|X| profile bound empirically.
    """
    X = g.check_vertex_set(X)
    seen = {_finite_profile(g, X, u, r) for u in range(g.n) if u not in X}
    return len(seen)


def projection_closure(
    g: Graph, X: Iterable[int], r: int, c_close: int = DEFAULT_CLOSURE_BOUND
) -> frozenset[int]:
    """Grow X until every outside vertex projects onto at most c_close targets.

    Repeatedly absorbs the outside vertex with the largest projection (ties:
    lowest id); terminates after at most n additions since the set only
    grows.

    The closure is incremental.  X is validated once, and ``size[u]`` holds
    the r-projection size of every outside u onto the current set.  Absorbing
    w changes only the projections that reached w, and X-avoiding
    reachability is symmetric, so exactly the outside vertices found by a BFS
    from w (old set blocked, depth r) are recomputed.  A heap keyed by
    (-size, id) yields the next vertex; entries whose size changed since they
    were pushed, or whose vertex was absorbed, are skipped.
    """
    if c_close < 1:
        raise InvalidArgumentError(f"c_close must be >= 1, got {c_close}")
    closed = g.check_vertex_set(X)
    size = [0] * g.n
    heap: list[tuple[int, int]] = []
    stale = [u for u in range(g.n) if u not in closed]
    while True:
        for u in stale:
            reached = bfs_distances(g, u, blocked=closed, max_depth=r)
            size[u] = sum(1 for x in reached if x in closed)
            if size[u] > c_close:
                heapq.heappush(heap, (-size[u], u))
        while heap and (heap[0][1] in closed or size[heap[0][1]] != -heap[0][0]):
            heapq.heappop(heap)
        if not heap:
            return closed
        w = heapq.heappop(heap)[1]
        reached = bfs_distances(g, w, blocked=closed, max_depth=r)
        stale = [u for u in reached if u != w and u not in closed]
        closed = closed | {w}


# ---------------------------------------------------------------------------
# domination and scattering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominationResult:
    """An r-dominating set D of the query set plus an r-scattered I inside D."""

    dominating: frozenset[int]
    scattered: frozenset[int]


def _greedy_scattered(
    g: Graph, pool: Iterable[int], r: int, removed: frozenset[int] = frozenset()
) -> list[int]:
    """Maximal subset of ``pool`` with pairwise distance >= 2r+1 in g - removed."""
    picks: list[int] = []
    blocked: set[int] = set()
    for v in sorted(set(pool) - removed, key=_greedy_key(g)):
        if v not in blocked:
            picks.append(v)
            blocked |= ball(g, v, 2 * r, removed=removed)
    return picks


def _greedy_cover(g: Graph, X: frozenset[int], r: int, seeds: Iterable[int]) -> frozenset[int]:
    """Extend ``seeds`` by coverage-greedy picks until X lies within r of them.

    Each pick covers the most uncovered members of X (ties: higher degree,
    then lower id).  The loop is incremental: balls are cached for this call
    only, and ``gain[v]`` is |ball(v, r) & uncovered| for every vertex.
    Balls are symmetric, so the gain of v counts the uncovered x whose ball
    holds v; covering x therefore decrements exactly the vertices of
    ball(x, r).  Gains only fall, so a heap keyed by (-gain, -degree, id)
    re-pushes an entry whose gain moved when it surfaces, and the first
    current entry is the pick.
    """
    balls: dict[int, set[int]] = {}

    def ball_of(v: int) -> set[int]:
        b = balls.get(v)
        if b is None:
            b = balls[v] = ball(g, v, r)
        return b

    dom = list(seeds)
    uncovered = set(X)
    for v in dom:
        uncovered -= ball_of(v)
    gain: dict[int, int] = {}
    for x in uncovered:
        for v in ball_of(x):
            gain[v] = gain.get(v, 0) + 1
    adj = g.adj
    heap = [(-c, -len(adj[v]), v) for v, c in gain.items()]
    heapq.heapify(heap)
    while uncovered:
        neg_gain, neg_deg, v = heapq.heappop(heap)
        if -neg_gain != gain[v]:
            if gain[v]:
                heapq.heappush(heap, (-gain[v], neg_deg, v))
            continue
        dom.append(v)
        newly = ball_of(v) & uncovered
        uncovered -= newly
        for x in newly:
            for u in ball_of(x):
                gain[u] -= 1
    return frozenset(dom)


def domination_scattered(g: Graph, X: Iterable[int], r: int) -> DominationResult:
    """Greedy r-domination of X seeded by a maximal r-scattered subset of X.

    The scattered set I is built first; D starts as I and is extended by
    the coverage-greedy loop of ``_greedy_cover`` until X is within
    distance r of D.
    """
    X = g.check_vertex_set(X)
    scattered = _greedy_scattered(g, X, r)
    return DominationResult(_greedy_cover(g, X, r, scattered), frozenset(scattered))


def greedy_dominating(g: Graph, X: Iterable[int], r: int) -> frozenset[int]:
    """Plain coverage-greedy r-dominating set of X (no scattered seed).

    Used by the waterlily pipeline, where seeding would needlessly pull
    members of X into the dominating set and shrink the usable remainder.
    """
    return _greedy_cover(g, g.check_vertex_set(X), r, ())


@dataclass(frozen=True)
class UqwResult:
    """Hub-removal scattering outcome; ``ok`` marks whether the target was met."""

    hubs: frozenset[int]
    scattered: frozenset[int]
    ok: bool


def uqw_scattered(g: Graph, A: Iterable[int], r: int, target: int) -> UqwResult:
    """Find >= target vertices of A that are r-scattered after removing few hubs.

    Iterated hub removal: when the greedy scattering stalls short of the
    target, the vertex lying inside the most pick balls (ties: higher degree,
    then lower id) is removed and the greedy restarts, up to
    ``DEFAULT_HUB_BUDGET`` removals.  On failure the largest scattered set
    found is returned.
    """
    A = g.check_vertex_set(A)
    hubs: set[int] = set()
    best: tuple[frozenset[int], frozenset[int]] = (frozenset(), frozenset())
    while True:
        removed = frozenset(hubs)
        picks = _greedy_scattered(g, A, r, removed=removed)
        if len(picks) > len(best[1]):
            best = (removed, frozenset(picks))
        if len(picks) >= target:
            return UqwResult(removed, frozenset(picks), True)
        if len(hubs) >= DEFAULT_HUB_BUDGET:
            return UqwResult(best[0], best[1], False)
        counts: dict[int, int] = {}
        pick_set = set(picks)
        for b in picks:
            for v in ball(g, b, r, removed=removed):
                if v not in pick_set and v not in hubs:
                    counts[v] = counts.get(v, 0) + 1
        if not counts:
            return UqwResult(best[0], best[1], False)
        hub = min(counts, key=lambda v: (-counts[v], -len(g.adj[v]), v))
        hubs.add(hub)


# ---------------------------------------------------------------------------
# waterlilies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Waterlily:
    """Roots R and centres C with scattered pads that R dominates.

    Invariants (re-checked by ``verify_waterlily``):
      * roots and centres are disjoint,
      * centres are radius-scattered in G - R,
      * every pad vertex lies within ``depth`` of R in G,
      * all centres share one depth-projection profile onto R (uniformity).
    """

    roots: frozenset[int]
    centres: frozenset[int]
    radius: int
    depth: int


@dataclass(frozen=True)
class LilyFailure:
    """Stage report for an unsuccessful waterlily construction."""

    stage: str
    detail: str

    def __bool__(self) -> bool:
        return False


def verify_waterlily(g: Graph, lily: Waterlily, A: Optional[frozenset[int]] = None) -> list[str]:
    """Check all structural invariants directly; returns the violations found."""
    problems: list[str] = []
    R, C = lily.roots, lily.centres
    if R & C:
        problems.append(f"roots and centres intersect: {sorted(R & C)}")
    if A is not None and not C <= A:
        problems.append("centres are not a subset of the query set")
    if not C:
        problems.append("no centres")
    if not C or R & C:
        # the checks below walk G - R from each centre
        return problems
    for c in sorted(C):
        near = ball(g, c, 2 * lily.radius, removed=R)
        if (near & C) - {c}:
            problems.append(f"centre {c} is within {2 * lily.radius} of another centre in G-R")
            break
    dominated = set(bfs_distances(g, sorted(R), max_depth=lily.depth)) if R else set()
    for c in sorted(C):
        missing = ball(g, c, lily.radius, removed=R) - dominated
        if missing:
            problems.append(
                f"pad of centre {c} has vertices not {lily.depth}-dominated by the roots: "
                f"{sorted(missing)[:5]}"
            )
            break
    profiles = {_finite_profile(g, R, c, lily.depth) for c in C}
    if len(profiles) > 1:
        problems.append("centres do not share a single projection profile onto the roots")
    return problems


def _largest_class(items: Iterable[int], key) -> tuple:
    """``(key, members)`` of the largest class of the sorted items grouped by
    ``key``; ties go to the class with the smallest first member, and no
    items give ``((), [])``."""
    classes: dict = {}
    for v in sorted(items):
        classes.setdefault(key(v), []).append(v)
    return max(classes.items(), key=lambda kv: (len(kv[1]), -kv[1][0]), default=((), []))


@lru_cache(maxsize=1)
def _lily_prefix(
    g: Graph, A: frozenset[int], r: int, d: int, c_close: int
) -> tuple[frozenset[int], tuple[int, ...]]:
    """Near roots and members of the largest (r+d)-profile class of what the
    closure leaves of A; no members when the closure swallows A.

    Greedy d-domination of A, the (r+d)-projection closure of the
    dominators and the profile classes depend only on the graph's contents,
    A and the parameters, not on the target, so the last result is kept: the
    halving targets of one core state compute it once, and an equal graph
    shares it.
    """
    dominators = greedy_dominating(g, A, d)
    closed = projection_closure(g, dominators, r + d, c_close)
    profile, members = _largest_class(
        A - closed, lambda a: _finite_profile(g, closed, a, r + d)
    )
    return frozenset(v for v, _ in profile), tuple(members)


def build_waterlily(
    g: Graph,
    A: Iterable[int],
    r: int,
    d: int,
    target: int,
    *,
    c_close: int = DEFAULT_CLOSURE_BOUND,
) -> Waterlily | LilyFailure:
    """Construct a uniform waterlily with >= target centres inside A, or fail.

    Pipeline: greedily d-dominate A, close the dominators under (r+d)-
    projections, split the remainder of A into (r+d)-profile classes, extract
    a scattered subset of the largest class by hub removal, and keep its
    largest uniform d-profile class as the centres.  The result is verified
    invariant by invariant before being returned; any shortfall yields a
    ``LilyFailure`` naming the stage.

    The stages up to the profile classes do not depend on the target; a
    call with an equal graph, the same query set and the same parameters as
    the one before reuses them.
    """
    if d > r:
        raise InvalidArgumentError(f"depth {d} exceeds radius {r}")
    if target < 1:
        raise InvalidArgumentError(f"target must be >= 1, got {target}")
    A = frozenset(A)
    if not A:
        return LilyFailure("query-set", "the query set is empty")
    near_roots, members = _lily_prefix(g, A, r, d, c_close)
    if not members:
        return LilyFailure("closure", "the projection closure swallowed the whole query set")

    if len(members) < target:
        return LilyFailure(
            "profile-class",
            f"largest profile class has {len(members)} members, need {target}",
        )

    uqw = uqw_scattered(g, members, r, target)
    if not uqw.ok:
        return LilyFailure(
            "scattering",
            f"hub removal reached {len(uqw.scattered)} scattered vertices, need {target}",
        )
    roots = uqw.hubs | near_roots
    if not roots:
        return LilyFailure("roots", "construction produced an empty root set")

    # keep only centres whose whole pad the roots d-dominate; scatteredness
    # and uniformity survive taking subsets, so this cannot break anything
    dominated = set(bfs_distances(g, sorted(roots), max_depth=d))
    padded = [
        a
        for a in sorted(uqw.scattered)
        if ball(g, a, r, removed=roots) <= dominated
    ]
    if not padded:
        return LilyFailure("pads", "no scattered vertex has a root-dominated pad")

    _, centres = _largest_class(padded, lambda a: _finite_profile(g, roots, a, d))
    if len(centres) < target:
        return LilyFailure(
            "uniform-class",
            f"largest uniform class has {len(centres)} centres, need {target}",
        )

    lily = Waterlily(frozenset(roots), frozenset(centres), r, d)
    problems = verify_waterlily(g, lily, A)
    if problems:
        return LilyFailure("verification", "; ".join(problems))
    return lily
