"""Independent reference implementations used as test oracles.

Everything here is written directly from the problem definitions, avoiding
the library's own algorithms, so that the fast paths are checked against a
second route: plain definition loops, exhaustive enumeration, and a
from-scratch BFS.
"""

from __future__ import annotations

import importlib.util
from itertools import combinations, islice, product
from pathlib import Path

import pytest

PERFBENCH_ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


def naive_is_harmless(instance, S) -> bool:
    S = set(S)
    g = instance.graph
    for v in range(g.n):
        hits = sum(1 for w in g.adj[v] if w in S)
        if hits >= instance.thresholds[v]:
            return False
    return True


def milp_max_harmless():
    """The benchmark's MILP oracle ``max_harmless(n, edges, thresholds)``: the
    maximum harmless set as a 0/1 program, solved by HiGHS through scipy.

    ``perfbench/oracle.py`` is loaded by path when a test asks for it, so
    only that test imports scipy.  Without scipy the test is skipped, with
    the reason, rather than passed.
    """
    spec = importlib.util.spec_from_file_location("perfbench_oracle", PERFBENCH_ORACLE)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        pytest.skip(f"the MILP oracle needs numpy and scipy: {exc}")
    return module.max_harmless


def enumerate_harmless_sets(instance):
    """All harmless sets, by recursive extension.

    Pruning is exact: selected-neighbour counts only grow when a set grows,
    so a violating set has no harmless superset.
    """
    g = instance.graph
    t = instance.thresholds
    hits = [0] * g.n
    found = []
    chosen = []

    def extend(start):
        found.append(frozenset(chosen))
        for u in range(start, g.n):
            if any(hits[w] + 1 > t[w] - 1 for w in g.adj[u]):
                continue
            for w in g.adj[u]:
                hits[w] += 1
            chosen.append(u)
            extend(u + 1)
            chosen.pop()
            for w in g.adj[u]:
                hits[w] -= 1

    extend(0)
    return found


def naive_max_harmless(instance) -> tuple[int, frozenset]:
    best, best_set = -1, frozenset()
    for s in enumerate_harmless_sets(instance):
        if len(s) > best:
            best, best_set = len(s), s
    return best, best_set


def naive_decision(instance, k=None) -> bool:
    k = instance.k if k is None else k
    return naive_max_harmless(instance)[0] >= k


def naive_bfs(g, source, avoid=frozenset()):
    """Distances from source, never walking through ``avoid`` vertices
    (they still receive a distance when touched)."""
    avoid = set(avoid)
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            if u in avoid and u != source:
                continue
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def naive_plain_dist(g, u, v):
    return naive_bfs(g, u).get(v)


def naive_min_domination_size(g, X, r) -> int:
    """Smallest D with X within distance r of D, by subset enumeration."""
    X = set(X)
    if not X:
        return 0
    reach = {v: {w for w, d in naive_bfs(g, v).items() if d <= r} for v in range(g.n)}
    for size in range(0, g.n + 1):
        for D in combinations(range(g.n), size):
            covered = set()
            for v in D:
                covered |= reach[v]
            if X <= covered:
                return size
    raise AssertionError("unreachable: V always dominates X")


def check_waterlily(g, lily, A=None) -> list[str]:
    """From-scratch waterlily verification (independent of the library's)."""
    problems = []
    R, C, r, d = set(lily.roots), set(lily.centres), lily.radius, lily.depth
    if R & C:
        problems.append("roots meet centres")
    if A is not None and not C <= set(A):
        problems.append("centres leave the query set")

    def dist_avoiding_removed(src, removed):
        removed = set(removed)
        dist = {src: 0}
        frontier = [src]
        d0 = 0
        while frontier:
            d0 += 1
            nxt = []
            for u in frontier:
                for w in g.adj[u]:
                    if w not in removed and w not in dist:
                        dist[w] = d0
                        nxt.append(w)
            frontier = nxt
        return dist

    for c1 in C:
        dd = dist_avoiding_removed(c1, R)
        for c2 in C:
            if c2 != c1 and dd.get(c2, 10 ** 9) <= 2 * r:
                problems.append("centres too close in G-R")
    near_roots = set()
    for root in R:
        for w, dd in naive_bfs(g, root).items():
            if dd <= d:
                near_roots.add(w)
    for c in C:
        padset = {w for w, dd in dist_avoiding_removed(c, R).items() if dd <= r}
        if not padset <= near_roots:
            problems.append("pad not dominated by roots")
    profs = set()
    for c in C:
        dd = naive_bfs(g, c, avoid=R)
        profs.add(tuple(sorted((x, dd[x]) for x in R if x in dd and dd[x] <= d)))
    if len(profs) > 1:
        problems.append("profiles differ")
    return problems


def _naive_ball(g, v, r):
    return {w for w, d in naive_bfs(g, v).items() if d <= r}


def naive_projection_closure(g, X, r, c_close):
    """Non-incremental projection closure: every round recomputes every
    outside vertex's r-projection and absorbs the largest above c_close
    (ties: lowest id)."""
    closed = set(X)
    while True:
        worst, worst_size = None, c_close
        for u in range(g.n):
            if u in closed:
                continue
            dist = naive_bfs(g, u, avoid=closed)
            size = sum(1 for x in closed if dist.get(x, r + 1) <= r)
            if size > worst_size:
                worst, worst_size = u, size
        if worst is None:
            return frozenset(closed)
        closed.add(worst)


def naive_greedy_cover(g, X, r, seeds=()):
    """Non-incremental coverage greedy: extend ``seeds`` by the vertex whose
    r-ball holds the most uncovered members of X (ties: higher degree, then
    lower id), recounting every gain in every round."""
    dom = list(seeds)
    uncovered = set(X)
    for v in dom:
        uncovered -= _naive_ball(g, v, r)
    while uncovered:
        gain = {v: len(_naive_ball(g, v, r) & uncovered) for v in range(g.n)}
        best = min(gain, key=lambda v: (-gain[v], -len(g.adj[v]), v))
        dom.append(best)
        uncovered -= _naive_ball(g, best, r)
    return frozenset(dom)


def naive_packing_model(instance, X, guess):
    """The packing program for a cover X and a guess inside it, from the
    definition: ``(classes, capacities)`` or None when a cover vertex's
    budget is already broken.

    Classes group the vertices outside X by exact neighbourhood, largest
    neighbourhood first and then by its sorted ids, as ``(roots, members)``
    with the members that keep a non-negative residual budget, ascending.
    """
    g = instance.graph

    def residual(v):
        return instance.thresholds[v] - 1 - sum(1 for w in g.adj[v] if w in guess)

    capacities = {x: residual(x) for x in sorted(X)}
    if min(capacities.values(), default=0) < 0:
        return None
    outside = [u for u in range(g.n) if u not in X]
    classes = [
        (A, tuple(u for u in outside if frozenset(g.adj[u]) == A and residual(u) >= 0))
        for A in sorted({frozenset(g.adj[u]) for u in outside}, key=lambda A: (-len(A), sorted(A)))
    ]
    return classes, capacities


def recursive_max_packing(class_size, rows, caps, guesses=0):
    """The packing branch and bound that ``max_packing`` runs, by recursion:
    the first ``guesses`` variables try 0 and then 1, the others count down
    from their limit clipped by the remaining capacities to 0.  A node is cut
    when every undecided variable filled to its clipped limit, summed afresh
    at the node, cannot beat the incumbent; improvement is strict.  Leaves
    ``caps`` alone.  Recursion depth grows with the variable count, so only
    small programs fit."""
    caps = list(caps)
    nvars = len(class_size)
    best = 0
    best_assign = [0] * nvars
    assign = [0] * nvars

    def limit(j):
        return min([class_size[j], *(caps[c] for c in rows[j])])

    def dfs(i, acc):
        nonlocal best, best_assign
        if acc > best:
            best = acc
            best_assign = assign.copy()
        if acc + sum(limit(j) for j in range(i, nvars)) <= best:
            return
        values = range(min(1, limit(i)) + 1) if i < guesses else range(limit(i), -1, -1)
        for x in values:
            assign[i] = x
            for c in rows[i]:
                caps[c] -= x
            dfs(i + 1, acc + x)
            for c in rows[i]:
                caps[c] += x
        assign[i] = 0

    dfs(0, 0)
    return best, best_assign


def recursive_ilp_solve(model):
    """The recursive packing branch and bound that ``ilp_solve`` replaced:
    ``recursive_max_packing`` over the model's classes, largest values
    first, with the capacities in the model's order."""
    pos = {u: p for p, u in enumerate(model.capacities)}
    best, assign = recursive_max_packing(
        [cls.size for cls in model.classes],
        [[pos[u] for u in cls.roots] for cls in model.classes],
        model.capacities.values(),
    )
    return best, tuple(assign)


def recursive_max_harmless(adj, thresholds, candidates):
    """The recursive brute-force branch and bound that ``max_harmless``
    replaced: include the candidate first, then exclude it, cut when the
    remaining candidates cannot beat the incumbent, strict improvement.
    Recursion depth grows with the candidate count, so only small inputs fit."""
    cand = list(candidates)
    n = len(thresholds)
    budget = [thresholds[v] - 1 for v in range(n)]
    ncand = len(cand)
    best = -1
    best_set = []
    cur = []

    def dfs(i):
        nonlocal best, best_set
        if len(cur) > best:
            best = len(cur)
            best_set = cur.copy()
        if i == ncand or len(cur) + (ncand - i) <= best:
            return
        u = cand[i]
        if all(budget[w] >= 1 for w in adj[u]):
            for w in adj[u]:
                budget[w] -= 1
            cur.append(u)
            dfs(i + 1)
            cur.pop()
            for w in adj[u]:
                budget[w] += 1
        dfs(i + 1)

    dfs(0)
    return best, sorted(best_set)


def product_cliques(mcc):
    """Multicoloured cliques by testing every one of the n^k member tuples,
    in lexicographic order."""
    pairs = list(combinations(range(1, mcc.k + 1), 2))
    return [
        choice
        for choice in product(range(1, mcc.n + 1), repeat=mcc.k)
        if all((i, choice[i - 1], j, choice[j - 1]) in mcc.edges for i, j in pairs)
    ]


def vc_scan_reference(x_rows, x_thresh, class_rows, class_size, class_min_t):
    """The per-mask scan that ``vc_scan`` must match: every mask of the
    cover is tested for harmlessness from scratch, in ascending order, with
    strict improvement from ``(-1, 0, [])``; an improving mask keeps its
    ``max_packing`` assignment."""
    from harmlesskit._core._pykernels import max_packing

    best_total, best_mask, best_assign = -1, 0, []

    xnbr_mask = [sum(1 << b for b in row) for row in x_rows]
    class_mask = [sum(1 << b for b in row) for row in class_rows]
    nx = len(xnbr_mask)
    nclasses = len(class_mask)
    caps = [0] * nx

    for mask in range(1 << nx):
        ok = True
        for i in range(nx):
            used = (xnbr_mask[i] & mask).bit_count()
            if used >= x_thresh[i]:
                ok = False
                break
            caps[i] = x_thresh[i] - 1 - used
        if not ok:
            continue
        for j in range(nclasses):
            if (class_mask[j] & mask).bit_count() >= class_min_t[j]:
                ok = False
                break
        if not ok:
            continue
        base = mask.bit_count()
        # optimistic bound: every class filled to its individual limit
        ub = base
        for j in range(nclasses):
            lim = class_size[j]
            for b in class_rows[j]:
                if caps[b] < lim:
                    lim = caps[b]
            ub += lim
        if ub <= best_total:
            continue
        packed, assign = max_packing(class_size, class_rows, caps)
        if base + packed > best_total:
            best_total, best_mask, best_assign = base + packed, mask, assign
    return best_total, best_mask, best_assign


def per_pair_edges(mcc, i, j):
    """The (x, y) pairs between colours i < j, by a scan of every edge."""
    return sorted((x, y) for (a, x, b, y) in mcc.edges if (a, b) == (i, j))


def per_pair_missing_pairs(mcc):
    """The colour pairs without an edge, one edge scan per pair."""
    return tuple(
        (i, j) for i, j in combinations(range(1, mcc.k + 1), 2) if not per_pair_edges(mcc, i, j)
    )


def reference_is_2_spider_forest(g) -> bool:
    """The 2-spider check by its definition, with hand-written searches:
    every component is a tree with a centre that reaches all of it within
    distance two, whose distance-two vertices are leaves and whose
    distance-one vertices have degree at most two."""
    seen = [False] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            u = queue.pop()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        if sum(len(g.adj[u]) for u in comp) // 2 != len(comp) - 1:
            return False  # a cycle
        if not any(_reference_spider_centre(g, c, comp) for c in comp):
            return False
    return True


def _reference_spider_centre(g, c, comp) -> bool:
    depth = {c: 0}
    frontier = [c]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in depth:
                    depth[w] = depth[u] + 1
                    nxt.append(w)
        frontier = nxt
    for u in comp:
        d = depth.get(u)
        if d is None or d > 2:
            return False
        if d == 2 and len(g.adj[u]) != 1:
            return False
        if d == 1 and len(g.adj[u]) > 2:
            return False
    return True


def reference_shrink_graph_step(ann):
    """The twin rule's pick by its definition: regroup the outside vertices
    by neighbourhood inside K; the first outside vertex (by id) that has a
    twin names the class, whose largest (threshold, id) member goes."""
    g, t, K = ann.graph, ann.instance.thresholds, ann.core
    groups = {}
    for u in range(g.n):
        if u not in K:
            groups.setdefault(frozenset(w for w in g.adj[u] if w in K), []).append(u)
    for u in range(g.n):
        if u in K:
            continue
        grp = groups[frozenset(w for w in g.adj[u] if w in K)]
        if len(grp) >= 2:
            return max(grp, key=lambda w: (t[w], w))
    return None


def reference_twin_phase(ann):
    """The twin rule as a fixpoint loop: one pick, one rebuilt instance per
    removal.  Returns the kernel and one (vertex, graph size, core size)
    triple per removal, the vertex numbered as when it went."""
    steps = []
    while True:
        v = reference_shrink_graph_step(ann)
        if v is None:
            return ann, steps
        ann = ann.without_vertex(v)
        steps.append((v, ann.graph.n, len(ann.core)))


def reference_core_reduction(ann, p):
    """``kernelize._core_reduction`` without its core-degree guard: step (c)
    tries a waterlily at every halving target, whatever the degrees."""
    from harmlesskit.errors import InvariantError
    from harmlesskit.graph import compute_core, is_harmless
    from harmlesskit.kernelize import (
        LILY_DEPTH,
        LILY_RADIUS,
        RemoveVertices,
        Stuck,
        YesCertificate,
        _lily_targets,
        _signature,
    )
    from harmlesskit.sparsity import (
        LilyFailure,
        _greedy_scattered,
        _largest_class,
        build_waterlily,
    )

    inst = ann.instance
    g = inst.graph
    t = inst.thresholds
    K = ann.core
    k = inst.require_k()

    fragile_hit = tuple(sorted(K - compute_core(inst)))
    if fragile_hit:
        return RemoveVertices(fragile_hit, "core-fragile")

    scattered = frozenset(_greedy_scattered(g, K, 1))
    if len(scattered) >= k:
        if not is_harmless(inst, scattered):
            raise InvariantError("scattered certificate is not harmless")
        return YesCertificate(scattered)

    for target in _lily_targets(len(K)):
        lily = build_waterlily(g, K, LILY_RADIUS, LILY_DEPTH, target)
        if isinstance(lily, LilyFailure):
            continue
        _, members = _largest_class(lily.centres, lambda c: _signature(g, t, lily.roots, c))
        keep = p * len(lily.roots)
        if len(members) > keep:
            return RemoveVertices(tuple(members[: len(members) - keep]), "core-exchange")
    return Stuck("no oversized uniform signature class found")


def reference_kernelize(instance, p=None):
    """``kernelize`` with its twin phase run by ``reference_twin_phase``;
    the core phase is the library's own.  Returns the kernel and the
    report's document."""
    from harmlesskit.graph import AnnotatedInstance, cap_thresholds, compute_core
    from harmlesskit.kernelize import (
        _YES_KERNEL,
        KernelReport,
        KernelStep,
        Stuck,
        YesCertificate,
        _core_reduction,
    )

    k = instance.require_k()
    if p is None:
        work, p = cap_thresholds(instance), k + 1
    else:
        work = instance
    ann = AnnotatedInstance(work, compute_core(work))
    initial = (ann.graph.n, len(ann.core))
    steps, certificate = [], None
    while True:
        res = _core_reduction(ann, p)
        if isinstance(res, YesCertificate):
            certificate = tuple(sorted(res.certificate))
            steps.append(KernelStep("early-yes", None, 0, 0))
            ann = _YES_KERNEL
            break
        if isinstance(res, Stuck):
            break
        for x in res.vertices:
            ann = ann.shrink_core((x,))
            steps.append(KernelStep(res.rule, x, ann.graph.n, len(ann.core)))
    if certificate is None:
        ann, twins = reference_twin_phase(ann)
        steps.extend(KernelStep("twin", v, gn, cn) for v, gn, cn in twins)
    report = KernelReport(
        p=p,
        initial_graph_size=initial[0],
        initial_core_size=initial[1],
        final_graph_size=ann.graph.n,
        final_core_size=len(ann.core),
        outcome="kernel" if certificate is None else "yes",
        certificate=certificate,
        steps=tuple(steps),
    )
    return ann, report.to_doc()


def reference_load_instance(text: str):
    """The text loader as it was before it checked each edge once: it strips
    every line before splitting it, and ``Graph.from_edges`` checks the
    edges a second time, with a second set of seen pairs."""
    from harmlesskit.errors import ParseError
    from harmlesskit.graph import Graph, Instance

    def parse_int(token, what, lineno):
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"expected an integer {what}, got {token!r}", lineno) from None

    n = m = None
    edges = []
    edge_seen = set()
    thresholds = {}
    k = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise ParseError("duplicate problem header", lineno)
            if len(parts) != 4 or parts[1] != "hs":
                raise ParseError(f"malformed header {line!r}, expected 'p hs <n> <m>'", lineno)
            n = parse_int(parts[2], "vertex count", lineno)
            m = parse_int(parts[3], "edge count", lineno)
            if n < 0 or m < 0:
                raise ParseError("vertex and edge counts must be non-negative", lineno)
        elif tag == "e":
            if n is None:
                raise ParseError("edge line before the problem header", lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {line!r}", lineno)
            u = parse_int(parts[1], "vertex id", lineno)
            v = parse_int(parts[2], "vertex id", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range 1..{n} in edge {u} {v}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in edge_seen:
                raise ParseError(f"duplicate edge {u} {v}", lineno)
            edge_seen.add(key)
            edges.append(key)
        elif tag == "t":
            if n is None:
                raise ParseError("threshold line before the problem header", lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed threshold line {line!r}", lineno)
            v = parse_int(parts[1], "vertex id", lineno)
            t = parse_int(parts[2], "threshold", lineno)
            if not 1 <= v <= n:
                raise ParseError(f"vertex id {v} out of range 1..{n}", lineno)
            if t < 1:
                raise ParseError(f"threshold of vertex {v} must be >= 1, got {t}", lineno)
            if v - 1 in thresholds:
                raise ParseError(f"duplicate threshold for vertex {v}", lineno)
            thresholds[v - 1] = t
        elif tag == "k":
            if len(parts) != 2:
                raise ParseError(f"malformed target line {line!r}", lineno)
            if k is not None:
                raise ParseError("duplicate target line", lineno)
            k = parse_int(parts[1], "target size", lineno)
            if k < 0:
                raise ParseError("target size k must be non-negative", lineno)
        else:
            raise ParseError(f"unknown line tag {tag!r}", lineno)
    if n is None:
        raise ParseError("missing 'p hs <n> <m>' header")
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges but {len(edges)} were given")
    if len(thresholds) < n:
        missing = n - len(thresholds)
        shown = list(islice((v + 1 for v in range(n) if v not in thresholds), 5))
        more = f" and {missing - len(shown)} more" if missing > len(shown) else ""
        raise ParseError(f"missing threshold for vertices {shown}{more}")
    graph = Graph.from_edges(n, edges)
    return Instance(graph, tuple(thresholds[v] for v in range(n)), k)
