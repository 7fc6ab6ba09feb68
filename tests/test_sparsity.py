import random
from itertools import combinations

import pytest

from harmlesskit import (
    Graph,
    InvalidArgumentError,
    Waterlily,
    build_waterlily,
    count_profiles,
    domination_scattered,
    projection_closure,
    projection_profile,
    r_projection,
    uqw_scattered,
    verify_waterlily,
)
from harmlesskit import sparsity
from harmlesskit.generators import bounded_degree_graph, grid_graph
from harmlesskit.graph import bfs_distances
from harmlesskit.sparsity import LilyFailure

from oracles import check_waterlily, naive_bfs, naive_min_domination_size

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # a-b-c-d


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def multi_star(stars: int, leaves: int = 3) -> tuple[Graph, list[int], list[int]]:
    """Disjoint stars plus one apex adjacent to every star centre.

    The apex is vertex 0; centres follow, then the leaves of each star.
    Returns (graph, centres, leaves).
    """
    edges = []
    centres = list(range(1, stars + 1))
    leaf_ids = []
    nxt = stars + 1
    for c in centres:
        edges.append((0, c))
        for _ in range(leaves):
            edges.append((c, nxt))
            leaf_ids.append(nxt)
            nxt += 1
    return Graph.from_edges(nxt, edges), centres, leaf_ids


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_r_projection_on_path():
    assert r_projection(PATH4, {0, 3}, 1, 2) == {0, 3}
    assert r_projection(PATH4, {0, 3}, 1, 1) == {0}
    assert r_projection(PATH4, set(), 1, 3) == frozenset()
    with pytest.raises(InvalidArgumentError):
        r_projection(PATH4, {1}, 1, 2)


def test_projection_profile_entries():
    assert projection_profile(PATH4, {0, 3}, 1, 2) == ((0, 1), (3, 2))


def test_projection_profile_isolated_vertex():
    g = Graph.from_edges(3, [(0, 1)])
    assert projection_profile(g, {0, 1}, 2, 4) == ()


def test_false_twins_share_profile():
    # vertices 2 and 3 both see exactly {0, 1}
    g = Graph.from_edges(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
    assert projection_profile(g, {0, 1}, 2, 1) == projection_profile(g, {0, 1}, 3, 1)


def test_count_profiles_edge_cases():
    assert count_profiles(PATH4, {0, 1, 2, 3}, 2) == 0
    edgeless = Graph.from_edges(5, ())
    assert count_profiles(edgeless, {0, 1}, 1) == 1  # one all-infinity profile


def test_count_profiles_matches_direct_enumeration():
    rng = random.Random(5)
    g = bounded_degree_graph(rng, 200, 3)
    X = frozenset(rng.sample(range(200), 20))
    r = 2
    # oracle: enumerate profiles with an independent BFS
    seen = set()
    for u in range(200):
        if u in X:
            continue
        dist = naive_bfs(g, u, avoid=X)
        profile = tuple(sorted((x, dist[x]) for x in X if x in dist and dist[x] <= r))
        assert projection_profile(g, X, u, r) == profile
        seen.add(profile)
    assert count_profiles(g, X, r) == len(seen)


# ---------------------------------------------------------------------------
# projection closure
# ---------------------------------------------------------------------------

def closure_holds(g, X, r, c):
    return all(
        len(r_projection(g, X, u, r)) <= c for u in range(g.n) if u not in X
    )


def test_closure_of_everything_is_identity():
    X = frozenset(range(PATH4.n))
    assert projection_closure(PATH4, X, 2, 1) == X


def test_closure_pulls_in_star_centre():
    g = star(5)
    X = {1, 2}
    closed = projection_closure(g, X, 2, 1)
    assert 0 in closed
    assert closure_holds(g, closed, 2, 1)


def test_closure_postcondition_fuzz():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(2, 14)
        g = Graph.from_edges(
            n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.25]
        )
        X = frozenset(v for v in range(n) if rng.random() < 0.3)
        for c in (1, 2, 4):
            closed = projection_closure(g, X, 2, c)
            assert X <= closed
            assert closure_holds(g, closed, 2, c)


# ---------------------------------------------------------------------------
# domination and scattering
# ---------------------------------------------------------------------------

def scattered_ok(g, picks, r, removed=frozenset()):
    picks = sorted(picks)
    for i, a in enumerate(picks):
        dist = bfs_distances(g, a, removed=removed, max_depth=2 * r)
        for b in picks[i + 1 :]:
            if b in dist:
                return False
    return True


def test_domination_star():
    g = star(6)
    res = domination_scattered(g, range(g.n), 1)
    assert res.scattered == {0}
    assert res.dominating == {0}


def test_domination_edgeless():
    g = Graph.from_edges(4, ())
    res = domination_scattered(g, range(4), 1)
    assert res.scattered == {0, 1, 2, 3}
    assert res.dominating == {0, 1, 2, 3}


def test_domination_p5():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    res = domination_scattered(g, range(5), 1)
    assert len(res.dominating) <= 2
    assert res.scattered <= res.dominating
    covered = set(bfs_distances(g, sorted(res.dominating), max_depth=1))
    assert covered == set(range(5))
    assert scattered_ok(g, res.scattered, 1)


def test_domination_invariants_fuzz():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 12)
        g = Graph.from_edges(
            n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.3]
        )
        X = frozenset(rng.sample(range(n), rng.randint(1, n)))
        r = rng.choice((1, 2))
        res = domination_scattered(g, X, r)
        assert res.scattered <= res.dominating
        assert res.scattered <= X
        covered = set(bfs_distances(g, sorted(res.dominating), max_depth=r))
        assert X <= covered
        assert scattered_ok(g, res.scattered, r)
        # scattered is a lower bound and D an upper bound for optimal domination
        opt = naive_min_domination_size(g, X, r)
        assert len(res.scattered) <= opt <= len(res.dominating)


def test_uqw_isolated_vertices():
    g = Graph.from_edges(5, ())
    res = uqw_scattered(g, range(5), 3, 5)
    assert res.ok and res.hubs == frozenset() and res.scattered == frozenset(range(5))


def test_uqw_star_hub_removal():
    g = star(7)
    res = uqw_scattered(g, range(1, 8), 2, 7)
    assert res.ok
    assert res.hubs == {0}
    assert res.scattered == frozenset(range(1, 8))


def test_uqw_unreachable_target_fails():
    g = star(3)
    res = uqw_scattered(g, range(1, 4), 2, 10)
    assert not res.ok
    assert len(res.scattered) >= 1


# ---------------------------------------------------------------------------
# waterlilies
# ---------------------------------------------------------------------------

def test_waterlily_star():
    g = star(6)
    leaves = frozenset(range(1, 7))
    lily = build_waterlily(g, leaves, 2, 1, 6)
    assert isinstance(lily, Waterlily)
    assert lily.roots == {0}
    assert lily.centres == leaves
    assert verify_waterlily(g, lily, leaves) == []
    assert check_waterlily(g, lily, leaves) == []


@pytest.mark.parametrize(
    "lily, want",
    [
        (Waterlily(frozenset({1}), frozenset({1, 2}), 1, 1),
         ["roots and centres intersect: [1]"]),
        (Waterlily(frozenset({1}), frozenset(), 1, 1), ["no centres"]),
    ],
    ids=["roots-meet-centres", "no-centres"],
)
def test_verify_waterlily_reports_a_broken_lily(lily, want):
    # a centre inside the roots cannot start a walk of G - R
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert verify_waterlily(g, lily) == want


def test_waterlily_empty_query_set():
    lily = build_waterlily(star(3), frozenset(), 2, 1, 1)
    assert isinstance(lily, LilyFailure)
    assert not lily


def test_waterlily_depth_above_radius_rejected():
    with pytest.raises(InvalidArgumentError):
        build_waterlily(star(3), {1}, 1, 2, 1)


def test_waterlily_prefix_is_kept_for_equal_graphs(monkeypatch):
    calls = []
    real = sparsity.greedy_dominating
    monkeypatch.setattr(sparsity, "greedy_dominating", lambda *a: calls.append(a) or real(*a))
    sparsity._lily_prefix.cache_clear()  # another test may have left an equal graph
    g = star(6)
    leaves = frozenset(range(1, 7))
    first = build_waterlily(g, leaves, 2, 1, 6)
    assert build_waterlily(g, leaves, 2, 1, 3) == first
    assert len(calls) == 1  # the second target reuses the prefix
    # an equal graph that is another object shares it
    assert build_waterlily(Graph(g.n, g.adj), leaves, 2, 1, 6) == first
    assert len(calls) == 1
    # the same graph with another query set or parameters computes its own
    build_waterlily(g, leaves - {1}, 2, 1, 1)
    assert len(calls) == 2
    build_waterlily(g, leaves - {1}, 2, 1, 1, c_close=5)
    assert len(calls) == 3


def test_waterlily_multi_star_hits_distinct_stars():
    g, centres, leaves = multi_star(6, 3)
    lily = build_waterlily(g, leaves, 2, 2, 6)
    assert isinstance(lily, Waterlily)
    assert len(lily.centres) >= 6
    # centres fall into pairwise distinct stars
    owners = set()
    for c in lily.centres:
        (owner,) = g.adj[c]
        owners.add(owner)
    assert len(owners) == len(lily.centres)
    assert verify_waterlily(g, lily, frozenset(leaves)) == []
    assert check_waterlily(g, lily, leaves) == []


def test_waterlily_fuzz_verified_independently():
    rng = random.Random(33)
    built = 0
    for case in range(30):
        if case % 2:
            g = bounded_degree_graph(rng, rng.randint(12, 40), 3)
        else:
            g = grid_graph(rng.randint(3, 6), rng.randint(3, 6))
        A = frozenset(rng.sample(range(g.n), rng.randint(4, g.n // 2)))
        r = rng.choice((1, 2))
        d = rng.choice(tuple(range(1, r + 1)))
        lily = build_waterlily(g, A, r, d, rng.randint(1, 4))
        if isinstance(lily, LilyFailure):
            continue
        built += 1
        assert check_waterlily(g, lily, A) == []
    assert built > 0  # the pipeline succeeds often enough to be meaningful


def test_largest_class_ties_go_to_the_smallest_first_member():
    odd_even = sparsity._largest_class({5, 1, 4, 2}, lambda v: v % 2)
    assert odd_even == (1, [1, 5])  # [1, 5] and [2, 4] tie; 1 < 2
    assert sparsity._largest_class(range(6), lambda v: v >= 2) == (True, [2, 3, 4, 5])
    assert sparsity._largest_class((), lambda v: v) == ((), [])
