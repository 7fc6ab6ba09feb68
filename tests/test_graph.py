import random

import pytest

from harmlesskit import (
    AnnotatedInstance,
    Graph,
    Instance,
    InvalidArgumentError,
    cap_thresholds,
    compute_core,
    is_harmless,
)
from harmlesskit.graph import bfs_distances

from oracles import naive_decision, naive_is_harmless

TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # a-b-c-d


def test_graph_construction_rejects_bad_edges():
    with pytest.raises(InvalidArgumentError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(InvalidArgumentError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidArgumentError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InvalidArgumentError):
        Graph.from_edges(-1, [])


def test_graph_basics():
    assert TRIANGLE.m == 3
    assert TRIANGLE.adj[0] == (1, 2)
    assert list(PATH4.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert Graph.from_edges(0, ()).n == 0


def test_is_harmless_triangle():
    inst = Instance(TRIANGLE, (2, 2, 2))
    assert is_harmless(inst, {0})
    # the third vertex sees both selected neighbours: 2 is not < 2
    assert not is_harmless(inst, {0, 1})


def test_is_harmless_star():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    inst = Instance(star, (3, 2, 2, 2))
    assert not is_harmless(inst, {1, 2, 3})  # centre has 3 selected neighbours
    assert is_harmless(inst, {1, 2})


def test_is_harmless_includes_members_and_empty_set():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(0, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        inst = Instance(Graph.from_edges(n, edges), tuple(rng.randint(1, 3) for _ in range(n)))
        assert is_harmless(inst, frozenset())
        S = frozenset(v for v in range(n) if rng.random() < 0.4)
        assert is_harmless(inst, S) == naive_is_harmless(inst, S)


def test_is_harmless_rejects_bad_ids():
    inst = Instance(TRIANGLE, (2, 2, 2))
    with pytest.raises(InvalidArgumentError):
        is_harmless(inst, {3})


def test_cap_thresholds_values():
    g = Graph.from_edges(1, [])
    assert cap_thresholds(Instance(g, (100,), 3)).thresholds == (4,)
    assert cap_thresholds(Instance(g, (2,), 3)).thresholds == (2,)
    with pytest.raises(InvalidArgumentError):
        cap_thresholds(Instance(g, (2,), None))


def test_cap_thresholds_preserves_decision():
    rng = random.Random(11)
    for _ in range(40):
        n = 8
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        inst = Instance(
            Graph.from_edges(n, edges), tuple(rng.randint(1, n) for _ in range(n))
        )
        for k in range(0, n + 1):
            with_k = inst.with_k(k)
            assert naive_decision(cap_thresholds(with_k)) == naive_decision(with_k)


def test_compute_core():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert compute_core(Instance(star, (1, 2, 2, 2))) == {0}
    assert compute_core(Instance(TRIANGLE, (2, 2, 2))) == {0, 1, 2}
    edge = Graph.from_edges(2, [(0, 1)])
    assert compute_core(Instance(edge, (1, 1))) == frozenset()


def test_core_contains_every_harmless_set():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        inst = Instance(Graph.from_edges(n, edges), tuple(rng.randint(1, 3) for _ in range(n)))
        core = compute_core(inst)
        S = frozenset(v for v in range(n) if rng.random() < 0.3)
        if is_harmless(inst, S):
            assert S <= core


def test_compute_core_matches_its_definition():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = Graph.from_edges(n, edges)
        t = tuple(rng.randint(1, 3) for _ in range(n))
        want = {u for u in range(n) if all(t[w] > 1 for w in g.adj[u])}
        assert compute_core(Instance(g, t)) == want


def test_induced_equals_a_rebuild_of_the_kept_edges():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(0, 14)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        g = Graph.from_edges(n, edges)
        # unsorted, with repeats: the kept set is what counts
        keep = [u for u in range(n) if rng.random() < 0.6]
        keep += rng.sample(keep, len(keep) // 3)
        rng.shuffle(keep)
        sub, remap = g.induced(keep)
        kept = sorted(set(keep))
        assert list(remap.items()) == [(old, new) for new, old in enumerate(kept)]
        rebuilt = Graph.from_edges(
            len(kept), [(remap[u], remap[v]) for u, v in g.edges() if u in remap and v in remap]
        )
        assert sub.n == rebuilt.n
        assert sub.adj == rebuilt.adj
    for bad in ([0, 4], [-1], [7]):
        with pytest.raises(InvalidArgumentError):
            PATH4.induced(bad)


def test_bfs_distances_blocked_reached_not_expanded():
    dist = bfs_distances(PATH4, 0, blocked={1})
    assert dist == {0: 0, 1: 1}


def test_without_vertex_shifts_ids():
    inst = Instance(PATH4, (1, 2, 3, 4), 2)
    smaller = inst.without_vertex(1)
    assert smaller.n == 3
    assert smaller.thresholds == (1, 3, 4)
    assert list(smaller.graph.edges()) == [(1, 2)]
    ann = AnnotatedInstance(inst, frozenset({0, 2, 3}))
    assert ann.without_vertex(1).core == {0, 1, 2}


def test_instance_validation():
    with pytest.raises(InvalidArgumentError):
        Instance(TRIANGLE, (2, 2))
    with pytest.raises(InvalidArgumentError):
        Instance(TRIANGLE, (0, 2, 2))
    with pytest.raises(InvalidArgumentError):
        Instance(TRIANGLE, (2, 2, 2), -1)
    empty = Instance(Graph.from_edges(0, ()), (), 0)
    assert empty.n == 0

