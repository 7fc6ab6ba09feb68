"""Deterministic random instance generators for fuzzing and experiments.

All generators take an explicit ``random.Random`` so corpora are
reproducible from a seed.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Optional

from .graph import Graph, Instance, compute_core
from .reduction import MccInstance


def gnp_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def bounded_degree_graph(rng: random.Random, n: int, max_degree: int = 3) -> Graph:
    """Random graph with maximum degree bounded, in linear time: ``max_degree``
    stubs per vertex, shuffled and paired in order, with loops and repeated
    pairs dropped."""
    stubs = [v for v in range(n) for _ in range(max_degree)]
    rng.shuffle(stubs)
    pairs = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
    return Graph.from_edges(n, sorted(pairs))


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph.from_edges(rows * cols, edges)


def random_instance(
    rng: random.Random,
    n: int,
    *,
    edge_prob: float = 0.3,
    t_max: Optional[int] = None,
    k: Optional[int] = None,
) -> Instance:
    g = gnp_graph(rng, n, edge_prob)
    t_max = t_max if t_max is not None else max(1, n)
    thresholds = tuple(rng.randint(1, t_max) for _ in range(n))
    return Instance(g, thresholds, k)


def random_bounded_instance(
    rng: random.Random,
    n: int,
    *,
    max_degree: int = 3,
    p: int = 3,
    k: Optional[int] = None,
) -> Instance:
    g = bounded_degree_graph(rng, n, max_degree)
    thresholds = tuple(rng.randint(1, p) for _ in range(n))
    return Instance(g, thresholds, k)


def random_harmless_set(rng: random.Random, instance: Instance) -> frozenset[int]:
    """A random harmless set: shuffled greedy over the core with coin flips."""
    order = sorted(compute_core(instance))
    rng.shuffle(order)
    budget = [t - 1 for t in instance.thresholds]
    adj = instance.graph.adj
    chosen: list[int] = []
    for u in order:
        if rng.random() < 0.7 and all(budget[w] >= 1 for w in adj[u]):
            chosen.append(u)
            for w in adj[u]:
                budget[w] -= 1
    return frozenset(chosen)


def random_mcc(
    rng: random.Random, k: int, n: int, *, edge_prob: float = 0.5
) -> MccInstance:
    edges = [
        (i, x, j, y)
        for i, j in combinations(range(1, k + 1), 2)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if rng.random() < edge_prob
    ]
    return MccInstance.from_edges(k, n, edges)


def covered_mcc(
    rng: random.Random, k: int, n: int, *, edge_prob: float = 0.5
) -> MccInstance:
    """``random_mcc``, then one random edge in every colour pair left without
    one: a missing pair reduces to the canonical two-vertex NO-instance,
    which checks no gadget."""
    mcc = random_mcc(rng, k, n, edge_prob=edge_prob)
    fill = [(i, rng.randint(1, n), j, rng.randint(1, n)) for i, j in mcc.missing_pairs()]
    return MccInstance.from_edges(k, n, [*mcc.edges, *fill])
