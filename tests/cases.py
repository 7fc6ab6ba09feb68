"""Named instances shared by several test modules."""

import random
from itertools import combinations

from harmlesskit import Graph, Instance, MccInstance
from harmlesskit.generators import bounded_degree_graph, covered_mcc, random_mcc


def deep_packing_instance() -> Instance:
    """A 14-vertex cover of 7 matched pairs (threshold 2000) plus one
    threshold-1 leaf on every 4-subset of the cover: 1001 neighbourhood
    classes of one leaf each, so the packing search is 1001 levels deep.
    The optimum takes every leaf: 1001."""
    edges = [(2 * i, 2 * i + 1) for i in range(7)]
    leaves = list(combinations(range(14), 4))
    for j, roots in enumerate(leaves):
        edges.extend((c, 14 + j) for c in roots)
    return Instance(Graph.from_edges(14 + len(leaves), edges), (2000,) * 14 + (1,) * len(leaves))


def reduction_corpus() -> list[MccInstance]:
    """k=2 exhaustive (n = 1 and 2), k=3 randomly sampled (n in {1, 2})."""
    corpus = []
    for mask in range(2):  # k=2, n=1: the single possible edge present or not
        edges = [(1, 1, 2, 1)] if mask else []
        corpus.append(MccInstance.from_edges(2, 1, edges))
    all_pairs = [(1, x, 2, y) for x in (1, 2) for y in (1, 2)]
    for mask in range(16):  # k=2, n=2: all edge sets
        edges = [e for i, e in enumerate(all_pairs) if mask >> i & 1]
        corpus.append(MccInstance.from_edges(2, 2, edges))
    rng = random.Random(303)
    for _ in range(150):
        corpus.append(random_mcc(rng, 3, 1, edge_prob=rng.uniform(0.1, 0.9)))
    for _ in range(150):
        # denser k=3 n=2 instances exceed the oracle cap, so keep them sparse
        corpus.append(random_mcc(rng, 3, 2, edge_prob=rng.uniform(0.05, 0.45)))
    return corpus


def covered_reduction_corpus() -> list[MccInstance]:
    """Sparse inputs with an edge in every colour pair, so no input reduces
    to the canonical NO-instance: k=3 with n=3 (30 draws), then k=4 with
    n=2 (15 draws).  Most have no clique, and the selectable vertices of
    most of their H stay within a brute-force cap of 40."""
    rng = random.Random(404)
    corpus = [covered_mcc(rng, 3, 3, edge_prob=0.15) for _ in range(30)]
    corpus += [covered_mcc(rng, 4, 2, edge_prob=0.1) for _ in range(15)]
    return corpus


def fragile_heavy_instance(n: int, seed: int) -> Instance:
    """A random degree-3 graph (stub pairing) with 70% threshold-1 vertices
    and k = n: no early YES, and most vertices leave as core-twins."""
    rng = random.Random(seed)
    g = bounded_degree_graph(rng, n, 3)
    thresholds = tuple(1 if rng.random() < 0.7 else rng.randint(2, 4) for _ in range(n))
    return Instance(g, thresholds, n)
