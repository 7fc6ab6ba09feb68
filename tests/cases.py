"""Named instances shared by several test modules."""

from itertools import combinations

from harmlesskit import Graph, Instance


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
