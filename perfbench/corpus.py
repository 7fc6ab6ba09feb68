"""Seeded corpora and the benchmark's own reference checks.

Nothing here imports harmlesskit: the inputs must not change when the
package's generators or algorithms change, and the checks must not share
code with what they check.  Graphs are edge lists over 0-based ids.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path


@dataclass
class Graph:
    n: int
    edges: list[tuple[int, int]]
    thresholds: list[int]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass
class Mcc:
    k: int
    n: int
    edges: list[tuple[int, int, int, int]]  # (i, x, j, y), 1-based, i < j


@dataclass
class Call:
    """One CLI invocation and what the checker needs to judge its report."""

    argv: list[str]
    kind: str  # 'kernelize' | 'solve' | 'verify'
    path: str
    graph: Graph | None = None
    k: int | None = None
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# generators (linear time, independent of harmlesskit.generators)
# ---------------------------------------------------------------------------

def bounded_degree_edges(rng: random.Random, n: int, max_degree: int = 3) -> list[tuple[int, int]]:
    """Random pairing of max_degree stubs per vertex; loops and repeats dropped."""
    stubs = [v for v in range(n) for _ in range(max_degree)]
    rng.shuffle(stubs)
    edges = set()
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def gnm_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m distinct edges drawn uniformly: a fixed count keeps search costs comparable."""
    return sorted(rng.sample(list(combinations(range(n), 2)), m))


def fixed_thresholds(rng: random.Random, n: int, shares: dict[int, float]) -> list[int]:
    """Thresholds in fixed proportions, shuffled; the last value takes the rounding."""
    values = list(shares)
    out = [v for v in values[:-1] for _ in range(round(shares[v] * n))]
    out += [values[-1]] * (n - len(out))
    rng.shuffle(out)
    return out


def cover_graph(rng: random.Random, cover: int, leaves: int, extra: int) -> Graph:
    """A graph whose greedy matching cover is exactly the first ``cover`` ids.

    Edges (2i, 2i+1) come first in sorted order and match every cover vertex.
    ``extra`` more edges join cover vertices and each leaf hangs off one cover
    vertex, so no later edge is matched.
    """
    matching = [(i, i + 1) for i in range(0, cover, 2)]
    others = [(u, v) for u, v in combinations(range(cover), 2) if (u, v) not in matching]
    edges = matching + rng.sample(others, extra)
    edges += [(rng.randrange(cover), leaf) for leaf in range(cover, cover + leaves)]
    thresholds = fixed_thresholds(rng, cover, {3: 0.5, 4: 0.5})
    thresholds += fixed_thresholds(rng, leaves, {1: 0.5, 2: 0.5})
    return Graph(cover + leaves, sorted(edges), thresholds)


def random_mcc(rng: random.Random, k: int, n: int, m: int) -> Mcc:
    """m edges with at least one per colour pair, so no instance is degenerate."""
    pairs = list(combinations(range(1, k + 1), 2))
    edges = [(i, rng.randint(1, n), j, rng.randint(1, n)) for i, j in pairs]
    rest = [
        (i, x, j, y)
        for i, j in pairs
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if (i, x, j, y) not in edges
    ]
    return Mcc(k, n, sorted(edges + rng.sample(rest, m - len(pairs))))


# ---------------------------------------------------------------------------
# reference checks
# ---------------------------------------------------------------------------

def is_harmless(g: Graph, S) -> bool:
    """Every vertex, members of S included, has fewer than t(v) neighbours in S."""
    S = set(S)
    if any(not 0 <= v < g.n for v in S):
        return False
    hits = [0] * g.n
    for u, v in g.edges:
        if u in S:
            hits[v] += 1
        if v in S:
            hits[u] += 1
    return all(h < t for h, t in zip(hits, g.thresholds))


def core(g: Graph) -> list[int]:
    """Vertices with no threshold-1 neighbour (no harmless set leaves them)."""
    blocked = [False] * g.n
    for u, v in g.edges:
        if g.thresholds[v] == 1:
            blocked[u] = True
        if g.thresholds[u] == 1:
            blocked[v] = True
    return [v for v in range(g.n) if not blocked[v]]


def count_cliques(mcc: Mcc) -> int:
    edges = set(mcc.edges)
    return sum(
        all((i, pick[i - 1], j, pick[j - 1]) in edges for i, j in combinations(range(1, mcc.k + 1), 2))
        for pick in product(range(1, mcc.n + 1), repeat=mcc.k)
    )


# ---------------------------------------------------------------------------
# file formats (the package's documented text and JSON inputs)
# ---------------------------------------------------------------------------

def write_text(path: Path, g: Graph, k: int | None) -> None:
    lines = [f"p hs {g.n} {len(g.edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges]
    lines += [f"t {v + 1} {t}" for v, t in enumerate(g.thresholds)]
    if k is not None:
        lines.append(f"k {k}")
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, g: Graph, k: int | None) -> None:
    doc = {"n": g.n, "edges": [list(e) for e in g.edges], "thresholds": g.thresholds, "k": k}
    path.write_text(json.dumps(doc) + "\n")


def write_mcc(path: Path, mcc: Mcc) -> None:
    lines = [f"p mcc {mcc.k} {mcc.n}"] + [f"e {i} {x} {j} {y}" for i, x, j, y in mcc.edges]
    path.write_text("\n".join(lines) + "\n")
