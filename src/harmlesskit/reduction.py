"""Generator and verifier for the multicoloured-clique reduction.

``build_reduction`` turns a k-partite clique instance into a threshold
instance built from five gadget families (selection, XOR, port, test,
forbidden), with a registry describing the role of every produced vertex, a
modulator whose removal leaves a forest of 2-spiders, and the closed-form
target size.  The reduction is the hardness direction, so the package also
ships the desk-scale verifier ``verify_reduction`` that cross-checks both
directions against the brute-force oracle.

Colour indices i and member indices x are 1-based throughout, matching the
file format and the wiring arithmetic (a port meets the first n-x lights of
a test gadget).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from math import comb
from typing import Iterable, Iterator, Optional

from .errors import InvalidArgumentError, ParseError, ResourceLimitError
from .graph import Graph, Instance, bfs_distances
from .io import Source, _read_text, _write_text
from .solvers import brute_force_max, check_brute_cap

_SHOWN_PAIRS = 10  # missing colour pairs listed in a report
# Most vertices build_reduction gives H: the header's n alone sets H's size,
# so a two-line file could otherwise ask for any amount of memory.
MAX_REDUCTION_VERTICES = 1_000_000


@dataclass(frozen=True)
class MccInstance:
    """k-partite graph with uniform colour-class size n; edges join distinct colours."""

    k: int
    n: int
    edges: frozenset[tuple[int, int, int, int]]  # (i, x, j, y), i < j

    @classmethod
    def from_edges(
        cls, k: int, n: int, edges: Iterable[tuple[int, int, int, int]]
    ) -> "MccInstance":
        if k < 2:
            raise InvalidArgumentError(f"need at least two colours, got k={k}")
        if n < 1:
            raise InvalidArgumentError(f"colour classes must be non-empty, got n={n}")
        norm = set()
        for i, x, j, y in edges:
            if i == j:
                raise InvalidArgumentError(f"intra-class edge within colour {i}")
            if i > j:
                i, x, j, y = j, y, i, x
            if not (1 <= i <= k and 1 <= j <= k):
                raise InvalidArgumentError(f"colour out of range 1..{k} in edge {(i, x, j, y)}")
            if not (1 <= x <= n and 1 <= y <= n):
                raise InvalidArgumentError(f"member index out of range 1..{n} in edge {(i, x, j, y)}")
            norm.add((i, x, j, y))
        return cls(k, n, frozenset(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _edges_by_pair(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """The sorted (x, y) pairs of every colour pair i < j with an edge,
        grouped in one pass over the edges."""
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, x, j, y in sorted(self.edges):
            groups.setdefault((i, j), []).append((x, y))
        return groups

    def pair_edges(self, i: int, j: int) -> list[tuple[int, int]]:
        """Sorted (x, y) pairs between colours i < j."""
        return list(self._edges_by_pair.get((i, j), ()))

    def missing_pairs(self) -> Iterator[tuple[int, int]]:
        """The colour pairs i < j without an edge, lazily, in lexicographic
        order: a header alone can declare C(k, 2) of them."""
        groups = self._edges_by_pair
        return (p for p in combinations(range(1, self.k + 1), 2) if p not in groups)

    def missing_pair_count(self) -> int:
        """C(k, 2) minus the colour pairs with an edge: counted, not listed."""
        return comb(self.k, 2) - len(self._edges_by_pair)

    def cliques(self) -> list[tuple[int, ...]]:
        """All multicoloured cliques, as member-index tuples (x_1..x_k), in
        lexicographic order.

        Colours are filled one by one, and colour c is offered only the
        members adjacent to every member already chosen, so the work is
        bounded by the edges rather than by the n^k member tuples.  The
        iterators of the open colours are the stack: no recursion.
        """
        # later[i, x][j]: the members of colour j > i adjacent to member x of colour i
        later: dict[tuple[int, int], dict[int, set[int]]] = {}
        for i, x, j, y in self.edges:
            later.setdefault((i, x), {}).setdefault(j, set()).add(y)

        def options(chosen: list[int]) -> list[int]:
            if not chosen:
                return sorted(x for i, x in later if i == 1)
            c = len(chosen) + 1
            sets = [later.get((i, x), {}).get(c, set()) for i, x in enumerate(chosen, start=1)]
            return sorted(min(sets, key=len).intersection(*sets))

        found = []
        chosen: list[int] = []
        stack = [iter(options(chosen))]
        while stack:
            x = next(stack[-1], None)
            if x is None:  # colour len(stack) is exhausted: back to the previous one
                stack.pop()
                if chosen:
                    chosen.pop()
            elif len(chosen) + 1 == self.k:
                found.append((*chosen, x))
            else:
                chosen.append(x)
                stack.append(iter(options(chosen)))
        return found


def reduction_target_size(k: int, n: int, m: int) -> int:
    """The harmless-set size that encodes a multicoloured clique."""
    if k < 2:
        raise InvalidArgumentError(f"the reduction needs k >= 2 colours, got {k}")
    if n < 1 or m < 0:
        raise InvalidArgumentError(f"bad parameters n={n}, m={m}")
    return comb(k, 2) * (n - 1) + k * n + m


def reduction_selectable_count(k: int, n: int, m: int) -> int:
    """The selectable (light and dark) vertices of H when no colour pair is
    missing: 2n per selection gadget and n + 1 per test gadget."""
    return 2 * k * n + m * (n + 1)


def reduction_vertex_count(k: int, n: int, m: int) -> int:
    """The vertices of H when no colour pair is missing: 3n per selection
    gadget, four ports and an apex per colour pair, 2n + 1 per test gadget
    and the global forbidden pair."""
    return 3 * k * n + 5 * comb(k, 2) + m * (2 * n + 1) + 2


@dataclass(frozen=True)
class VertexRole:
    kind: str  # selection | port | test | apex | global
    gadget: tuple
    role: str  # light | dark | xor | port | apex | forbidden
    local: tuple = ()

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "gadget": list(self.gadget),
            "role": self.role,
            "local": list(self.local),
        }


@dataclass(frozen=True)
class ReductionOutput:
    """Generated instance plus certificates: roles, modulator, target size."""

    instance: Instance
    roles: tuple[VertexRole, ...]
    modulator: tuple[int, ...]
    target: int
    mcc: MccInstance

    @property
    def degenerate(self) -> bool:
        return self.mcc.missing_pair_count() > 0

    def selectable_vertices(self) -> frozenset[int]:
        return frozenset(
            v for v, r in enumerate(self.roles) if r.role in ("light", "dark")
        )

    def forbidden_vertices(self) -> frozenset[int]:
        return frozenset(range(len(self.roles))) - self.selectable_vertices()

    def missing_pairs_doc(self) -> dict:
        """The first missing colour pairs in lexicographic order, and how
        many there are: a header alone can declare C(k, 2) of them."""
        return {
            "missing_pairs": [list(p) for p in islice(self.mcc.missing_pairs(), _SHOWN_PAIRS)],
            "missing_pair_count": self.mcc.missing_pair_count(),
        }

    def roles_doc(self) -> dict:
        return {
            "format": "harmlesskit-roles",
            "k": self.mcc.k,
            "n": self.mcc.n,
            "m": self.mcc.m,
            "target": self.target,
            "degenerate": self.degenerate,
            **self.missing_pairs_doc(),
            "modulator": list(self.modulator),
            "roles": [r.to_doc() for r in self.roles],
        }


def _degenerate_output(mcc: MccInstance) -> ReductionOutput:
    # A colour pair without edges admits no clique, and the gadget
    # arithmetic assumes every pair has at least one test gadget (for n = 1
    # the full construction would even become unsound).  Emit the canonical
    # two-vertex NO-instance instead: mutually fragile endpoints, so the
    # optimum is 0 < target.
    target = reduction_target_size(mcc.k, mcc.n, mcc.m)
    inst = Instance(Graph.from_edges(2, [(0, 1)]), (1, 1), target)
    roles = (
        VertexRole("global", (), "forbidden", ("no", 0)),
        VertexRole("global", (), "forbidden", ("no", 1)),
    )
    return ReductionOutput(
        instance=inst,
        roles=roles,
        modulator=(),
        target=target,
        mcc=mcc,
    )


def build_reduction(mcc: MccInstance) -> ReductionOutput:
    """Construct the gadget instance H for a multicoloured-clique input.

    Vertex order is deterministic (selection gadgets, then per colour pair
    the ports, test gadgets and apex, then the global forbidden pair), so
    outputs are byte-reproducible.  An H of more than
    ``MAX_REDUCTION_VERTICES`` vertices is refused before it is built.
    """
    if mcc.missing_pair_count():
        return _degenerate_output(mcc)

    k, n = mcc.k, mcc.n
    size = reduction_vertex_count(k, n, mcc.m)
    if size > MAX_REDUCTION_VERTICES:
        raise ResourceLimitError(
            f"the reduction would build {size} vertices, above the limit {MAX_REDUCTION_VERTICES}"
        )
    roles: list[VertexRole] = []
    edges: list[tuple[int, int]] = []

    def add(role: VertexRole) -> int:
        roles.append(role)
        return len(roles) - 1

    lights: list[list[int]] = []  # each colour's selection lights and darks, by member
    darks: list[list[int]] = []
    for i in range(1, k + 1):
        lights.append([add(VertexRole("selection", (i,), "light", (s,))) for s in range(1, n + 1)])
        darks.append([add(VertexRole("selection", (i,), "dark", (s,))) for s in range(1, n + 1)])
        for s in range(1, n + 1):
            x = add(VertexRole("selection", (i,), "xor", (s,)))
            edges += ((x, lights[-1][s - 1]), (x, darks[-1][s - 1]))

    for i, j in combinations(range(1, k + 1), 2):
        ports: dict[tuple[str, int], int] = {}
        for sign, col in (("+", i), ("-", i), ("+", j), ("-", j)):
            pv = ports[sign, col] = add(VertexRole("port", (i, j), "port", (sign, col)))
            edges.extend((pv, u) for u in (lights if sign == "+" else darks)[col - 1])
        tested: list[int] = []  # the lights of the pair's test gadgets, for the apex
        for x, y in mcc.pair_edges(i, j):
            gadget = (i, j, x, y)
            test = [add(VertexRole("test", gadget, "light", (s,))) for s in range(1, n + 1)]
            dark = add(VertexRole("test", gadget, "dark", ()))
            for s, u in enumerate(test, start=1):
                xv = add(VertexRole("test", gadget, "xor", (s,)))
                edges += ((xv, u), (xv, dark))
            # the port facing colour i meets the first n-x lights, its twin
            # the remaining x; symmetrically for colour j with y
            for col, sel in ((i, x), (j, y)):
                for s, u in enumerate(test, start=1):
                    edges.append((ports["+" if s <= n - sel else "-", col], u))
            tested += test
        apex = add(VertexRole("apex", (i, j), "apex", ()))
        edges.extend((apex, u) for u in tested)

    # a_F guards every XOR vertex, port and apex; the modulator is the
    # ports and apexes in id order, then a_F
    a_f = add(VertexRole("global", (), "forbidden", ("a",)))
    b_f = add(VertexRole("global", (), "forbidden", ("b",)))
    edges.extend((a_f, v) for v, r in enumerate(roles) if r.role in ("xor", "port", "apex"))
    edges.append((a_f, b_f))

    target = reduction_target_size(k, n, mcc.m)
    # a vertex tolerates threshold - 1 chosen neighbours: an XOR vertex one of
    # its two ends, a port or an apex n, every other vertex none
    threshold = {"xor": 2, "port": n + 1, "apex": n + 1}
    thresholds = tuple(threshold.get(r.role, 1) for r in roles)
    inst = Instance(Graph.from_edges(len(roles), edges), thresholds, target)
    modulator = tuple(v for v, r in enumerate(roles) if r.role in ("port", "apex")) + (a_f,)
    return ReductionOutput(
        instance=inst,
        roles=tuple(roles),
        modulator=modulator,
        target=target,
        mcc=mcc,
    )


def construct_clique_solution(out: ReductionOutput, indices: Iterable[int]) -> frozenset[int]:
    """The canonical harmless set encoding a given multicoloured clique.

    Selection gadget i contributes its first x_i lights and remaining darks;
    the test gadget of every clique edge contributes all its lights, every
    other test gadget its dark vertex.  The result has exactly the target
    size and is harmless by the budget arithmetic of the ports.
    """
    mcc = out.mcc
    indices = tuple(indices)
    if len(indices) != mcc.k:
        raise InvalidArgumentError(f"expected {mcc.k} clique indices, got {len(indices)}")
    if any(not 1 <= x <= mcc.n for x in indices):
        raise InvalidArgumentError(f"clique indices out of range 1..{mcc.n}: {indices}")
    for i, j in combinations(range(1, mcc.k + 1), 2):
        if (i, indices[i - 1], j, indices[j - 1]) not in mcc.edges:
            raise InvalidArgumentError(
                f"indices do not form a clique: colours {i},{j} miss edge "
                f"({indices[i - 1]}, {indices[j - 1]})"
            )

    def takes_light(r: VertexRole) -> bool:
        if r.kind == "selection":
            return r.local[0] <= indices[r.gadget[0] - 1]
        i, j, x, y = r.gadget
        return (x, y) == (indices[i - 1], indices[j - 1])

    return frozenset(
        v for v, r in enumerate(out.roles)
        if r.role in ("light", "dark") and (r.role == "light") == takes_light(r)
    )


def is_2_spider_forest(g: Graph) -> bool:
    """Every component is a star with edges subdivided at most once.

    Equivalently each component is a tree admitting a centre such that all
    vertices lie within distance two and distance-one vertices have degree
    at most two.  Distance-two vertices are then leaves: in a tree, a second
    neighbour of one would lie at distance three.
    """
    seen = [False] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        comp = bfs_distances(g, start)
        for u in comp:
            seen[u] = True
        edge_count = sum(len(g.adj[u]) for u in comp) // 2
        if edge_count != len(comp) - 1:
            return False  # a cycle
        # legs have degree at most 2: only a vertex above that can be the centre,
        # and two such vertices rule the component out
        hubs = [u for u in comp if len(g.adj[u]) > 2]
        if len(hubs) > 1:
            return False
        if not any(_is_spider_centre(g, c, len(comp)) for c in hubs or comp):
            return False
    return True


def _is_spider_centre(g: Graph, c: int, size: int) -> bool:
    depth = bfs_distances(g, c, max_depth=2)
    return len(depth) == size and all(
        len(g.adj[u]) <= 2 for u, d in depth.items() if d == 1
    )


@dataclass(frozen=True)
class ReductionReport:
    """Desk-scale cross-check of both reduction directions."""

    k: int
    n: int
    m: int
    target: int
    degenerate: bool
    cliques: tuple[tuple[int, ...], ...]  # as MccInstance.cliques lists them
    optimum: int
    witness: tuple[int, ...]
    equivalence_ok: bool
    forbidden_ok: bool

    @property
    def clique_count(self) -> int:
        return len(self.cliques)

    @property
    def ok(self) -> bool:
        return self.equivalence_ok and self.forbidden_ok

    def to_doc(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "target": self.target,
            "degenerate": self.degenerate,
            "clique_count": self.clique_count,
            "optimum": self.optimum,
            "witness": list(self.witness),
            "equivalence_ok": self.equivalence_ok,
            "forbidden_ok": self.forbidden_ok,
        }


def verify_reduction(mcc: MccInstance, *, cap: Optional[int] = None) -> ReductionReport:
    """Check clique existence against the oracle optimum of the generated H.

    A clique must exist iff the oracle finds a harmless set of the target
    size, and no oracle witness may touch a forbidden vertex.  ``cap`` is the
    oracle's: it bounds the core of H, which is exactly the selectable (light
    and dark) vertices, 2kn + m(n + 1) of them: checked before H is built.
    """
    if not mcc.missing_pair_count():
        check_brute_cap(reduction_selectable_count(mcc.k, mcc.n, mcc.m), cap)
    return check_reduction(build_reduction(mcc), cap=cap)


def check_reduction(out: ReductionOutput, *, cap: Optional[int] = None) -> ReductionReport:
    """``verify_reduction``'s checks on an H already built.  The oracle
    refuses with ``ResourceLimitError`` when the core of H exceeds ``cap``."""
    mcc = out.mcc
    optimum, witness = brute_force_max(out.instance, cap=cap)
    cliques = tuple(mcc.cliques())
    return ReductionReport(
        k=mcc.k,
        n=mcc.n,
        m=mcc.m,
        target=out.target,
        degenerate=out.degenerate,
        cliques=cliques,
        optimum=optimum,
        witness=tuple(sorted(witness)),
        equivalence_ok=(optimum >= out.target) == bool(cliques),
        forbidden_ok=not (witness & out.forbidden_vertices()),
    )


# ---------------------------------------------------------------------------
# multicoloured-clique file format
# ---------------------------------------------------------------------------

def load_mcc(source: Source) -> MccInstance:
    """Parse ``p mcc <k> <n>`` plus ``e <i> <x> <j> <y>`` edge lines."""
    lines = _read_text(source).splitlines()
    k = n = None
    edges: list[tuple[int, int, int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if k is not None:
                raise ParseError("duplicate problem header", lineno)
            if len(parts) != 4 or parts[1] != "mcc":
                raise ParseError(f"malformed header {line!r}, expected 'p mcc <k> <n>'", lineno)
            try:
                k, n = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("colour count and class size must be integers", lineno) from None
        elif parts[0] == "e":
            if k is None:
                raise ParseError("edge line before the problem header", lineno)
            if len(parts) != 5:
                raise ParseError(f"malformed edge line {line!r}", lineno)
            try:
                i, x, j, y = (int(p) for p in parts[1:])
            except ValueError:
                raise ParseError("edge fields must be integers", lineno) from None
            edges.append((i, x, j, y))
        else:
            raise ParseError(f"unknown line tag {parts[0]!r}", lineno)
    if k is None:
        raise ParseError("missing 'p mcc <k> <n>' header")
    try:
        return MccInstance.from_edges(k, n, edges)
    except InvalidArgumentError as exc:
        raise ParseError(str(exc)) from None


def save_mcc(mcc: MccInstance, target: Source) -> None:
    out = [f"p mcc {mcc.k} {mcc.n}"]
    for i, x, j, y in sorted(mcc.edges):
        out.append(f"e {i} {x} {j} {y}")
    _write_text(target, "\n".join(out) + "\n")
