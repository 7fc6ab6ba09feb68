"""Exact solvers: the brute-force oracle and the vertex-cover algorithm.

``brute_force_max`` is the reference oracle used throughout the test suite;
``vc_solve`` is the fixed-parameter algorithm that guesses the solution's
intersection with a 2-approximate vertex cover and solves an exact packing
program for the independent remainder.  Both must agree with each other on
every instance.  Their searches run in the pure-Python kernels of
``harmlesskit._core._pykernels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ._core._pykernels import max_harmless, max_packing, vc_scan
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError
from .graph import Graph, Instance, compute_core, is_harmless

DEFAULT_BRUTE_CAP = 24
DEFAULT_COVER_CAP = 22
# Most neighbourhood classes vc_solve accepts: the packing search keeps
# per-level stacks over nx + classes levels (one per cover guess bit and per
# class) and one owner per level and one charge per budget row (nx + classes
# rows), and its trail of lowered limits holds at most the sum of the
# variables' first limits, as a limit only falls along a search path.
_MAX_CLASSES = 10_000


def check_brute_cap(count: int, cap: Optional[int]) -> None:
    """Refuse a brute-force search over ``count`` selectable vertices when
    that exceeds ``cap`` (None means ``DEFAULT_BRUTE_CAP``); a negative
    ``cap`` is refused."""
    cap = DEFAULT_BRUTE_CAP if cap is None else cap
    if cap < 0:
        raise InvalidArgumentError(f"the brute-force cap must be non-negative, got {cap}")
    if count > cap:
        raise ResourceLimitError(f"{count} selectable vertices exceed the brute-force cap {cap}")


def brute_force_max(
    instance: Instance,
    *,
    candidates: Optional[Iterable[int]] = None,
    cap: Optional[int] = None,
) -> tuple[int, frozenset[int]]:
    """Maximum harmless set by branch and bound over the solution core.

    Search is restricted to ``compute_core`` (every harmless set lives
    there), optionally further intersected with ``candidates``.  Refuses to
    run when more selectable vertices remain than ``cap`` allows (None
    means ``DEFAULT_BRUTE_CAP``).
    """
    pool = compute_core(instance)
    if candidates is not None:
        pool &= instance.graph.check_vertex_set(candidates)
    check_brute_cap(len(pool), cap)
    order = sorted(pool, key=lambda v: (-len(instance.graph.adj[v]), v))
    size, witness = max_harmless(instance.graph.adj, instance.thresholds, order)
    witness_set = frozenset(witness)
    if not is_harmless(instance, witness_set):
        raise InvariantError("search returned a non-harmless witness")
    return size, witness_set


def greedy_vertex_cover(g: Graph) -> frozenset[int]:
    """Both endpoints of a greedy maximal matching: a 2-approximate cover."""
    matched = [False] * g.n
    cover: list[int] = []
    for u, v in g.edges():
        if not matched[u] and not matched[v]:
            matched[u] = matched[v] = True
            cover.extend((u, v))
    return frozenset(cover)


@dataclass(frozen=True)
class NeighbourhoodClass:
    """Cover-complement vertices sharing one exact neighbourhood A inside X."""

    roots: frozenset[int]
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class IlpModel:
    """Packing program: fill classes without exhausting any cover budget."""

    classes: tuple[NeighbourhoodClass, ...]
    capacities: dict[int, int]


def _neighbourhood_classes(g: Graph, X: frozenset[int]) -> list[NeighbourhoodClass]:
    """The cover complement partitioned by exact neighbourhood, largest
    neighbourhood first, then by its sorted ids; members ascend."""
    groups: dict[frozenset[int], list[int]] = {}
    for u in range(g.n):
        if u in X:
            continue
        nbrs = frozenset(g.adj[u])
        if not nbrs <= X:
            raise InvalidArgumentError(f"X is not a vertex cover: vertex {u} has a neighbour outside")
        groups.setdefault(nbrs, []).append(u)
    order = sorted(groups, key=lambda roots: (-len(roots), sorted(roots)))
    return [NeighbourhoodClass(roots, tuple(groups[roots])) for roots in order]


def _class_rows(
    classes: Iterable[NeighbourhoodClass], pos: dict[int, int]
) -> list[list[int]]:
    """One row per class listing its roots as capacity positions ``pos[u]``."""
    rows = []
    for cls in classes:
        roots = sorted(cls.roots)
        for u in roots:
            if u not in pos:
                raise InvalidArgumentError(f"class root {u} has no capacity")
        rows.append([pos[u] for u in roots])
    return rows


def build_ilp(
    instance: Instance, X: Iterable[int], guess: Iterable[int]
) -> Optional[IlpModel]:
    """Model for a fixed cover guess, or None when a budget is already broken.

    Classes partition the cover complement by exact neighbourhood; a member
    only counts as selectable while its own residual budget under the guess
    is non-negative.  Capacities are the residual budgets of cover vertices.
    """
    g = instance.graph
    X = g.check_vertex_set(X)
    guess = g.check_vertex_set(guess)
    if not guess <= X:
        raise InvalidArgumentError("the guessed set must be a subset of the cover")
    # t(u) - |N(u) & guess| - 1 for every vertex u, in one pass over the guess
    residual = [t - 1 for t in instance.thresholds]
    for v in guess:
        for w in g.adj[v]:
            residual[w] -= 1
    classes = tuple(
        NeighbourhoodClass(cls.roots, tuple(u for u in cls.members if residual[u] >= 0))
        for cls in _neighbourhood_classes(g, X)
    )
    capacities = {u: residual[u] for u in sorted(X)}
    if any(c < 0 for c in capacities.values()):
        return None
    return IlpModel(classes, capacities)


def ilp_solve(model: IlpModel) -> tuple[int, tuple[int, ...]]:
    """Exact optimum of the packing program plus one optimal assignment.

    Runs the kernels' packing branch and bound (largest class values first,
    clipped per-class upper bound, strict improvement), so assignments are
    deterministic.
    """
    if any(c < 0 for c in model.capacities.values()):
        raise InvalidArgumentError("infeasible model: a capacity is negative")
    pos = {u: i for i, u in enumerate(model.capacities)}
    best, assign = max_packing(
        [cls.size for cls in model.classes],
        _class_rows(model.classes, pos),
        list(model.capacities.values()),
    )
    return best, tuple(assign)


def vc_solve(instance: Instance, *, cap: Optional[int] = None) -> tuple[int, frozenset[int]]:
    """Exact maximum harmless set, parameterised by the vertex cover.

    Guesses the solution's part S inside a greedy 2-approximate cover X and
    packs the neighbourhood classes of the independent remainder, both in
    one packing search (``vc_scan``) whose guess bits are 0/1 variables.
    The largest total wins, ties keeping the smallest guess mask.  The
    witness is that guess plus the first members of each class, as many as
    the search packed for it: no program is rebuilt or solved again.  A
    negative ``cap`` is refused.
    """
    cap = DEFAULT_COVER_CAP if cap is None else cap
    if cap < 0:
        raise InvalidArgumentError(f"the cover cap must be non-negative, got {cap}")
    g = instance.graph
    X = sorted(greedy_vertex_cover(g))
    nx = len(X)
    if nx > cap:
        raise ResourceLimitError(f"greedy cover has {nx} vertices, above the cap {cap}")
    xpos = {v: i for i, v in enumerate(X)}
    x_rows = [[xpos[w] for w in g.adj[v] if w in xpos] for v in X]
    x_thresh = [instance.thresholds[v] for v in X]

    classes = _neighbourhood_classes(g, frozenset(X))
    if len(classes) > _MAX_CLASSES:
        raise ResourceLimitError(f"{len(classes)} neighbourhood classes exceed the solver limit")
    class_size = [cls.size for cls in classes]
    class_min_t = [min(instance.thresholds[u] for u in cls.members) for cls in classes]

    best_total, best_mask, best_assign = vc_scan(
        x_rows, x_thresh, _class_rows(classes, xpos), class_size, class_min_t
    )

    # the best guess plus the first x members of each class, x as packed
    witness = {X[i] for i in range(nx) if best_mask >> i & 1}
    for cls, x in zip(classes, best_assign):
        witness.update(cls.members[:x])
    witness_set = frozenset(witness)
    if not is_harmless(instance, witness_set):
        raise InvariantError("vc witness failed the harmlessness check")
    if len(witness_set) != best_total:
        raise InvariantError("vc witness size differs from the optimum")
    return best_total, witness_set
