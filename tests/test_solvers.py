import hashlib
import importlib
import random
from itertools import combinations

import pytest

from harmlesskit import (
    Graph,
    Instance,
    InvalidArgumentError,
    InvariantError,
    ResourceLimitError,
    brute_force_max,
    build_ilp,
    greedy_vertex_cover,
    ilp_solve,
    is_harmless,
    vc_solve,
)
from harmlesskit._core._pykernels import vc_scan
from harmlesskit.generators import random_instance
from harmlesskit.solvers import NeighbourhoodClass, IlpModel

from cases import deep_packing_instance
from oracles import milp_max_harmless, naive_max_harmless

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_brute_edgeless_all_selected():
    inst = Instance(Graph.from_edges(5, ()), (1,) * 5)
    assert brute_force_max(inst) == (5, frozenset(range(5)))


def test_brute_triangle():
    inst = Instance(TRIANGLE, (2, 2, 2))
    size, witness = brute_force_max(inst)
    assert (size, len(witness)) == (1, 1)
    assert naive_max_harmless(inst)[0] == 1


def test_brute_path():
    inst = Instance(P3, (2, 2, 2))
    size, witness = brute_force_max(inst)
    assert size == 2 == naive_max_harmless(inst)[0]
    assert is_harmless(inst, witness)


def test_brute_matches_exhaustive_enumeration():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(0, 9)
        inst = random_instance(rng, n, edge_prob=0.35, t_max=max(1, n))
        size, witness = brute_force_max(inst)
        assert size == naive_max_harmless(inst)[0]
        assert is_harmless(inst, witness)
        assert len(witness) == size


def test_brute_candidate_restriction():
    inst = Instance(Graph.from_edges(4, ()), (1,) * 4)
    size, witness = brute_force_max(inst, candidates={0, 2})
    assert size == 2 and witness == {0, 2}


def test_brute_cap():
    inst = Instance(Graph.from_edges(30, ()), (1,) * 30)
    with pytest.raises(ResourceLimitError):
        brute_force_max(inst, cap=20)


def _seeded_sparse_instance(rng, n, m):
    """G(n, m) with thresholds half 2 and half 3, shuffled: no vertex has
    threshold 1, so every vertex is a brute-force candidate."""
    edges = rng.sample(list(combinations(range(n), 2)), m)
    thresholds = [2] * (n // 2) + [3] * (n - n // 2)
    rng.shuffle(thresholds)
    return Instance(Graph.from_edges(n, edges), tuple(thresholds))


def test_brute_answers_are_pinned():
    # brute_force_max's optimum and witness on G(32, 48), the shape of the
    # benchmark's brute-force calls and beyond the recursive reference's
    # reach: a change that moves an optimum or a witness moves the digest
    rng = random.Random(30)
    digest = hashlib.sha256()
    for _ in range(12):
        size, witness = brute_force_max(_seeded_sparse_instance(rng, 32, 48), cap=40)
        digest.update(repr((size, sorted(witness))).encode())
    assert digest.hexdigest()[:16] == "70593e2167fcefec"


# ---------------------------------------------------------------------------
# greedy vertex cover
# ---------------------------------------------------------------------------

def test_cover_edgeless():
    assert greedy_vertex_cover(Graph.from_edges(4, ())) == frozenset()


def test_cover_single_edge():
    assert greedy_vertex_cover(Graph.from_edges(2, [(0, 1)])) == {0, 1}


def test_cover_triangle():
    X = greedy_vertex_cover(TRIANGLE)
    assert len(X) == 2
    assert all(u in X or v in X for u, v in TRIANGLE.edges())


def test_cover_is_cover_and_2_approx():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 10)
        g = Graph.from_edges(
            n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.35]
        )
        X = greedy_vertex_cover(g)
        assert all(u in X or v in X for u, v in g.edges())
        # exhaustive minimum cover
        best = n
        for size in range(n + 1):
            if any(
                all(u in set(c) or v in set(c) for u, v in g.edges())
                for c in combinations(range(n), size)
            ):
                best = size
                break
        assert len(X) <= 2 * best


# ---------------------------------------------------------------------------
# the packing model
# ---------------------------------------------------------------------------

def test_build_ilp_star():
    inst = Instance(star(3), (2, 9, 9, 9))
    model = build_ilp(inst, {0}, set())
    assert model is not None
    assert len(model.classes) == 1
    cls = model.classes[0]
    assert cls.roots == {0} and cls.size == 3
    assert model.capacities == {0: 1}


def test_build_ilp_isolated_class_unconstrained():
    g = Graph.from_edges(3, [(0, 1)])
    inst = Instance(g, (2, 2, 5))
    model = build_ilp(inst, {0}, set())
    roots = {cls.roots for cls in model.classes}
    assert frozenset() in roots
    opt, _ = ilp_solve(model)
    assert opt == 2  # vertex 1 (budget allows) plus the isolated vertex 2


def test_build_ilp_rejects_guess_outside_cover():
    inst = Instance(star(3), (2, 9, 9, 9))
    with pytest.raises(InvalidArgumentError):
        build_ilp(inst, {0}, {1})
    with pytest.raises(InvalidArgumentError):
        build_ilp(inst, {1}, set())  # {1} is not a vertex cover


def test_ilp_single_class():
    model = IlpModel(
        (NeighbourhoodClass(frozenset({0}), (10, 11, 12, 13, 14)),), {0: 2}
    )
    assert ilp_solve(model) == (2, (2,))


def test_ilp_shared_capacity():
    model = IlpModel(
        (
            NeighbourhoodClass(frozenset({0, 1}), (10, 11, 12)),
            NeighbourhoodClass(frozenset({0}), (20, 21, 22)),
        ),
        {0: 2, 1: 9},
    )
    opt, assign = ilp_solve(model)
    assert opt == 2
    # exhaustive check over all assignments
    best = max(
        x + y
        for x in range(4)
        for y in range(4)
        if x + y <= 2 and x <= 9
    )
    assert opt == best


def test_ilp_no_classes():
    assert ilp_solve(IlpModel((), {0: 3})) == (0, ())


def test_ilp_rejects_infeasible_model():
    model = IlpModel((NeighbourhoodClass(frozenset({0}), (5,)),), {0: -1})
    with pytest.raises(InvalidArgumentError):
        ilp_solve(model)


def test_ilp_rejects_root_without_capacity():
    model = IlpModel((NeighbourhoodClass(frozenset({0, 7}), (5,)),), {0: 1})
    with pytest.raises(InvalidArgumentError, match="root 7"):
        ilp_solve(model)


# ---------------------------------------------------------------------------
# the vertex-cover solver
# ---------------------------------------------------------------------------

def test_vc_path_examples():
    assert vc_solve(Instance(P3, (2, 2, 2)))[0] == 2
    assert vc_solve(Instance(P3, (1, 1, 1)))[0] == 0


def test_vc_star_threshold_two():
    for leaves in range(2, 6):
        inst = Instance(star(leaves), (2,) * (leaves + 1))
        size, witness = vc_solve(inst)
        assert size == 2
        assert is_harmless(inst, witness)
        assert brute_force_max(inst)[0] == 2


def test_vc_matches_oracle_fuzz():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(0, 12)
        inst = random_instance(rng, n, edge_prob=0.3, t_max=max(1, n))
        b, _ = brute_force_max(inst)
        v, witness = vc_solve(inst)
        assert v == b
        assert is_harmless(inst, witness)
        assert len(witness) == v


def test_vc_class_members_interchangeable():
    rng = random.Random(31)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(2, 10), edge_prob=0.3, t_max=4)
        _, witness = vc_solve(inst)
        X = greedy_vertex_cover(inst.graph)
        outside = [v for v in sorted(witness) if v not in X]
        for v in outside:
            mates = [
                u
                for u in range(inst.n)
                if u not in X
                and u not in witness
                and frozenset(inst.graph.adj[u]) == frozenset(inst.graph.adj[v])
            ]
            for u in mates:
                swapped = (witness - {v}) | {u}
                assert is_harmless(inst, swapped)


def test_vc_deep_packing_has_no_recursion_limit():
    # 1001 packing levels: deeper than the interpreter's default recursion limit
    inst = deep_packing_instance()
    size, witness = vc_solve(inst)
    assert size == 1001
    assert witness == frozenset(range(14, 14 + 1001))


# 60 cover bits and one class rooted at every bit with min_t = 1: every
# non-empty guess activates the class, so only the empty guess is harmless.
# Its packing optimum is min(class size, cover budget) = 2.  A scan of the
# 2^60 masks would not finish.
WIDE_PAYLOAD = ([[]] * 60, [3] * 60, [list(range(60))], [5], [1])


def test_vc_walk_prunes_infeasible_guesses():
    assert vc_scan(*WIDE_PAYLOAD) == (2, 0, [2])
    # threshold 0 leaves no room even for the empty guess
    assert vc_scan([[]], [0], [], [], []) == (-1, 0, [])


def test_vc_scan_ties_keep_the_smallest_mask():
    # guesses {0} and {1} both total 1; {0, 1} breaks the class budget
    assert vc_scan([[], []], [2, 2], [[0, 1]], [0], [2]) == (1, 1, [0])
    # every one-bit guess plus the class member totals 2
    assert vc_scan([[], [], []], [2, 2, 2], [[0, 1, 2]], [1], [2]) == (2, 1, [1])


def _seeded_cover_instance(rng, cover, leaves, extra):
    """A graph whose greedy matching cover is exactly the first ``cover``
    ids: the matching (2i, 2i+1) comes first in sorted edge order, ``extra``
    more edges join cover vertices and each leaf hangs off one cover vertex.
    Cover thresholds are half 3 and half 4, leaf thresholds half 1 and half
    2, each list shuffled."""
    matching = [(i, i + 1) for i in range(0, cover, 2)]
    others = [(u, v) for u, v in combinations(range(cover), 2) if (u, v) not in matching]
    edges = matching + rng.sample(others, extra)
    edges += [(rng.randrange(cover), leaf) for leaf in range(cover, cover + leaves)]
    thresholds = []
    for count, low in ((cover, 3), (leaves, 1)):
        part = [low] * round(count / 2) + [low + 1] * (count - round(count / 2))
        rng.shuffle(part)
        thresholds += part
    return Instance(Graph.from_edges(cover + leaves, edges), tuple(thresholds))


def test_vc_matches_brute_force_at_the_cover_cap():
    rng = random.Random(23)
    for cover, leaves in ((20, 16), (20, 20), (20, 24), (22, 16), (22, 20), (22, 24)):
        inst = _seeded_cover_instance(rng, cover, leaves, 20)
        assert len(greedy_vertex_cover(inst.graph)) == cover
        size, witness = vc_solve(inst)
        assert size == brute_force_max(inst, cap=60)[0]
        assert is_harmless(inst, witness) and len(witness) == size


def test_vc_answers_are_pinned():
    # vc_solve's optimum and witness on seeded cover graphs with |X| = 18 to
    # 26, wider than the property tests reach, and on the deep packing
    # instance: a change to the search's order or cuts moves the digest
    rng = random.Random(28)
    instances = [
        _seeded_cover_instance(rng, cover, leaves, 20)
        for cover in range(18, 27, 2)
        for leaves in (16, 20, 24)
    ]
    digest = hashlib.sha256()
    for inst in instances + [deep_packing_instance()]:
        size, witness = vc_solve(inst, cap=26)
        digest.update(repr((size, sorted(witness))).encode())
    assert digest.hexdigest()[:16] == "05f18dedd62b89a6"


def test_vc_matches_the_milp_oracle_at_wider_covers():
    # covers of 26 and 30 vertices, above the default cap and beyond brute
    # force: the MILP oracle decides (a missing scipy skips, with the reason)
    max_harmless = milp_max_harmless()
    rng = random.Random(31)
    for cover in (26, 30):
        for leaves in (16, 20, 24):
            inst = _seeded_cover_instance(rng, cover, leaves, 20)
            assert len(greedy_vertex_cover(inst.graph)) == cover
            size, witness = vc_solve(inst, cap=30)
            g = inst.graph
            assert size == max_harmless(g.n, list(g.edges()), inst.thresholds)
            assert is_harmless(inst, witness) and len(witness) == size


def test_vc_cover_above_62_vertices():
    # a 32-edge matching with a threshold-1 leaf on each of its 64 cover
    # vertices: guess masks are Python ints, so no cover width is refused,
    # and the search sets no guess bit
    edges = [(2 * i, 2 * i + 1) for i in range(32)] + [(c, 64 + c) for c in range(64)]
    inst = Instance(Graph.from_edges(128, edges), (2,) * 64 + (1,) * 64)
    assert len(greedy_vertex_cover(inst.graph)) == 64
    size, witness = vc_solve(inst, cap=70)
    assert size == 64 == brute_force_max(inst, cap=70)[0]
    assert witness == frozenset(range(64, 128))


def test_vc_cover_cap():
    g = Graph.from_edges(30, [(2 * i, 2 * i + 1) for i in range(15)])
    inst = Instance(g, (2,) * 30)
    with pytest.raises(ResourceLimitError):
        vc_solve(inst, cap=10)


# ---------------------------------------------------------------------------
# self-checks are explicit raises, so they survive ``python -O``
# ---------------------------------------------------------------------------

SOLVERS = importlib.import_module("harmlesskit.solvers")


@pytest.mark.parametrize(
    "solve, attr, fake, message",
    [
        (brute_force_max, "is_harmless", lambda instance, S: False, "non-harmless witness"),
        (vc_solve, "is_harmless", lambda instance, S: False, "harmlessness check"),
    ],
    ids=["brute-witness", "vc-witness"],
)
def test_solver_self_checks_raise(monkeypatch, solve, attr, fake, message):
    inst = Instance(star(4), (2,) * 5)
    monkeypatch.setattr(SOLVERS, attr, fake)
    with pytest.raises(InvariantError, match=message):
        solve(inst)


def test_vc_witness_size_check_raises(monkeypatch):
    # the search's total and mask, but a packing that takes no class member
    inst = Instance(star(4), (2,) * 5)
    real = SOLVERS.vc_scan

    def empty_packing(*args):
        total, mask, assign = real(*args)
        return total, mask, [0] * len(assign)

    monkeypatch.setattr(SOLVERS, "vc_scan", empty_packing)
    with pytest.raises(InvariantError, match="witness size"):
        vc_solve(inst)


def _raise(*args):
    raise AssertionError("vc_solve must not rebuild the packing program")


def _packing_once_cases():
    """(instance, cover cap, vc_solve's result) on a path, stars, the deep
    packing instance and a 64-vertex cover."""
    cases = [
        (Instance(P3, (2, 2, 2)), None, (2, frozenset({1, 2}))),
        (Instance(P3, (1, 1, 1)), None, (0, frozenset())),
    ]
    for leaves in range(2, 6):
        cases.append((Instance(star(leaves), (2,) * (leaves + 1)), None, (2, frozenset({0, 2}))))
    cases.append((deep_packing_instance(), None, (1001, frozenset(range(14, 14 + 1001)))))
    edges = [(2 * i, 2 * i + 1) for i in range(32)] + [(c, 64 + c) for c in range(64)]
    inst = Instance(Graph.from_edges(128, edges), (2,) * 64 + (1,) * 64)
    cases.append((inst, 70, (64, frozenset(range(64, 128)))))
    return cases


def test_vc_solves_the_packing_program_once(monkeypatch):
    # vc_solve's witness comes from the search's own packing: with the
    # single-guess model unusable it still returns the same optima and
    # witnesses
    for attr in ("build_ilp", "ilp_solve"):
        monkeypatch.setattr(SOLVERS, attr, _raise)
    for inst, cap, expected in _packing_once_cases():
        assert vc_solve(inst, cap=cap) == expected


def test_vc_runs_one_packing_search(monkeypatch):
    # the cover guesses are variables of the packing search, not a walk
    # that starts a search per guess
    kernels = importlib.import_module("harmlesskit._core._pykernels")
    real = kernels.max_packing
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "max_packing", counted)
    for inst, cap, expected in _packing_once_cases():
        calls.clear()
        assert vc_solve(inst, cap=cap) == expected
        assert len(calls) == 1
    calls.clear()
    assert vc_scan(*WIDE_PAYLOAD) == (2, 0, [2])
    assert len(calls) == 1
