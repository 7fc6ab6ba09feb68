import hashlib
import random
import time
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from harmlesskit import (
    Graph,
    Instance,
    InvalidArgumentError,
    MccInstance,
    ResourceLimitError,
    brute_force_max,
    build_reduction,
    compute_core,
    construct_clique_solution,
    is_2_spider_forest,
    is_harmless,
    load_mcc,
    reduction_target_size,
    verify_reduction,
)
from harmlesskit import reduction
from harmlesskit.generators import random_mcc
from harmlesskit.io import dumps, instance_to_doc
from harmlesskit.reduction import VertexRole, reduction_vertex_count

from cases import reduction_corpus
from oracles import enumerate_harmless_sets, reference_is_2_spider_forest

EDGE_K2N1 = MccInstance.from_edges(2, 1, [(1, 1, 2, 1)])
TRIANGLE_K3N1 = MccInstance.from_edges(3, 1, [(1, 1, 2, 1), (1, 1, 3, 1), (2, 1, 3, 1)])
PATH_K3N1 = MccInstance.from_edges(3, 1, [(1, 1, 2, 1), (2, 1, 3, 1)])


def expected_vertex_count(k, n, m):
    # per gadget: selection 3n each, ports 4 and apex 1 per pair, tests 2n+1
    # per edge, plus the global forbidden pair
    return 3 * k * n + 5 * comb(k, 2) + m * (2 * n + 1) + 2


def expected_edge_count(k, n, m):
    # selection XORs, port wiring, per-test XOR+port+apex edges, and the
    # forbidden hub touching every forbidden vertex plus its partner
    return (
        2 * k * n
        + 4 * n * comb(k, 2)
        + 5 * n * m
        + (k * n + n * m + 5 * comb(k, 2) + 1)
    )


# ---------------------------------------------------------------------------
# target size
# ---------------------------------------------------------------------------

def test_target_size_formula():
    assert reduction_target_size(2, 1, 1) == 3
    assert reduction_target_size(3, 1, 3) == 6
    assert reduction_target_size(2, 2, 4) == 9
    with pytest.raises(InvalidArgumentError):
        reduction_target_size(1, 1, 0)


# ---------------------------------------------------------------------------
# construction shape
# ---------------------------------------------------------------------------

def test_single_edge_instance_shape():
    out = build_reduction(EDGE_K2N1)
    assert out.instance.n == 16
    assert out.target == 3
    assert out.instance.k == 3
    assert brute_force_max(out.instance)[0] == 3


def test_construction_thresholds_by_role():
    rng = random.Random(2)
    for _ in range(8):
        mcc = random_mcc(rng, rng.choice((2, 3)), rng.choice((1, 2)), edge_prob=0.9)
        out = build_reduction(mcc)
        if out.degenerate:
            continue
        n = mcc.n
        for v, role in enumerate(out.roles):
            t = out.instance.thresholds[v]
            if role.role == "xor":
                assert t == 2
            elif role.role in ("port", "apex"):
                assert t == n + 1
            elif role.role == "forbidden":
                assert t == 1


def test_size_identities():
    rng = random.Random(4)
    for _ in range(12):
        mcc = random_mcc(rng, rng.choice((2, 3, 4)), rng.choice((1, 2, 3)), edge_prob=0.85)
        out = build_reduction(mcc)
        if out.degenerate:
            continue
        assert out.instance.n == expected_vertex_count(mcc.k, mcc.n, mcc.m)
        assert out.instance.graph.m == expected_edge_count(mcc.k, mcc.n, mcc.m)


def test_vertex_count_formula_on_the_acceptance_corpus():
    built = 0
    for mcc in reduction_corpus():
        out = build_reduction(mcc)
        if out.degenerate:
            continue
        assert out.instance.n == reduction_vertex_count(mcc.k, mcc.n, mcc.m)
        built += 1
    assert built >= 90


def test_build_reduction_refuses_above_the_vertex_limit(monkeypatch):
    # EDGE_K2N1 gives a 16-vertex H: built at a limit of 16, refused at 15
    monkeypatch.setattr(reduction, "MAX_REDUCTION_VERTICES", 16)
    assert build_reduction(EDGE_K2N1).instance.n == 16
    monkeypatch.setattr(reduction, "MAX_REDUCTION_VERTICES", 15)
    with pytest.raises(ResourceLimitError, match="16 vertices"):
        build_reduction(EDGE_K2N1)


def test_reduction_deterministic():
    mcc = random_mcc(random.Random(6), 3, 2, edge_prob=0.8)
    assert build_reduction(mcc) == build_reduction(mcc)


def test_reduction_bytes_are_pinned():
    # H's vertex order, edges, thresholds and roles, and the vertices of every
    # clique solution, on 200 seeded inputs: any change to the construction
    # moves the digest
    rng = random.Random(25)
    digest = hashlib.sha256()
    for _ in range(200):
        k, n = rng.choice((2, 3, 4)), rng.choice((1, 2, 3))
        mcc = random_mcc(rng, k, n, edge_prob=rng.uniform(0.3, 1.0))
        out = build_reduction(mcc)
        digest.update(dumps(instance_to_doc(out.instance, out.roles_doc())).encode())
        for clique in mcc.cliques():
            digest.update(repr(sorted(construct_clique_solution(out, clique))).encode())
    assert digest.hexdigest()[:16] == "551798485b1d36f5"


# ---------------------------------------------------------------------------
# completeness: clique -> harmless set of exactly the target size
# ---------------------------------------------------------------------------

def test_clique_solution_single_edge():
    out = build_reduction(EDGE_K2N1)
    sol = construct_clique_solution(out, (1, 1))
    assert len(sol) == 3
    assert is_harmless(out.instance, sol)


def test_clique_solution_complete_bipartite_n2():
    mcc = MccInstance.from_edges(
        2, 2, [(1, x, 2, y) for x in (1, 2) for y in (1, 2)]
    )
    out = build_reduction(mcc)
    assert out.target == 9
    sol = construct_clique_solution(out, (1, 2))
    assert len(sol) == 9
    assert is_harmless(out.instance, sol)


def test_selection_part_leaves_the_advertised_port_budgets():
    mcc = MccInstance.from_edges(
        2, 2, [(1, x, 2, y) for x in (1, 2) for y in (1, 2)]
    )
    out = build_reduction(mcc)
    x = (1, 2)
    sel = set()
    for i in (1, 2):
        for s in range(1, x[i - 1] + 1):
            sel.add(out.roles.index(VertexRole("selection", (i,), "light", (s,))))
        for s in range(x[i - 1] + 1, 3):
            sel.add(out.roles.index(VertexRole("selection", (i,), "dark", (s,))))
    n = mcc.n
    for col in (1, 2):
        plus = out.roles.index(VertexRole("port", (1, 2), "port", ("+", col)))
        minus = out.roles.index(VertexRole("port", (1, 2), "port", ("-", col)))
        # a port's residual budget: t - |N & sel| - 1
        for port, budget in ((plus, n - x[col - 1]), (minus, x[col - 1])):
            used = len(sel.intersection(out.instance.graph.adj[port]))
            assert out.instance.thresholds[port] - used - 1 == budget


@pytest.mark.parametrize("k, target", [(4, 36), (5, 55)])
def test_apex_stops_two_lit_test_gadgets_per_pair(k, target):
    # n = 3 with edges (1, 2) and (2, 1) in every colour pair: no clique.
    # Their two test gadgets put 2 + 1 and 1 + 2 lights on each port pair,
    # so lighting both fills the ports with no selection vertex chosen, and
    # C(k,2) * 2n such lights reach the target.  Only the apex, which sees
    # the 2n lit lights of its pair against threshold n + 1, stops them.
    n = 3
    pairs = combinations(range(1, k + 1), 2)
    edges = [(i, x, j, y) for i, j in pairs for x, y in ((1, 2), (2, 1))]
    mcc = MccInstance.from_edges(k, n, edges)
    assert not mcc.cliques()
    out = build_reduction(mcc)
    lights = [v for v, r in enumerate(out.roles) if r.kind == "test" and r.role == "light"]
    assert len(lights) == comb(k, 2) * 2 * n >= out.target == target
    assert not is_harmless(out.instance, lights)
    # with every apex threshold above its degree, the same lights are harmless
    adj = out.instance.graph.adj
    inert = tuple(
        len(adj[v]) + 1 if r.role == "apex" else t
        for v, (r, t) in enumerate(zip(out.roles, out.instance.thresholds))
    )
    assert is_harmless(Instance(out.instance.graph, inert), lights)


def test_clique_solutions_up_to_k4_n3():
    rng = random.Random(12)
    realised = 0
    for _ in range(40):
        k = rng.choice((2, 3, 4))
        n = rng.choice((1, 2, 3))
        mcc = random_mcc(rng, k, n, edge_prob=rng.uniform(0.4, 0.95))
        out = build_reduction(mcc)
        for clique in mcc.cliques():
            sol = construct_clique_solution(out, clique)
            assert len(sol) == out.target
            assert is_harmless(out.instance, sol)
            realised += 1
    assert realised > 20


def test_clique_solution_rejects_non_clique():
    out = build_reduction(PATH_K3N1)
    with pytest.raises(InvalidArgumentError):
        construct_clique_solution(out, (1, 1, 1))
    out2 = build_reduction(EDGE_K2N1)
    with pytest.raises(InvalidArgumentError):
        construct_clique_solution(out2, (1,))
    with pytest.raises(InvalidArgumentError):
        construct_clique_solution(out2, (1, 2))


# ---------------------------------------------------------------------------
# modulator and 2-spider forests
# ---------------------------------------------------------------------------

def test_is_2_spider_forest_basics():
    p5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert is_2_spider_forest(p5)
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert not is_2_spider_forest(triangle)
    p6 = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    assert not is_2_spider_forest(p6)
    assert is_2_spider_forest(Graph.from_edges(1, ()))
    assert is_2_spider_forest(Graph.from_edges(0, ()))
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert is_2_spider_forest(star)
    subdivided = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
    assert is_2_spider_forest(subdivided)


def spider_check_graphs(count, seed):
    """Seeded random forests (each vertex hangs below an earlier one or
    starts a tree) and sparse G(n, p) graphs, alternately, with n <= 14."""
    rng = random.Random(seed)
    for case in range(count):
        n = rng.randint(0, 14)
        if case % 2:
            p = rng.choice((0.05, 0.1, 0.2))
            edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        else:
            edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.85]
        yield Graph.from_edges(n, edges)


def test_is_2_spider_forest_matches_reference():
    answers = [
        (is_2_spider_forest(g), reference_is_2_spider_forest(g))
        for g in spider_check_graphs(10_000, seed=12)
    ]
    assert all(got == want for got, want in answers)
    # both answers are common, so neither constant passes
    assert 1000 < sum(want for _, want in answers) < 9000


def test_is_2_spider_forest_is_linear_on_a_large_star():
    # a 5,000-leaf star with a 2-edge leg hung on leaf 1: vertex 5002 lies at
    # distance 3 from the only possible centre, so this is no 2-spider
    leaves = 5000
    edges = [(0, i) for i in range(1, leaves + 1)]
    edges += [(1, leaves + 1), (leaves + 1, leaves + 2)]
    g = Graph.from_edges(leaves + 3, edges)
    start = time.perf_counter()
    assert not is_2_spider_forest(g)
    assert time.perf_counter() - start < 1.0


def test_modulator_counts():
    assert len(build_reduction(EDGE_K2N1).modulator) == 6  # 5*1 + 1
    assert len(build_reduction(TRIANGLE_K3N1).modulator) == 16  # 5*3 + 1


def test_modulator_leaves_2_spider_forest():
    rng = random.Random(8)
    for _ in range(10):
        mcc = random_mcc(rng, rng.choice((2, 3)), rng.choice((1, 2)), edge_prob=0.9)
        out = build_reduction(mcc)
        if out.degenerate:
            continue
        mod = frozenset(out.modulator)
        assert len(mod) == 5 * comb(mcc.k, 2) + 1
        rest, _ = out.instance.graph.induced(set(range(out.instance.n)) - mod)
        assert is_2_spider_forest(rest)


# ---------------------------------------------------------------------------
# soundness and the observations about harmless sets in H
# ---------------------------------------------------------------------------

def test_verify_reduction_single_edge():
    rep = verify_reduction(EDGE_K2N1)
    assert rep.ok and rep.clique_count > 0 and rep.optimum == 3


def test_verify_reduction_triangle():
    rep = verify_reduction(TRIANGLE_K3N1)
    assert rep.ok and rep.clique_count > 0
    assert rep.optimum == 6 == rep.target


def test_verify_reduction_path_has_no_clique():
    rep = verify_reduction(PATH_K3N1)
    assert rep.ok
    assert rep.clique_count == 0
    assert rep.optimum < rep.target == 5


def test_degenerate_pair_yields_canonical_no():
    mcc = MccInstance.from_edges(2, 1, [])
    out = build_reduction(mcc)
    assert out.degenerate
    assert out.missing_pairs_doc() == {"missing_pairs": [[1, 2]], "missing_pair_count": 1}
    assert out.instance.n == 2
    assert brute_force_max(out.instance)[0] == 0 < out.target
    rep = verify_reduction(mcc)
    assert rep.ok and rep.degenerate and rep.clique_count == 0


def test_enumerated_harmless_sets_respect_gadget_observations():
    out = build_reduction(EDGE_K2N1)
    inst = out.instance
    forbidden = out.forbidden_vertices()
    # the two selectable ends of every XOR vertex
    xor_pairs = [
        {w for w in inst.graph.adj[v] if w not in forbidden}
        for v, r in enumerate(out.roles)
        if r.role == "xor"
    ]
    sel_groups = []
    for i in (1, 2):
        group = {
            out.roles.index(VertexRole("selection", (i,), "light", (1,))),
            out.roles.index(VertexRole("selection", (i,), "dark", (1,))),
        }
        sel_groups.append(group)
    best = 0
    for S in enumerate_harmless_sets(inst):
        best = max(best, len(S))
        assert not S & forbidden
        for pair in xor_pairs:
            assert len(S & pair) <= 1
        for group in sel_groups:
            assert len(S & group) <= EDGE_K2N1.n
    assert best == out.target


def test_forbidden_vertices_are_exactly_the_non_selectable_roles():
    out = build_reduction(TRIANGLE_K3N1)
    selectable = out.selectable_vertices()
    forbidden = out.forbidden_vertices()
    assert selectable | forbidden == frozenset(range(out.instance.n))
    assert not selectable & forbidden


def test_selectable_vertices_are_the_core():
    # verify_reduction leaves its cap to brute_force_max, which counts the
    # core: the two agree only because the core is the selectable roles
    for mcc in reduction_corpus():
        out = build_reduction(mcc)
        assert out.selectable_vertices() == compute_core(out.instance)


def test_verify_reduction_cap():
    selectable = len(build_reduction(TRIANGLE_K3N1).selectable_vertices())
    with pytest.raises(ResourceLimitError, match=f"{selectable} selectable"):
        verify_reduction(TRIANGLE_K3N1, cap=selectable - 1)
    assert verify_reduction(TRIANGLE_K3N1, cap=selectable).ok


def test_selectable_count_is_read_from_the_input():
    # verify_reduction refuses an input by this count before it builds H
    for mcc in reduction_corpus():
        out = build_reduction(mcc)
        if not out.degenerate:
            assert len(compute_core(out.instance)) == 2 * mcc.k * mcc.n + mcc.m * (mcc.n + 1)


def test_header_only_reduction_counts_missing_pairs_without_listing_them(tmp_path):
    # the header declares C(1500, 2) = 1,124,250 colour pairs, none with an edge
    path = tmp_path / "header.mcc"
    path.write_text("p mcc 1500 3\n")
    mcc = load_mcc(path)
    tracemalloc.start()
    try:
        out = build_reduction(mcc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert out.degenerate
    assert out.missing_pairs_doc() == {
        "missing_pairs": [[1, j] for j in range(2, 12)],
        "missing_pair_count": comb(1500, 2),
    }
