"""Property-based invariants over randomly drawn instances."""

import importlib
import random
from itertools import combinations
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harmlesskit import (
    AnnotatedInstance,
    Graph,
    Instance,
    MccInstance,
    build_reduction,
    compute_core,
    is_harmless,
    kernelize,
    projection_profile,
    r_projection,
    shrink_graph_step,
    vc_solve,
)
from harmlesskit import sparsity
from harmlesskit._core._pykernels import max_harmless, max_packing, vc_scan
from harmlesskit.kernelize import _lily_targets, _twin_removals
from harmlesskit.solvers import (
    IlpModel,
    NeighbourhoodClass,
    build_ilp,
    greedy_vertex_cover,
    ilp_solve,
)
from harmlesskit.sparsity import (
    build_waterlily,
    domination_scattered,
    greedy_dominating,
    projection_closure,
)

from oracles import (
    naive_greedy_cover,
    naive_packing_model,
    naive_projection_closure,
    per_pair_edges,
    per_pair_missing_pairs,
    product_cliques,
    recursive_ilp_solve,
    recursive_max_harmless,
    recursive_max_packing,
    reference_kernelize,
    reference_shrink_graph_step,
    reference_twin_phase,
    vc_scan_reference,
)


@st.composite
def instances(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    thresholds = tuple(
        draw(st.integers(min_value=1, max_value=4)) for _ in range(n)
    )
    return Instance(Graph.from_edges(n, edges), thresholds)


@st.composite
def sparse_graph_with_set(draw, max_n=16):
    """A sparse random graph (at most 2n edges) and a vertex subset of it."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    raw = draw(st.lists(st.tuples(vertex, vertex), min_size=n // 2, max_size=2 * n))
    edges = sorted({(min(u, v), max(u, v)) for u, v in raw if u != v})
    S = frozenset(v for v in range(n) if draw(st.booleans()))
    return Graph.from_edges(n, edges), S


@st.composite
def instance_with_set(draw):
    inst = draw(instances())
    S = frozenset(v for v in range(inst.n) if draw(st.booleans()))
    return inst, S


@settings(max_examples=300, derandomize=True)
@given(instance_with_set())
def test_subsets_of_harmless_sets_are_harmless(pair):
    inst, S = pair
    if not is_harmless(inst, S):
        return
    for drop in sorted(S):
        assert is_harmless(inst, S - {drop})


@settings(max_examples=300, derandomize=True)
@given(instance_with_set())
def test_harmless_sets_live_in_the_core(pair):
    inst, S = pair
    if is_harmless(inst, S):
        assert S <= compute_core(inst)


@settings(max_examples=200, derandomize=True)
@given(instances(), st.integers(min_value=1, max_value=3))
def test_profile_support_equals_projection(inst, r):
    g = inst.graph
    if g.n == 0:
        return
    X = frozenset(range(0, g.n, 2))
    for u in range(g.n):
        if u in X:
            continue
        prof = projection_profile(g, X, u, r)
        assert frozenset(x for x, _ in prof) == r_projection(g, X, u, r)
        for x, d in prof:
            assert 1 <= d <= r


@settings(max_examples=100, derandomize=True)
@given(instances(), st.integers(min_value=1, max_value=3))
def test_closure_contains_input_and_satisfies_bound(inst, c):
    g = inst.graph
    X = frozenset(range(0, g.n, 3))
    closed = projection_closure(g, X, 2, c)
    assert X <= closed
    for u in range(g.n):
        if u not in closed:
            assert len(r_projection(g, closed, u, 2)) <= c


# ---------------------------------------------------------------------------
# incremental sparsity routines against their non-incremental references
# ---------------------------------------------------------------------------

@settings(max_examples=200, derandomize=True)
@given(sparse_graph_with_set(), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
def test_projection_closure_matches_reference(pair, r, c):
    g, X = pair
    assert projection_closure(g, X, r, c) == naive_projection_closure(g, X, r, c)


@settings(max_examples=200, derandomize=True)
@given(sparse_graph_with_set(), st.integers(min_value=0, max_value=3))
def test_greedy_dominating_matches_reference(pair, r):
    g, X = pair
    assert greedy_dominating(g, X, r) == naive_greedy_cover(g, X, r)


@settings(max_examples=200, derandomize=True)
@given(sparse_graph_with_set(), st.integers(min_value=1, max_value=3))
def test_domination_cover_extension_matches_reference(pair, r):
    g, X = pair
    dom = domination_scattered(g, X, r)
    assert dom.dominating == naive_greedy_cover(g, X, r, sorted(dom.scattered))


@settings(max_examples=150, derandomize=True)
@given(sparse_graph_with_set(max_n=20), st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1)]))
def test_waterlily_with_kept_prefix_equals_fresh_graph(pair, rd):
    # the targets after the first reuse the prefix kept for g, while each
    # fresh copy of g computes it anew from an emptied cache
    g, A = pair
    r, d = rd
    targets = _lily_targets(len(A))
    kept = [build_waterlily(g, A, r, d, target) for target in targets]
    fresh = []
    for target in targets:
        sparsity._lily_prefix.cache_clear()
        fresh.append(build_waterlily(Graph(g.n, g.adj), A, r, d, target))
    assert kept == fresh


@st.composite
def packing_models(draw):
    """Small packing programs: capacities on arbitrary vertex ids, classes
    whose roots are any subset of them (empty roots are unconstrained)."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=30), unique=True, max_size=5))
    capacities = {u: draw(st.integers(min_value=0, max_value=4)) for u in ids}
    classes = tuple(
        NeighbourhoodClass(
            frozenset(u for u in ids if draw(st.booleans())),
            tuple(range(draw(st.integers(min_value=0, max_value=4)))),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=7)))
    )
    return IlpModel(classes, capacities)


@settings(max_examples=300, derandomize=True)
@given(packing_models())
def test_packing_matches_recursive_reference(model):
    # same optimum and the same assignment, so vc witnesses are unchanged
    assert ilp_solve(model) == recursive_ilp_solve(model)


@st.composite
def packing_programs(draw):
    """``max_packing`` arguments: 0-8 variables over 0-6 capacities of 0-4,
    each variable listing any of them (or none), and a guess count in
    0..nvars whose 0/1 variables have class size 0 or 1, the others 0-4."""
    ncaps = draw(st.integers(min_value=0, max_value=6))
    nvars = draw(st.integers(min_value=0, max_value=8))
    guesses = draw(st.integers(min_value=0, max_value=nvars))
    caps = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=ncaps, max_size=ncaps))
    class_size = [
        draw(st.integers(min_value=0, max_value=1 if j < guesses else 4)) for j in range(nvars)
    ]
    position = st.integers(min_value=0, max_value=max(ncaps - 1, 0))
    rows = [draw(st.lists(position, unique=True, max_size=ncaps)) for _ in range(nvars)]
    return class_size, rows, caps, guesses


@settings(max_examples=400, derandomize=True)
@given(packing_programs())
def test_max_packing_matches_recursive_reference(program):
    # the same optimum and assignment, so vc witnesses are unchanged, and
    # the capacities come back as they were passed
    class_size, rows, caps, guesses = program
    passed = caps.copy()
    got = max_packing(class_size, rows, caps, guesses=guesses)
    assert got == recursive_max_packing(class_size, rows, passed, guesses)
    assert caps == passed


@st.composite
def cover_packing_programs(draw):
    """``max_packing`` arguments shaped like ``vc_scan``'s: 4-8 guess
    variables of size 1, then 0-4 classes of size 1-3, and 3-6 capacity
    rows of 0-3, each listed by 3-6 of the variables.  Rows this full are
    where the search charges its bound for what a row cannot hold."""
    guesses = draw(st.integers(min_value=4, max_value=8))
    class_size = [1] * guesses + draw(st.lists(st.integers(1, 3), max_size=4))
    nvars = len(class_size)
    ncaps = draw(st.integers(min_value=3, max_value=6))
    caps = draw(st.lists(st.integers(0, 3), min_size=ncaps, max_size=ncaps))
    rows = [[] for _ in class_size]
    for c in range(ncaps):
        for j in draw(st.lists(st.integers(0, nvars - 1), min_size=3, max_size=6, unique=True)):
            rows[j].append(c)
    return class_size, rows, caps, guesses


@settings(max_examples=300, derandomize=True)
@given(cover_packing_programs())
def test_max_packing_matches_recursive_reference_on_cover_programs(program):
    class_size, rows, caps, guesses = program
    passed = caps.copy()
    got = max_packing(class_size, rows, caps, guesses=guesses)
    assert got == recursive_max_packing(class_size, rows, passed, guesses)
    assert caps == passed


@settings(max_examples=300, derandomize=True)
@given(instances(max_n=12), st.data())
def test_brute_kernel_matches_recursive_reference(inst, data):
    # any ordered candidate list, so the visit order is exercised as well
    order = data.draw(st.permutations(range(inst.n)))
    candidates = order[: data.draw(st.integers(min_value=0, max_value=inst.n))]
    adj, thresholds = inst.graph.adj, inst.thresholds
    assert max_harmless(adj, thresholds, candidates) == recursive_max_harmless(
        adj, thresholds, candidates
    )


@st.composite
def mcc_instances(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    slots = [
        (i, x, j, y)
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
    ]
    density = draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    return MccInstance.from_edges(k, n, [e for e in slots if rnd.random() < density])


@settings(max_examples=300, derandomize=True)
@given(mcc_instances())
def test_cliques_match_product_enumeration(mcc):
    assert mcc.cliques() == product_cliques(mcc)


@settings(max_examples=300, derandomize=True)
@given(mcc_instances())
def test_edge_grouping_matches_per_pair_scan(mcc):
    assert tuple(mcc.missing_pairs()) == per_pair_missing_pairs(mcc)
    for i, j in combinations(range(1, mcc.k + 1), 2):
        assert mcc.pair_edges(i, j) == per_pair_edges(mcc, i, j)


@settings(max_examples=100, derandomize=True)
@given(mcc_instances())
def test_brute_kernel_matches_recursive_reference_on_reductions(mcc):
    # H's XOR vertices and ports are where the kernel's bound prunes hardest
    inst = build_reduction(mcc).instance
    core = compute_core(inst)
    assume(len(core) <= 22)
    adj, thresholds = inst.graph.adj, inst.thresholds
    order = sorted(core, key=lambda v: (-len(adj[v]), v))  # brute_force_max's order
    assert max_harmless(adj, thresholds, order) == recursive_max_harmless(adj, thresholds, order)


@st.composite
def hub_instances(draw, max_n=16):
    """Sparse graphs in which up to three hubs hold every other vertex as a
    leaf, plus a few extra edges, thresholds 1-5.  A hub whose leaves
    outnumber its budget gives the brute-force bound a non-zero excess."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    hubs = draw(st.integers(min_value=1, max_value=min(3, n - 1)))
    hub = st.integers(min_value=0, max_value=hubs - 1)
    edges = {(draw(hub), v) for v in range(hubs, n)}
    vertex = st.integers(min_value=0, max_value=n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=n // 4)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    thresholds = tuple(draw(st.integers(min_value=1, max_value=5)) for _ in range(n))
    return Instance(Graph.from_edges(n, sorted(edges)), thresholds)


@settings(max_examples=300, derandomize=True)
@given(hub_instances(), st.data())
def test_brute_kernel_matches_recursive_reference_on_hubs(inst, data):
    candidates = data.draw(st.permutations(range(inst.n)))
    adj, thresholds = inst.graph.adj, inst.thresholds
    assert max_harmless(adj, thresholds, candidates) == recursive_max_harmless(
        adj, thresholds, candidates
    )


@st.composite
def sparse_candidate_instances(draw):
    """G(n, m) with n = 8-14, m = round(1.5 n) and thresholds 2-3, the shape
    of the benchmark's brute-force calls: every vertex is a candidate, and
    candidate neighbourhoods overlap, so the bound charges partial groups."""
    n = draw(st.integers(min_value=8, max_value=14))
    rnd = draw(st.randoms(use_true_random=False))
    edges = rnd.sample(list(combinations(range(n), 2)), round(1.5 * n))
    thresholds = tuple(draw(st.integers(min_value=2, max_value=3)) for _ in range(n))
    return Instance(Graph.from_edges(n, edges), thresholds)


@settings(max_examples=300, derandomize=True)
@given(sparse_candidate_instances(), st.data())
def test_brute_kernel_matches_recursive_reference_on_sparse_graphs(inst, data):
    adj, thresholds = inst.graph.adj, inst.thresholds
    by_degree = sorted(range(inst.n), key=lambda v: (-len(adj[v]), v))  # brute_force_max's order
    for order in (by_degree, data.draw(st.permutations(range(inst.n)))):
        assert max_harmless(adj, thresholds, order) == recursive_max_harmless(
            adj, thresholds, order
        )


@settings(max_examples=300, derandomize=True)
@given(instances(), st.data())
def test_build_ilp_matches_reference(inst, data):
    g = inst.graph
    extra = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=3)) if g.n else set()
    X = greedy_vertex_cover(g) | extra
    guess = frozenset(data.draw(st.sets(st.sampled_from(sorted(X)))) if X else ())
    model = build_ilp(inst, X, guess)
    want = naive_packing_model(inst, X, guess)
    if want is None:
        assert model is None
    else:
        assert [(cls.roots, cls.members) for cls in model.classes] == want[0]
        assert model.capacities == want[1]
        assert list(model.capacities) == list(want[1])


@st.composite
def vc_scan_calls(draw):
    """``vc_scan`` arguments: up to 10 cover bits with random neighbour
    rows and thresholds and random classes (rows list the class's roots).
    Now and then one threshold is 0, so that no guess at all is harmless."""
    nx = draw(st.integers(min_value=0, max_value=10))
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))

    def random_row():
        return [b for b in range(nx) if rnd.random() < density]

    nclasses = draw(st.integers(min_value=0, max_value=6))
    x_rows = [random_row() for _ in range(nx)]
    class_rows = [random_row() for _ in range(nclasses)]
    x_thresh = [rnd.randint(1, 4) for _ in range(nx)]
    class_min_t = [rnd.randint(1, 4) for _ in range(nclasses)]
    class_size = [rnd.randint(0, 5) for _ in range(nclasses)]
    if nx + nclasses and draw(st.integers(min_value=0, max_value=9)) == 0:
        if x_thresh:
            x_thresh[rnd.randrange(nx)] = 0
        else:
            class_min_t[rnd.randrange(nclasses)] = 0
    return x_rows, x_thresh, class_rows, class_size, class_min_t


@settings(max_examples=400, derandomize=True)
@given(vc_scan_calls())
def test_vc_walk_matches_scan_reference(payload):
    assert vc_scan(*payload) == vc_scan_reference(*payload)


SOLVERS = importlib.import_module("harmlesskit.solvers")


@st.composite
def cover_instances(draw, max_n=14):
    """Sparse to dense graphs, so that covers leave classes of every size."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.1, 0.2, 0.4, 0.7]))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density]
    thresholds = tuple(rnd.randint(1, 4) for _ in range(n))
    return Instance(Graph.from_edges(n, edges), thresholds)


@settings(max_examples=300, derandomize=True)
@given(cover_instances())
def test_single_guess_model_matches_the_walk(inst):
    # at the search's best guess the public model has the search's optimum and
    # its assignment, so vc_solve's witness needs no rebuild
    walks = []

    def recording_scan(*args):
        walks.append(vc_scan(*args))
        return walks[-1]

    with mock.patch.object(SOLVERS, "vc_scan", recording_scan):
        vc_solve(inst)
    (best_total, best_mask, best_assign), = walks
    X = sorted(greedy_vertex_cover(inst.graph))
    guess = frozenset(v for i, v in enumerate(X) if best_mask >> i & 1)
    model = build_ilp(inst, X, guess)
    assert ilp_solve(model) == (best_total - len(guess), tuple(best_assign))


@st.composite
def twin_heavy_instances(draw, max_n=40):
    """Sparse to dense graphs whose threshold-1 share runs from none to
    nearly all (so many outside vertices have an empty neighbourhood inside
    K) and whose other thresholds come from a small range (so ties are
    common), with k anywhere in 0..n+1 and p either unset or the largest
    threshold."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    density = draw(st.sampled_from([0.05, 0.1, 0.2, 0.4]))
    ones = draw(st.sampled_from([0.0, 0.3, 0.6, 0.8, 0.95]))
    top = draw(st.integers(min_value=2, max_value=4))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density]
    thresholds = tuple(1 if rnd.random() < ones else rnd.randint(2, top) for _ in range(n))
    k = draw(st.integers(min_value=0, max_value=n + 1))
    p = draw(st.sampled_from([None, max(thresholds, default=1)]))
    return Instance(Graph.from_edges(n, edges), thresholds, k), p


@settings(max_examples=400, derandomize=True)
@given(twin_heavy_instances())
def test_kernelize_matches_reference_twin_loop(case):
    inst, p = case
    ann, report = kernelize(inst, p)
    assert (ann, report.to_doc()) == reference_kernelize(inst, p)


@settings(max_examples=300, derandomize=True)
@given(twin_heavy_instances(), st.integers(min_value=0, max_value=2**32))
def test_twin_order_matches_reference_loop(case, seed):
    inst, _ = case
    rnd = random.Random(seed)
    core = frozenset(v for v in range(inst.n) if rnd.random() < 0.5)
    ann = AnnotatedInstance(inst, core)
    assert shrink_graph_step(ann) == reference_shrink_graph_step(ann)
    order = _twin_removals(ann)
    _, steps = reference_twin_phase(ann)
    # each removal as numbered when it went: minus the earlier removals below it
    assert [v - sum(w < v for w in order[:i]) for i, v in enumerate(order)] == [
        s[0] for s in steps
    ]
