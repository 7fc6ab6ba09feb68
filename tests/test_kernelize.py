import importlib
import json
import random
from pathlib import Path

import pytest

from harmlesskit import (
    AnnotatedInstance,
    Graph,
    Instance,
    InvalidArgumentError,
    InvariantError,
    RemoveVertices,
    Stuck,
    YesCertificate,
    brute_force_max,
    cap_thresholds,
    compute_core,
    is_harmless,
    kernelize,
    shrink_core_step,
    shrink_graph_step,
    signature,
    to_plain_kernel,
)
from harmlesskit import sparsity
from harmlesskit.generators import bounded_degree_graph, random_instance
from harmlesskit.io import doc_to_instance, dumps, instance_to_doc
from harmlesskit.kernelize import kernel_decision

from cases import fragile_heavy_instance
from oracles import naive_max_harmless, reference_core_reduction


def annotated_optimum(ann: AnnotatedInstance) -> int:
    """Exhaustive optimum over subsets of the core (independent oracle)."""
    best = 0
    core = sorted(ann.core)
    for mask in range(1 << len(core)):
        S = frozenset(core[i] for i in range(len(core)) if mask >> i & 1)
        if len(S) > best and is_harmless(ann.instance, S):
            best = len(S)
    return best


def disjoint_edges(k: int) -> Instance:
    g = Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
    return Instance(g, (2,) * (2 * k), k)


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

def test_signature_no_outside_neighbours():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    inst = Instance(g, (2, 2, 2))
    assert signature(inst, {1, 2}, 0) == frozenset()


def test_signature_single_neighbour():
    # v=0 with one neighbour u=1, t(u)=2, N(u) & R = {2}
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = Instance(g, (9, 2, 9))
    assert signature(inst, {2}, 0) == {(2, frozenset({2}))}


def test_signature_of_symmetric_twins():
    # two centres 0, 1 each with a private degree-2 neighbour wired to root 4
    g = Graph.from_edges(5, [(0, 2), (1, 3), (2, 4), (3, 4)])
    inst = Instance(g, (5, 5, 3, 3, 5))
    assert signature(inst, {4}, 0) == signature(inst, {4}, 1)
    with pytest.raises(InvalidArgumentError):
        signature(inst, {4}, 4)


# ---------------------------------------------------------------------------
# core shrinking
# ---------------------------------------------------------------------------

def test_shrink_core_fragile_neighbour_case():
    # x=0 adjacent to a threshold-1 vertex, handed in as part of the core
    g = Graph.from_edges(2, [(0, 1)])
    inst = Instance(g, (2, 1), 1)
    outcome = shrink_core_step(AnnotatedInstance(inst, frozenset({0})), p=2)
    assert outcome == RemoveVertices((0,), "core-fragile")


def test_shrink_core_yes_certificate_on_disjoint_edges():
    inst = disjoint_edges(4)
    ann = AnnotatedInstance(inst, frozenset(range(8)))
    outcome = shrink_core_step(ann, p=2)
    assert isinstance(outcome, YesCertificate)
    assert len(outcome.certificate) >= 4
    assert is_harmless(inst, outcome.certificate)


def test_shrink_core_remove_preserves_annotated_optimum():
    # any superset of the computed core is still a valid solution core, and
    # supersets make the fragile-neighbour rule reachable
    rng = random.Random(41)
    removals = 0
    for _ in range(200):
        n = rng.randint(2, 9)
        inst = cap_thresholds(
            random_instance(rng, n, edge_prob=0.35, t_max=3, k=rng.randint(1, 3))
        )
        extra = frozenset(v for v in range(n) if rng.random() < 0.5)
        ann = AnnotatedInstance(inst, compute_core(inst) | extra)
        outcome = shrink_core_step(ann, p=inst.k + 1)
        if isinstance(outcome, RemoveVertices):
            removals += 1
            shrunk = ann.shrink_core(outcome.vertices)
            assert annotated_optimum(ann) == annotated_optimum(shrunk)
    assert removals > 0


def test_shrink_core_step_is_the_rule_kernelize_applies():
    # the package attribute ``kernelize`` is the function, so fetch the module
    module = importlib.import_module("harmlesskit.kernelize")
    assert shrink_core_step is module._core_reduction


@pytest.mark.parametrize("name", ["star7-tail-k2", "star7-tail-k3"])
def test_shrink_core_batch_matches_first_exchange_steps(name):
    # the golden threshold-2 star: the first core step is an exchange batch,
    # and kernelize records one step per vertex of it, in order
    case = next(c for c in GOLDEN["cases"] if c["name"] == name)
    inst = cap_thresholds(doc_to_instance(case["instance"]))
    outcome = shrink_core_step(AnnotatedInstance(inst, compute_core(inst)), p=inst.k + 1)
    assert isinstance(outcome, RemoveVertices) and outcome.rule == "core-exchange"
    steps = case["result"]["report"]["steps"][: len(outcome.vertices)]
    assert [s["rule"] for s in steps] == ["core-exchange"] * len(outcome.vertices)
    assert tuple(s["vertex"] for s in steps) == outcome.vertices


# ---------------------------------------------------------------------------
# graph shrinking (core twins)
# ---------------------------------------------------------------------------

def test_twin_removal_prefers_larger_threshold():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    inst = Instance(g, (9, 2, 3), 1)
    ann = AnnotatedInstance(inst, frozenset({0}))
    assert shrink_graph_step(ann) == 2
    # and the optimum is preserved by the removal
    assert annotated_optimum(ann) == annotated_optimum(ann.without_vertex(2))


def test_twin_removal_tie_breaks_on_higher_id():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    inst = Instance(g, (9, 2, 2), 1)
    assert shrink_graph_step(AnnotatedInstance(inst, frozenset({0}))) == 2


def test_twin_phase_builds_the_kernel_graph_once(monkeypatch):
    # hundreds of twin removals, and no graph built but the kernel's
    inst = fragile_heavy_instance(600, 3)
    # every way of building a graph passes through its constructor
    init = Graph.__init__
    built = []

    def counting(self, n, adj):
        built.append(n)
        init(self, n, adj)

    monkeypatch.setattr(Graph, "__init__", counting)
    ann, report = kernelize(inst)
    assert report.rule_counts() == {"twin": inst.n - ann.graph.n}
    assert inst.n - ann.graph.n > 400
    assert built == [ann.graph.n]


def test_no_twins_outside_core():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = Instance(g, (2, 2, 2), 1)
    ann = AnnotatedInstance(inst, frozenset({0, 1, 2}))
    assert shrink_graph_step(ann) is None


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

def test_kernelize_empty_core_answers_no():
    # a single threshold-1 edge: nobody is selectable, k = 1 is a NO
    g = Graph.from_edges(2, [(0, 1)])
    inst = Instance(g, (1, 1), 1)
    ann, report = kernelize(inst)
    assert report.outcome == "kernel"
    assert ann.core == frozenset()
    assert brute_force_max(ann.instance, candidates=ann.core)[0] < 1


def test_kernelize_disjoint_edges_early_yes():
    ann, report = kernelize(disjoint_edges(5))
    assert report.outcome == "yes"
    assert len(report.certificate) >= 5


def test_early_yes_certificate_check_raises(monkeypatch):
    """The certificate check is an explicit raise, so it survives ``python -O``."""
    module = importlib.import_module("harmlesskit.kernelize")
    monkeypatch.setattr(module, "is_harmless", lambda instance, S: False)
    with pytest.raises(InvariantError, match="scattered certificate"):
        kernelize(disjoint_edges(5))


def test_kernelize_requires_k():
    with pytest.raises(InvalidArgumentError):
        kernelize(Instance(Graph.from_edges(1, ()), (1,), None))


def test_kernelize_rejects_thresholds_above_p():
    inst = Instance(Graph.from_edges(2, [(0, 1)]), (3, 1), 1)
    with pytest.raises(InvalidArgumentError):
        kernelize(inst, p=2)


def test_kernelize_preserves_decision_fuzz():
    rng = random.Random(43)
    for _ in range(120):
        n = rng.randint(1, 9)
        inst = random_instance(rng, n, edge_prob=0.35, t_max=max(1, n), k=rng.randint(0, n))
        want = naive_max_harmless(inst)[0] >= inst.k
        ann, report = kernelize(inst)
        if report.outcome == "yes":
            got = True
        else:
            got = brute_force_max(ann.instance, candidates=ann.core)[0] >= ann.instance.k
        assert got == want


def test_kernelize_monotone_and_bounded():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 9)
        inst = random_instance(rng, n, edge_prob=0.4, t_max=3, k=rng.randint(0, n))
        ann, report = kernelize(inst)
        sizes = [(report.initial_graph_size, report.initial_core_size)]
        for step in report.steps:
            sizes.append((step.graph_size, step.core_size))
        for (g0, c0), (g1, c1) in zip(sizes, sizes[1:]):
            assert g1 <= g0 and c1 <= c0
        assert len(report.steps) <= report.initial_core_size + report.initial_graph_size
        for step in report.steps:
            if step.rule == "twin":
                assert step.graph_size < report.initial_graph_size


def exchange_instances(rng):
    """Instances where interchangeable-centre classes exist: stars with
    threshold 2 (the leaves all share one empty signature), lightly decorated."""
    t = rng.randint(5, 9)
    edges = [(0, i) for i in range(1, t + 1)]
    n = t + 1
    if rng.random() < 0.5:  # pendant tail off one leaf
        edges.append((1, n))
        n += 1
    thresholds = tuple(2 for _ in range(n))
    yield Instance(Graph.from_edges(n, edges), thresholds, 2)
    yield random_instance(rng, rng.randint(4, 9), edge_prob=0.25, t_max=2, k=rng.randint(1, 3))


def test_exchange_rule_sound_when_it_fires():
    """Whenever the waterlily exchange fires, optima must match exactly.

    The core rules run to a fixpoint as in ``kernelize`` (thresholds capped,
    p = k + 1), and each ``core-exchange`` batch is checked whole: the
    optimum cannot rise as the core shrinks, so an unchanged optimum across
    the batch means an unchanged optimum across each removal in it."""
    rng = random.Random(53)
    fired = 0
    checked = 0

    for _ in range(40):
        for inst in exchange_instances(rng):
            work = cap_thresholds(inst)
            ann = AnnotatedInstance(work, compute_core(work))
            while True:
                res = shrink_core_step(ann, work.k + 1)
                if not isinstance(res, RemoveVertices):
                    break
                after = ann.shrink_core(res.vertices)
                if res.rule == "core-exchange":
                    fired += 1
                    if checked < 25:  # keep the exhaustive cross-check affordable
                        checked += 1
                        assert annotated_optimum(ann) == annotated_optimum(after)
                ann = after
    assert fired > 0


# ---------------------------------------------------------------------------
# back to the plain problem
# ---------------------------------------------------------------------------

def test_plain_kernel_with_full_core():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = Instance(g, (2, 2, 2), 1)
    ann = AnnotatedInstance(inst, frozenset({0, 1, 2}))
    plain = to_plain_kernel(ann)
    assert plain.n == 5
    a, b = 3, 4
    assert plain.graph.adj[a] == (b,)
    assert plain.thresholds[a] == plain.thresholds[b] == 1


def test_plain_kernel_preserves_optimum():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(0, 8)
        inst = random_instance(rng, n, edge_prob=0.35, t_max=4, k=rng.randint(0, max(1, n)))
        ann = AnnotatedInstance(inst, compute_core(inst))
        plain = to_plain_kernel(ann)
        assert plain.n == n + 2
        plain_opt, plain_witness = naive_max_harmless(plain)
        assert plain_opt == annotated_optimum(ann)
        # the guard vertices never appear in an optimal solution
        assert not plain_witness & {n, n + 1} or plain_opt == 0


def test_plain_kernel_guards_block_everything_outside_core():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(1, 8)
        inst = random_instance(rng, n, edge_prob=0.35, t_max=4, k=1)
        core = compute_core(inst)
        plain = to_plain_kernel(AnnotatedInstance(inst, core))
        opt, witness = brute_force_max(plain)
        assert witness <= core


# ---------------------------------------------------------------------------
# golden reports
# ---------------------------------------------------------------------------

# Recorded from the non-incremental kernelizer (closure and waterlily rebuilt
# for every target): degree-3 graphs and grids at n <= 24 with thresholds
# 10% 1 / 45% 2 / 45% 3, plus a threshold-2 star where the exchange rule
# fires, each at k = opt and opt+1 (opt by brute_force_max).
GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "kernelize_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["name"])
def test_kernelize_report_matches_golden(case):
    ann, report = kernelize(doc_to_instance(case["instance"]))
    result = {
        "report": report.to_doc(),
        "decision": kernel_decision(ann, report),
        "kernel": instance_to_doc(ann.instance, roles={"core": sorted(ann.core)}),
    }
    assert dumps(result) == dumps(case["result"])


def test_star_forest_exchange_follows_the_profile_class_tie():
    # two 5-leaf stars whose leaves tie for the largest (r+d)-profile class:
    # the class of the smaller first member, leaf 1, goes first.  Recorded
    # before the three largest-class picks became one function.
    edges = [(0, i) for i in range(1, 6)] + [(6, i) for i in range(7, 12)]
    inst = Instance(Graph.from_edges(12, edges), (3, 4, 4, 2, 3, 2, 3, 3, 4, 3, 2, 4), 3)
    ann, report = kernelize(inst)
    assert report.to_doc() == {
        "p": 4,
        "initial": {"graph": 12, "core": 12},
        "final": {"graph": 12, "core": 10},
        "outcome": "kernel",
        "certificate": None,
        "rule_counts": {"core-exchange": 2},
        "steps": [
            {"rule": "core-exchange", "vertex": 1, "graph": 12, "core": 11},
            {"rule": "core-exchange", "vertex": 7, "graph": 12, "core": 10},
        ],
    }
    assert sorted(ann.core) == [0, 2, 3, 4, 5, 6, 8, 9, 10, 11]


def test_halving_targets_share_one_waterlily_prefix(monkeypatch):
    # two core states on the golden threshold-2 star: the prefix is computed
    # once per state, not once per halving target
    module = importlib.import_module("harmlesskit.kernelize")
    counts = {"greedy_dominating": 0, "build_waterlily": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(sparsity, "greedy_dominating")
    counted(module, "build_waterlily")
    sparsity._lily_prefix.cache_clear()  # another test may have left an equal graph
    case = next(c for c in GOLDEN["cases"] if c["name"] == "star7-tail-k2")
    kernelize(doc_to_instance(case["instance"]))
    assert counts == {"greedy_dominating": 2, "build_waterlily": 5}


# ---------------------------------------------------------------------------
# the core-degree guard in front of the waterlily exchange
# ---------------------------------------------------------------------------

GUARD_REASON = "no vertex has more than p core neighbours"


def guard_instances(rng):
    """Star forests (hubs on a path) and a hub on a sparse random graph, with a
    small explicit p and once more with the default p = k+1; then a degree-3
    graph with thresholds 10% 1 / 45% 2 / 45% 3 and the default p."""
    edges, hubs, n = [], [], 0
    for _ in range(rng.randint(1, 4)):
        hubs.append(n)
        leaves = rng.randint(3, 9)
        edges += [(n, n + i) for i in range(1, leaves + 1)]
        n += leaves + 1
    edges += list(zip(hubs, hubs[1:]))
    p = rng.randint(2, 4)
    thresholds = tuple(rng.randint(2, p) for _ in range(n))
    inst = Instance(Graph.from_edges(n, edges), thresholds, rng.randint(1, n // 2 + 1))
    yield inst, p
    yield inst, None

    n = rng.randint(8, 30)
    edges = {(u, v) for u in range(1, n) for v in range(u + 1, n) if rng.random() < 2 / n}
    edges |= {(0, v) for v in range(1, n) if rng.random() < 0.6}
    p = rng.randint(2, 4)
    thresholds = tuple(rng.randint(1, p) for _ in range(n))
    yield Instance(Graph.from_edges(n, sorted(edges)), thresholds, rng.randint(1, n // 2 + 1)), p

    n = rng.randint(10, 60)
    thresholds = tuple(rng.choices((1, 2, 3), (10, 45, 45))[0] for _ in range(n))
    yield Instance(bounded_degree_graph(rng, n, 3), thresholds, rng.randint(1, n // 2)), None


def test_core_degree_guard_matches_unguarded_reference():
    # every core state a kernelize run passes through: the guarded and the
    # unguarded core rules agree on the outcome's class and on its vertices
    rng = random.Random(67)
    exchanges = skips = other_stops = 0
    for _ in range(60):
        for inst, p in guard_instances(rng):
            if p is None:
                inst, p = cap_thresholds(inst), inst.k + 1
            ann = AnnotatedInstance(inst, compute_core(inst))
            while True:
                got = shrink_core_step(ann, p)
                want = reference_core_reduction(ann, p)
                assert type(got) is type(want)
                if isinstance(got, Stuck):
                    if got.reason == GUARD_REASON:
                        skips += 1
                    else:
                        other_stops += 1
                    break
                assert got == want
                if isinstance(got, YesCertificate):
                    break
                exchanges += got.rule == "core-exchange"
                ann = ann.shrink_core(got.vertices)
    assert exchanges >= 80 and skips >= 80 and other_stops >= 50


def test_core_degree_guard_skips_the_waterlily_on_degree_3(monkeypatch):
    # a kernel-hard-shaped instance: degree 3, n = 150, thresholds 10/45/45 %
    # and k one above the greedy scattered set, so no early YES; p = k+1 is
    # far above every core degree, so no waterlily prefix is built
    module = importlib.import_module("harmlesskit.kernelize")
    counts = {"greedy_dominating": 0, "build_waterlily": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    rng = random.Random(71)
    n = 150
    thresholds = [1] * 15 + [2] * 68 + [3] * 67
    rng.shuffle(thresholds)
    g = bounded_degree_graph(rng, n, 3)
    probe = Instance(g, tuple(thresholds), 0)
    k = len(sparsity._greedy_scattered(g, compute_core(probe), 1)) + 1
    inst = Instance(g, tuple(thresholds), k)

    counted(sparsity, "greedy_dominating")
    counted(module, "build_waterlily")
    _, report = kernelize(inst)
    assert counts == {"greedy_dominating": 0, "build_waterlily": 0}

    monkeypatch.setattr(module, "_core_reduction", reference_core_reduction)
    _, reference = kernelize(inst)
    assert counts["greedy_dominating"] > 0  # the reference did build the prefix
    assert report.to_doc() == reference.to_doc()


def test_core_degree_guard_assumes_lily_depth_1():
    module = importlib.import_module("harmlesskit.kernelize")
    assert module.LILY_DEPTH == 1, (
        "the core-degree guard in _core_reduction (Stuck: 'no vertex has more than "
        "p core neighbours') is proved only for LILY_DEPTH = 1; re-prove or remove it"
    )
