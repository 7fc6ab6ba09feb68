"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is exact; corpus sizes follow the stated minimums.
"""

import random
from collections import Counter

from harmlesskit import (
    brute_force_max,
    build_reduction,
    compute_core,
    construct_clique_solution,
    is_2_spider_forest,
    is_harmless,
    kernelize,
    to_plain_kernel,
    vc_solve,
)
from harmlesskit.generators import (
    bounded_degree_graph,
    grid_graph,
    random_bounded_instance,
    random_harmless_set,
    random_instance,
)
from harmlesskit.sparsity import LilyFailure, build_waterlily

from cases import apex_reduction_corpus, covered_reduction_corpus, reduction_corpus
from oracles import check_waterlily, milp_max_harmless, naive_is_harmless


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def kernel_then_decide(instance) -> bool:
    ann, rep = kernelize(instance)
    if rep.outcome == "yes":
        return True
    return brute_force_max(ann.instance, candidates=ann.core)[0] >= ann.instance.k


def test_criterion_1_kernel_equivalence():
    rng = random.Random(101)
    instances = 0
    checks = 0
    plain_checks = 0
    while instances < 1000:
        n = rng.randint(1, 10)
        inst = random_instance(rng, n, edge_prob=rng.uniform(0.05, 0.6), t_max=n)
        instances += 1
        for k in range(0, n + 1):
            with_k = inst.with_k(k)
            want = brute_force_max(with_k)[0] >= k
            assert kernel_then_decide(with_k) == want
            checks += 1
        # the plain (unannotated) kernel must decide identically as well
        if instances % 50 == 0:
            k = rng.randint(0, n)
            with_k = inst.with_k(k)
            ann, rep = kernelize(with_k)
            if rep.outcome != "yes":
                plain = to_plain_kernel(ann)
                want = brute_force_max(with_k)[0] >= k
                assert (brute_force_max(plain)[0] >= k) == want
                plain_checks += 1
    report(
        1,
        "kernel equivalence",
        True,
        f"{instances} instances, {checks} (instance, k) decisions, "
        f"{plain_checks} plain-kernel decisions",
    )


def test_criterion_2_vc_solver_correctness():
    rng = random.Random(202)
    cases = 0
    while cases < 500:
        n = rng.randint(1, 14)
        inst = random_instance(rng, n, edge_prob=rng.uniform(0.05, 0.5), t_max=n)
        b, _ = brute_force_max(inst)
        v, witness = vc_solve(inst)
        assert v == b, f"vc {v} != oracle {b} on {inst}"
        assert is_harmless(inst, witness)
        assert len(witness) == v
        cases += 1
    report(2, "vc-solver correctness", True, f"{cases} instances, optima equal, witnesses verified")


def reduction_corpora():
    """The exhaustive k=2 and sampled k=3 corpus, then sparse inputs with an
    edge in every colour pair (k=3 n=3, k=4 n=2)."""
    return reduction_corpus() + covered_reduction_corpus()


def test_criterion_3_reduction_completeness():
    cliques_checked = 0
    cases = 0
    for mcc in reduction_corpora():
        out = build_reduction(mcc)
        cases += 1
        for clique in mcc.cliques():
            sol = construct_clique_solution(out, clique)
            assert len(sol) == out.target
            assert is_harmless(out.instance, sol)
            cliques_checked += 1
    report(
        3,
        "reduction completeness",
        True,
        f"{cases} instances, {cliques_checked} cliques realised at exactly the target size",
    )


def test_criterion_4_reduction_soundness():
    # cap 40 is the brute-force cap of the benchmark's verify-reduction calls;
    # an H with more selectable vertices is counted as skipped, never as checked
    outcomes = Counter()  # (k, n, "degenerate" | "yes" | "no") per checked instance
    totals = Counter()  # the same outcomes over all shapes
    skipped = 0
    for mcc in reduction_corpora():
        out = build_reduction(mcc)
        if len(out.selectable_vertices()) > 40:
            skipped += 1
            continue
        optimum, witness = brute_force_max(out.instance, cap=40)
        has_clique = bool(mcc.cliques())
        assert (optimum >= out.target) == has_clique
        assert not witness & out.forbidden_vertices()
        outcome = "degenerate" if out.degenerate else "yes" if has_clique else "no"
        outcomes[mcc.k, mcc.n, outcome] += 1
        totals[outcome] += 1
    checked = sum(totals.values())
    # the degenerate NO-instance holds no gadget, so only a non-degenerate
    # NO-instance can catch gadgets that reach the target without a clique
    assert checked >= 200
    assert outcomes[3, 3, "no"] >= 10 and outcomes[4, 2, "no"] >= 10
    report(
        4,
        "reduction soundness",
        True,
        f"{checked} instances cross-checked against the oracle: "
        f"{totals['degenerate']} degenerate, {totals['yes']} YES, {totals['no']} NO "
        f"({outcomes[3, 3, 'no']} NO at k=3 n=3, {outcomes[4, 2, 'no']} at k=4 n=2); "
        f"{skipped} above the brute cap",
    )


def test_criterion_4_reduction_soundness_where_the_apex_matters():
    # every pair of these inputs can light two test gadgets and reach the
    # target without a clique unless the apex stops it; H has 150-370
    # vertices and 70-190 selectable ones, beyond brute force, so the MILP
    # oracle decides
    max_harmless = milp_max_harmless()
    outcomes = Counter()  # (k, "yes" | "no") per instance
    for mcc in apex_reduction_corpus():
        out = build_reduction(mcc)
        assert not out.degenerate
        g = out.instance.graph
        optimum = max_harmless(g.n, list(g.edges()), out.instance.thresholds)
        has_clique = bool(mcc.cliques())
        assert (optimum >= out.target) == has_clique
        outcomes[mcc.k, "yes" if has_clique else "no"] += 1
    assert outcomes[4, "no"] >= 1 and outcomes[5, "no"] >= 1
    assert outcomes[4, "yes"] + outcomes[5, "yes"] >= 1
    report(
        4,
        "reduction soundness where the apex matters",
        True,
        f"MILP oracle, n=3: {outcomes[4, 'yes']} YES and {outcomes[4, 'no']} NO at k=4, "
        f"{outcomes[5, 'yes']} YES and {outcomes[5, 'no']} NO at k=5",
    )


def test_criterion_5_modulator_identity():
    from math import comb

    checked = 0
    degenerate = 0
    for mcc in reduction_corpora():
        out = build_reduction(mcc)
        if out.degenerate:
            degenerate += 1  # canonical NO-instance carries no gadgets
            continue
        mod = frozenset(out.modulator)
        assert len(mod) == 5 * comb(mcc.k, 2) + 1
        rest, _ = out.instance.graph.induced(set(range(out.instance.n)) - mod)
        assert is_2_spider_forest(rest)
        checked += 1
    report(
        5,
        "modulator identity",
        True,
        f"{checked} instances: |modulator| = 5*C(k,2)+1 and the remainder is a 2-spider forest "
        f"({degenerate} degenerate NO-instances excluded)",
    )


def test_criterion_6_waterlily_integrity():
    rng = random.Random(606)
    graphs = []
    for _ in range(60):
        graphs.append(bounded_degree_graph(rng, rng.randint(16, 60), 3))
    for _ in range(40):
        graphs.append(grid_graph(rng.randint(3, 8), rng.randint(3, 8)))
    successes = 0
    attempts = 0
    for g in graphs:
        for _ in range(3):
            # waterlilies need query sets much larger than the target
            size = rng.randint(max(4, g.n // 2), g.n)
            A = frozenset(rng.sample(range(g.n), size))
            r = rng.choice((1, 2))
            d = rng.randint(1, r)
            attempts += 1
            lily = build_waterlily(g, A, r, d, rng.randint(1, 3))
            if isinstance(lily, LilyFailure):
                continue
            problems = check_waterlily(g, lily, A)
            assert problems == [], f"false waterlily: {problems}"
            successes += 1
    assert successes >= 50
    report(
        6,
        "waterlily integrity",
        True,
        f"{len(graphs)} graphs, {attempts} attempts, "
        f"{successes} constructions re-verified independently, zero false",
    )


def test_criterion_7_hereditarity_and_core():
    rng = random.Random(707)
    triples = 0
    while triples < 10_000:
        n = rng.randint(1, 10)
        inst = random_instance(rng, n, edge_prob=rng.uniform(0.1, 0.5), t_max=4)
        S = random_harmless_set(rng, inst)
        assert naive_is_harmless(inst, S)  # independent confirmation
        sub = frozenset(v for v in S if rng.random() < 0.6)
        assert is_harmless(inst, sub)
        assert S <= compute_core(inst)
        triples += 1
    report(7, "hereditarity and core", True, f"{triples} (instance, S, S') triples")


def test_criterion_8_kernel_sparsity_trend():
    outcomes = []
    for seed in (0, 1, 2):
        for k in (4, 8):
            sizes = []
            for n in (200, 400, 800):
                inst = random_bounded_instance(
                    random.Random(seed * 1000 + n), n, max_degree=3, p=3, k=k
                )
                ann, rep = kernelize(inst, p=3)
                sizes.append(ann.graph.n)
            low, high = min(sizes), max(sizes)
            assert high <= 2 * low or (low == 0 and high == 0), (
                f"kernel sizes {sizes} vary more than a factor 2 (seed={seed}, k={k})"
            )
            outcomes.append((k, sizes))
    report(
        8,
        "kernel sparsity trend",
        True,
        f"sizes per (k, n in 200/400/800): {outcomes}",
    )
