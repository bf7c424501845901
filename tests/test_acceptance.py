"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the plain test result encodes the same pass/fail.
"""

import random
import time

import pytest

import grouplines.graphs as graphs_mod
import grouplines.linegraph as linegraph_mod
from grouplines.catalog import build_catalog
from grouplines.cli import main
from grouplines.graphs import canonical_key, connected_components, is_connected
from grouplines.groups import _validate_table, factorize, make_cyclic
from grouplines.lattice import build_gamma, divisor_hasse
from grouplines.linegraph import (
    derive_forbidden_set,
    is_line_graph_by_beineke,
    is_line_graph_by_roots,
    line_graph,
)
from grouplines.verify import (
    check_completeness_claim,
    predict,
    verify_case_theorems,
    verify_main_theorem,
)

import oracles
from certificates import edge_map_certifies
from oracles import (
    enumerate_connected_graphs,
    enumerate_graphs,
    find_induced,
    gamma_stats,
    is_isomorphic,
    make_named,
    path_graph,
)


@pytest.fixture(scope="module")
def catalog60():
    return build_catalog(60)


@pytest.fixture(scope="module")
def forbidden():
    return derive_forbidden_set()


def test_criterion_1_forbidden_set_derivation():
    # cold run: clear every cache the derivation leans on
    graphs_mod.canonical_key.cache_clear()
    oracles._class_keys.cache_clear()
    linegraph_mod.derive_forbidden_set.cache_clear()

    start = time.monotonic()
    f = derive_forbidden_set()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"derivation took {elapsed:.1f}s"

    assert len(f.patterns) == 9
    keys = {canonical_key(p) for p in f.patterns}
    assert len(keys) == 9
    assert all(is_connected(p) for p in f.patterns)
    assert canonical_key(make_named("K1,3")) in keys
    assert is_isomorphic(f.patterns[0], make_named("K1,3"))
    for p in f.patterns:
        assert not is_line_graph_by_roots(p).is_line_graph
        for v in range(p.n):
            rest = p.induced([u for u in range(p.n) if u != v])
            assert is_line_graph_by_roots(rest).is_line_graph
    print(
        f"\nACCEPTANCE PASS criterion 1: nine minimal forbidden patterns derived"
        f" in {elapsed:.1f}s (claw first)"
    )


def test_criterion_2_recognizer_cross_agreement(forbidden):
    disagreements = 0
    checked = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            checked += 1
            by_roots = is_line_graph_by_roots(g).is_line_graph
            by_beineke = is_line_graph_by_beineke(g, forbidden).is_line_graph
            if by_roots != by_beineke:
                disagreements += 1
    assert checked == 208
    assert disagreements == 0

    line_graph_checks = 0
    for n in range(2, 8):
        for h in enumerate_connected_graphs(n):
            if h.edge_count() == 0:
                continue
            g = line_graph(h)
            assert is_line_graph_by_beineke(g, forbidden).is_line_graph, h
            verdict = is_line_graph_by_roots(g)
            assert verdict.is_line_graph and edge_map_certifies(g, verdict), h
            line_graph_checks += 1
    assert line_graph_checks == 995
    print(
        f"\nACCEPTANCE PASS criterion 2: recognizers agree on 208 classes and"
        f" {line_graph_checks} line graphs of connected roots on <= 7 vertices"
    )


def test_criterion_3_main_theorem_verification(catalog60, capsys):
    report = verify_main_theorem(catalog60)
    assert report.passed, [r for r in report.rows if r.predicted != r.actual]
    assert len(report.rows) == len(catalog60)
    assert sum(1 for r in report.rows if r.order <= 15) == 28

    exit_code = main(["verify", "--max-order", "15"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "THEOREM HOLDS over 28 groups" in out
    with capsys.disabled():
        print(
            f"\nACCEPTANCE PASS criterion 3: predicted == actual for all"
            f" {len(report.rows)} catalog groups; verify exits 0"
        )


def test_criterion_4_case_theorem_witnesses(catalog60):
    report = verify_case_theorems(catalog60)
    assert report.passed, [c for c in report.checks if not c.ok]
    negatives = 0
    for c in report.checks:
        if c.expect_line_graph:
            continue
        negatives += 1
        assert c.center_order is not None and c.leaf_orders is not None
        if c.case == "three-primes":
            assert c.center_order == 1
            assert len(set(c.leaf_orders)) == 3
            assert all(len(factorize(o)) == 1 for o in c.leaf_orders)
        elif c.case == "noncyclic-abelian":
            assert c.center_order == 1
            assert len(set(c.leaf_orders)) == 1
            t = c.leaf_orders[0]
            assert factorize(t) == ((t, 1),)
        elif c.case == "nonabelian-pq":
            assert c.center_order == 1
            assert len(set(c.leaf_orders)) == 1
            p = c.leaf_orders[0]
            assert factorize(p) == ((p, 1),)
    assert negatives > 0
    print(
        f"\nACCEPTANCE PASS criterion 4: {negatives} negative cases carry"
        f" machine-verified claw witnesses with the prescribed subgroup orders"
    )


def test_criterion_5_divisor_lattice_oracle():
    for n in range(1, 61):
        gamma = build_gamma(make_cyclic(n)).graph
        assert is_isomorphic(gamma, divisor_hasse(n)), n
    print(
        "\nACCEPTANCE PASS criterion 5: gamma(Z_n) matches the divisor lattice"
        " for all n <= 60"
    )


def test_criterion_6_completeness_claim(catalog60):
    report = check_completeness_claim(catalog60)
    assert report.passed, [r for r in report.rows if not r.ok]
    complete_orders = {r.order for r in report.rows if r.complete}
    assert all(o == 1 or factorize(o) == ((o, 1),) for o in complete_orders)
    print(
        f"\nACCEPTANCE PASS criterion 6: completeness holds over"
        f" {len(report.rows)} groups (trivial and prime orders only)"
    )


def test_criterion_7_structural_spot_checks():
    prime_powers = [
        (p, k)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
        for k in range(1, 7)
        if p**k <= 64
    ]
    for p, k in prime_powers:
        gamma = build_gamma(make_cyclic(p**k)).graph
        assert is_isomorphic(gamma, path_graph(k + 1)), (p, k)
    for pq in (6, 10, 14, 15, 21, 33, 35):
        gamma = build_gamma(make_cyclic(pq)).graph
        assert is_isomorphic(gamma, make_named("C4")), pq
    print(
        f"\nACCEPTANCE PASS criterion 7: gamma(Z_p^k) is a path for"
        f" {len(prime_powers)} prime powers <= 64; gamma(Z_pq) is C4"
    )


def test_criterion_8_property_suite(catalog60, forbidden):
    rng = random.Random(60)
    claw = forbidden.patterns[0]

    for record in catalog60:
        group = record.group
        _validate_table(group.table)

        lg = build_gamma(group)
        sets = [frozenset(lab.members) for lab in lg.labels]
        k = len(sets)
        for i in range(k):
            for j in range(k):
                if i == j or not sets[i] < sets[j]:
                    continue
                between = any(
                    sets[i] < sets[m] < sets[j] for m in range(k) if m not in (i, j)
                )
                adjacent = lg.graph.has_edge(min(i, j), max(i, j))
                assert adjacent != between, (record.source, i, j)
        for u, v in lg.graph.edges():
            assert sets[u] < sets[v] or sets[v] < sets[u], record.source

        trivial = next(i for i, lab in enumerate(lg.labels) if lab.order == 1)
        neighbor_orders = {lg.labels[v].order for v in lg.graph.neighbors(trivial)}
        prime_orders = {
            lab.order
            for lab in lg.labels
            if len(factorize(lab.order)) == 1
            and factorize(lab.order)[0][1] == 1
        }
        assert neighbor_orders == prime_orders, record.source

        assert len(connected_components(lg.graph)) == 1, record.source

        adj = lg.graph.adj
        assert all(adj[u] & adj[v] == 0 for u, v in lg.graph.edges()), record.source

        verdict = is_line_graph_by_beineke(lg.graph, forbidden)
        if verdict.is_line_graph:
            assert find_induced(lg.graph, claw) is None, record.source
            shuffled = lg.graph.relabeled(rng.sample(range(lg.graph.n), lg.graph.n))
            assert find_induced(shuffled, claw) is None, record.source

    complete_expected = {
        r.source for r in catalog60 if r.group.order == 1 or _is_prime(r.group.order)
    }
    complete_actual = {
        r.source
        for r in catalog60
        if gamma_stats(build_gamma(r.group)).is_complete
    }
    assert complete_actual == complete_expected
    print(
        f"\nACCEPTANCE PASS criterion 8: Hasse, prime-cover, claw-freeness and"
        f" table-validation properties hold over {len(catalog60)} groups"
    )


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
