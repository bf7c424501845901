import random
import time

import pytest

import grouplines.graphs as graphs_mod
import grouplines.linegraph as linegraph_mod
from grouplines.graphs import (
    SimpleGraph,
    canonical_key,
    check_induced_embedding,
    graph_from_key,
    is_connected,
)
from grouplines.linegraph import (
    CLAW,
    ForbiddenSet,
    _claw_at,
    _grown_levels,
    _is_line_graph,
    derive_forbidden_set,
    is_line_graph_by_beineke,
    is_line_graph_by_roots,
    line_graph,
)

import oracles
from certificates import edge_map_certifies
from oracles import (
    _has_krausz_cover,
    complete_graph,
    enumerate_connected_graphs,
    enumerate_graphs,
    find_induced,
    is_isomorphic,
    make_named,
    path_graph,
    star_graph,
)

# ---------------------------------------------------------------------------
# line-graph construction


def test_line_graph_of_path():
    assert is_isomorphic(line_graph(make_named("P4")), make_named("P3"))


def test_line_graph_of_claw_is_triangle():
    assert is_isomorphic(line_graph(make_named("K1,3")), make_named("K3"))


def test_line_graph_of_cycle_is_cycle():
    assert is_isomorphic(line_graph(make_named("C4")), make_named("C4"))


def test_line_graph_of_edgeless_graph_is_empty():
    assert line_graph(SimpleGraph(3, (0, 0, 0))).n == 0


# ---------------------------------------------------------------------------
# root search


def test_triangle_has_a_root():
    verdict = is_line_graph_by_roots(make_named("K3"))
    assert verdict.is_line_graph
    key = canonical_key(verdict.root)
    assert key in {canonical_key(make_named("K3")), canonical_key(make_named("K1,3"))}
    assert edge_map_certifies(make_named("K3"), verdict)


def test_claw_is_not_a_line_graph():
    assert not is_line_graph_by_roots(make_named("K1,3")).is_line_graph


def test_single_vertex_has_a_single_edge_root():
    verdict = is_line_graph_by_roots(make_named("K1"))
    assert verdict.is_line_graph
    assert verdict.root.edges() == ((0, 1),)


def test_disconnected_inputs_are_decided_componentwise():
    g = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3)])  # P4 + K1
    verdict = is_line_graph_by_roots(g)
    assert verdict.is_line_graph
    assert edge_map_certifies(g, verdict)
    bad = SimpleGraph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7)])
    assert not is_line_graph_by_roots(bad).is_line_graph  # P4 + claw


def test_root_search_builds_only_the_certified_root(monkeypatch):
    # The search runs on the input's own masks: a positive verdict builds one
    # graph, the root it returns, and a negative verdict builds none.
    # K3 + P3 + K1 and K3 + claw
    good = SimpleGraph.from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
    bad = SimpleGraph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (3, 6)])
    built = []
    init = SimpleGraph.__init__

    def counting(self, n, adj):
        built.append(self)
        init(self, n, adj)

    monkeypatch.setattr(SimpleGraph, "__init__", counting)
    verdict = is_line_graph_by_roots(good)
    assert verdict.is_line_graph and len(built) == 1 and built[0] is verdict.root
    built.clear()
    assert not is_line_graph_by_roots(bad).is_line_graph
    assert built == []


def test_complete_graphs_are_line_graphs_of_stars():
    for n in range(1, 7):
        verdict = is_line_graph_by_roots(complete_graph(n))
        assert verdict.is_line_graph
        assert edge_map_certifies(complete_graph(n), verdict)


def test_root_evidence_on_random_line_graphs():
    rng = random.Random(3)
    pool = [
        h
        for n in range(2, 7)
        for h in enumerate_connected_graphs(n)
        if 1 <= h.edge_count() <= 12
    ]
    for h in rng.sample(pool, 25):
        g = line_graph(h)
        verdict = is_line_graph_by_roots(g)
        assert verdict.is_line_graph
        assert edge_map_certifies(g, verdict)
        assert is_isomorphic(line_graph(verdict.root), g)


def test_large_component_roots_via_assignment_search():
    rook = line_graph(
        SimpleGraph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    )
    verdict = is_line_graph_by_roots(rook)
    assert verdict.is_line_graph
    assert edge_map_certifies(rook, verdict)
    assert not is_line_graph_by_roots(star_graph(8)).is_line_graph


@pytest.mark.parametrize(
    "g",
    # The long path is deeper than the interpreter's recursion limit.
    [line_graph(complete_graph(20)), path_graph(1200)],
    ids=["L(K20)", "P1200"],
)
def test_large_line_graphs_get_a_certified_root_quickly(g):
    start = time.monotonic()
    verdict = is_line_graph_by_roots(g)
    assert time.monotonic() - start < 2.0
    assert verdict.is_line_graph
    assert edge_map_certifies(g, verdict)


def _cocktail_party(pairs):
    """K(2 x pairs): every vertex is adjacent to all but itself and its twin."""
    n = 2 * pairs
    return SimpleGraph(n, tuple(((1 << n) - 1) ^ (3 << (v & ~1)) for v in range(n)))


@pytest.mark.parametrize(
    "g",
    [
        _cocktail_party(50),  # 100 vertices
        SimpleGraph.from_edges(
            40, [e for e in complete_graph(40).edges() if e != (0, 1)]
        ),
    ],
    ids=["cocktail-party-100", "K40-minus-an-edge"],
)
def test_large_non_line_graphs_are_rejected_quickly(g):
    start = time.monotonic()
    verdict = is_line_graph_by_roots(g)
    assert time.monotonic() - start < 2.0
    assert not verdict.is_line_graph


def test_root_search_agrees_with_the_scan_on_perturbed_line_graphs():
    rng = random.Random(11)
    f = derive_forbidden_set()
    verdicts = []
    for _ in range(200):
        k = rng.randint(13, 40)  # edges of the root, vertices of its line graph
        nv = rng.randint(6, k + 1)
        while nv * (nv - 1) // 2 < k:
            nv += 1
        pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
        g = line_graph(SimpleGraph.from_edges(nv, rng.sample(pairs, k)))
        g = g.relabeled(rng.sample(range(k), k))
        adj = list(g.adj)
        for _ in range(rng.randint(0, 2)):
            u, v = rng.sample(range(k), 2)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        g = SimpleGraph(k, tuple(adj))
        verdict = is_line_graph_by_roots(g)
        assert verdict.is_line_graph == is_line_graph_by_beineke(g, f).is_line_graph
        if verdict.is_line_graph:
            assert edge_map_certifies(g, verdict)
        verdicts.append(verdict.is_line_graph)
    assert 20 < sum(verdicts) < 180


# ---------------------------------------------------------------------------
# the forbidden set


def test_forbidden_set_has_nine_connected_patterns():
    f = derive_forbidden_set()
    assert len(f.patterns) == 9
    assert f.ids == tuple(f"Gamma{i}" for i in range(1, 10))
    assert all(is_connected(p) for p in f.patterns)
    keys = {canonical_key(p) for p in f.patterns}
    assert len(keys) == 9


def test_claw_is_the_first_pattern():
    f = derive_forbidden_set()
    assert is_isomorphic(f.patterns[0], make_named("K1,3"))


def test_pattern_sizes_are_between_four_and_six():
    for p in derive_forbidden_set().patterns:
        assert 4 <= p.n <= 6


def test_patterns_fail_the_root_search():
    for p in derive_forbidden_set().patterns:
        assert not is_line_graph_by_roots(p).is_line_graph


def test_patterns_are_minimal():
    for p in derive_forbidden_set().patterns:
        for v in range(p.n):
            rest = p.induced([u for u in range(p.n) if u != v])
            assert is_line_graph_by_roots(rest).is_line_graph


def test_exhaustive_oracle_agrees_with_the_root_search():
    checked = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            by_roots = is_line_graph_by_roots(g).is_line_graph
            assert _has_krausz_cover(g.adj) == by_roots
            checked += 1
    assert checked == 208


def test_krausz_cover_matches_the_definition():
    # A connected line graph on k vertices is the line graph of a connected
    # root with k edges, which has at most k + 1 vertices.
    line_keys = {
        canonical_key(line_graph(h))
        for n in range(2, 8)
        for h in enumerate_connected_graphs(n)
        if h.edge_count() <= 6
    }
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            assert _has_krausz_cover(g.adj) == (canonical_key(g) in line_keys)


def test_krausz_cover_counts_connected_line_graphs():
    # OEIS A022562: connected line graphs on n vertices.
    counts = [
        sum(_has_krausz_cover(g.adj) for g in enumerate_connected_graphs(n))
        for n in range(1, 8)
    ]
    assert counts == [1, 1, 2, 5, 12, 30, 79]


def _minimal_non_line_graphs_by_scan():
    """Test oracle: scan every connected class on 1..6 vertices and keep the
    non-line graphs whose one-vertex deletions are all line graphs, in
    (vertex count, canonical key) order with the claw first."""
    minimal = []
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            if _has_krausz_cover(g.adj):
                continue
            if all(
                _has_krausz_cover(g.induced([u for u in range(g.n) if u != v]).adj)
                for v in range(g.n)
            ):
                minimal.append(g)
    claw = canonical_key(make_named("K1,3"))
    return sorted(minimal, key=lambda g: canonical_key(g) != claw)


def test_derivation_matches_the_exhaustive_scan():
    patterns = derive_forbidden_set().patterns
    assert list(patterns) == _minimal_non_line_graphs_by_scan()


def test_grown_levels_are_the_connected_line_graphs():
    levels = list(_grown_levels(6))
    lines = [keys for keys, _ in levels]
    assert [len(keys) for keys in lines] == [1, 1, 2, 5, 12, 0]
    for n, keys in enumerate(lines[:5], start=1):
        expected = [
            canonical_key(g)
            for g in enumerate_connected_graphs(n)
            if _has_krausz_cover(g.adj)
        ]
        assert list(keys) == expected
    assert [len(minimal) for _, minimal in levels] == [0, 0, 0, 1, 2, 6]


def test_cold_derivation_canonicalises_only_what_it_needs():
    # Clear every cache the derivation leans on, as in acceptance criterion 1.
    graphs_mod.canonical_key.cache_clear()
    oracles._class_keys.cache_clear()
    linegraph_mod.derive_forbidden_set.cache_clear()
    derive_forbidden_set()
    assert graphs_mod.canonical_key.cache_info().misses <= 103


def test_cold_derivation_runs_the_line_graph_test_only_on_claw_free_extensions(
    monkeypatch,
):
    # Testing every extension, claw or not, takes 975 line-graph tests.
    real = linegraph_mod._is_line_graph
    calls = []

    def counted(adj):
        calls.append(1)
        return real(adj)

    monkeypatch.setattr(linegraph_mod, "_is_line_graph", counted)
    linegraph_mod.derive_forbidden_set.cache_clear()
    derive_forbidden_set()
    assert len(calls) <= 600


def test_line_graph_test_matches_krausz_on_small_graphs_and_their_deletions():
    # The derivation tests extensions and their one-vertex deletions, the
    # latter as a zeroed vertex; Krausz's test builds no root graph.
    graphs = deletions = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert _is_line_graph(g.adj) == _has_krausz_cover(g.adj), g
            graphs += 1
            for v in range(n):
                adj = [0 if u == v else m & ~(1 << v) for u, m in enumerate(g.adj)]
                assert _is_line_graph(adj) == _has_krausz_cover(adj), (g, v)
                deletions += 1
    assert (graphs, deletions) == (208, 1167)


def test_claw_at_the_new_vertex_matches_the_claw_search():
    # Each base is a line graph, so claw-free: any claw in an extension
    # runs through the new vertex.
    levels = [keys for keys, _ in _grown_levels(6)]
    checked = 0
    for n in (4, 5):
        for key in levels[n - 1]:
            base = graph_from_key(key).adj
            for mask in range(1, 1 << n):
                adj = [m | 1 << n if mask >> v & 1 else m for v, m in enumerate(base)]
                g = SimpleGraph(n + 1, (*adj, mask))
                assert _claw_at(g.adj, n) == (find_induced(g, CLAW) is not None), (key, mask)
                checked += 1
    assert checked == 5 * 15 + 12 * 31


def test_forbidden_set_validates_its_shape():
    f = derive_forbidden_set()
    with pytest.raises(ValueError):
        ForbiddenSet(f.patterns[:8])
    with pytest.raises(ValueError):
        ForbiddenSet(f.patterns[:8] + (f.patterns[0],))


# ---------------------------------------------------------------------------
# forbidden-pattern recognizer


def test_four_cycle_is_a_line_graph():
    assert is_line_graph_by_beineke(make_named("C4"), derive_forbidden_set()).is_line_graph


def test_claw_witness_is_reported_and_valid():
    f = derive_forbidden_set()
    verdict = is_line_graph_by_beineke(make_named("K1,3"), f)
    assert not verdict.is_line_graph
    assert verdict.pattern_id == "Gamma1"
    assert check_induced_embedding(make_named("K1,3"), f.patterns[0], verdict.embedding)


def test_recognizers_agree_on_small_graphs():
    f = derive_forbidden_set()
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert (
                is_line_graph_by_roots(g).is_line_graph
                == is_line_graph_by_beineke(g, f).is_line_graph
            )


def test_declared_line_graphs_are_claw_free():
    f = derive_forbidden_set()
    claw = f.patterns[0]
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            if is_line_graph_by_beineke(g, f).is_line_graph:
                assert find_induced(g, claw) is None


def test_claw_embeds_in_the_gamma_of_z12():
    from grouplines.groups import make_cyclic
    from grouplines.lattice import build_gamma

    lg = build_gamma(make_cyclic(12))
    claw = derive_forbidden_set().patterns[0]
    found = find_induced(lg.graph, claw)
    assert found is not None
    assert check_induced_embedding(lg.graph, claw, found)


def test_klein_gamma_witness_is_centered_at_the_trivial_subgroup():
    from grouplines.groups import direct_product, make_cyclic
    from grouplines.lattice import build_gamma

    f = derive_forbidden_set()
    claw = f.patterns[0]
    center_vertex = max(range(claw.n), key=claw.degree)
    lg = build_gamma(direct_product(make_cyclic(2), make_cyclic(2)))
    verdict = is_line_graph_by_beineke(lg.graph, f)
    assert not verdict.is_line_graph
    assert verdict.pattern_id == "Gamma1"
    assert lg.labels[verdict.embedding[center_vertex]].order == 1
