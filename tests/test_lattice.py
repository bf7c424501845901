from pathlib import Path

import pytest

from grouplines.catalog import build_catalog, catalog_specs, load_record, parse_group_spec
from grouplines.graphs import check_induced_embedding
from grouplines.groups import (
    direct_product,
    factorize,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_symmetric,
)
from grouplines.lattice import (
    LabeledGraph,
    VertexLabel,
    build_gamma,
    decide_gamma,
    divisor_hasse,
    to_dot,
    to_edge_list,
)
from grouplines.linegraph import CLAW, derive_forbidden_set, is_line_graph_by_beineke
from grouplines.verify import predict
from oracles import gamma_stats, is_isomorphic, make_named, subgroup_lattice_graph

Z6_EDGE_LIST = """\
vertices 4
v 0 1 {e}
v 1 2 <3> (order 2)
v 2 3 <2> (order 3)
v 3 6 <1> (order 6)
e 0 1
e 0 2
e 1 3
e 2 3
"""


def sample_groups():
    return [
        make_cyclic(1),
        make_cyclic(6),
        make_cyclic(12),
        make_cyclic(30),
        direct_product(make_cyclic(2), make_cyclic(2)),
        direct_product(make_cyclic(3), make_cyclic(3)),
        make_dihedral(4),
        make_dihedral(6),
        make_dicyclic(2),
        make_symmetric(4),
    ]


# ---------------------------------------------------------------------------
# shape of the graph


def test_prime_cyclic_group_gives_an_edge():
    lg = build_gamma(make_cyclic(5))
    assert is_isomorphic(lg.graph, make_named("K2"))


def test_z6_gives_a_four_cycle():
    lg = build_gamma(make_cyclic(6))
    assert is_isomorphic(lg.graph, make_named("C4"))
    assert [lab.order for lab in lg.labels] == [1, 2, 3, 6]
    assert lg.graph.edges() == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_klein_gives_a_claw_centered_at_the_trivial_subgroup():
    lg = build_gamma(direct_product(make_cyclic(2), make_cyclic(2)))
    assert is_isomorphic(lg.graph, make_named("K1,3"))
    center = max(range(4), key=lg.graph.degree)
    assert lg.labels[center].order == 1
    assert lg.labels[center].name == "{e}"


def test_prime_power_cyclic_groups_give_paths():
    lg = build_gamma(make_cyclic(8))
    assert lg.graph.degrees() == (1, 2, 2, 1)
    assert is_isomorphic(lg.graph, make_named("P4"))


# ---------------------------------------------------------------------------
# divisor-lattice oracle


def test_divisor_hasse_of_12():
    g = divisor_hasse(12)
    assert g.n == 6
    assert g.edge_count() == 7


def test_divisor_hasse_of_primes_and_one():
    assert is_isomorphic(divisor_hasse(7), make_named("K2"))
    assert divisor_hasse(1).n == 1
    with pytest.raises(ValueError):
        divisor_hasse(0)


def test_gamma_of_cyclic_groups_matches_divisor_hasse():
    for n in range(1, 31):
        lg = build_gamma(make_cyclic(n))
        assert is_isomorphic(lg.graph, divisor_hasse(n)), n


# ---------------------------------------------------------------------------
# stats


def test_stats_of_z6():
    stats = gamma_stats(build_gamma(make_cyclic(6)))
    assert stats.vertices == 4
    assert stats.edges == 4
    assert stats.degrees == (2, 2, 2, 2)
    assert stats.is_connected
    assert not stats.is_complete


def test_stats_of_trivial_group():
    stats = gamma_stats(build_gamma(make_cyclic(1)))
    assert stats.vertices == 1
    assert stats.is_connected
    assert stats.is_complete


def test_z4_is_not_complete():
    stats = gamma_stats(build_gamma(make_cyclic(4)))
    assert stats.degrees == (1, 2, 1)
    assert not stats.is_complete


# ---------------------------------------------------------------------------
# poset invariants


def covering_holds(group):
    subs = group.cyclic_subgroups()
    sets = [frozenset(s.members) for s in subs]
    lg = build_gamma(group)
    for i in range(len(sets)):
        for j in range(len(sets)):
            if i == j or not sets[i] < sets[j]:
                continue
            between = any(
                sets[i] < sets[m] < sets[j] for m in range(len(sets)) if m not in (i, j)
            )
            lo, hi = min(i, j), max(i, j)
            if lg.graph.has_edge(lo, hi) == between:
                return False
    return True


def covering_pairs_by_scan(group):
    """Brute-force oracle: (i, j) with C_i < C_j and no cyclic subgroup
    strictly between, over all triples of cyclic subgroups."""
    sets = [frozenset(s.members) for s in group.cyclic_subgroups()]
    k = len(sets)
    return {
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if sets[i] < sets[j]
        and not any(sets[i] < mid < sets[j] for m, mid in enumerate(sets) if m not in (i, j))
    }


@pytest.mark.parametrize(
    "spec",
    [
        "Z160",
        "Z4xZ40",
        "D80",
        "Dic40",
        "S5",
        "Z2xZ2xZ2xZ2xZ2xZ2xZ2",
        "A5xZ7",
        "S4xZ5",
        "Dic9xZ5",
        "Z3xZ27",
        "Z2048",
    ],
)
def test_prime_index_edges_match_the_covering_scan_beyond_order_60(spec):
    group = parse_group_spec(spec)
    assert set(build_gamma(group).graph.edges()) == covering_pairs_by_scan(group)


def test_each_cover_is_added_once(monkeypatch):
    # Γ's edges reach SimpleGraph.from_edges as one list per group; a cover
    # found once per generator of the smaller subgroup would repeat in it.
    import grouplines.lattice as lattice_mod

    real = lattice_mod.SimpleGraph
    passed = []

    class Recording:
        @staticmethod
        def from_edges(n, edges):
            passed.append(list(edges))
            return real.from_edges(n, passed[-1])

    monkeypatch.setattr(lattice_mod, "SimpleGraph", Recording)
    for spec in (*catalog_specs(60), "Z2048", "D1024", "Dic512", "A5xZ30", "S4xZ35"):
        graph = build_gamma(parse_group_spec(spec)).graph
        edges = passed.pop()
        assert len(set(edges)) == len(edges) == graph.edge_count(), spec


def test_prime_index_edges_match_the_covering_scan_over_the_catalog():
    for record in build_catalog(60):
        edges = set(build_gamma(record.group).graph.edges())
        assert edges == covering_pairs_by_scan(record.group), record.source


def test_edges_are_exactly_the_covering_pairs():
    for group in sample_groups():
        assert covering_holds(group), group.name


def test_incomparable_subgroups_are_never_adjacent():
    for group in sample_groups():
        lg = build_gamma(group)
        sets = [frozenset(lab.members) for lab in lg.labels]
        for u, v in lg.graph.edges():
            assert sets[u] < sets[v] or sets[v] < sets[u]


def test_trivial_vertex_neighbors_have_prime_order():
    for group in sample_groups():
        lg = build_gamma(group)
        trivial = next(i for i, lab in enumerate(lg.labels) if lab.order == 1)
        neighbor_orders = {lg.labels[v].order for v in lg.graph.neighbors(trivial)}
        prime_orders = {
            lab.order
            for lab in lg.labels
            if lab.order > 1 and all(lab.order % d for d in range(2, lab.order))
        }
        assert neighbor_orders == prime_orders


def test_gamma_is_connected_for_every_sample_group():
    for group in sample_groups():
        assert gamma_stats(build_gamma(group)).is_connected, group.name


def test_gamma_is_the_subgroup_graph_induced_on_the_cyclic_subgroups():
    # L(G) is the abstract's subgroup graph; see `subgroup_lattice_graph`.
    for record in (*build_catalog(60), load_record("A5xZ7"), load_record("S4xZ5")):
        group = record.group
        lattice, members = subgroup_lattice_graph(group)
        orders = [group.element_order(x) for x in range(group.order)]
        cyclic = [i for i, m in enumerate(members) if max(orders[x] for x in m) == len(m)]
        lg = build_gamma(group)
        assert [members[i] for i in cyclic] == [lab.members for lab in lg.labels], record.source
        assert lattice.induced(cyclic) == lg.graph, record.source
        adj = lattice.adj
        assert all(adj[u] & adj[v] == 0 for u, v in lattice.edges()), record.source
        assert (max(lattice.degrees()) <= 2) == predict(group), record.source


def test_gamma_is_graded_by_omega_and_a_tree_exactly_for_eppo_groups():
    # Each edge joins subgroups of prime index, so Ω(|H|) grades Γ.  In an
    # EPPO group (every element of prime-power order) each <x> != 1 covers
    # one subgroup only; a cyclic subgroup of order pq covers two.  Γ is
    # connected, so it is a tree exactly when it has V - 1 edges.
    checked = (Path(__file__).parent / "data" / "check_specs.txt").read_text("utf-8")
    trees = 0
    specs = sorted({*checked.split(), *catalog_specs(60)})
    for spec in specs:
        lg = build_gamma(parse_group_spec(spec))
        orders = [lab.order for lab in lg.labels]
        for u, v in lg.graph.edges():
            small, large = sorted((orders[u], orders[v]))
            assert large % small == 0, spec
            assert factorize(large // small) == ((large // small, 1),), spec
        eppo = all(len(factorize(order)) <= 1 for order in orders)
        assert (lg.graph.edge_count() == lg.graph.n - 1) == eppo, spec
        trees += eppo
    assert 0 < trees < len(specs)


# ---------------------------------------------------------------------------
# deciding Γ by degree


@pytest.fixture(scope="module")
def decided_gammas():
    checked = (Path(__file__).parent / "data" / "check_specs.txt").read_text("utf-8")
    specs = {*checked.split(), *catalog_specs(60)}
    specs.update(f"Z{n}" for n in range(1, 601))
    specs.update(f"D{n}" for n in range(1, 101))
    specs.update(f"Dic{n}" for n in range(2, 61))
    assert len(specs) == 817
    return [(spec, build_gamma(parse_group_spec(spec))) for spec in sorted(specs)]


def test_claw_constant_is_the_derived_gamma1():
    # decide_gamma's embedding order (leaves, then centre) is this pattern's.
    assert CLAW == derive_forbidden_set().patterns[0]


def test_gamma_is_triangle_free(decided_gammas):
    for spec, lg in decided_gammas:
        adj = lg.graph.adj
        assert all(adj[u] & adj[v] == 0 for u, v in lg.graph.edges()), spec


def test_decide_gamma_gives_the_beineke_scans_verdict_and_witness(decided_gammas):
    forbidden = derive_forbidden_set()
    negatives = 0
    for spec, lg in decided_gammas:
        verdict = decide_gamma(lg)
        assert verdict == is_line_graph_by_beineke(lg.graph, forbidden), spec
        if not verdict.is_line_graph:
            negatives += 1
            assert check_induced_embedding(lg.graph, CLAW, verdict.embedding), spec
    assert 0 < negatives < len(decided_gammas)


# ---------------------------------------------------------------------------
# serialization


def test_edge_list_snapshot():
    assert to_edge_list(build_gamma(make_cyclic(6))) == Z6_EDGE_LIST


def test_dot_output_is_deterministic_and_labelled():
    lg = build_gamma(direct_product(make_cyclic(2), make_cyclic(2)))
    dot = to_dot(lg)
    assert dot == to_dot(build_gamma(direct_product(make_cyclic(2), make_cyclic(2))))
    assert dot.startswith("graph gamma {")
    assert 'label="{e}"' in dot
    assert dot.count(" -- ") == 3


def test_labeled_graph_validates_label_count():
    lg = build_gamma(make_cyclic(4))
    with pytest.raises(ValueError):
        LabeledGraph(lg.graph, lg.labels[:-1])
    duplicated = (lg.labels[0],) * lg.graph.n
    with pytest.raises(ValueError):
        LabeledGraph(lg.graph, duplicated)


def test_vertex_labels_carry_member_sets():
    lg = build_gamma(make_cyclic(6))
    assert lg.labels[1] == VertexLabel(2, (0, 3), "<3> (order 2)")
