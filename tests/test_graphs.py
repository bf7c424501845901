import itertools
import pickle
import random
import re

import pytest

from grouplines.catalog import parse_group_spec
from grouplines.graphs import (
    SimpleGraph,
    canonical_key,
    check_induced_embedding,
    connected_components,
    format_graph_text,
    is_connected,
)
from grouplines.groups import FiniteGroup
from grouplines.lattice import LabeledGraph, VertexLabel, build_gamma
from grouplines.linegraph import ForbiddenSet, Verdict, derive_forbidden_set
from contracts import check_message, check_value_contract
from oracles import (
    canonical_form,
    enumerate_connected_graphs,
    enumerate_graphs,
    find_induced,
    is_isomorphic,
    isomorphism,
    make_named,
    parse_graph_text,
)


def count_classes_by_orbit_counting(n):
    """Burnside count of n-vertex graphs up to isomorphism.

    Independent of the canonical-form machinery: average 2^(pair orbits of
    each permutation) over the whole symmetric group.
    """
    pairs = list(itertools.combinations(range(n), 2))
    total = 0
    count = 0
    for perm in itertools.permutations(range(n)):
        count += 1
        mapped = {}
        for i, (u, v) in enumerate(pairs):
            a, b = perm[u], perm[v]
            mapped[(u, v)] = (a, b) if a < b else (b, a)
        seen = set()
        orbits = 0
        for start in pairs:
            if start in seen:
                continue
            orbits += 1
            cur = start
            while cur not in seen:
                seen.add(cur)
                cur = mapped[cur]
        total += 2**orbits
    assert total % count == 0
    return total // count


# ---------------------------------------------------------------------------
# representation


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        SimpleGraph.from_edges(2, [(0, 0)])


@pytest.mark.parametrize("edge", [(0, 5), (0, -1), (-1, 1)])
def test_rejects_an_edge_with_an_endpoint_outside_the_vertices(edge):
    with pytest.raises(ValueError) as exc:
        SimpleGraph.from_edges(3, [edge])
    assert str(exc.value) == f"edge {edge} has an endpoint outside [0, 3)"


def test_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError, match="symmetric"):
        SimpleGraph(2, (2, 0))


def test_rejects_out_of_range_neighbor():
    with pytest.raises(ValueError, match="outside"):
        SimpleGraph(1, (2,))


PATH3 = "SimpleGraph(n=3, adj=(2, 5, 2))"
Z2_GAMMA = (
    "LabeledGraph(graph=SimpleGraph(n=2, adj=(2, 1)), labels=("
    "VertexLabel(order=1, members=(0,), name='{e}'), "
    "VertexLabel(order=2, members=(0, 1), name='<1> (order 2)')))"
)


@pytest.mark.parametrize(
    "make, field, text",
    [
        (lambda: SimpleGraph(3, (2, 5, 2)), "adj", PATH3),
        (lambda: SimpleGraph(0, ()), "n", "SimpleGraph(n=0, adj=())"),
        (lambda: build_gamma(parse_group_spec("Z2")), "labels", Z2_GAMMA),
        (
            lambda: VertexLabel(2, (0, 1), "<1>"),
            "name",
            "VertexLabel(order=2, members=(0, 1), name='<1>')",
        ),
        (
            lambda: Verdict(True, root=SimpleGraph(3, (2, 5, 2)), edge_map=((0, 1),)),
            "root",
            f"Verdict(is_line_graph=True, root={PATH3}, edge_map=((0, 1),),"
            " pattern_id=None, embedding=None)",
        ),
        (
            lambda: Verdict(False, pattern_id="Gamma1", embedding=(0, 1, 2, 3)),
            "pattern_id",
            "Verdict(is_line_graph=False, root=None, edge_map=None,"
            " pattern_id='Gamma1', embedding=(0, 1, 2, 3))",
        ),
    ],
)
def test_graph_values_keep_their_contract(make, field, text):
    check_value_contract(make, field, text)


def test_forbidden_set_compares_and_pickles_without_its_plans():
    f = derive_forbidden_set()
    text = "ForbiddenSet(patterns=(" + ", ".join(map(repr, f.patterns)) + "))"
    assert text.startswith("ForbiddenSet(patterns=(SimpleGraph(n=4, adj=(8, 8, 8, 7)), ")
    check_value_contract(lambda: ForbiddenSet(f.patterns), "plans", text)
    assert pickle.loads(pickle.dumps(f)).plans == f.plans


def test_values_built_from_lists_keep_their_own_tuples():
    patterns = list(derive_forbidden_set().patterns)
    labels = [VertexLabel(1, (0,), "{e}"), VertexLabel(2, (0, 1), "<1>")]
    cases = [
        (lambda adj: SimpleGraph(3, adj), [2, 5, 2]),
        (lambda labels: LabeledGraph(SimpleGraph(2, (2, 1)), labels), labels),
        (ForbiddenSet, patterns),
    ]
    for build, items in cases:
        value, twin = build(items), build(tuple(items))
        assert value == twin and hash(value) == hash(twin)
        items.pop()
        assert value == twin and hash(value) == hash(twin)
    rows, names = [[0, 1], [1, 0]], ["a", "b"]
    group = FiniteGroup("x", rows, names)
    names.append("c")
    rows[1][0] = 0
    assert group.labels == ("a", "b") and group.table == ((0, 1), (1, 0))


def test_unequal_graph_values_differ():
    assert SimpleGraph(3, (2, 5, 2)) != SimpleGraph(3, (6, 1, 1))
    assert SimpleGraph(3, (2, 5, 2)) != (3, (2, 5, 2))
    assert build_gamma(parse_group_spec("Z2")) != build_gamma(parse_group_spec("Z3"))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SimpleGraph(2, (1, 0)), "self-loop at vertex 0"),
        (lambda: SimpleGraph(2, (2, 0)), "edge 0-1 is not symmetric"),
        (lambda: SimpleGraph(1, (3,)), "vertex 0 has a neighbour outside [0, 1)"),
        (lambda: SimpleGraph(2, (2,)), "adjacency length must equal vertex count"),
        (
            lambda: LabeledGraph(
                SimpleGraph(2, (0, 0)),
                (VertexLabel(1, (0,), "a"), VertexLabel(1, (0,), "b")),
            ),
            "vertex member sets must be distinct",
        ),
        (
            lambda: LabeledGraph(SimpleGraph(2, (0, 0)), (VertexLabel(1, (0,), "a"),)),
            "label count must equal vertex count",
        ),
        (
            lambda: ForbiddenSet(derive_forbidden_set().patterns[:8]),
            "expected 9 forbidden patterns, got 8",
        ),
        (
            lambda: ForbiddenSet((*derive_forbidden_set().patterns[:8], make_named("K1,3"))),
            "forbidden patterns must be pairwise non-isomorphic",
        ),
    ],
)
def test_graph_value_messages(build, message):
    check_message(build, message)


def test_named_graphs():
    assert sorted(make_named("K1,3").degrees()) == [1, 1, 1, 3]
    assert sorted(make_named("P4").degrees()) == [1, 1, 2, 2]
    assert make_named("C4").degrees() == (2, 2, 2, 2)
    assert make_named("K5").edge_count() == 10
    with pytest.raises(ValueError):
        make_named("W5")


def test_connected_components():
    assert len(connected_components(make_named("C4"))) == 1
    assert len(connected_components(make_named("K1,3"))) == 1
    two = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    assert connected_components(two) == [(0, 1, 2, 3), (4,)]


def test_induced_subgraph_keeps_non_edges():
    g = make_named("C4")
    sub = g.induced([0, 1, 2])
    assert sub.edges() == ((0, 1), (1, 2))


# ---------------------------------------------------------------------------
# isomorphism and canonical forms


def test_relabelled_cycle_is_isomorphic():
    c4 = make_named("C4")
    assert is_isomorphic(c4, c4.relabeled([2, 0, 3, 1]))


def test_star_is_not_a_path():
    assert not is_isomorphic(make_named("K1,3"), make_named("P4"))


def test_different_vertex_counts_are_not_isomorphic():
    assert not is_isomorphic(make_named("K3"), make_named("K1,3"))


def test_isomorphism_map_is_checkable():
    g = make_named("C5")
    h = g.relabeled([3, 1, 4, 0, 2])
    image = isomorphism(g, h)
    assert image is not None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.has_edge(u, v) == h.has_edge(image[u], image[v])


def test_isomorphism_is_an_equivalence_relation():
    rng = random.Random(5)
    classes = enumerate_graphs(5)
    for _ in range(40):
        g = rng.choice(classes)
        perm = rng.sample(range(g.n), g.n)
        h = g.relabeled(perm)
        perm2 = rng.sample(range(g.n), g.n)
        k = h.relabeled(perm2)
        assert is_isomorphic(g, g)
        assert is_isomorphic(g, h) and is_isomorphic(h, g)
        assert is_isomorphic(g, h) and is_isomorphic(h, k) and is_isomorphic(g, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_key_agreement_matches_isomorphism(n):
    classes = enumerate_graphs(n)
    for i, a in enumerate(classes):
        for b in classes[i + 1 :]:
            assert canonical_key(a) != canonical_key(b)
            assert not is_isomorphic(a, b)
    rng = random.Random(n)
    for g in classes:
        h = g.relabeled(rng.sample(range(g.n), g.n))
        assert canonical_key(h) == canonical_key(g)
        assert is_isomorphic(g, h)


def test_canonical_form_is_idempotent():
    for g in enumerate_graphs(5):
        rep = canonical_form(g)
        assert canonical_key(rep) == canonical_key(g)
        assert canonical_form(rep) == rep


# ---------------------------------------------------------------------------
# induced-subgraph search


def test_cycle_is_claw_free():
    assert find_induced(make_named("C4"), make_named("K1,3")) is None


def test_single_vertex_always_embeds():
    for host in enumerate_graphs(4):
        assert find_induced(host, make_named("K1")) is not None


def test_pattern_larger_than_host():
    assert find_induced(make_named("K3"), make_named("C4")) is None


def brute_force_induced(host, pattern):
    for combo in itertools.permutations(range(host.n), pattern.n):
        if check_induced_embedding(host, pattern, combo):
            return combo
    return None


def test_find_induced_against_brute_force():
    hosts = enumerate_graphs(5)
    patterns = enumerate_graphs(3) + enumerate_graphs(4)
    for host in hosts:
        for pattern in patterns:
            got = find_induced(host, pattern)
            expected = brute_force_induced(host, pattern)
            assert (got is None) == (expected is None)
            if got is not None:
                assert check_induced_embedding(host, pattern, got)


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
def test_enumeration_counts(n, count):
    assert len(enumerate_graphs(n)) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumeration_counts_match_orbit_counting(n):
    assert len(enumerate_graphs(n)) == count_classes_by_orbit_counting(n)


def test_enumeration_is_canonical_and_sorted():
    classes = enumerate_graphs(4)
    keys = [canonical_key(g) for g in classes]
    assert keys == sorted(keys)
    assert all(canonical_form(g) == g for g in classes)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)])
def test_connected_enumeration_counts(n, count):
    classes = enumerate_connected_graphs(n)
    assert len(classes) == count
    assert all(is_connected(g) for g in classes)


# ---------------------------------------------------------------------------
# text format


def test_graph_text_round_trip():
    for g in enumerate_graphs(5)[:10]:
        assert parse_graph_text(format_graph_text(g)) == g


def test_graph_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_graph_text("vertices 3\n")
    with pytest.raises(ValueError):
        parse_graph_text("n 2\ne 0 5\n")
    with pytest.raises(ValueError):
        parse_graph_text("n 2\nx 0 1\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("n 3\ne 0 x\n", "e 0 x"),
        ("n -1\n", "n -1"),
        ("n 3 4\n", "n 3 4"),
        ("n 3\ne 0 1 2\n", "e 0 1 2"),
        ("n 3\ne 0 5\n", "e 0 5"),
        ("n 3\ne 1 1\n", "e 1 1"),
        ("n \u0663\n", "n \u0663"),  # Arabic-Indic 3, which int() reads
        ("n 3\ne 0 \uff12\n", "e 0 \uff12"),  # fullwidth 2
    ],
    ids=[
        "edge-token",
        "negative-count",
        "extra-count-token",
        "extra-edge-token",
        "edge-out-of-range",
        "self-loop",
        "non-ascii-count",
        "non-ascii-edge",
    ],
)
def test_graph_text_errors_name_the_offending_line(text, line):
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        parse_graph_text(text)
