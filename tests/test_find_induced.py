"""The compiled induced-subgraph search against its reference backtracker.

`find_induced` compiles a pattern into a search plan, with lex-leader
symmetry breaking, and runs it.  `reference_find_induced` is the plain
backtracker it replaced; both must return the identical tuple, not merely a
valid one, because witnesses reach the CLI output.
"""

import itertools
import math
import random
import time

import pytest

from grouplines.catalog import build_catalog
from grouplines.graphs import SimpleGraph, check_induced_embedding, search_plan
from grouplines.lattice import build_gamma
from grouplines.linegraph import (
    Verdict,
    derive_forbidden_set,
    is_line_graph_by_beineke,
    line_graph,
)
from oracles import complete_graph, enumerate_graphs, find_induced


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_find_induced(host, pattern):
    """Backtrack over pattern vertices in descending-degree order (ties by
    index), trying host candidates in ascending order; no symmetry breaking."""
    if pattern.n > host.n:
        return None
    order = sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))
    image = [-1] * pattern.n
    full = (1 << host.n) - 1
    hdeg = host.degrees()

    def extend(idx, used):
        if idx == len(order):
            return True
        p = order[idx]
        cand = full & ~used
        for q in order[:idx]:
            if pattern.has_edge(p, q):
                cand &= host.adj[image[q]]
            else:
                cand &= ~host.adj[image[q]]
        want = pattern.degree(p)
        for v in bits(cand):
            if hdeg[v] < want:
                continue
            image[p] = v
            if extend(idx + 1, used | (1 << v)):
                return True
        image[p] = -1
        return False

    if extend(0, 0):
        return tuple(image)
    return None


@pytest.fixture(scope="module")
def patterns():
    """The nine forbidden patterns, then every graph on 1..4 vertices."""
    small = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    return list(derive_forbidden_set().patterns) + small


def assert_same_witnesses(hosts, patterns):
    """Also checks that the Beineke scan, which runs the forbidden set's own
    plans in one search per host, reports the first forbidden pattern that
    `find_induced` finds, with the same embedding; `patterns` must hold the
    forbidden set."""
    forbidden = derive_forbidden_set()
    assert forbidden.plans == tuple(search_plan(p) for p in forbidden.patterns)
    for host in hosts:
        witnesses = {}
        for pattern in patterns:
            got = witnesses[pattern] = find_induced(host, pattern)
            assert got == reference_find_induced(host, pattern), (host, pattern)
            if got is not None:
                assert check_induced_embedding(host, pattern, got)
        first = next(
            (
                Verdict(False, pattern_id=pid, embedding=witnesses[pattern])
                for pid, pattern in forbidden.items()
                if witnesses[pattern] is not None
            ),
            Verdict(True),
        )
        assert is_line_graph_by_beineke(host, forbidden) == first, host


def test_identical_on_every_graph_up_to_six_vertices(patterns):
    hosts = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    assert len(hosts) == 208
    assert_same_witnesses(hosts, patterns)


def test_identical_on_gamma_of_the_catalog(patterns):
    hosts = [build_gamma(record.group).graph for record in build_catalog(60)]
    assert_same_witnesses(hosts, patterns)


def test_identical_on_seeded_random_hosts(patterns):
    rng = random.Random(2024)
    hosts = []
    for _ in range(300):
        n = rng.randint(5, 20)
        density = rng.random()
        pairs = itertools.combinations(range(n), 2)
        edges = [pair for pair in pairs if rng.random() < density]
        hosts.append(SimpleGraph.from_edges(n, edges))
    assert_same_witnesses(hosts, patterns)


@pytest.mark.parametrize("k", [6, 7])
def test_identical_on_relabelled_line_graphs_of_complete_graphs(k):
    g = line_graph(complete_graph(k))
    rng = random.Random(k)
    host = g.relabeled(rng.sample(range(g.n), g.n))
    assert_same_witnesses([host], derive_forbidden_set().patterns)


# ---------------------------------------------------------------------------
# plan invariants


def automorphism_count(g):
    return sum(
        1
        for perm in itertools.permutations(range(g.n))
        if all(g.has_edge(perm[u], perm[v]) for u, v in g.edges())
    )


def test_orbit_sizes_multiply_to_the_automorphism_count():
    sizes = []
    for pattern in derive_forbidden_set().patterns:
        plan = search_plan(pattern)
        assert math.prod(plan.orbit_sizes) == automorphism_count(pattern)
        sizes.append(math.prod(plan.orbit_sizes))
    assert sizes == [6, 4, 12, 4, 4, 2, 4, 16, 10]


@pytest.mark.parametrize(
    "host,pattern",
    [
        (complete_graph(12), complete_graph(10)),
        (SimpleGraph(10, (0,) * 10), SimpleGraph(8, (0,) * 8)),
    ],
    ids=["K10-in-K12", "edgeless-8-in-edgeless-10"],
)
def test_high_symmetry_patterns_compile_without_listing_automorphisms(host, pattern):
    start = time.monotonic()
    plan = search_plan(pattern)
    found = find_induced(host, pattern)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert math.prod(plan.orbit_sizes) == math.factorial(pattern.n)
    assert found == tuple(range(pattern.n))
