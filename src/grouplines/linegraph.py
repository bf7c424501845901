"""Line graphs and two recognizers.

A graph is decided to be a line graph either by building a root graph whose
line graph it is (an edge-assignment search, polynomial by Whitney's theorem,
whose root and edge map certify every positive answer at any size) or by
showing that none of the nine minimal forbidden patterns occurs as an induced
subgraph.  The nine patterns themselves are derived from scratch rather than
hardcoded, with the root search as the derivation's line-graph test
(`_is_line_graph`).  The derivation grows connected line graphs one vertex
at a time: a minimal non-line graph g is connected, so it has a non-cut
vertex v, and g - v is a connected line graph by minimality.  Deleting a
non-cut vertex of a connected line graph leaves a connected line graph too,
so every pattern, and every connected line graph of the next level, is a
one-vertex extension of a connected line graph.  Only the count of patterns
is asserted here; the tests match them against an exhaustive scan with
Krausz's clique-cover test, which builds no root graph.

An extension that holds a pattern found on fewer vertices is skipped: it
is neither a line graph nor minimal.  Any other is a line graph or, failing
the root search, minimal: a non-line proper induced subgraph of it would
hold a minimal non-line graph on fewer vertices, which is connected with a
non-cut vertex, so an earlier level found it.  No deletion is tested.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .graphs import (
    SearchPlan,
    SimpleGraph,
    _components,
    _first_induced,
    _Frozen,
    canonical_key,
    find_first_induced,
    graph_from_key,
    is_connected,
    search_plan,
)


class Verdict(NamedTuple):
    """Line-graph decision plus checkable evidence.

    On a positive root-search verdict, `root` and `edge_map` certify the
    answer: vertex v of the input corresponds to edge `edge_map[v]` of the
    root, and two vertices are adjacent iff their edges share an endpoint.
    On a negative forbidden-pattern verdict, `pattern_id`/`embedding` name
    an induced occurrence of a forbidden pattern (pattern vertex i sits at
    input vertex `embedding[i]`).
    """

    is_line_graph: bool
    root: SimpleGraph | None = None
    edge_map: tuple[tuple[int, int], ...] | None = None
    pattern_id: str | None = None
    embedding: tuple[int, ...] | None = None


# Gamma1, the claw K1,3, as the derivation yields it: leaves 0-2, centre 3.
CLAW = SimpleGraph(4, (8, 8, 8, 7))


class ForbiddenSet(_Frozen):
    """The nine minimal non-line graphs, id Gamma1 (the claw) first, each
    compiled once into the search plan the Beineke scan runs (`plans`,
    which is not compared)."""

    _fields = ("patterns",)
    __slots__ = _fields + ("plans",)
    patterns: tuple[SimpleGraph, ...]
    plans: tuple[SearchPlan, ...]

    def __init__(self, patterns: Sequence[SimpleGraph]) -> None:
        patterns = tuple(patterns)
        if len(patterns) != 9:
            raise ValueError(f"expected 9 forbidden patterns, got {len(patterns)}")
        keys = {canonical_key(p) for p in patterns}
        if len(keys) != 9:
            raise ValueError("forbidden patterns must be pairwise non-isomorphic")
        if any(not is_connected(p) for p in patterns):
            raise ValueError("forbidden patterns must be connected")
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "plans", tuple(map(search_plan, patterns)))

    # The id of each pattern, in the order of `patterns`.
    ids = tuple(f"Gamma{i}" for i in range(1, 10))

    def items(self) -> tuple[tuple[str, SimpleGraph], ...]:
        return tuple(zip(self.ids, self.patterns))


def line_graph(h: SimpleGraph) -> SimpleGraph:
    """Vertices are the edges of h (in sorted order), joined when incident."""
    edges = h.edges()
    k = len(edges)
    adj = [0] * k
    for i in range(k):
        a, b = edges[i]
        for j in range(i + 1, k):
            c, d = edges[j]
            if a == c or a == d or b == c or b == d:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return SimpleGraph(k, adj)


# ---------------------------------------------------------------------------
# root search


def _root_by_assignment(
    adj: Sequence[int], comp: tuple[int, ...]
) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """The vertex count of a root graph and the root edge of each vertex of
    comp, in comp's order, or None when comp has no root.

    comp is one connected component, sorted, of the graph with neighbour
    masks adj.  Each vertex receives a distinct root edge, taken in an order
    in which every vertex after the first is adjacent to an earlier one;
    adjacent vertices must share an endpoint and non-adjacent ones must not.
    New root vertices are introduced in canonical order, so no candidate
    root is missed up to isomorphism.
    """
    # Why this is polynomial: a connected root with at least 7 edges has at
    # least 5 vertices, and for such roots Whitney's theorem (Amer. J. Math.
    # 1932) says every isomorphism between their line graphs comes from a
    # unique vertex bijection.  Every prefix of the order is connected, so
    # once 7 vertices are placed each later vertex has at most one consistent
    # edge, and the search branches only while placing the first 7 (the
    # scheme of Degiorgi & Simon's ILIGRA, WG 1995).  It loops rather than
    # recurses, as a component can be deeper than the recursion limit.
    k = len(comp)
    start = max(comp, key=lambda v: (adj[v].bit_count(), -v))
    # Next is always the lowest-index unplaced vertex adjacent to the placed
    # set; nbrs[i] is the mask of the neighbours of order[i] placed before it.
    order, nbrs = [start], [0]
    placed = 1 << start
    frontier = adj[start]
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        order.append(v)
        nbrs.append(adj[v] & placed)
        placed |= 1 << v
        frontier = (frontier | adj[v]) & ~placed

    # at[x] is the mask of placed vertices whose edge has endpoint x.  A
    # connected root with k edges has at most k + 1 vertices.
    at = [0] * (k + 1)
    at[0] = at[1] = 1 << start
    edge_of = {start: (0, 1)}

    def candidates(nbrs: int, vmax: int) -> Iterator[tuple[int, int]]:
        # Consistent unused edges in lexicographic order.  Each root vertex
        # up to vmax lies on a placed edge, so both ends of a consistent edge
        # lie on a neighbour's edge, except for a new root vertex vmax + 1.
        ends = [x for x in range(vmax + 1) if at[x] & nbrs]
        for i, x in enumerate(ends):
            for y in (*ends[i + 1 :], vmax + 1):
                if at[x] | at[y] == nbrs and not at[x] & at[y]:
                    yield x, y

    tried: list[Iterator[tuple[int, int]]] = []  # one per depth from 1 on
    vmax = idx = 1
    while 0 < idx < k:
        v = order[idx]
        if len(tried) < idx:
            tried.append(candidates(nbrs[idx], vmax))
        else:  # back from a dead end below: undo this depth's edge
            x, y = edge_of.pop(v)
            at[x] ^= 1 << v
            at[y] ^= 1 << v
            if not at[y]:  # y was a new root vertex
                vmax = y - 1
        edge = next(tried[-1], None)
        if edge is None:
            tried.pop()
            idx -= 1
            continue
        edge_of[v] = edge
        x, y = edge
        at[x] |= 1 << v
        at[y] |= 1 << v
        vmax = max(vmax, y)
        idx += 1
    if idx == 0:
        return None
    return vmax + 1, tuple(edge_of[v] for v in comp)


def is_line_graph_by_roots(g: SimpleGraph) -> Verdict:
    """Decide by building a root graph, componentwise, at any size.

    A disjoint union is a line graph iff each component is; the certified
    root is then the disjoint union of component roots, and the only graph
    built.  Each component is searched on g's own masks.  A negative verdict
    carries no evidence; `is_line_graph_by_beineke` names a forbidden
    pattern.
    """
    total = 0
    edge_map: list[tuple[int, int]] = [(-1, -1)] * g.n
    for comp in _components(g.adj):
        found = _root_by_assignment(g.adj, comp)
        if found is None:
            return Verdict(False)
        root_n, comp_map = found
        for v, (a, b) in zip(comp, comp_map):
            edge_map[v] = (a + total, b + total)
        total += root_n
    # Every edge of a component root is the image of a vertex.
    return Verdict(
        True, root=SimpleGraph.from_edges(total, edge_map), edge_map=tuple(edge_map)
    )


def _is_line_graph(adj: Sequence[int]) -> bool:
    """Whether every component of the graph with neighbour masks adj has a
    root: the derivation's line-graph test, with no root graph built."""
    return all(_root_by_assignment(adj, comp) is not None for comp in _components(adj))


# ---------------------------------------------------------------------------
# the forbidden set


def _grown_levels(
    top: int,
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]]:
    """Canonical keys, for n = 1..top in turn, of the connected line graphs
    on n vertices and of the minimal non-line graphs on n vertices.

    Level n extends each connected line graph on n - 1 vertices by a new
    vertex with a non-zero neighbour mask.  An extension that holds a
    minimal non-line graph of an earlier level is skipped; any other is a
    line graph or, failing `_is_line_graph`, minimal.  The line graphs on
    `top` vertices are not canonicalised, as no level grows from them, so
    that level yields none.
    """
    level: tuple[tuple[int, ...], ...] = ((1,),)
    plans: list[SearchPlan] = []
    yield level, ()
    for n in range(2, top + 1):
        lines, minimal = set(), set()
        new = 1 << (n - 1)
        for key in level:
            base = graph_from_key(key).adj
            for mask in range(1, new):
                adj = [m | new if mask >> v & 1 else m for v, m in enumerate(base)]
                adj.append(mask)
                if _first_induced(adj, plans) is not None:
                    continue
                if _is_line_graph(adj):
                    if n < top:
                        lines.add(canonical_key(SimpleGraph(n, adj)))
                else:
                    minimal.add(canonical_key(SimpleGraph(n, adj)))
        level = tuple(sorted(lines))
        found = tuple(sorted(minimal))
        plans.extend(search_plan(graph_from_key(key)) for key in found)
        yield level, found


@lru_cache(maxsize=None)
def derive_forbidden_set() -> ForbiddenSet:
    """Derive the nine minimal forbidden patterns from scratch.

    Grows the connected line graphs on 1..5 vertices one vertex at a time
    and keeps each one-vertex extension, on up to 6 vertices, that has no
    root graph and holds no pattern found on fewer vertices
    (`_grown_levels`).  `ForbiddenSet` refuses any count but nine.  The
    patterns come in (vertex count, canonical key) order, so the claw, the
    only one on four vertices, comes first.  The tests check them against
    an exhaustive scan with Krausz's test and against the checked-in files
    of `tests/data/forbidden`.
    """
    keys = [key for _, minimal in _grown_levels(6) for key in minimal]
    return ForbiddenSet([graph_from_key(key) for key in keys])


def is_line_graph_by_beineke(g: SimpleGraph, forbidden: ForbiddenSet) -> Verdict:
    """Decide by scanning for induced forbidden patterns, claw first.

    Negative verdicts carry the first matching pattern id and its embedding;
    the scan order is fixed, so the evidence is deterministic.
    """
    found = find_first_induced(g, forbidden.plans)
    if found is None:
        return Verdict(True)
    index, embedding = found
    return Verdict(False, pattern_id=forbidden.ids[index], embedding=embedding)
