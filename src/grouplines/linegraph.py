"""Line graphs and two independent recognizers.

A graph is decided to be a line graph either by exhibiting a root graph whose
line graph is isomorphic to it (exhaustive search, the small-graph oracle) or
by showing that none of the nine minimal forbidden patterns occurs as an
induced subgraph (the production path, valid at any size).  The nine patterns
themselves are derived from scratch by the root-search oracle rather than
hardcoded; only their count is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    EnumerationLimitError,
    SimpleGraph,
    canonical_key,
    connected_components,
    enumerate_connected_by_edges,
    enumerate_graphs,
    find_induced,
    is_connected,
    isomorphism,
    make_named,
    search_plan,
)

# Root search is exhaustive over candidate roots, so it is cost-guarded.
ROOT_SEARCH_MAX_VERTICES = 12
# Components up to this many vertices are matched against the enumerated
# candidate lists; larger ones use the incremental assignment search.
_ENUM_ROOT_EDGES = 6


@dataclass(frozen=True)
class Verdict:
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


@dataclass(frozen=True)
class ForbiddenSet:
    """The nine minimal non-line graphs, id Gamma1 (the claw) first."""

    patterns: tuple[SimpleGraph, ...]

    def __post_init__(self) -> None:
        if len(self.patterns) != 9:
            raise ValueError(f"expected 9 forbidden patterns, got {len(self.patterns)}")
        keys = {canonical_key(p) for p in self.patterns}
        if len(keys) != 9:
            raise ValueError("forbidden patterns must be pairwise non-isomorphic")
        if any(not is_connected(p) for p in self.patterns):
            raise ValueError("forbidden patterns must be connected")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(f"Gamma{i}" for i in range(1, 10))

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
    return SimpleGraph(k, tuple(adj))


# ---------------------------------------------------------------------------
# root search


@lru_cache(maxsize=None)
def _roots_by_line_key(k: int) -> dict[tuple[int, ...], SimpleGraph]:
    """For each line graph on k vertices, the least enumerated root with k edges."""
    table: dict[tuple[int, ...], SimpleGraph] = {}
    for h in enumerate_connected_by_edges(k):
        table.setdefault(canonical_key(line_graph(h)), h)
    return table


def _root_by_enumeration(
    comp: SimpleGraph,
) -> tuple[SimpleGraph, tuple[tuple[int, int], ...]] | None:
    root = _roots_by_line_key(comp.n).get(canonical_key(comp))
    if root is None:
        return None
    image = isomorphism(line_graph(root), comp)
    assert image is not None
    edges = root.edges()
    edge_map: list[tuple[int, int]] = [(-1, -1)] * comp.n
    for idx, target in enumerate(image):
        edge_map[target] = edges[idx]
    return root, tuple(edge_map)


def _root_by_assignment(
    comp: SimpleGraph,
) -> tuple[SimpleGraph, tuple[tuple[int, int], ...]] | None:
    """Backtracking over edge assignments for a connected component.

    Searches the same space as whole-root enumeration, built incrementally:
    each component vertex receives a distinct root edge, adjacent vertices
    must share an endpoint and non-adjacent ones must not.  New root
    vertices are introduced in canonical order, so every candidate root with
    comp.n edges is covered up to isomorphism.
    """
    k = comp.n
    start = max(range(k), key=lambda v: (comp.degree(v), -v))
    order = [start]
    seen = {start}
    while len(order) < k:
        nxt = min(
            v
            for v in range(k)
            if v not in seen and any(comp.has_edge(v, w) for w in order)
        )
        order.append(nxt)
        seen.add(nxt)

    assign: dict[int, tuple[int, int]] = {}
    used: set[tuple[int, int]] = set()

    def consistent(v: int, edge: tuple[int, int]) -> bool:
        a, b = edge
        for w, (c, d) in assign.items():
            shares = a == c or a == d or b == c or b == d
            if shares != comp.has_edge(v, w):
                return False
        return True

    def extend(idx: int, vmax: int) -> int | None:
        if idx == k:
            return vmax
        v = order[idx]
        endpoints = sorted(
            {
                x
                for w in order[:idx]
                if comp.has_edge(v, w)
                for x in assign[w]
            }
        )
        seen_edges = set()
        for x in endpoints:
            for y in [*range(vmax + 1), vmax + 1]:
                edge = (x, y) if x < y else (y, x)
                if x == y or edge in used or edge in seen_edges:
                    continue
                seen_edges.add(edge)
                if not consistent(v, edge):
                    continue
                assign[v] = edge
                used.add(edge)
                result = extend(idx + 1, max(vmax, edge[1]))
                if result is not None:
                    return result
                del assign[v]
                used.discard(edge)
        return None

    assign[order[0]] = (0, 1)
    used.add((0, 1))
    vmax = extend(1, 1)
    if vmax is None:
        return None
    root = SimpleGraph.from_edges(vmax + 1, assign.values())
    return root, tuple(assign[v] for v in range(k))


def _component_root(
    comp: SimpleGraph,
) -> tuple[SimpleGraph, tuple[tuple[int, int], ...]] | None:
    if comp.n <= _ENUM_ROOT_EDGES:
        return _root_by_enumeration(comp)
    return _root_by_assignment(comp)


def is_line_graph_by_roots(
    g: SimpleGraph, forbidden: ForbiddenSet | None = None
) -> Verdict:
    """Decide by exhaustive root search, componentwise.

    A disjoint union is a line graph iff each component is; the certified
    root is then the disjoint union of component roots.  On a negative
    answer the witness is deferred to the forbidden-pattern recognizer when
    a ForbiddenSet is supplied.
    """
    if g.n > ROOT_SEARCH_MAX_VERTICES:
        raise EnumerationLimitError(
            f"root search is limited to {ROOT_SEARCH_MAX_VERTICES} vertices, got {g.n}"
        )
    pieces = []
    for comp_vertices in connected_components(g):
        found = _component_root(g.induced(comp_vertices))
        if found is None:
            if forbidden is not None:
                verdict = is_line_graph_by_beineke(g, forbidden)
                if verdict.is_line_graph:
                    raise RuntimeError(
                        "recognizers disagree: root search failed but no forbidden"
                        " pattern occurs"
                    )
                return verdict
            return Verdict(False)
        pieces.append((comp_vertices, *found))

    total = 0
    union_edges: list[tuple[int, int]] = []
    edge_map: list[tuple[int, int]] = [(-1, -1)] * g.n
    for comp_vertices, root, comp_map in pieces:
        union_edges.extend((a + total, b + total) for a, b in root.edges())
        for local, v in enumerate(comp_vertices):
            a, b = comp_map[local]
            edge_map[v] = (a + total, b + total)
        total += root.n
    return Verdict(
        True,
        root=SimpleGraph.from_edges(total, union_edges),
        edge_map=tuple(edge_map),
    )


def _is_line_graph_exhaustive(g: SimpleGraph) -> bool:
    return all(
        _component_root(g.induced(cv)) is not None for cv in connected_components(g)
    )


# ---------------------------------------------------------------------------
# the forbidden set


@lru_cache(maxsize=None)
def derive_forbidden_set() -> ForbiddenSet:
    """Derive the nine minimal forbidden patterns from scratch.

    Scans every isomorphism class on 1..6 vertices, keeps the connected
    graphs that fail the root search, and filters for minimality (every
    one-vertex deletion must be a line graph; line graphs are closed under
    induced subgraphs, so single deletions suffice).  The count must come
    out at exactly nine.
    """
    minimal = []
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if not is_connected(g) or _is_line_graph_exhaustive(g):
                continue
            deletions_ok = all(
                _is_line_graph_exhaustive(
                    g.induced([u for u in range(g.n) if u != v])
                )
                for v in range(g.n)
            )
            if deletions_ok:
                minimal.append(g)
    claw_key = canonical_key(make_named("K1,3"))
    claw = [g for g in minimal if canonical_key(g) == claw_key]
    rest = sorted(
        (g for g in minimal if canonical_key(g) != claw_key),
        key=lambda g: (g.n, canonical_key(g)),
    )
    patterns = tuple(claw + rest)
    if len(patterns) != 9:
        raise RuntimeError(
            f"forbidden-set derivation is inconsistent: found {len(patterns)}"
            " minimal non-line graphs, expected 9"
        )
    # Compile the scan plans here, so a process that forks after set-up
    # never compiles them again.
    for pattern in patterns:
        search_plan(pattern)
    return ForbiddenSet(patterns)


def is_line_graph_by_beineke(g: SimpleGraph, forbidden: ForbiddenSet) -> Verdict:
    """Decide by scanning for induced forbidden patterns, claw first.

    Negative verdicts carry the first matching pattern id and its embedding;
    the scan order is fixed, so the evidence is deterministic.
    """
    for pid, pattern in forbidden.items():
        found = find_induced(g, pattern)
        if found is not None:
            return Verdict(False, pattern_id=pid, embedding=found)
    return Verdict(True)
