"""Test-only oracles and graph helpers.

The package ships only what its commands, its library recognizers and the
benchmark run.  What only the tests call lives here:

- Cayley-table oracles: inverses read off a table and subgroup closure;
- the named graphs K<n>, P<n>, C<n> and K1,<k>, and canonical forms;
- exact isomorphism by colour refinement and backtracking, independent of
  the canonical key;
- `find_induced`, one pattern's compiled search, which the plain
  backtracker in `test_find_induced.py` must match witness for witness;
- exhaustive enumeration of isomorphism classes, exponential and called
  for at most 7 vertices;
- `gamma_stats`, summary statistics of a cyclic subgroup graph;
- `subgroup_lattice_graph`, the covering graph L(G) of all subgroups;
- `parse_graph_text`, the reader of the graph text format that
  `grouplines forbidden` writes; no command reads it;
- `_has_krausz_cover`, Krausz's exponential clique-cover test, which builds
  no root graph: the independent check on the package's line-graph test
  and on the nine patterns the package derives with it.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from grouplines.graphs import (
    SimpleGraph,
    _bits,
    canonical_key,
    connected_components,
    find_first_induced,
    graph_from_key,
    search_plan,
)
from grouplines.lattice import LabeledGraph

# ---------------------------------------------------------------------------
# Cayley tables


def inv(group, a):
    """The inverse of element a, read off its row of the table."""
    return group.table[a].index(0)


def check_subgroup(group, sub):
    """Closure of the member set under products and inverses."""
    members = set(sub.members)
    if 0 not in members:
        return False
    for a in members:
        if inv(group, a) not in members:
            return False
        for b in members:
            if group.table[a][b] not in members:
                return False
    return True


# ---------------------------------------------------------------------------
# named constructions


def complete_graph(n: int) -> SimpleGraph:
    full = (1 << n) - 1
    return SimpleGraph(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> SimpleGraph:
    return SimpleGraph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def make_named(name: str) -> SimpleGraph:
    """Build one of K<n>, P<n>, C<n>, K1,<k> from its conventional name."""
    m = re.fullmatch(r"K1,(\d+)", name)
    if m:
        return star_graph(int(m.group(1)))
    m = re.fullmatch(r"([KPC])(\d+)", name)
    if not m:
        raise ValueError(f"unknown graph name {name!r}")
    kind, n = m.group(1), int(m.group(2))
    if kind == "K":
        return complete_graph(n)
    if kind == "P":
        return path_graph(n)
    return cycle_graph(n)


# ---------------------------------------------------------------------------
# canonical forms


def canonical_form(g: SimpleGraph) -> SimpleGraph:
    """The canonical representative of g's isomorphism class."""
    return graph_from_key(canonical_key(g))


# ---------------------------------------------------------------------------
# isomorphism
#
# Independent of the canonical form: iterated degree refinement to split the
# vertices into colour classes, then a backtracking search for an
# adjacency-preserving bijection restricted to matching colours.


def _refined_colors(g: SimpleGraph) -> tuple[int, ...]:
    colors = list(g.degrees())
    for _ in range(g.n):
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in _bits(g.adj[v]))))
            for v in range(g.n)
        ]
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [relabel[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return tuple(new)
        colors = new
    return tuple(colors)


def _match_order(g: SimpleGraph, colors: tuple[int, ...]) -> list[int]:
    class_size = {c: colors.count(c) for c in set(colors)}
    remaining = set(range(g.n))
    order: list[int] = []
    placed_mask = 0
    while remaining:
        def rank(v: int) -> tuple[int, int, int, int]:
            attached = (g.adj[v] & placed_mask).bit_count()
            return (-attached, class_size[colors[v]], -g.degree(v), v)

        v = min(remaining, key=rank)
        order.append(v)
        remaining.remove(v)
        placed_mask |= 1 << v
    return order


def isomorphism(a: SimpleGraph, b: SimpleGraph) -> tuple[int, ...] | None:
    """A vertex map a -> b preserving adjacency exactly, or None."""
    if a.n != b.n or a.edge_count() != b.edge_count():
        return None
    ca, cb = _refined_colors(a), _refined_colors(b)
    if sorted(ca) != sorted(cb):
        return None
    order = _match_order(a, ca)
    image = [-1] * a.n
    full = (1 << b.n) - 1

    def extend(idx: int, used: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        cand = full & ~used
        for w in order[:idx]:
            if a.has_edge(v, w):
                cand &= b.adj[image[w]]
            else:
                cand &= ~b.adj[image[w]]
        for u in _bits(cand):
            if cb[u] != ca[v]:
                continue
            image[v] = u
            if extend(idx + 1, used | (1 << u)):
                return True
        image[v] = -1
        return False

    if extend(0, 0):
        return tuple(image)
    return None


def is_isomorphic(a: SimpleGraph, b: SimpleGraph) -> bool:
    return isomorphism(a, b) is not None


# ---------------------------------------------------------------------------
# induced-subgraph search


def find_induced(host: SimpleGraph, pattern: SimpleGraph) -> tuple[int, ...] | None:
    """An injective map with pattern adjacency AND non-adjacency preserved.

    Compiles the pattern's `search_plan` and runs it: pattern vertices are
    placed in descending-degree order (ties by index) and host candidates
    are tried in ascending order, so the witness is the lexicographically
    least embedding in that order.  Lex-leader symmetry breaking prunes
    every embedding that an automorphism of the pattern maps to a smaller
    one; the least embedding is never pruned, so the witness is the same as
    a search without it would return.  None when no induced copy exists.
    """
    found = find_first_induced(host, [search_plan(pattern)])
    return None if found is None else found[1]


# ---------------------------------------------------------------------------
# exhaustive enumeration (one canonical representative per class)


def _extended(base: SimpleGraph, mask: int) -> SimpleGraph:
    n = base.n
    adj = [base.adj[v] | (((mask >> v) & 1) << n) for v in range(n)]
    adj.append(mask)
    return SimpleGraph(n + 1, tuple(adj))


@lru_cache(maxsize=None)
def _class_keys(n: int, connected_only: bool) -> tuple[tuple[int, ...], ...]:
    if n == 1:
        return ((1,),)
    keys = set()
    lo = 1 if connected_only else 0
    for base_key in _class_keys(n - 1, connected_only):
        base = graph_from_key(base_key)
        for mask in range(lo, 1 << (n - 1)):
            keys.add(canonical_key(_extended(base, mask)))
    return tuple(sorted(keys))


def enumerate_graphs(n: int) -> tuple[SimpleGraph, ...]:
    """All isomorphism classes of graphs on n vertices, canonical and sorted."""
    return tuple(graph_from_key(k) for k in _class_keys(n, False))


def enumerate_connected_graphs(n: int) -> tuple[SimpleGraph, ...]:
    """All connected isomorphism classes on n vertices."""
    return tuple(graph_from_key(k) for k in _class_keys(n, True))


# ---------------------------------------------------------------------------
# cyclic subgroup graph statistics


class GammaStats(NamedTuple):
    vertices: int
    edges: int
    degrees: tuple[int, ...]
    is_connected: bool
    is_complete: bool


def gamma_stats(lg: LabeledGraph) -> GammaStats:
    g = lg.graph
    return GammaStats(
        vertices=g.n,
        edges=g.edge_count(),
        degrees=g.degrees(),
        is_connected=len(connected_components(g)) <= 1,
        is_complete=g.edge_count() == g.n * (g.n - 1) // 2,
    )


# ---------------------------------------------------------------------------
# the subgroup graph


def subgroup_lattice_graph(group) -> tuple[SimpleGraph, tuple[tuple[int, ...], ...]]:
    """L(G), the covering graph of all subgroups, and each vertex's members.

    Vertices are sorted by (order, members), as `build_gamma` sorts Γ's.
    Every subgroup is the join of the cyclic subgroups of its elements, so
    joining each subgroup found with each cyclic subgroup not in it, until
    nothing new appears, reaches them all.  T covers S when S < T and no
    subgroup lies strictly between; that is tested over all triples, so
    none of `build_gamma`'s prime-index cover test is shared.

    Why L(G) matters (the abstract studies Γ(G) as a subgraph of it):

    - Γ(G) = L(G)[C(G)], the subgraph induced on the cyclic subgroups: if
      C < K < D with D cyclic, then K is cyclic, so a cover between cyclic
      subgroups is a cover in L(G).
    - L(G) is a covering graph too, so it has no triangle, and it is a line
      graph exactly when every vertex has degree at most 2.
    - Line graphs are closed under induced subgraphs, so if L(G) is a line
      graph so is Γ(G), and by the paper G is cyclic; for cyclic G the two
      graphs are equal.  So L(G) is a line graph exactly when G is cyclic
      of prime-power or pq order.
    """
    table = group.table

    def generated(gens):
        members, frontier = {0}, [0]
        for x in frontier:
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return frozenset(members)

    cyclic = {}
    for g in range(group.order):
        cyclic.setdefault(generated((g,)), g)
    gens_of = {c: (g,) for c, g in cyclic.items()}
    queue = list(gens_of)
    for s in queue:
        for g in cyclic.values():
            if g not in s:
                joined = generated((*gens_of[s], g))
                if joined not in gens_of:
                    gens_of[joined] = (*gens_of[s], g)
                    queue.append(joined)
    members = sorted((tuple(sorted(s)) for s in gens_of), key=lambda m: (len(m), m))
    sets = [frozenset(m) for m in members]
    edges = []
    for j, top in enumerate(sets):
        below = [i for i in range(j) if sets[i] < top]
        edges += [(i, j) for i in below if not any(sets[i] < sets[k] for k in below)]
    return SimpleGraph.from_edges(len(sets), edges), tuple(members)


# ---------------------------------------------------------------------------
# graph text format: `n <count>` then `e <i> <j>` lines


def _is_ascii_number(token: str) -> bool:
    # ASCII digits only: int() would also read other Unicode digits.
    return token.isascii() and token.isdigit()


def parse_graph_text(text: str) -> SimpleGraph:
    """Parse the graph text format; each error names the offending line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if not head or head[0] != "n":
        raise ValueError("graph text must start with 'n <count>'")
    if len(head) != 2 or not _is_ascii_number(head[1]):
        raise ValueError(f"bad vertex count line {lines[0]!r}")
    n = int(head[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "e" or not all(map(_is_ascii_number, parts[1:])):
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(parts[1]), int(parts[2])
        if u >= n or v >= n:
            raise ValueError(f"edge line {ln!r} is out of range for {n} vertices")
        if u == v:
            raise ValueError(f"edge line {ln!r} is a self-loop")
        edges.append((u, v))
    return SimpleGraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Krausz's line-graph test


def _has_krausz_cover(adj: Sequence[int]) -> bool:
    """Krausz's test (Mat. Fiz. Lapok 50, 1943), the derivation's oracle: the
    graph with neighbour masks adj is a line graph iff its edges split into
    cliques with every vertex in at most two of them.  Exponential, and meant
    for small graphs.  Isolated vertices do not matter, so a vertex deletion
    can be tested by zeroing the vertex's bits.

    Backtracks over bitmasks: the lowest uncovered edge uv goes into one of
    the cliques through uv whose edges are all uncovered and whose vertices
    each sit in fewer than two cliques so far; each is tried in turn.
    """

    def cliques(rest: Sequence[int], clique: int, candidates: int) -> Iterator[int]:
        # Each clique of uncovered edges made of clique and some candidates.
        yield clique
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            w = low.bit_length() - 1
            yield from cliques(rest, clique | low, candidates & rest[w])

    def cover(rest: Sequence[int], once: int, twice: int) -> bool:
        # rest holds the uncovered edges as neighbour masks; once and twice
        # are the vertices in at least one and in two chosen cliques.
        for u, mask in enumerate(rest):
            if mask:
                break
        else:
            return True
        v = (mask & -mask).bit_length() - 1
        if (twice >> u | twice >> v) & 1:
            return False
        for c in cliques(rest, 1 << u | 1 << v, rest[u] & rest[v] & ~twice):
            # A list, not a tuple: each tuple(...) call would park one more
            # tuple on CPython's free list, which keeps up to 2000 per size.
            left = [mask & ~c if c >> x & 1 else mask for x, mask in enumerate(rest)]
            if cover(left, once | c, twice | once & c):
                return True
        return False

    return cover(adj, 0, 0)
