"""Graph engine: value types, canonical keys and induced-subgraph search.

Adjacency is kept as one bitmask per vertex, which makes the backtracking
searches cheap and the value types hashable.  The induced-subgraph search
serves hosts of any size (the cyclic subgroup graph of Z2^7 has 128 vertices,
though the command line decides it by degree): its cost is polynomial in the
host, with the pattern size as the exponent.  The forbidden set compiles each
pattern once into a `SearchPlan`, and `find_first_induced` builds a host's
masks once per scan.  Canonical keys are exponential and meant for small
graphs: the forbidden-set derivation keys graphs of at most six vertices.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Frozen:
    """Base of the validated value types.

    A subclass names its compared fields in `_fields` and sets its slots in
    `__init__` through `object.__setattr__`; after that an instance is
    immutable.  Equality, hash, repr and pickling go by `_fields`, and
    unpickling runs `__init__`, so it validates again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SimpleGraph(_Frozen):
    """Undirected simple graph on vertices 0..n-1; adj[v] is a neighbour bitmask."""

    __slots__ = _fields = ("n", "adj")
    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: Sequence[int]) -> None:
        adj = tuple(adj)
        if n < 0 or len(adj) != n:
            raise ValueError("adjacency length must equal vertex count")
        for v, mask in enumerate(adj):
            if mask >> n:
                raise ValueError(f"vertex {v} has a neighbour outside [0, {n})")
            if (mask >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, mask in enumerate(adj):
            for u in _bits(mask):
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"edge {v}-{u} is not symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> SimpleGraph:
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return SimpleGraph(n, adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for v in range(self.n):
            for u in _bits(self.adj[v] >> (v + 1)):
                out.append((v, v + 1 + u))
        return tuple(out)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def induced(self, vertices: Sequence[int]) -> SimpleGraph:
        """Subgraph on the given vertices, relabelled 0..k-1 in the given order."""
        pos = {v: i for i, v in enumerate(vertices)}
        adj = [0] * len(vertices)
        for i, v in enumerate(vertices):
            for u in _bits(self.adj[v]):
                j = pos.get(u)
                if j is not None:
                    adj[i] |= 1 << j
        return SimpleGraph(len(vertices), adj)

    def relabeled(self, perm: Sequence[int]) -> SimpleGraph:
        """Image under the vertex map old -> perm[old]."""
        adj = [0] * self.n
        for v in range(self.n):
            for u in _bits(self.adj[v]):
                adj[perm[v]] |= 1 << perm[u]
        return SimpleGraph(self.n, adj)


# ---------------------------------------------------------------------------
# components


def _components(adj: Sequence[int]) -> list[tuple[int, ...]]:
    """`connected_components` of the graph with neighbour masks adj."""
    seen = 0
    comps = []
    for start in range(len(adj)):
        if (seen >> start) & 1:
            continue
        comp = 1 << start
        frontier = 1 << start
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= adj[v]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        comps.append(tuple(_bits(comp)))
    return comps


def connected_components(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    return _components(g.adj)


def is_connected(g: SimpleGraph) -> bool:
    return len(connected_components(g)) <= 1


# ---------------------------------------------------------------------------
# canonical forms
#
# The key is the lexicographically minimal column-by-column reading of the
# upper adjacency triangle over all vertex orderings.  Column d holds the
# adjacency bits between the vertex placed at position d and positions
# 0..d-1, most significant bit first, so partial orderings give comparable
# prefixes and the search can prune on them.


@lru_cache(maxsize=None)
def canonical_key(g: SimpleGraph) -> tuple[int, ...]:
    """Total isomorphism invariant: equal keys iff isomorphic graphs."""
    n, adj = g.n, g.adj
    if n <= 1:
        return (n,)
    inf = 1 << n
    best = [inf] * n
    best[0] = 0

    def place(depth: int, avail: int, placed: list[int]) -> None:
        cands = []
        for v in _bits(avail):
            av = adj[v]
            col = 0
            for u in placed:
                col = (col << 1) | ((av >> u) & 1)
            cands.append((col, v))
        cands.sort()
        nxt = depth + 1
        for col, v in cands:
            if col > best[depth]:
                break
            if col < best[depth]:
                best[depth] = col
                for i in range(nxt, n):
                    best[i] = inf
            if nxt < n:
                place(nxt, avail ^ (1 << v), placed + [v])

    place(0, (1 << n) - 1, [])
    return (n, *best[1:])


def graph_from_key(key: tuple[int, ...]) -> SimpleGraph:
    n = key[0]
    adj = [0] * n
    for d in range(1, n):
        col = key[d]
        for i in range(d):
            if (col >> (d - 1 - i)) & 1:
                adj[d] |= 1 << i
                adj[i] |= 1 << d
    return SimpleGraph(n, adj)


# ---------------------------------------------------------------------------
# induced-subgraph search
#
# Each pattern is compiled once into a static search plan, after Ullmann
# (J. ACM 1976): a fixed vertex order and, per depth, the earlier depths that
# must be adjacent or non-adjacent and a degree bound, so a search node is a
# few mask operations.  Lex-leader constraints from the stabiliser chain of
# Aut(pattern), after Grochow & Kellis (RECOMB 2007), make the search visit
# each set of equivalent embeddings once instead of |Aut(pattern)| times.


class SearchPlan(NamedTuple):
    """A pattern compiled for induced-subgraph search.

    Depth d places pattern vertex `order[d]`.  Its host image must have
    degree at least `degree[d]` and meet `steps[d] = (near, far, above)`:
    be adjacent to the images placed at the depths in `near`, be
    non-adjacent to those in `far`, and exceed the image placed at depth
    `above` (-1: no bound).  `orbit_sizes[d]` is the size of the orbit of
    `order[d]` under the automorphisms that fix `order[:d]`; their product
    is |Aut(pattern)|.
    """

    order: tuple[int, ...]
    degree: tuple[int, ...]
    steps: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]
    orbit_sizes: tuple[int, ...]


def _non_neighbours(adj: Sequence[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full ^ mask ^ (1 << v) for v, mask in enumerate(adj)]


def _search(
    adj: Sequence[int],
    non: Sequence[int],
    steps: Sequence[tuple[tuple[int, ...], tuple[int, ...], int]],
    allowed: Sequence[int],
) -> list[int] | None:
    """Depth-first search over the plan rows `steps`; host images by depth.

    Each depth's candidates start from `allowed[d]` and are narrowed by
    masks alone.  `non[v]` excludes v itself, and every earlier depth is
    either adjacent or non-adjacent, so used vertices drop out with no
    extra mask.  Candidates are tried in ascending order, so the result is
    the lexicographically least solution.
    """
    k = len(steps)
    image = [0] * k
    if not k:
        return image
    cands = [0] * k
    cands[0] = allowed[0]
    d = 0
    while d >= 0:
        c = cands[d]
        if not c:
            d -= 1
            continue
        low = c & -c
        cands[d] = c ^ low
        image[d] = low.bit_length() - 1
        d += 1
        if d == k:
            return image
        near, far, above = steps[d]
        c = allowed[d]
        for j in near:
            c &= adj[image[j]]
        for j in far:
            c &= non[image[j]]
        if above >= 0:
            shift = image[above] + 1
            c = c >> shift << shift
        cands[d] = c
    return None


def search_plan(pattern: SimpleGraph) -> SearchPlan:
    """Compile a pattern: vertex order, per-depth masks and symmetry breaking.

    The order is descending degree, ties by index.  Symmetry breaking
    follows the stabiliser chain of Aut(pattern) along that order: if the
    vertex at a later depth e lies in the orbit of the vertex at depth d
    under the automorphisms fixing the first d vertices, the image at e must
    exceed the image at d.  An embedding meets every such constraint
    exactly when it is the lexicographically least of its Aut(pattern)
    orbit.  The constraints are transitive, so each depth keeps only the
    deepest one.  Orbits come from one constrained self-embedding search
    per (depth, vertex) pair; Aut(pattern) itself is never listed.
    """
    n, adj = pattern.n, pattern.adj
    order = tuple(sorted(range(n), key=lambda v: (-pattern.degree(v), v)))
    degree = tuple(pattern.degree(v) for v in order)
    plain = [
        (
            tuple(j for j in range(d) if (adj[order[d]] >> order[j]) & 1),
            tuple(j for j in range(d) if not (adj[order[d]] >> order[j]) & 1),
            -1,
        )
        for d in range(n)
    ]
    # An induced self-embedding is an automorphism, and automorphisms
    # preserve degree, so depth d may only take vertices of degree[d].
    same_degree = [
        sum(1 << v for v in range(n) if pattern.degree(v) == want) for want in degree
    ]
    non = _non_neighbours(adj)
    fixed = [1 << v for v in order]
    above = [-1] * n
    orbit_sizes = []
    for d in range(n):
        size = 1
        for e in range(d + 1, n):
            if degree[e] != degree[d]:
                continue
            allowed = fixed[:d] + [fixed[e]] + same_degree[d + 1 :]
            if _search(adj, non, plain, allowed) is not None:
                above[e] = d
                size += 1
        orbit_sizes.append(size)
    steps = tuple((near, far, bound) for (near, far, _), bound in zip(plain, above))
    return SearchPlan(order, degree, steps, tuple(orbit_sizes))


def _first_induced(
    adj: Sequence[int], plans: Sequence[SearchPlan]
) -> tuple[int, tuple[int, ...]] | None:
    """`find_first_induced` in the graph with neighbour masks adj."""
    # Lists, not tuples: held in tuples, the masks or the degrees made the
    # resident memory of a 30 s recognize-lines run creep up by 0.3-2 MiB.
    degrees = [mask.bit_count() for mask in adj]
    at_least = [0] * (max(degrees, default=0) + 2)
    for v, d in enumerate(degrees):
        at_least[d] |= 1 << v
    for d in range(len(at_least) - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    top = len(at_least) - 1
    non = _non_neighbours(adj)
    for index, plan in enumerate(plans):
        if len(plan.order) > len(adj):
            continue
        allowed = [at_least[min(want, top)] for want in plan.degree]
        image = _search(adj, non, plan.steps, allowed)
        if image is not None:
            return index, tuple(v for _, v in sorted(zip(plan.order, image)))
    return None


def find_first_induced(
    host: SimpleGraph, plans: Sequence[SearchPlan]
) -> tuple[int, tuple[int, ...]] | None:
    """The index of the first plan whose pattern is an induced subgraph of
    host, with its lexicographically least embedding; None if there is none.

    The host's non-neighbour masks and `at_least[d]`, the mask of its
    vertices of degree >= d, are built once and shared by every plan.  Plans
    with more vertices than the host are skipped.  The embedding maps
    pattern vertex p to host vertex `embedding[p]`.
    """
    return _first_induced(host.adj, plans)


def check_induced_embedding(
    host: SimpleGraph, pattern: SimpleGraph, mapping: Sequence[int]
) -> bool:
    """Re-verify that mapping is a valid induced embedding of pattern in host."""
    if len(mapping) != pattern.n or len(set(mapping)) != pattern.n:
        return False
    if any(not 0 <= v < host.n for v in mapping):
        return False
    for i in range(pattern.n):
        for j in range(i + 1, pattern.n):
            if pattern.has_edge(i, j) != host.has_edge(mapping[i], mapping[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# graph text format: `n <count>` then `e <i> <j>` lines


def format_graph_text(g: SimpleGraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
