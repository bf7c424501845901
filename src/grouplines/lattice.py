"""The cyclic subgroup graph: covering relation of the cyclic-subgroup poset.

Vertices are the cyclic subgroups of a group; two are joined exactly when one
contains the other with no further cyclic subgroup strictly between.  For a
cyclic group of order n this is the divisor lattice of n, which doubles as an
independent oracle.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import SimpleGraph, _Frozen, connected_components
from .groups import FiniteGroup, factorize


class VertexLabel(NamedTuple):
    order: int
    members: tuple[int, ...]
    name: str


class LabeledGraph(_Frozen):
    """A SimpleGraph whose vertices carry subgroup labels."""

    __slots__ = _fields = ("graph", "labels")
    graph: SimpleGraph
    labels: tuple[VertexLabel, ...]

    def __init__(self, graph: SimpleGraph, labels: tuple[VertexLabel, ...]) -> None:
        if len(labels) != graph.n:
            raise ValueError("label count must equal vertex count")
        if len({lab.members for lab in labels}) != graph.n:
            raise ValueError("vertex member sets must be distinct")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labels", labels)


def build_gamma(group: FiniteGroup) -> LabeledGraph:
    """The cyclic subgroup graph of `group`.

    Vertices are sorted by (subgroup order, member tuple) so output is
    deterministic.  Every subgroup of a cyclic group D is cyclic, one for
    each divisor of |D|, so D covers a cyclic subgroup C exactly when |D|/|C|
    is prime and the generator of C lies in D.  Each |D| divides |G|, so
    its primes are read off the one factorization of |G|.
    """
    subs = group.cyclic_subgroups()
    by_order: dict[int, list[int]] = {}
    for i, s in enumerate(subs):
        by_order.setdefault(s.order, []).append(i)
    primes = [p for p, _ in factorize(group.order).factors]
    edges = []
    for j, large in enumerate(subs):
        members = set(large.members)
        for p in primes:
            if large.order % p:
                continue
            for i in by_order[large.order // p]:
                if subs[i].generator in members:
                    edges.append((i, j))
    labels = []
    for s in subs:
        if s.order == 1:
            name = "{e}"
        else:
            name = f"<{group.labels[s.generator]}> (order {s.order})"
        labels.append(VertexLabel(s.order, s.members, name))
    return LabeledGraph(SimpleGraph.from_edges(len(subs), edges), tuple(labels))


def divisor_hasse(n: int) -> SimpleGraph:
    """Covering graph of the divisors of n: d1 -- d2 iff d2/d1 is prime.

    Plain arithmetic, independent of any group machinery; for cyclic groups
    of order n this must be isomorphic to the cyclic subgroup graph.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    divisors = [d for d in range(1, n + 1) if n % d == 0]

    def prime(m: int) -> bool:
        return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))

    edges = []
    for i, d1 in enumerate(divisors):
        for j in range(i + 1, len(divisors)):
            d2 = divisors[j]
            if d2 % d1 == 0 and prime(d2 // d1):
                edges.append((i, j))
    return SimpleGraph.from_edges(len(divisors), edges)


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
# serialization


def to_edge_list(lg: LabeledGraph) -> str:
    """`vertices <k>`, then `v <index> <order> <name>` lines, then `e <i> <j>`."""
    lines = [f"vertices {lg.graph.n}"]
    for i, lab in enumerate(lg.labels):
        lines.append(f"v {i} {lab.order} {lab.name}")
    for u, v in lg.graph.edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def to_dot(lg: LabeledGraph) -> str:
    lines = ["graph gamma {"]
    for i, lab in enumerate(lg.labels):
        escaped = lab.name.replace('"', '\\"')
        lines.append(f'  {i} [label="{escaped}"];')
    for u, v in lg.graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
