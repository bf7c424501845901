"""The cyclic subgroup graph: covering relation of the cyclic-subgroup poset.

Vertices are the cyclic subgroups of a group; two are joined exactly when one
contains the other with no further cyclic subgroup strictly between.  For a
cyclic group of order n this is the divisor lattice of n, which doubles as an
independent oracle.  A covering graph has no triangle, so whether it is a line
graph is read off its vertex degrees (`decide_gamma`).

`build_gamma` reads every cover off the subgroups' members.  The subgroups
of a cyclic subgroup D are exactly the <x> for x in D, and D covers <x>
exactly when |D|/|<x>| is prime, one of the primes of |G|.  With the
vertices sorted by order, <x> is `owner[x]`, the first vertex containing x:
every cyclic subgroup containing x contains <x>, so it is <x> itself or has
a larger order and comes later.  One pass over the member tuples sets each
owner and finds each cover, with no products beyond the subgroup walk; a
cover is taken at the least generator of <x> only, so each is found once.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import SimpleGraph, _Frozen
from .groups import FiniteGroup, factorize
from .linegraph import Verdict


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
    deterministic; the edges come from the owner rule above.
    """
    subs = group.cyclic_subgroups()
    primes = {p for p, _ in factorize(group.order)}
    owner = [-1] * group.order
    edges = []
    for j, large in enumerate(subs):
        for x in large.members:
            i = owner[x]
            if i < 0:
                owner[x] = j
            elif x == subs[i].generator and large.order // subs[i].order in primes:
                edges.append((i, j))
    labels = []
    for s in subs:
        if s.order == 1:
            name = "{e}"
        else:
            name = f"<{group.labels[s.generator]}> (order {s.order})"
        labels.append(VertexLabel(s.order, s.members, name))
    return LabeledGraph(SimpleGraph.from_edges(len(subs), edges), tuple(labels))


def decide_gamma(lg: LabeledGraph) -> Verdict:
    """The Beineke scan's verdict and witness on Γ, read off its degrees.

    Γ has no triangle: three pairwise covers would form a chain a < b < c in
    which a covers c.  A triangle-free graph is a line graph exactly when no
    vertex has degree 3 or more (Harary, Graph Theory, 1969, ch. 8), and such
    a vertex with any three neighbours is an induced claw.  The scan finds the
    first one and its three smallest neighbours, ordered as `linegraph.CLAW`.
    """
    for center, mask in enumerate(lg.graph.adj):
        if mask.bit_count() >= 3:
            leaves = lg.graph.neighbors(center)[:3]
            return Verdict(False, pattern_id="Gamma1", embedding=(*leaves, center))
    return Verdict(True)


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
