"""Checkers for the evidence a recognizer attaches to its verdicts."""


def edge_map_certifies(g, verdict):
    """The root evidence is self-contained: shared endpoints mirror adjacency."""
    em = verdict.edge_map
    if len(set(em)) != g.n:
        return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if bool(set(em[u]) & set(em[v])) != g.has_edge(u, v):
                return False
    return all(verdict.root.has_edge(a, b) for a, b in em)
