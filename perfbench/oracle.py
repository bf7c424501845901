"""Independent correctness oracle for the benchmark.

Nothing here imports grouplines.  Expected verdicts come from the paper's
theorem (Γ is a line graph exactly for cyclic groups of prime-power or pq
order) applied to each input's known construction; certificates and
witnesses are checked against this module's own group arithmetic, its own
line-graph construction and Beineke's nine graphs as published.

Graphs here are (n, adj) with adj[v] a neighbour bitmask.
"""

from __future__ import annotations

import itertools
import math
import re

# ---------------------------------------------------------------------------
# small graphs


def adj_from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def induced(adj: list[int], vertices) -> list[int]:
    pos = {v: i for i, v in enumerate(vertices)}
    out = [0] * len(vertices)
    for i, v in enumerate(vertices):
        for u, j in pos.items():
            if (adj[v] >> u) & 1:
                out[i] |= 1 << j
    return out


def isomorphic(a: list[int], b: list[int]) -> bool:
    """Exact isomorphism test by backtracking with degree pruning."""
    n = len(a)
    if n != len(b):
        return False
    da = [x.bit_count() for x in a]
    db = [x.bit_count() for x in b]
    if sorted(da) != sorted(db):
        return False
    order = sorted(range(n), key=lambda v: -da[v])
    image = [-1] * n

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if (used >> w) & 1 or db[w] != da[v]:
                continue
            if all(
                ((a[v] >> order[j]) & 1) == ((b[w] >> image[order[j]]) & 1)
                for j in range(i)
            ):
                image[v] = w
                if extend(i + 1, used | (1 << w)):
                    return True
        return False

    return extend(0, 0)


def line_graph_adj(edges) -> list[int]:
    """Vertex i is edges[i]; two vertices are adjacent when their edges meet."""
    k = len(edges)
    adj = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if set(edges[i]) & set(edges[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


# Beineke (1970): the nine minimal graphs that are not line graphs.  Each
# entry is (description, vertex count, edges).
BEINEKE = (
    ("claw K1,3", 4, ((0, 1), (0, 2), (0, 3))),
    (
        "K2,3 plus one edge inside the part of size three",
        5,
        ((0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (1, 2)),
    ),
    (
        "K5 minus an edge",
        5,
        ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
    ),
    (
        "diamond with a pendant vertex at each of its two degree-2 vertices",
        6,
        ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (3, 5)),
    ),
    (
        "K4 plus a vertex joined to two of its vertices, with a pendant there",
        6,
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)),
    ),
    (
        "square of the path P6",
        6,
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5)),
    ),
    (
        "diamond whose two degree-2 vertices are joined by a path of length 3",
        6,
        ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5), (5, 3)),
    ),
    (
        "K2 joined to every vertex of 2K2 (complement of C4 plus 2K1)",
        6,
        (
            (0, 1),
            (0, 2), (0, 3), (0, 4), (0, 5),
            (1, 2), (1, 3), (1, 4), (1, 5),
            (2, 3), (4, 5),
        ),
    ),
    (
        "wheel W5: a hub joined to every vertex of C5",
        6,
        ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)),
    ),
)

BEINEKE_ADJ = tuple(adj_from_edges(n, edges) for _, n, edges in BEINEKE)


def is_beineke_witness(adj: list[int], embedding) -> bool:
    """The embedding's vertices are distinct and induce one of the nine graphs."""
    vs = list(embedding)
    if len(set(vs)) != len(vs) or any(not 0 <= v < len(adj) for v in vs):
        return False
    sub = induced(adj, vs)
    return any(isomorphic(sub, pattern) for pattern in BEINEKE_ADJ)


def is_root_certificate(adj: list[int], root_edges, edge_map) -> bool:
    """Linear checker: vertex v of the graph is root edge edge_map[v]; the map
    is a bijection onto the root's edges, and two vertices are adjacent
    exactly when their edges share an endpoint."""
    n = len(adj)
    edges = {tuple(sorted(e)) for e in root_edges}
    mapped = [tuple(sorted(e)) for e in edge_map]
    if len(mapped) != n or len(set(mapped)) != n or set(mapped) != edges:
        return False
    if any(a == b for a, b in mapped):
        return False
    # Group graph vertices by root endpoint: each group must be a clique, and
    # since two distinct simple edges share at most one endpoint, the
    # adjacency count must equal the sum of the group pair counts.
    at: dict[int, list[int]] = {}
    for v, (a, b) in enumerate(mapped):
        at.setdefault(a, []).append(v)
        at.setdefault(b, []).append(v)
    pairs = 0
    for group in at.values():
        for i, u in enumerate(group):
            for w in group[i + 1 :]:
                if not (adj[u] >> w) & 1:
                    return False
        pairs += len(group) * (len(group) - 1) // 2
    return pairs == sum(x.bit_count() for x in adj) // 2


# ---------------------------------------------------------------------------
# number theory and the theorem


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def theorem_says_line_graph(order: int, cyclic: bool) -> bool:
    """The classification: cyclic of order 1, p^k or pq."""
    f = factorize(order)
    return cyclic and (len(f) <= 1 or (len(f) == 2 and f[0][1] == f[1][1] == 1))


def divisor_hasse_adj(n: int) -> list[int]:
    """Γ of the cyclic group of order n: divisors, joined when the quotient is prime."""
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return adj_from_edges(
        len(divs),
        [
            (i, j)
            for i, a in enumerate(divs)
            for j, b in enumerate(divs)
            if i < j and b % a == 0 and is_prime(b // a)
        ],
    )


# ---------------------------------------------------------------------------
# group arithmetic for the spec families Z, D, Dic, S, A and their products

_ATOM = re.compile(r"(Dic|Z|D|S|A)(\d+)")


def _atoms(spec: str) -> list[tuple[str, int]]:
    atoms = []
    for token in spec.split("x"):
        m = _ATOM.fullmatch(token)
        if not m:
            raise ValueError(f"not a built-in spec: {spec!r}")
        atoms.append((m.group(1), int(m.group(2))))
    return atoms


def _atom_order(kind: str, n: int) -> int:
    if kind == "Z":
        return n
    if kind == "D":
        return 2 * n
    if kind == "Dic":
        return 4 * n
    if kind == "S":
        return math.factorial(n)
    return math.factorial(n) // 2


def _atom_cyclic(kind: str, n: int) -> bool:
    if kind == "Z":
        return True
    if kind == "D":
        return n == 1
    if kind == "Dic":
        return False
    if kind == "S":
        return n <= 2
    return n <= 3


def spec_facts(spec: str) -> tuple[int, bool]:
    """(order, is cyclic) of a built-in spec, from the grammar alone.

    A direct product is cyclic exactly when every factor is cyclic and the
    factor orders are pairwise coprime.
    """
    atoms = _atoms(spec)
    orders = [_atom_order(k, n) for k, n in atoms]
    cyclic = all(_atom_cyclic(k, n) for k, n in atoms) and all(
        math.gcd(a, b) == 1 for a, b in itertools.combinations(orders, 2)
    )
    return math.prod(orders), cyclic


def _split_pair(label: str) -> tuple[str, str]:
    if not (label.startswith("(") and label.endswith(")")):
        raise ValueError(f"bad product label {label!r}")
    body = label[1:-1]
    depth = 0
    cut = -1
    for i, ch in enumerate(body):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "," and depth == 0:
            cut = i
    if cut < 0:
        raise ValueError(f"bad product label {label!r}")
    return body[:cut], body[cut + 1 :]


_ROT = re.compile(r"(?:(r|a)(\d*))?(s|b)?")


def _atom_element(kind: str, n: int, label: str):
    if kind == "Z":
        return int(label) % n
    if kind in ("S", "A"):
        perm = list(range(n))
        if label != "e":
            for cyc in re.findall(r"\(([^()]*)\)", label):
                pts = [int(x) for x in cyc.split()]
                for i, p in enumerate(pts):
                    perm[p] = pts[(i + 1) % len(pts)]
        return tuple(perm)
    if label == "e":
        return (0, 0)
    m = _ROT.fullmatch(label)
    if not m or not label:
        raise ValueError(f"bad {kind}{n} label {label!r}")
    rot = 0 if m.group(1) is None else int(m.group(2) or 1)
    return (rot, 1 if m.group(3) else 0)


def _atom_mul(kind: str, n: int, x, y):
    if kind == "Z":
        return (x + y) % n
    if kind in ("S", "A"):
        return tuple(x[y[i]] for i in range(n))
    (i, j), (k, l) = x, y
    if kind == "D":  # r^i s^j: s r = r^-1 s
        return ((i + (k if j == 0 else -k)) % n, (j + l) % 2)
    m = 2 * n  # Dic: a^i b^j with b a = a^-1 b and b^2 = a^n
    if j == 0:
        return ((i + k) % m, l)
    if l == 0:
        return ((i - k) % m, 1)
    return ((i - k + n) % m, 0)


def _atom_identity(kind: str, n: int):
    if kind == "Z":
        return 0
    if kind in ("S", "A"):
        return tuple(range(n))
    return (0, 0)


def cyclic_subgroup(spec: str, label: str) -> frozenset:
    """Members of the subgroup generated by the element a label names.

    Product labels nest to the left, as `((a,b),c)` for `AxBxC`.
    """
    atoms = _atoms(spec)
    parts = []
    rest = label
    for kind, n in reversed(atoms[1:]):
        rest, last = _split_pair(rest)
        parts.append(_atom_element(kind, n, last))
    parts.append(_atom_element(*atoms[0], rest))
    x = tuple(reversed(parts))
    ident = tuple(_atom_identity(k, n) for k, n in atoms)
    members = {ident}
    y = x
    while y != ident:
        members.add(y)
        y = tuple(_atom_mul(k, n, a, b) for (k, n), a, b in zip(atoms, y, x))
    return frozenset(members)


# ---------------------------------------------------------------------------
# checking `grouplines check` output

_WITNESS = re.compile(r"NOT A LINE GRAPH: (Gamma\d) at vertices \[(.*)\]")
_VERTEX = re.compile(r"\{e\}|<([^<>]*)> \(order (\d+)\)")
_ROOT = re.compile(r"LINE GRAPH \(root graph: (\d+) vertices, edges((?: \d+-\d+)*)\)")


def check_check_output(spec: str, text: str) -> str | None:
    """None when the printed verdict and its evidence are right, else why not."""
    order, cyclic = spec_facts(spec)
    expect = theorem_says_line_graph(order, cyclic)
    line = text.rstrip("\n")
    if "\n" in line:
        return "more than one output line"
    if line.startswith("NOT A LINE GRAPH"):
        if expect:
            return "negative verdict on a line graph"
        m = _WITNESS.fullmatch(line)
        if not m:
            return "unparsable witness"
        subs = []
        for vm in _VERTEX.finditer(m.group(2)):
            label = _identity_label(spec) if vm.group(0) == "{e}" else vm.group(1)
            try:
                sub = cyclic_subgroup(spec, label)
            except (ValueError, IndexError):
                return f"witness names an element {label!r} that {spec} does not have"
            if vm.group(2) is not None and len(sub) != int(vm.group(2)):
                return f"subgroup <{label}> does not have the printed order"
            subs.append(sub)
        if len(set(subs)) != len(subs):
            return "witness repeats a vertex"
        # D covers C in Γ exactly when C < D with prime index: D is cyclic,
        # so every subgroup between them is cyclic too.
        adj = [0] * len(subs)
        for i, c in enumerate(subs):
            for j, d in enumerate(subs):
                if c < d and is_prime(len(d) // len(c)):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        if not any(isomorphic(adj, p) for p in BEINEKE_ADJ):
            return "witness does not induce a Beineke graph"
        return None
    if not expect:
        return "positive verdict on a non-line graph"
    m = _ROOT.fullmatch(line)
    if not m:
        return "positive verdict without a root certificate"
    root_n = int(m.group(1))
    edges = [tuple(int(x) for x in e.split("-")) for e in m.group(2).split()]
    if any(not (0 <= a < root_n and 0 <= b < root_n and a != b) for a, b in edges):
        return "root edge out of range"
    if len({tuple(sorted(e)) for e in edges}) != len(edges):
        return "root has a repeated edge"
    if not isomorphic(line_graph_adj(edges), divisor_hasse_adj(order)):
        return "line graph of the root is not Γ"
    return None


def _identity_label(spec: str) -> str:
    label = ""
    for i, (kind, n) in enumerate(_atoms(spec)):
        atom = "0" if kind == "Z" else "e"
        label = atom if i == 0 else f"({label},{atom})"
    return label


# ---------------------------------------------------------------------------
# checking `grouplines verify` output


def check_verify_output(text: str, expected: dict[str, tuple[int, bool]]) -> str | None:
    """`expected` maps each catalog source to (order, is cyclic)."""
    lines = text.splitlines()
    n = len(expected)
    try:
        main_end = lines.index(f"THEOREM HOLDS over {n} groups")
    except ValueError:
        return "missing or failing THEOREM summary"
    rows = lines[:main_end]
    if len(rows) != n:
        return "wrong number of theorem rows"
    seen = set()
    for row in rows:
        cols = row.split("\t")
        if len(cols) != 7 or cols[0] not in expected or cols[0] in seen:
            return f"bad theorem row {row!r}"
        seen.add(cols[0])
        order, cyclic = expected[cols[0]]
        want = "true" if theorem_says_line_graph(order, cyclic) else "false"
        if cols[1] != str(order) or cols[3] != ("true" if cyclic else "false"):
            return f"wrong order or cyclicity in {row!r}"
        if cols[4] != want or cols[5] != want:
            return f"wrong verdict in {row!r}"
        if want == "true":
            if cols[6] != "-":
                return f"witness on a line graph in {row!r}"
        else:
            w = re.fullmatch(r"Gamma[1-9] orders=(\d+(?:,\d+)*)", cols[6])
            if not w or not 4 <= len(w.group(1).split(",")) <= 6:
                return f"bad witness in {row!r}"
            orders = [int(o) for o in w.group(1).split(",")]
            if any(order % o for o in orders):
                return f"witness order does not divide {order} in {row!r}"
            if cyclic and not _is_cyclic_witness(order, orders):
                return f"witness does not induce a Beineke graph in {row!r}"
    rest = lines[main_end + 1 :]
    try:
        case_end = next(i for i, ln in enumerate(rest) if ln.startswith("CASES "))
    except StopIteration:
        return "missing CASES summary"
    if not re.fullmatch(rf"CASES HOLD over {case_end} checks", rest[case_end]):
        return "case checks fail or are miscounted"
    if any(not ln.endswith("\ttrue") for ln in rest[:case_end]):
        return "a case check failed"
    tail = rest[case_end + 1 :]
    if tail != [f"COMPLETENESS HOLDS over {n} groups"]:
        return "missing or failing COMPLETENESS summary"
    return None


def _is_cyclic_witness(n: int, orders: list[int]) -> bool:
    """In a cyclic group of order n each divisor is the order of exactly one
    subgroup, so the witness orders name its vertices in the divisor lattice."""
    if len(set(orders)) != len(orders):
        return False
    divs = [d for d in range(1, n + 1) if n % d == 0]
    sub = induced(divisor_hasse_adj(n), [divs.index(o) for o in orders])
    return any(isomorphic(sub, pattern) for pattern in BEINEKE_ADJ)


# ---------------------------------------------------------------------------
# Cayley tables built with this module's arithmetic


def cayley_rows(elements: list, mul) -> list[list[int]]:
    """Table of `mul` over `elements`, whose first entry must be the identity."""
    index = {x: i for i, x in enumerate(elements)}
    return [[index[mul(x, y)] for y in elements] for x in elements]


def atoms_group(spec: str) -> tuple[list, object]:
    """Elements (identity first) and product of a built-in spec."""
    atoms = _atoms(spec)
    factors = []
    for kind, n in atoms:
        if kind == "Z":
            factors.append(list(range(n)))
        elif kind in ("D", "Dic"):
            m = n if kind == "D" else 2 * n
            factors.append([(i, j) for j in range(2) for i in range(m)])
        else:
            raise ValueError(f"no table builder for {kind}")
    elements = list(itertools.product(*factors))

    def mul(x, y):
        return tuple(_atom_mul(k, n, a, b) for (k, n), a, b in zip(atoms, x, y))

    return elements, mul


def semidirect_group(p: int, q: int) -> tuple[list, object]:
    """The non-abelian group Z_p ⋊ Z_q of order pq, for q dividing p - 1."""
    r = next(x for x in range(2, p) if pow(x, q, p) == 1)
    elements = [(a, b) for b in range(q) for a in range(p)]

    def mul(x, y):
        return ((x[0] + pow(r, x[1], p) * y[0]) % p, (x[1] + y[1]) % q)

    return elements, mul
