"""Finite groups as validated Cayley tables.

Element 0 is always the identity.  Construction checks that the table is a
group, so a `FiniteGroup` that exists is a group.  A valid table costs one
set test per row plus Light's test, in this order:

1. every row is a permutation of 0..n-1;
2. row 0 and column 0 are the identity;
3. associativity, by Light's test (Clifford & Preston, The Algebraic Theory
   of Semigroups I, 1961, section 1.2): `(x*a)*y = x*(a*y)` is checked only
   for `a` in a generating set of at most log2(n) elements, so validating an
   order-n table costs O(n^2 log n) rather than O(n^3).

The columns get no pass of their own: a finite monoid whose rows are
permutations has a right inverse for every element, so it is a group and its
columns are permutations too.  They are checked only once a table has
failed, so that a repeated column entry is still reported ahead of an
identity or associativity fault.  The rows must come before Light's test:
its log2(n) bound needs them, and the monoid with identity 0 and every other
product 1 would otherwise need n - 1 generators and cubic time.  All values
are immutable and the operations are pure, so instances can be shared
freely across threads.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum


class GroupTableError(ValueError):
    """A Cayley table failed parsing or validation; the message names the offending entries."""


def _validate_table(table: tuple[tuple[int, ...], ...]) -> None:
    n = len(table)
    if n == 0:
        raise GroupTableError("a group needs at least the identity element")
    # Rows first: one set test per row covers its length, its range and the
    # Latin property.  Only a failing table pays for the diagnostic loops,
    # which name the first fault in the order length/range, then Latin rows.
    values = set(range(n))
    for row in table:
        if len(row) != n or set(row) != values:
            _check_rows(table)
            break
    identity = tuple(range(n))
    if table[0] != identity or tuple(row[0] for row in table) != identity:
        _check_columns(table)
        for j in range(n):
            if table[0][j] != j:
                raise GroupTableError(f"element 0 is not the identity: 0*{j} = {table[0][j]}")
            if table[j][0] != j:
                raise GroupTableError(f"element 0 is not the identity: {j}*0 = {table[j][0]}")
    # Light's test: the middle factors a with (x*a)*y = x*(a*y) for all x, y
    # are closed under products, so checking a over a set that generates the
    # table suffices.  While every generator so far passes, the elements they
    # reach form a subloop that at least doubles with each new generator, so
    # at most floor(log2 n) generators are checked: n*log2(n) row compositions.
    # That bound needs the rows to be permutations, which is why the row
    # check comes first: the table with identity 0 and every other product 1
    # is a monoid that needs n - 1 generators, which would make this cubic.
    # The trivial table has no generators, so itemgetter always gets two or
    # more indices and returns a tuple.
    for a in _generators(table):
        compose = operator.itemgetter(*table[a])
        for x, row in enumerate(table):
            lhs = table[row[a]]
            rhs = compose(row)
            if lhs != rhs:
                _check_columns(table)
                y = next(y for y in range(n) if lhs[y] != rhs[y])
                raise GroupTableError(
                    f"associativity fails at ({x},{a},{y}):"
                    f" ({x}*{a})*{y} = {lhs[y]} but {x}*({a}*{y}) = {rhs[y]}"
                )
    # The columns need no pass of their own: the table is now a finite
    # monoid whose rows are permutations, so every element has a right
    # inverse, the monoid is a group and its columns are permutations too.
    # A column fault only decides the message, so it is looked for above,
    # before an identity or associativity fault is reported.


def _check_rows(table: tuple[tuple[int, ...], ...]) -> None:
    """Raise for the first row fault: a bad length or an entry outside
    [0,n) in any row, then a row that is not a permutation."""
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise GroupTableError(f"row {i} has {len(row)} entries, expected {n}")
        if min(row) < 0 or max(row) >= n:
            j, x = next((j, x) for j, x in enumerate(row) if not 0 <= x < n)
            raise GroupTableError(f"entry ({i},{j}) = {x} is outside [0,{n})")
    for i, row in enumerate(table):
        if len(set(row)) != n:
            raise GroupTableError(f"row {i} is not a permutation (Latin square violated)")


def _check_columns(table: tuple[tuple[int, ...], ...]) -> None:
    """Raise if a column of a table with Latin rows repeats an entry."""
    n = len(table)
    for j, column in enumerate(zip(*table)):
        if len(set(column)) != n:
            raise GroupTableError(f"column {j} is not a permutation (Latin square violated)")


def _generators(table: tuple[tuple[int, ...], ...]) -> Iterator[int]:
    """Yield generators until closing {0} under right multiplication by them
    reaches every element of the table.

    Each generator is the smallest element not yet reached.  Associativity
    is not assumed: every element reached is 0 or a left-normed product
    ((g1*g2)*...)*gk of generators.  Each element reached is multiplied by
    each generator once: O(n * generators) lookups.
    """
    n = len(table)
    reached = bytearray(n)
    reached[0] = 1
    members = [0]
    gens: list[int] = []
    while len(members) < n:
        g = reached.index(0)
        yield g
        gens.append(g)
        fresh = []
        for x in members:
            y = table[x][g]
            if not reached[y]:
                reached[y] = 1
                fresh.append(y)
        members.extend(fresh)
        while fresh:
            row = table[fresh.pop()]
            for h in gens:
                y = row[h]
                if not reached[y]:
                    reached[y] = 1
                    fresh.append(y)
                    members.append(y)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted member indices.

    `generator` is set when the subgroup was produced as the cyclic closure
    of a single element.
    """

    members: tuple[int, ...]
    generator: int | None = None

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError("members must be sorted and duplicate-free")
        if not self.members or self.members[0] != 0:
            raise ValueError("a subgroup must contain the identity (element 0)")

    @property
    def order(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group: n x n Cayley table over element indices, with labels."""

    name: str
    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        # List rows are stored as tuples; tuple() returns a tuple row as is.
        object.__setattr__(self, "table", tuple(map(tuple, self.table)))
        _validate_table(self.table)
        if len(self.labels) != len(self.table):
            raise GroupTableError(
                f"got {len(self.labels)} labels for {len(self.table)} elements"
            )

    def validate(self) -> None:
        """Re-run the construction-time invariant checks."""
        _validate_table(self.table)

    @property
    def order(self) -> int:
        return len(self.table)

    def inv(self, a: int) -> int:
        return self.table[a].index(0)

    def element_order(self, g: int) -> int:
        x = g
        k = 1
        while x != 0:
            x = self.table[x][g]
            k += 1
        return k

    def order_histogram(self) -> dict[int, int]:
        """Multiset of element orders; an isomorphism invariant."""
        hist: dict[int, int] = {}
        for g in range(self.order):
            k = self.element_order(g)
            hist[k] = hist.get(k, 0) + 1
        return dict(sorted(hist.items()))

    def cyclic_subgroup(self, g: int) -> Subgroup:
        members = [0]
        x = g
        while x != 0:
            members.append(x)
            x = self.table[x][g]
        return Subgroup(tuple(sorted(members)), generator=g)

    def cyclic_subgroups(self) -> tuple[Subgroup, ...]:
        """All distinct cyclic subgroups, sorted by (order, members).

        Deduplicated by member set; the stored generator is the smallest
        element generating that member set.  Elements are taken in ascending
        order and each subgroup's powers are walked once: <g> is generated
        exactly by the g^k with gcd(k, |g|) = 1, so those are marked and
        skipped.  An unmarked g generates no subgroup found before, so it is
        the smallest generator of <g>.  The cost is the sum of the subgroup
        orders, not of the element orders.
        """
        table = self.table
        covered = bytearray(self.order)
        subs = []
        for g in range(self.order):
            if covered[g]:
                continue
            powers = [0]
            x = g
            while x != 0:
                powers.append(x)
                x = table[x][g]
            m = len(powers)
            for k in range(1, m):
                if math.gcd(k, m) == 1:
                    covered[powers[k]] = 1
            subs.append(Subgroup(tuple(sorted(powers)), generator=g))
        subs.sort(key=lambda s: (s.order, s.members))
        return tuple(subs)

    def is_abelian(self) -> bool:
        """The table equals its transpose."""
        return self.table == tuple(zip(*self.table))

    def is_cyclic(self) -> bool:
        return any(self.element_order(g) == self.order for g in range(self.order))

    def check_subgroup(self, sub: Subgroup) -> bool:
        """Closure of the member set under products and inverses."""
        members = set(sub.members)
        if 0 not in members:
            return False
        for a in members:
            if self.inv(a) not in members:
                return False
            for b in members:
                if self.table[a][b] not in members:
                    return False
        return True


# ---------------------------------------------------------------------------
# constructors


def make_cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order n, written additively."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    base = tuple(range(n))
    table = tuple(_turn(base, i) for i in range(n))
    return FiniteGroup(f"Z{n}", table, tuple(str(i) for i in range(n)))


def direct_product(first: FiniteGroup, *rest: FiniteGroup) -> FiniteGroup:
    """Componentwise product of one or more groups, taken left-associatively:
    the pair (a, b) of a product with h is encoded as a*|h| + b.

    The intermediate products are plain tables; only the final table is
    validated.  A single factor is returned as it is.
    """
    if not rest:
        return first
    table, labels = first.table, first.labels
    for h in rest:
        m = h.order
        table = tuple(
            tuple(x * m + y for x in grow for y in hrow)
            for grow in table
            for hrow in h.table
        )
        labels = tuple(f"({a},{b})" for a in labels for b in h.labels)
    return FiniteGroup("x".join(g.name for g in (first, *rest)), table, labels)


def _turn(seq: tuple[int, ...], i: int) -> tuple[int, ...]:
    """seq[(i + k) % len(seq)] for each k."""
    return seq[i:] + seq[:i]


def _flip(seq: tuple[int, ...], i: int) -> tuple[int, ...]:
    """seq[(i - k) % len(seq)] for each k."""
    return seq[i::-1] + seq[:i:-1]


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^i and reflections r^i s."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    rot, ref = tuple(range(n)), tuple(range(n, 2 * n))
    # r^i r^k = r^(i+k), r^i r^k s = r^(i+k) s, r^i s r^k = r^(i-k) s and
    # r^i s r^k s = r^(i-k).
    table = tuple(_turn(rot, i) + _turn(ref, i) for i in range(n))
    table += tuple(_flip(ref, i) + _flip(rot, i) for i in range(n))
    labels = ["e"] + [f"r{i}" if i > 1 else "r" for i in range(1, n)]
    labels += ["s"] + [f"r{i}s" if i > 1 else "rs" for i in range(1, n)]
    return FiniteGroup(f"D{n}", table, tuple(labels))


def make_dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: a of order 2n, b^2 = a^n, b a b^-1 = a^-1."""
    if n < 2:
        raise ValueError(f"dicyclic parameter must be >= 2, got {n}")
    m = 2 * n
    low, high = tuple(range(m)), tuple(range(m, 2 * m))
    # a^i a^k = a^(i+k), a^i a^k b = a^(i+k) b, a^i b a^k = a^(i-k) b and
    # a^i b a^k b = a^(i-k+n).
    table = tuple(_turn(low, i) + _turn(high, i) for i in range(m))
    table += tuple(_flip(high, i) + _flip(low, (i + n) % m) for i in range(m))
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, m)]
    labels += ["b"] + [f"a{i}b" if i > 1 else "ab" for i in range(1, m)]
    return FiniteGroup(f"Dic{n}", table, tuple(labels))


def _cycle_label(perm: tuple[int, ...]) -> str:
    seen = set()
    parts = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = perm[x]
        parts.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(parts) if parts else "e"


def _perm_group(name: str, perms: list[tuple[int, ...]]) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    if len(perms[0]) == 1:
        table = ((0,),)  # S1: itemgetter with one index would return a scalar
    else:
        # p*q is p after q, read off p at the positions q lists.
        takes = [operator.itemgetter(*q) for q in perms]
        table = tuple(tuple(index[take(p)] for take in takes) for p in perms)
    return FiniteGroup(name, table, tuple(_cycle_label(p) for p in perms))


def _parity(perm: tuple[int, ...]) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return inv % 2


def make_symmetric(n: int) -> FiniteGroup:
    """Symmetric group on {0..n-1}; permutations in lexicographic order."""
    if not 1 <= n <= 5:
        raise ValueError(f"symmetric-group parameter must be in 1..5, got {n}")
    return _perm_group(f"S{n}", list(itertools.permutations(range(n))))


def make_alternating(n: int) -> FiniteGroup:
    """Alternating group on {0..n-1}; even permutations in lexicographic order."""
    if not 3 <= n <= 5:
        raise ValueError(f"alternating-group parameter must be in 3..5, got {n}")
    perms = [p for p in itertools.permutations(range(n)) if _parity(p) == 0]
    return _perm_group(f"A{n}", perms)


# ---------------------------------------------------------------------------
# Cayley-table file format: `order <n>` header, then n whitespace-separated
# rows; lines starting with '#' are comments.


def from_cayley_table(text: str, name: str = "table") -> FiniteGroup:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise GroupTableError("empty table file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "order":
        raise GroupTableError(f"expected 'order <n>' header, got {lines[0]!r}")
    # ASCII digits only: int() would also read other Unicode digits.
    if not (head[1].isascii() and head[1].isdigit()):
        raise GroupTableError(f"bad order value {head[1]!r}")
    n = int(head[1])
    if n < 1:
        raise GroupTableError(f"order must be >= 1, got {n}")
    if len(lines) - 1 != n:
        raise GroupTableError(f"expected {n} table rows, got {len(lines) - 1}")
    table = []
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != n:
            raise GroupTableError(f"row {i} has {len(parts)} entries, expected {n}")
        for p in parts:
            if not (p.isascii() and p.isdigit()):
                raise GroupTableError(f"row {i} has a bad entry {p!r}")
        table.append(tuple(map(int, parts)))
    return FiniteGroup(name, tuple(table), tuple(str(i) for i in range(n)))


def to_cayley_table(g: FiniteGroup) -> str:
    lines = [f"order {g.order}"]
    lines.extend(" ".join(str(x) for x in row) for row in g.table)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# order arithmetic


class OrderClass(Enum):
    TRIVIAL = "trivial"
    PRIME_POWER = "prime-power"
    TWO_PRIMES_PQ = "pq"
    TWO_PRIMES_OTHER = "two-primes-other"
    THREE_OR_MORE_PRIMES = "three-plus-primes"


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs with primes increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1 or not _is_prime(p):
                raise ValueError(f"bad factor ({p},{e}) in factorization of {self.n}")
            prev = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factors multiply to {prod}, not {self.n}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n: int) -> Factorization:
    """Trial-division factorization; fine for the tiny orders used here."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    factors = []
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append((d, e))
        d += 1
    if rest > 1:
        factors.append((rest, 1))
    return Factorization(n, tuple(factors))


def classify_order(f: Factorization) -> OrderClass:
    if not f.factors:
        return OrderClass.TRIVIAL
    if len(f.factors) == 1:
        return OrderClass.PRIME_POWER
    if len(f.factors) == 2:
        (p, a), (q, b) = f.factors
        if a == 1 and b == 1:
            return OrderClass.TWO_PRIMES_PQ
        return OrderClass.TWO_PRIMES_OTHER
    return OrderClass.THREE_OR_MORE_PRIMES


# ---------------------------------------------------------------------------
# brute-force isomorphism for small groups


def _extend_hom(
    a: FiniteGroup, b: FiniteGroup, gens: list[int], images: list[int]
) -> dict[int, int] | None:
    mapping = {0: 0}
    queue = [0]
    while queue:
        x = queue.pop()
        for gen, img in zip(gens, images):
            for xm, ym in (
                (a.table[x][gen], b.table[mapping[x]][img]),
                (a.table[gen][x], b.table[img][mapping[x]]),
            ):
                known = mapping.get(xm)
                if known is None:
                    mapping[xm] = ym
                    queue.append(xm)
                elif known != ym:
                    return None
    if len(mapping) != a.order or len(set(mapping.values())) != a.order:
        return None
    for x in range(a.order):
        for y in range(a.order):
            if mapping[a.table[x][y]] != b.table[mapping[x]][mapping[y]]:
                return None
    return mapping


def is_isomorphic_small_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Exact isomorphism test by generator-image search (small orders only)."""
    if a.order != b.order:
        return False
    if a.order_histogram() != b.order_histogram():
        return False
    gens = list(_generators(a.table))
    if not gens:
        return True
    by_order: dict[int, list[int]] = {}
    for x in range(b.order):
        by_order.setdefault(b.element_order(x), []).append(x)
    pools = [by_order.get(a.element_order(g), []) for g in gens]
    for images in itertools.product(*pools):
        if len(set(images)) != len(images):
            continue
        if _extend_hom(a, b, gens, list(images)) is not None:
            return True
    return False
