"""Finite groups over the elements 0..n-1, read through a multiplication.

Element 0 is always the identity.  A `FiniteGroup` is read only through its
order, `mul(x, g)` (the index of x*g) and its labels.  Cayley tables are
kept only at the input boundary: a table passed in, as by a `file:` spec, is
validated in full, so a table-backed `FiniteGroup` that exists is a group.
The built-in constructors (cyclic, dihedral, dicyclic, symmetric,
alternating and direct products) return groups backed by a multiplication
rule instead, which builds no table.  The tests check each rule against the
validated table it describes, and the `table` of a rule-backed group is
built from its rule and validated on first use, so every table a group
holds has passed validation.

A valid table costs one set test per row plus Light's test, in this order:

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
product 1 would otherwise need n - 1 generators and cubic time.  Groups are
not changed after construction and the operations are pure, so instances
can be shared freely across threads; two threads that read a rule-backed
group's `table` at once may both build it, and get equal tables.

`cyclic_subgroups` walks each cyclic subgroup's powers once and returns
plain `Subgroup` records sorted by (order, members); `factorize` returns an
order's (prime, exponent) pairs.  The package builds these itself, so
nothing validates them again.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Iterator, Sequence
from enum import Enum
from math import gcd
from typing import NamedTuple


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
    if any(len(row) != n or set(row) != values for row in table):
        _check_rows(table)
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
    for a in _generators(n, lambda x, g: table[x][g]):
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


def _generators(n: int, mul: Callable[[int, int], int]) -> Iterator[int]:
    """Yield generators until closing {0} under right multiplication by them,
    `mul(x, g)`, reaches every one of the n elements.

    Each generator is the smallest element not yet reached.  Associativity
    is not assumed: every element reached is 0 or a left-normed product
    ((g1*g2)*...)*gk of generators.  Each element reached is multiplied by
    each generator once: O(n * generators) products.
    """
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
            y = mul(x, g)
            if not reached[y]:
                reached[y] = 1
                fresh.append(y)
        members.extend(fresh)
        while fresh:
            x = fresh.pop()
            for h in gens:
                y = mul(x, h)
                if not reached[y]:
                    reached[y] = 1
                    fresh.append(y)
                    members.append(y)


class Subgroup(NamedTuple):
    """A cyclic subgroup: its order, sorted members and least generator.
    Members differ between subgroups, so a sort orders by (order, members)."""

    order: int
    members: tuple[int, ...]
    generator: int


class FiniteGroup:
    """A finite group over the elements 0..n-1, with labels.

    `FiniteGroup(name, table, labels)` validates an n x n Cayley table and
    is backed by it.  A constructor that knows its operation is a group
    backs one by a rule instead (`_from_rule`).  Either way the group is
    read through `order`, `mul(x, g)` and `labels`, which cannot be
    assigned or deleted.  Equality is identity, as `mul` is a closure.
    """

    __slots__ = ("name", "order", "mul", "labels", "_table")

    name: str
    order: int
    mul: Callable[[int, int], int]
    labels: tuple[str, ...]

    def __init__(
        self, name: str, table: Sequence[Sequence[int]], labels: Sequence[str]
    ) -> None:
        # Lists are stored as tuples; tuple() returns a tuple as is.
        rows, labels = tuple(map(tuple, table)), tuple(labels)
        _validate_table(rows)
        if len(labels) != len(rows):
            raise GroupTableError(f"got {len(labels)} labels for {len(rows)} elements")
        self._fill(name, len(rows), lambda x, g: rows[x][g], labels, rows)

    @classmethod
    def _from_rule(
        cls, name: str, order: int, mul: Callable[[int, int], int], labels: Sequence[str]
    ) -> FiniteGroup:
        """A group backed by `mul`, which the caller knows to be a group
        operation with identity 0; nothing is validated here."""
        group = cls.__new__(cls)
        group._fill(name, order, mul, tuple(labels), None)
        return group

    def _fill(self, *values: object) -> None:
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name} of order {self.order}>"

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The n x n Cayley table; a rule's is built and validated on first use."""
        if self._table is None:
            n, mul = self.order, self.mul
            table = tuple(tuple(map(mul, itertools.repeat(x, n), range(n))) for x in range(n))
            _validate_table(table)
            object.__setattr__(self, "_table", table)
        return self._table

    def _powers(self, g: int) -> list[int]:
        """The powers 0 = g^0, g, g^2, ... of g, up to the identity."""
        mul = self.mul
        powers = [0]
        x = g
        while x != 0:
            powers.append(x)
            x = mul(x, g)
        return powers

    def element_order(self, g: int) -> int:
        return len(self._powers(g))

    def order_histogram(self) -> dict[int, int]:
        """Multiset of element orders; an isomorphism invariant."""
        hist: dict[int, int] = {}
        for g in range(self.order):
            k = self.element_order(g)
            hist[k] = hist.get(k, 0) + 1
        return dict(sorted(hist.items()))

    def cyclic_subgroup(self, g: int) -> Subgroup:
        powers = self._powers(g)
        return Subgroup(len(powers), tuple(sorted(powers)), g)

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
        covered = bytearray(self.order)
        subs = []
        for g in range(self.order):
            if covered[g]:
                continue
            powers = self._powers(g)
            m = len(powers)
            # k = 1 is g itself, which the loop has passed.
            for k in range(2, m):
                if gcd(k, m) == 1:
                    covered[powers[k]] = 1
            subs.append(Subgroup(m, tuple(sorted(powers)), g))
        subs.sort()
        return tuple(subs)

    def is_abelian(self) -> bool:
        """The generators from `_generators` commute pairwise.  Each is
        tested against the earlier ones as it is yielded, so the first pair
        that does not commute ends the test before the group is closed."""
        mul = self.mul
        gens: list[int] = []
        for g in _generators(self.order, mul):
            if any(mul(a, g) != mul(g, a) for a in gens):
                return False
            gens.append(g)
        return True

    def is_cyclic(self) -> bool:
        """A largest cyclic subgroup is the whole group."""
        return self.cyclic_subgroups()[-1].order == self.order


# ---------------------------------------------------------------------------
# constructors: each returns a group backed by its multiplication rule.


def make_cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order n, written additively."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    return FiniteGroup._from_rule(
        f"Z{n}", n, lambda x, g: (x + g) % n, tuple(str(i) for i in range(n))
    )


def direct_product(first: FiniteGroup, *rest: FiniteGroup) -> FiniteGroup:
    """Componentwise product of one or more groups, taken left-associatively:
    the pair (a, b) of a product with h is encoded as a*|h| + b.

    The product multiplies through its factors' `mul`, so a table-backed
    factor, validated when it was built, is not validated again.  A single
    factor is returned as it is.
    """
    if not rest:
        return first
    order, mul, labels = first.order, first.mul, first.labels
    for h in rest:
        mul = _componentwise(mul, h.mul, h.order)
        labels = tuple(f"({a},{b})" for a in labels for b in h.labels)
        order *= h.order
    return FiniteGroup._from_rule("x".join(g.name for g in (first, *rest)), order, mul, labels)


def _componentwise(
    gmul: Callable[[int, int], int], hmul: Callable[[int, int], int], m: int
) -> Callable[[int, int], int]:
    """The rule of G x H, given G's rule, H's rule and m = |H|."""

    def mul(x: int, y: int) -> int:
        a, b = divmod(x, m)
        c, d = divmod(y, m)
        return gmul(a, c) * m + hmul(b, d)

    return mul


def _twisted(m: int, t: int) -> Callable[[int, int], int]:
    """The rule of <a, b> with a of order m, b a b^-1 = a^-1 and b^2 = a^t:
    a^i is element i and a^i b is element m + i, so a^i a^k = a^(i+k),
    a^i a^k b = a^(i+k) b, a^i b a^k = a^(i-k) b and a^i b a^k b = a^(i-k+t)."""

    def mul(x: int, g: int) -> int:
        if x < m:
            return (x + g) % m if g < m else m + (x + g) % m
        return m + (x - g) % m if g < m else (x - g + t) % m

    return mul


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^i and reflections r^i s."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    labels = ["e"] + [f"r{i}" if i > 1 else "r" for i in range(1, n)]
    labels += ["s"] + [f"r{i}s" if i > 1 else "rs" for i in range(1, n)]
    return FiniteGroup._from_rule(f"D{n}", 2 * n, _twisted(n, 0), labels)


def make_dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: a of order 2n, b^2 = a^n, b a b^-1 = a^-1."""
    if n < 2:
        raise ValueError(f"dicyclic parameter must be >= 2, got {n}")
    m = 2 * n
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, m)]
    labels += ["b"] + [f"a{i}b" if i > 1 else "ab" for i in range(1, m)]
    return FiniteGroup._from_rule(f"Dic{n}", 2 * m, _twisted(m, n), labels)


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

    def mul(x: int, g: int) -> int:
        # p*q is p after q, read off p at the positions q lists.
        return index[tuple(map(perms[x].__getitem__, perms[g]))]

    return FiniteGroup._from_rule(
        name, len(perms), mul, tuple(_cycle_label(p) for p in perms)
    )


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
    # ASCII digits only: int() would also read other Unicode digits.  Long
    # numbers are compared as strings: int() may refuse over 4300 digits.
    if not (head[1].isascii() and head[1].isdigit()):
        raise GroupTableError(f"bad order value {head[1]!r}")
    order, n = head[1].lstrip("0") or "0", len(lines) - 1
    if order == "0":
        raise GroupTableError("order must be >= 1, got 0")
    if order != str(n):
        raise GroupTableError(f"expected {order} table rows, got {n}")
    table = []
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != n:
            raise GroupTableError(f"row {i} has {len(parts)} entries, expected {n}")
        # Entries are non-empty, so the row's joined entries are all ASCII
        # digits exactly when each entry is; only a failing row is searched.
        joined = "".join(parts)
        if not (joined.isascii() and joined.isdigit()):
            p = next(p for p in parts if not (p.isascii() and p.isdigit()))
            raise GroupTableError(f"row {i} has a bad entry {p!r}")
        table.append(parts)
    if any(max(map(len, row)) > len(order) for row in table):
        # Past leading zeros, entries longer than n are out of range; name the
        # first entry out of range, as validation would.
        table = [[p.lstrip("0") or "0" for p in row] for row in table]
        for i, row in enumerate(table):
            for j, p in enumerate(row):
                if len(p) > len(order) or int(p) >= n:
                    raise GroupTableError(f"entry ({i},{j}) = {p} is outside [0,{n})")
    return FiniteGroup(name, tuple(tuple(map(int, r)) for r in table), tuple(map(str, range(n))))


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


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n, primes increasing, by trial division."""
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
    return tuple(factors)


def classify_order(factors: tuple[tuple[int, int], ...]) -> OrderClass:
    if not factors:
        return OrderClass.TRIVIAL
    if len(factors) == 1:
        return OrderClass.PRIME_POWER
    if len(factors) == 2:
        (p, a), (q, b) = factors
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
                (a.mul(x, gen), b.mul(mapping[x], img)),
                (a.mul(gen, x), b.mul(img, mapping[x])),
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
            if mapping[a.mul(x, y)] != b.mul(mapping[x], mapping[y]):
                return None
    return mapping


def is_isomorphic_small_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Exact isomorphism test by generator-image search (small orders only)."""
    if a.order != b.order:
        return False
    if a.order_histogram() != b.order_histogram():
        return False
    gens = list(_generators(a.order, a.mul))
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
