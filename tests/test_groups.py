import operator
import random
import re
import time
from functools import reduce
from pathlib import Path

import pytest

from grouplines import groups
from grouplines.catalog import _atom, build_catalog, catalog_specs, parse_group_spec
from grouplines.groups import (
    Factorization,
    FiniteGroup,
    GroupTableError,
    OrderClass,
    Subgroup,
    _generators,
    _validate_table,
    classify_order,
    direct_product,
    factorize,
    from_cayley_table,
    is_isomorphic_small_group,
    make_alternating,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_symmetric,
    to_cayley_table,
)
from grouplines.lattice import build_gamma

# Latin square with identity but no associativity (checked at freeze time).
NON_ASSOCIATIVE_LOOP = """\
order 5
0 1 2 3 4
1 0 3 4 2
2 3 4 0 1
3 4 1 2 0
4 2 0 1 3
"""


# Beyond the catalog's order 60, up to the largest orders `check` is timed on.
LARGE_SPECS = ("Z160", "Z4xZ40", "D80", "Dic40", "S5", "Z2xZ2xZ2xZ2xZ2xZ2xZ2")


def small_catalog():
    return [
        make_cyclic(1),
        make_cyclic(6),
        make_cyclic(12),
        direct_product(make_cyclic(2), make_cyclic(2)),
        make_dihedral(4),
        make_dicyclic(2),
        make_symmetric(4),
        make_alternating(4),
    ]


# ---------------------------------------------------------------------------
# constructors


def test_trivial_group():
    g = make_cyclic(1)
    assert g.order == 1
    assert g.element_order(0) == 1


def test_cyclic_generator_order():
    assert make_cyclic(6).element_order(1) == 6


def test_cyclic_z12_order_histogram():
    assert make_cyclic(12).order_histogram() == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}


def test_klein_four_group():
    g = direct_product(make_cyclic(2), make_cyclic(2))
    assert g.order == 4
    assert all(g.element_order(x) == 2 for x in range(1, 4))


def test_z3_squared_orders():
    g = direct_product(make_cyclic(3), make_cyclic(3))
    assert g.order_histogram() == {1: 1, 3: 8}


def test_z2_times_z3_is_z6():
    g = direct_product(make_cyclic(2), make_cyclic(3))
    assert g.is_cyclic()
    assert is_isomorphic_small_group(g, make_cyclic(6))


def test_dihedral_3_histogram():
    assert make_dihedral(3).order_histogram() == {1: 1, 2: 3, 3: 2}


def test_quaternion_histogram():
    assert make_dicyclic(2).order_histogram() == {1: 1, 2: 1, 4: 6}


def test_symmetric_3_is_dihedral_3():
    assert is_isomorphic_small_group(make_symmetric(3), make_dihedral(3))


def test_alternating_4_histogram():
    assert make_alternating(4).order_histogram() == {1: 1, 2: 3, 3: 8}


@pytest.mark.parametrize(
    "ctor,arg",
    [
        (make_cyclic, 0),
        (make_dihedral, 0),
        (make_dicyclic, 1),
        (make_symmetric, 0),
        (make_symmetric, 6),
        (make_alternating, 2),
        (make_alternating, 6),
    ],
)
def test_constructor_rejects_bad_parameters(ctor, arg):
    with pytest.raises(ValueError):
        ctor(arg)


def test_constructed_groups_validate_up_to_order_60():
    groups = [make_cyclic(n) for n in range(1, 61)]
    groups += [make_dihedral(n) for n in range(1, 31)]
    groups += [make_dicyclic(n) for n in range(2, 16)]
    groups += [make_symmetric(n) for n in range(1, 5)]
    groups += [make_alternating(n) for n in range(3, 5)]
    groups += [
        direct_product(make_cyclic(m), make_cyclic(k))
        for m in range(2, 7)
        for k in range(2, 11)
        if m * k <= 60
    ]
    for g in groups:
        g.validate()
        assert len(g.labels) == g.order
        assert g.element_order(0) == 1


def _product_specs():
    checked = (Path(__file__).parent / "data" / "check_specs.txt").read_text("utf-8")
    specs = {*catalog_specs(60), *checked.split()}
    return sorted(s for s in specs if "x" in s and "file:" not in s)


def test_direct_product_of_many_factors_matches_pairwise_products():
    specs = _product_specs()
    assert any(s.count("x") >= 2 for s in specs)
    for spec in specs:
        factors = [_atom(token) for token in spec.split("x")]
        pairwise = reduce(direct_product, factors)
        for g in (direct_product(*factors), parse_group_spec(spec)):
            assert g.table == pairwise.table, spec
            assert g.labels == pairwise.labels, spec
            assert g.name == pairwise.name == spec


def test_a_product_validates_only_its_factors_and_itself(monkeypatch):
    calls = []

    def counted(table):
        calls.append(len(table))
        _validate_table(table)

    monkeypatch.setattr(groups, "_validate_table", counted)
    assert parse_group_spec("Z2xZ2xZ2xZ2xZ2xZ2xZ2").order == 128
    assert calls == [2] * 7 + [128]
    g = make_cyclic(5)
    assert direct_product(g) is g


# ---------------------------------------------------------------------------
# table file format


def test_load_z2_table():
    g = from_cayley_table("order 2\n0 1\n1 0\n")
    assert g.order == 2
    assert g.element_order(1) == 2


def test_load_rejects_latin_square_violation():
    with pytest.raises(GroupTableError, match="Latin"):
        from_cayley_table("order 2\n0 1\n0 0\n")


def test_load_rejects_missing_identity():
    with pytest.raises(GroupTableError, match="identity"):
        from_cayley_table("order 2\n1 0\n0 1\n")


def test_load_rejects_non_associative_loop():
    with pytest.raises(GroupTableError, match="associativity"):
        from_cayley_table(NON_ASSOCIATIVE_LOOP)


def test_load_rejects_bad_header_and_shape():
    with pytest.raises(GroupTableError, match="order"):
        from_cayley_table("2\n0 1\n1 0\n")
    with pytest.raises(GroupTableError, match="rows"):
        from_cayley_table("order 3\n0 1 2\n1 2 0\n")
    with pytest.raises(GroupTableError, match="outside"):
        from_cayley_table("order 2\n0 1\n1 7\n")


def test_list_rows_are_read_as_tuple_rows():
    g = FiniteGroup("x", [[0, 1], [1, 0]], ("0", "1"))
    assert g.table == make_cyclic(2).table
    assert g.is_abelian()
    loop = [list(map(int, line.split())) for line in NON_ASSOCIATIVE_LOOP.splitlines()[1:]]
    bad_tables = [
        loop,
        [[1, 0], [0, 1]],  # wrong identity
        [[0, 1], [0, 0]],  # repeated row entry
        [[0, 1, 2], [1, 2, 5], [2, 0, 1]],  # entry out of range
        [[0, 1, 2], [1, 2]],  # short row
        [[0, 1, 2, 3], [1, 2, 3, 0], [2, 1, 0, 3], [3, 0, 1, 2]],  # repeated column entry
    ]
    for rows in bad_tables:
        labels = tuple(map(str, range(len(rows))))
        with pytest.raises(GroupTableError) as from_tuples:
            FiniteGroup("x", tuple(map(tuple, rows)), labels)
        with pytest.raises(GroupTableError) as from_lists:
            FiniteGroup("x", rows, labels)
        assert str(from_lists.value) == str(from_tuples.value), rows


def test_table_round_trip_s3():
    g = make_dihedral(3)
    text = to_cayley_table(g)
    again = from_cayley_table(text, name=g.name)
    assert again.table == g.table
    assert to_cayley_table(again) == text


def test_table_comments_are_ignored():
    g = from_cayley_table("# a comment\norder 2\n# another\n0 1\n1 0\n")
    assert g.order == 2


# ---------------------------------------------------------------------------
# element and subgroup queries


def test_identity_order_is_one():
    for g in small_catalog():
        assert g.element_order(0) == 1


def test_element_order_in_z12():
    assert make_cyclic(12).element_order(2) == 6


def test_minus_one_in_quaternions():
    q8 = make_dicyclic(2)
    assert q8.labels[2] == "a2"
    assert q8.element_order(2) == 2


def test_element_orders_divide_group_order():
    for g in small_catalog():
        for x in range(g.order):
            assert g.order % g.element_order(x) == 0


def test_cyclic_subgroups_of_z6():
    subs = make_cyclic(6).cyclic_subgroups()
    assert [s.order for s in subs] == [1, 2, 3, 6]
    assert subs[0].members == (0,)


def test_cyclic_subgroups_of_klein():
    subs = direct_product(make_cyclic(2), make_cyclic(2)).cyclic_subgroups()
    assert [s.order for s in subs] == [1, 2, 2, 2]


def test_cyclic_subgroups_of_quaternions():
    subs = make_dicyclic(2).cyclic_subgroups()
    assert [s.order for s in subs] == [1, 2, 4, 4, 4]


def test_cyclic_subgroup_orders_of_cyclic_group_are_divisors():
    for n in range(1, 31):
        subs = make_cyclic(n).cyclic_subgroups()
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert sorted(s.order for s in subs) == divisors


def test_generator_map_is_surjective():
    for g in small_catalog():
        subs = g.cyclic_subgroups()
        member_sets = {s.members for s in subs}
        generated = {g.cyclic_subgroup(x).members for x in range(g.order)}
        assert generated == member_sets
        for s in subs:
            assert g.cyclic_subgroup(s.generator).members == s.members


def test_stored_generator_is_the_least_generator():
    """The per-element oracle: every element's cyclic subgroup appears, and
    each stored generator is the least element generating its member set."""
    larger = ("Z1024", "Z2xZ2xZ2xZ2xZ2xZ2xZ2", "S5", "A5", "D80", "Dic40")
    for g in small_catalog() + [parse_group_spec(spec) for spec in larger]:
        least = {}
        for x in range(g.order):
            least.setdefault(g.cyclic_subgroup(x).members, x)
        subs = g.cyclic_subgroups()
        assert len(subs) == len(least), g.name
        assert {s.members: s.generator for s in subs} == least, g.name


def test_cyclic_subgroups_walk_each_subgroup_once():
    # Z2048 has 2048 elements but only 12 cyclic subgroups, so one power
    # walk per subgroup costs far less than building and validating the table.
    t0 = time.perf_counter()
    group = parse_group_spec("Z2048")
    parse_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    subs = group.cyclic_subgroups()
    walk_s = time.perf_counter() - t0
    assert len(subs) == 12
    assert walk_s < parse_s / 10, (walk_s, parse_s)


def test_cyclic_subgroups_are_closed():
    for g in small_catalog():
        for s in g.cyclic_subgroups():
            assert g.check_subgroup(s)


def test_subgroup_must_contain_identity():
    with pytest.raises(ValueError):
        Subgroup((1, 2))


def test_abelian_and_cyclic_predicates():
    assert make_cyclic(12).is_cyclic()
    klein = direct_product(make_cyclic(2), make_cyclic(2))
    assert klein.is_abelian() and not klein.is_cyclic()
    assert not make_dihedral(4).is_abelian()
    for g in small_catalog():
        if g.is_cyclic():
            assert g.is_abelian()


def test_gamma_reads_cyclicity_off_its_largest_subgroup():
    """The verify pass takes a group as cyclic when Γ's last vertex, a largest
    cyclic subgroup, is the whole group."""
    catalog = [record.group for record in build_catalog(60)]
    catalog += [parse_group_spec(spec) for spec in LARGE_SPECS]
    verdicts = set()
    for g in catalog:
        from_gamma = build_gamma(g).labels[-1].order == g.order
        assert from_gamma == g.is_cyclic(), g.name
        verdicts.add(from_gamma)
    assert verdicts == {False, True}


# ---------------------------------------------------------------------------
# order arithmetic


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, OrderClass.TRIVIAL),
        (8, OrderClass.PRIME_POWER),
        (15, OrderClass.TWO_PRIMES_PQ),
        (12, OrderClass.TWO_PRIMES_OTHER),
        (30, OrderClass.THREE_OR_MORE_PRIMES),
    ],
)
def test_classify_order(n, expected):
    assert classify_order(factorize(n)) is expected


def test_factorize_reconstructs_the_integer():
    for n in range(1, 201):
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            prod *= p**e
        assert prod == n


def test_factorization_validates_itself():
    with pytest.raises(ValueError):
        Factorization(12, ((4, 1), (3, 1)))
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))


# ---------------------------------------------------------------------------
# small-group isomorphism


def test_isomorphism_distinguishes_order_eight_groups():
    z8 = make_cyclic(8)
    z4xz2 = direct_product(make_cyclic(4), make_cyclic(2))
    d4 = make_dihedral(4)
    q8 = make_dicyclic(2)
    groups = [z8, z4xz2, d4, q8]
    for i, a in enumerate(groups):
        for j, b in enumerate(groups):
            assert is_isomorphic_small_group(a, b) == (i == j)


def test_isomorphism_ignores_element_numbering():
    # conjugating the table by a permutation keeps the group
    import random

    rng = random.Random(11)
    g = make_dihedral(5)
    perm = [0] + rng.sample(range(1, g.order), g.order - 1)
    inv = [0] * g.order
    for i, p in enumerate(perm):
        inv[p] = i
    table = tuple(
        tuple(perm[g.table[inv[i]][inv[j]]] for j in range(g.order))
        for i in range(g.order)
    )
    shuffled = FiniteGroup("shuffled", table, g.labels)
    assert is_isomorphic_small_group(g, shuffled)


# ---------------------------------------------------------------------------
# associativity: Light's test against the brute-force oracle


def brute_force_associativity_failure(table):
    """The first (i, j, k) with (i*j)*k != i*(j*k), or None: all n^3 triples."""
    n = len(table)
    for i in range(n):
        ti = table[i]
        for j in range(n):
            lhs = table[ti[j]]
            rhs = tuple(ti[x] for x in table[j])
            if lhs != rhs:
                return i, j, next(k for k in range(n) if lhs[k] != rhs[k])
    return None


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1 in
    order: the loop tables with identity 0."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    full = (1 << n) - 1
    row_used = [full] + [1 << i for i in range(1, n)]
    col_used = [full] + [1 << j for j in range(1, n)]

    def fill(cell):
        if cell == (n - 1) * (n - 1):
            yield tuple(tuple(row) for row in rows)
            return
        i, j = divmod(cell, n - 1)
        i, j = i + 1, j + 1
        free = full & ~(row_used[i] | col_used[j])
        while free:
            bit = free & -free
            free ^= bit
            rows[i][j] = bit.bit_length() - 1
            row_used[i] |= bit
            col_used[j] |= bit
            yield from fill(cell + 1)
            row_used[i] ^= bit
            col_used[j] ^= bit

    return list(fill(0))


TRIPLE = re.compile(r"associativity fails at \((\d+),(\d+),(\d+)\)")


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 1), (4, 4), (5, 56), (6, 9408)])
def test_light_test_agrees_with_brute_force_on_every_loop(n, count):
    tables = reduced_latin_squares(n)
    assert len(tables) == count
    for table in tables:
        failure = brute_force_associativity_failure(table)
        try:
            FiniteGroup("loop", table, tuple(map(str, range(n))))
        except GroupTableError as exc:
            assert failure is not None, table
            i, j, k = map(int, TRIPLE.match(str(exc)).groups())
            assert table[table[i][j]][k] != table[i][table[j][k]], (table, str(exc))
        else:
            assert failure is None, table


def test_generators_halve_the_remaining_work():
    """At most floor(log2 n) generators, so validation composes at most
    n * floor(log2 n) rows: a count that would catch a return to cubic cost."""
    groups = [rec.group for rec in build_catalog(60)]
    groups += [parse_group_spec(spec) for spec in LARGE_SPECS]
    for g in groups:
        gens = list(_generators(g.table))
        assert len(gens) <= g.order.bit_length() - 1, (g.name, gens)


# ---------------------------------------------------------------------------
# validation order: rows, identity, Light's test, columns only on failure


def previous_validate_table(table):
    """Test-only oracle: the validator that checked range, Latin rows, Latin
    columns, identity and associativity, each in a full pass, in that order."""
    n = len(table)
    if n == 0:
        raise GroupTableError("a group needs at least the identity element")
    for i, row in enumerate(table):
        if len(row) != n:
            raise GroupTableError(f"row {i} has {len(row)} entries, expected {n}")
        if min(row) < 0 or max(row) >= n:
            j, x = next((j, x) for j, x in enumerate(row) if not 0 <= x < n)
            raise GroupTableError(f"entry ({i},{j}) = {x} is outside [0,{n})")
    for i, row in enumerate(table):
        if len(set(row)) != n:
            raise GroupTableError(f"row {i} is not a permutation (Latin square violated)")
    for j, column in enumerate(zip(*table)):
        if len(set(column)) != n:
            raise GroupTableError(f"column {j} is not a permutation (Latin square violated)")
    identity = tuple(range(n))
    if table[0] != identity or tuple(row[0] for row in table) != identity:
        for j in range(n):
            if table[0][j] != j:
                raise GroupTableError(f"element 0 is not the identity: 0*{j} = {table[0][j]}")
            if table[j][0] != j:
                raise GroupTableError(f"element 0 is not the identity: {j}*0 = {table[j][0]}")
    for a in _generators(table):
        compose = operator.itemgetter(*table[a])
        for x, row in enumerate(table):
            lhs = table[row[a]]
            rhs = compose(row)
            if lhs != rhs:
                y = next(y for y in range(n) if lhs[y] != rhs[y])
                raise GroupTableError(
                    f"associativity fails at ({x},{a},{y}):"
                    f" ({x}*{a})*{y} = {lhs[y]} but {x}*({a}*{y}) = {rhs[y]}"
                )


def validation_outcome(validate, table):
    """None when `validate` accepts the table, else its error message."""
    try:
        validate(table)
    except GroupTableError as exc:
        return str(exc)
    return None


def relabelled(table, perm):
    """The table of the same operation with element x renamed perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def mutated_tables(rng):
    """Seeded faults in relabelled small-catalog tables: one cell set to a
    random entry, two cells of a row swapped, two rows swapped, an
    out-of-range entry and a short row.  Half the relabellings keep 0 as the
    identity."""
    for g in small_catalog():
        n = g.order
        for trial in range(40):
            rest = rng.sample(range(1, n), n - 1)
            perm = [0] + rest if trial % 2 else rng.sample(range(n), n)
            base = relabelled(g.table, perm)
            yield tuple(map(tuple, base))
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            rows = [list(row) for row in base]
            rows[i][j] = rng.randrange(n)
            yield tuple(map(tuple, rows))
            rows = [list(row) for row in base]
            rows[i][j], rows[i][k] = rows[i][k], rows[i][j]
            yield tuple(map(tuple, rows))
            rows = [list(row) for row in base]
            rows[i], rows[k] = rows[k], rows[i]
            yield tuple(map(tuple, rows))
            for bad in (-1, n, n + 3):
                rows = [list(row) for row in base]
                rows[i][j] = bad
                yield tuple(map(tuple, rows))
            rows = [list(row) for row in base]
            rows[i].pop(rng.randrange(n))
            yield tuple(map(tuple, rows))


def tables_with_identity(rng, count, latin_rows):
    """Random tables with identity 0; the other entries are arbitrary, or
    each row is a random permutation when `latin_rows` is set."""
    for _ in range(count):
        n = rng.randint(1, 8)
        table = [tuple(range(n))]
        for i in range(1, n):
            if latin_rows:
                rest = [x for x in range(n) if x != i]
                rng.shuffle(rest)
                table.append((i, *rest))
            else:
                table.append((i, *(rng.randrange(n) for _ in range(n - 1))))
        yield tuple(table)


def test_validation_matches_the_previous_validator():
    rng = random.Random(2024)
    tables = [t for n in range(1, 6) for t in reduced_latin_squares(n)]
    tables += mutated_tables(rng)
    tables += tables_with_identity(rng, 3000, latin_rows=False)
    tables += tables_with_identity(rng, 3000, latin_rows=True)
    mismatches = [
        (table, expected, got)
        for table in tables
        if (expected := validation_outcome(previous_validate_table, table))
        != (got := validation_outcome(groups._validate_table, table))
    ]
    assert not mismatches, mismatches[:3]
    # Each fault is among the cases, and so are valid tables.
    outcomes = [validation_outcome(groups._validate_table, t) for t in tables]
    assert None in outcomes
    for fault in ("row 1 has", "is outside", "row 1 is not", "column 1 is not", "identity", "associativity"):
        assert any(m is not None and fault in m for m in outcomes), fault


def test_valid_tables_never_run_the_column_diagnostic(monkeypatch):
    def refuse(table):
        raise AssertionError("the column diagnostic ran on a valid table")

    monkeypatch.setattr(groups, "_check_columns", refuse)
    build_catalog(60)
    for spec in LARGE_SPECS:
        parse_group_spec(spec)


def test_rows_are_checked_before_lights_test(monkeypatch):
    """The monoid with identity 0 and every other product 1 has rows that are
    not permutations; Light's test on it would need n - 1 generators."""
    yielded = []

    def counted(table):
        for g in _generators(table):
            yielded.append(g)
            yield g

    monkeypatch.setattr(groups, "_generators", counted)
    n = 64
    table = (tuple(range(n)),) + tuple((i,) + (1,) * (n - 1) for i in range(1, n))
    with pytest.raises(GroupTableError, match=r"^row 1 is not a permutation"):
        FiniteGroup("monoid", table, tuple(map(str, range(n))))
    assert yielded == []
