import itertools
import operator
import random
import re
from functools import reduce
from pathlib import Path

import pytest

from grouplines import groups
from grouplines.catalog import build_catalog, catalog_specs, parse_group_spec
from grouplines.groups import (
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
from grouplines.verify import TheoremRow
from contracts import check_value_contract
from oracles import check_subgroup

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
        _validate_table(g.table)
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
        factors = [parse_group_spec(token) for token in spec.split("x")]
        pairwise = reduce(direct_product, factors)
        for g in (direct_product(*factors), parse_group_spec(spec)):
            assert g.table == pairwise.table, spec
            assert g.labels == pairwise.labels, spec
            assert g.name == pairwise.name == spec


def test_a_product_validates_only_its_factors_and_itself(monkeypatch, tmp_path):
    """Built-in groups are rules and validate no table.  A `file:` factor's
    table is validated once, when it is read, and the product multiplies
    through it without validating a table of its own."""
    calls = []

    def counted(table):
        calls.append(len(table))
        _validate_table(table)

    monkeypatch.setattr(groups, "_validate_table", counted)
    assert parse_group_spec("Z2xZ2xZ2xZ2xZ2xZ2xZ2").order == 128
    assert calls == []
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z2.tbl").write_text("order 2\n0 1\n1 0\n", encoding="utf-8")
    assert parse_group_spec("Z3xfile:z2.tbl").order == 6
    assert calls == [2]
    (tmp_path / "bad.tbl").write_text("order 2\n0 1\n0 0\n", encoding="utf-8")
    message = r"^table file 'bad\.tbl': row 1 is not a permutation"
    with pytest.raises(GroupTableError, match=message):
        parse_group_spec("Z3xfile:bad.tbl")
    g = make_cyclic(5)
    assert direct_product(g) is g


def product_by_cells(*factors):
    """Test-only oracle: the product table cell by cell, (a, b) as a*|h| + b."""
    table, labels = factors[0].table, factors[0].labels
    for h in factors[1:]:
        m = h.order
        table = tuple(
            tuple(x * m + y for x in grow for y in hrow)
            for grow in table
            for hrow in h.table
        )
        labels = tuple(f"({a},{b})" for a in labels for b in h.labels)
    return "x".join(g.name for g in factors), table, labels


def perm_group_by_cells(kind, n):
    """Test-only oracle: S_n or A_n with p*q = p after q, cell by cell, its
    permutations in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    if kind == "A":
        perms = [p for p in perms if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[tuple(p[i] for i in q)] for q in perms) for p in perms)
    return FiniteGroup(f"{kind}{n}", table, tuple(groups._cycle_label(p) for p in perms))


def power_labels(a, m, tail=""):
    """The labels of a^0..a^(m-1), each followed by `tail`: e, a, a2, ..."""
    return [tail or "e"] + [f"{a}{i if i > 1 else ''}{tail}" for i in range(1, m)]


def twisted_by_cells(name, letters, m, t):
    """Test-only oracle: <a, b> with a of order m, b a b^-1 = a^-1 and
    b^2 = a^t, cell by cell, a^i as element i and a^i b as m + i."""
    ks = range(m)
    table = [[(i + k) % m for k in ks] + [m + (i + k) % m for k in ks] for i in range(m)]
    table += [[m + (i - k) % m for k in ks] + [(i - k + t) % m for k in ks] for i in range(m)]
    a, b = letters
    return FiniteGroup(name, table, tuple(power_labels(a, m) + power_labels(a, m, b)))


def atom_by_cells(token):
    """Test-only oracle for one spec token, cell by cell; a `file:` token is
    read as the table it names."""
    if token.startswith("file:"):
        path = Path(token[len("file:") :])
        return from_cayley_table(path.read_text(encoding="utf-8"), name=path.stem)
    kind, n = re.fullmatch(r"(Dic|Z|D|S|A)([0-9]+)", token).groups()
    n = int(n)
    if kind in "SA":
        return perm_group_by_cells(kind, n)
    if kind == "Z":
        table = [[(i + k) % n for k in range(n)] for i in range(n)]
        return FiniteGroup(token, table, tuple(map(str, range(n))))
    if kind == "D":
        return twisted_by_cells(token, "rs", n, 0)
    return twisted_by_cells(token, "ab", 2 * n, n)


def group_by_cells(spec):
    return product_by_cells(*map(atom_by_cells, spec.split("x")))


PERM_SPECS = ("S1", "S2", "S3", "S4", "S5", "A3", "A4", "A5")
TRIVIAL_FACTOR_SPECS = ("Z1xZ1", "Z1xZ5", "Z5xZ1", "Z1xS3xZ1", "Z2xZ1xZ3", "Z1xD4xZ2")


# Every spec `grouplines check` is timed on in the benchmark's check-groups
# workload, orders 16 to 160.
CHECK_GROUPS_SPECS = (
    "Z16", "Z4xZ4", "Z2xZ8", "D8", "Dic4", "Z2xZ2xZ4",
    "Z22", "Z2xZ11", "D11",
    "Z24", "Z2xZ12", "S4", "D12", "Dic6",
    "Z27", "Z3xZ9", "Z3xZ3xZ3",
    "Z32", "Z4xZ8", "Z2xZ16", "D16", "Dic8",
    "Z35", "Z5xZ7",
    "Z48", "Z4xZ12", "D24", "Dic12",
    "Z60", "D30", "Dic15",
    "Z64", "Z8xZ8", "D32", "Dic16",
    "Z72", "Z6xZ12", "D36", "Dic18",
    "Z81", "Z9xZ9", "Z3xZ27",
    "Z96", "Z4xZ24", "D48", "Dic24",
    "Z100", "Z10xZ10", "D50", "Dic25",
    "Z120", "D60", "Dic30",
    "Z128", "D64", "Dic32",
    "Z143", "Z11xZ13",
    "Z160", "Z4xZ40", "D80", "Dic40",
    "A5", "S5", "Z2xZ2xZ2xZ2xZ2xZ2xZ2",
)
FILE_FACTOR_SPECS = ("Z3xfile:z2.tbl", "D4xfile:s3.tblxZ2")


def test_table_builders_match_the_cell_by_cell_formulas(monkeypatch, tmp_path):
    """The built-in constructors' rules are not validated when a group is
    built, so this test does it: each rule's table, built from `mul` and
    validated on first use, is the cell-by-cell oracle's, and the rule-backed
    group answers every query as its table-backed twin does."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z2.tbl").write_text("order 2\n0 1\n1 0\n", encoding="utf-8")
    s3 = to_cayley_table(perm_group_by_cells("S", 3))
    (tmp_path / "s3.tbl").write_text(s3, encoding="utf-8")
    checked = (Path(__file__).parent / "data" / "check_specs.txt").read_text("utf-8")
    specs = {
        *catalog_specs(60),
        *checked.split(),
        *LARGE_SPECS,
        *CHECK_GROUPS_SPECS,
        *PERM_SPECS,
        *TRIVIAL_FACTOR_SPECS,
        *FILE_FACTOR_SPECS,
    }
    for spec in sorted(specs):
        g = parse_group_spec(spec)
        assert (g.name, g.table, g.labels) == group_by_cells(spec), spec
        twin = FiniteGroup(g.name, g.table, g.labels)
        n = g.order
        cells = [(x, y) for x in range(n) for y in range(n)]
        assert [g.mul(x, y) for x, y in cells] == [twin.mul(x, y) for x, y in cells], spec
        orders = [g.element_order(x) for x in range(n)]
        assert orders == [twin.element_order(x) for x in range(n)], spec
        assert g.cyclic_subgroups() == twin.cyclic_subgroups(), spec
        # The old readings of the table: its transpose, and an element of order n.
        abelian = twin.table == tuple(zip(*twin.table))
        assert g.is_abelian() == twin.is_abelian() == abelian, spec
        assert g.is_cyclic() == twin.is_cyclic() == (n in orders), spec


def test_is_abelian_matches_commutation_of_every_pair():
    from test_verify import WIDE_PRODUCT_SPECS

    for spec in (*catalog_specs(60), *WIDE_PRODUCT_SPECS):
        g = parse_group_spec(spec)
        pairs = itertools.product(range(g.order), repeat=2)
        assert g.is_abelian() == all(g.mul(a, b) == g.mul(b, a) for a, b in pairs), spec


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
    # Z2048 has 2048 elements but only 12 cyclic subgroups, one for each
    # divisor, so one power walk per subgroup takes at most the sum of the
    # subgroup orders, 4095 products, where its table has 2048^2 cells.
    group = parse_group_spec("Z2048")
    rule = group.mul
    products = 0

    def counted(x, g):
        nonlocal products
        products += 1
        return rule(x, g)

    group.mul = counted
    subs = group.cyclic_subgroups()
    assert len(subs) == 12
    assert products <= sum(s.order for s in subs) == 4095


def test_cyclic_subgroups_are_closed():
    for g in small_catalog():
        for s in g.cyclic_subgroups():
            assert check_subgroup(g, s)


@pytest.mark.parametrize(
    "make, field, text",
    [
        (
            lambda: Subgroup(3, (0, 2, 4), 2),
            "members",
            "Subgroup(order=3, members=(0, 2, 4), generator=2)",
        ),
        (
            lambda: Subgroup(1, (0,), 0),
            "generator",
            "Subgroup(order=1, members=(0,), generator=0)",
        ),
        (
            lambda: Subgroup(3, (0, 2, 4), 2),
            "order",
            "Subgroup(order=3, members=(0, 2, 4), generator=2)",
        ),
        # A plain tuple has no fields; its `count` method stands in for one.
        (lambda: factorize(12), "count", "((2, 2), (3, 1))"),
        (
            lambda: TheoremRow("Z6", 6, OrderClass.TWO_PRIMES_PQ, True, True, True, "-"),
            "actual",
            "TheoremRow(name='Z6', order=6, order_class=<OrderClass.TWO_PRIMES_PQ: 'pq'>,"
            " is_cyclic=True, predicted=True, actual=True, witness='-')",
        ),
    ],
)
def test_group_values_keep_their_contract(make, field, text):
    check_value_contract(make, field, text)


def test_subgroup_order_is_stored_and_unequal_values_differ():
    for g in small_catalog():
        for s in g.cyclic_subgroups():
            assert s.order == len(s.members)
    assert Subgroup(3, (0, 2, 4), 2) != Subgroup(3, (0, 2, 4), 4)
    assert Subgroup(3, (0, 2, 4), 2) != Subgroup(3, (0, 1, 2), 1)
    assert factorize(12) != factorize(18)


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
        for p, e in f:
            prod *= p**e
        assert prod == n


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


def test_the_catalog_specs_cover_119_isomorphism_classes():
    # The README's count: `Z2xZ9` and `Z18`, for one, name the same group.
    # Specs are bucketed by invariants, then split by the exact test.
    records = build_catalog()
    reps: dict[tuple, list[FiniteGroup]] = {}
    for record in records:
        g = record.group
        key = (g.order, tuple(g.order_histogram().items()), g.is_abelian())
        bucket = reps.setdefault(key, [])
        if not any(is_isomorphic_small_group(rep, g) for rep in bucket):
            bucket.append(g)
    assert (len(records), sum(map(len, reps.values()))) == (146, 119)


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
        gens = list(_generators(g.order, g.mul))
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
    for a in _generators(n, lambda x, g: table[x][g]):
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

    def counted(n, mul):
        for g in _generators(n, mul):
            yielded.append(g)
            yield g

    monkeypatch.setattr(groups, "_generators", counted)
    n = 64
    table = (tuple(range(n)),) + tuple((i,) + (1,) * (n - 1) for i in range(1, n))
    with pytest.raises(GroupTableError, match=r"^row 1 is not a permutation"):
        FiniteGroup("monoid", table, tuple(map(str, range(n))))
    assert yielded == []
