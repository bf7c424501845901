"""Built-in group catalog and the textual group-spec grammar.

Spec grammar: `Z<n>` | `D<n>` (order 2n) | `Dic<n>` (order 4n) | `S<n>` |
`A<n>` | `<spec>x<spec>` (direct product, left-associative) | `file:<path>`
(Cayley-table file).  A spec that starts with `file:` is taken as a single
path; inside a product, `file:` tokens must not contain the letter x.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import NamedTuple

from .groups import (
    FiniteGroup,
    OrderClass,
    classify_order,
    direct_product,
    factorize,
    from_cayley_table,
    make_alternating,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_symmetric,
)

# ASCII digits only: \d would also take other Unicode digits, which int() reads.
_ATOM = re.compile(r"(Dic|Z|D|S|A)([0-9]+)")

# The largest group order a spec may build.  It was a cost guard while every
# built-in group was a validated table; built-in groups are now rules, which
# cost about the sum of their cyclic-subgroup orders, but the limit and its
# message stay as the tests and the README give them.  Larger specs are
# refused before any group is built.  A spec that is a single table file is
# not capped: its table is the input.
MAX_SPEC_ORDER = 2048

# The parameters each constructor takes, within the order limit.
_PARAMETERS = {
    "Z": range(1, MAX_SPEC_ORDER + 1),
    "D": range(1, MAX_SPEC_ORDER // 2 + 1),
    "Dic": range(2, MAX_SPEC_ORDER // 4 + 1),
    "S": range(1, 6),
    "A": range(3, 6),
}

# The largest order in the built-in catalog (Z60 and A5); `catalog_specs`
# with a larger max_order returns the same specs.
CATALOG_MAX_ORDER = 60

_CONSTRUCTORS = {
    "Z": make_cyclic,
    "D": make_dihedral,
    "Dic": make_dicyclic,
    "S": make_symmetric,
    "A": make_alternating,
}


def parse_group_spec(spec: str) -> FiniteGroup:
    """Build the group a spec string describes; ValueError on bad input.

    The order is read from the grammar, times the orders of any table files,
    and checked against MAX_SPEC_ORDER before any other group is built.
    Only the table files are validated; built-in groups are rules.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty group spec")
    if spec.startswith("file:"):
        return _load_table(spec[len("file:") :])
    order = _spec_order(spec)
    tokens = spec.split("x")
    files = {
        i: _load_table(token[len("file:") :])
        for i, token in enumerate(tokens)
        if token.startswith("file:")
    }
    _guarded(order * math.prod(table.order for table in files.values()), spec)
    groups = [files[i] if i in files else _atom(token) for i, token in enumerate(tokens)]
    return direct_product(*groups)


def _atom(token: str) -> FiniteGroup:
    kind, n = _ATOM.fullmatch(token).groups()
    return _CONSTRUCTORS[kind](int(n))


def _load_table(path: str) -> FiniteGroup:
    if not path:
        raise ValueError("empty path in file: spec")
    text = Path(path).read_text(encoding="utf-8")
    return from_cayley_table(text, name=Path(path).stem)


class GroupRecord(NamedTuple):
    """A catalog entry: the group, the spec string it came from, its order class."""

    group: FiniteGroup
    source: str
    order_class: OrderClass


def load_record(source: str) -> GroupRecord:
    """The catalog record of one spec string; builds its group."""
    group = parse_group_spec(source)
    return GroupRecord(group, source, classify_order(factorize(group.order)))


# All 28 groups of order <= 15, one spec per isomorphism class
# (class counts by order: 1,1,1,2,1,2,1,5,2,2,1,5,1,2,1).
SMALL_GROUP_SPECS: tuple[str, ...] = (
    "Z1",
    "Z2",
    "Z3",
    "Z4",
    "Z2xZ2",
    "Z5",
    "Z6",
    "S3",
    "Z7",
    "Z8",
    "Z4xZ2",
    "Z2xZ2xZ2",
    "D4",
    "Dic2",
    "Z9",
    "Z3xZ3",
    "Z10",
    "D5",
    "Z11",
    "Z12",
    "Z6xZ2",
    "D6",
    "A4",
    "Dic3",
    "Z13",
    "Z14",
    "D7",
    "Z15",
)


def catalog_specs(max_order: int = CATALOG_MAX_ORDER) -> tuple[str, ...]:
    """Built-in catalog specs with order <= max_order, deterministic order.

    The complete classification below order 16, then parametric families:
    cyclic to 60, two-factor products to 48, dihedral to D24, dicyclic to
    Dic12, plus S4 and A5.
    """
    specs = [
        *SMALL_GROUP_SPECS,
        *(f"Z{n}" for n in range(16, CATALOG_MAX_ORDER + 1)),
        *(f"Z{m}xZ{k}" for m in range(2, 7) for k in range(m, 49) if 15 < m * k <= 48),
        *(f"D{n}" for n in range(8, 25)),
        *(f"Dic{n}" for n in range(4, 13)),
        "S4",
        "A5",
    ]
    entries = sorted((_spec_order(source), source) for source in specs)
    return tuple(source for order, source in entries if order <= max_order)


def _spec_order(spec: str) -> int:
    """The order of the group a spec names, from the grammar alone.

    `file:` factors count as 1.  Tokens are checked from left to right, and
    ValueError names the first faulty one: a token that does not parse, a
    parameter its constructor refuses, or an order above MAX_SPEC_ORDER as
    soon as a partial product passes it, so a huge spec costs nothing.
    """
    order = 1
    for token in spec.split("x"):
        if token.startswith("file:"):
            continue
        m = _ATOM.fullmatch(token)
        if not m:
            raise ValueError(f"bad group spec token {token!r} in {spec!r}")
        kind, n = m.group(1), int(m.group(2))
        if kind in ("S", "A"):
            # |S_n| = 2*3*...*n and |A_n| = 3*4*...*n for n >= 2.
            factor = 1
            for i in range(2 if kind == "S" else 3, n + 1):
                factor = _guarded(factor * i, spec)
        else:
            factor = n * {"Z": 1, "D": 2, "Dic": 4}[kind]
        order = _guarded(order * factor, spec)
        allowed = _PARAMETERS[kind]
        if n not in allowed:
            raise ValueError(
                f"bad group spec token {token!r} in {spec!r}: the {kind}"
                f" parameter must be in {allowed.start}..{allowed.stop - 1}"
            )
    return order


def _guarded(order: int, spec: str) -> int:
    if order > MAX_SPEC_ORDER:
        raise ValueError(
            f"group spec {spec!r} has order above {MAX_SPEC_ORDER}, the limit for"
            " built-in groups and products"
        )
    return order


def catalog_sources(
    max_order: int = CATALOG_MAX_ORDER, table_paths: tuple[str, ...] = ()
) -> tuple[str, ...]:
    """The spec strings of `build_catalog`: the built-in specs up to
    max_order, then `file:<path>` for each table path."""
    return (*catalog_specs(max_order), *(f"file:{path}" for path in table_paths))


def build_catalog(
    max_order: int = CATALOG_MAX_ORDER, table_paths: tuple[str, ...] = ()
) -> tuple[GroupRecord, ...]:
    """Built-in records up to max_order, then externally loaded tables.

    Loaded tables are kept regardless of max_order; the cap only filters the
    built-in families.
    """
    return tuple(map(load_record, catalog_sources(max_order, table_paths)))
