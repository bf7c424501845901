"""Built-in group catalog and the textual group-spec grammar.

Spec grammar: `Z<n>` | `D<n>` (order 2n) | `Dic<n>` (order 4n) | `S<n>` |
`A<n>` | `<spec>x<spec>` (direct product, left-associative) | `file:<path>`
(Cayley-table file).  A spec that starts with `file:` is taken as a single
path; inside a product, `file:` tokens must not contain the letter x.

`_KINDS` is the one table of atom kinds.  `_read_spec` reads a product spec
in one pass to its order and factors: `parse_group_spec` builds the group
from them, and `catalog_specs` sorts by the order.
"""

from __future__ import annotations

import math
import os
import re
import stat
from pathlib import Path
from typing import NamedTuple

from .groups import (
    FiniteGroup,
    GroupTableError,
    direct_product,
    from_cayley_table,
    make_alternating,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_symmetric,
)

# The largest group order a spec may build, as the README gives it; larger
# specs are refused before any group is built.  A spec that is a single
# table file is not capped by order: its table is the input.
MAX_SPEC_ORDER = 2048

# The most bytes a table file may hold; a longer file, or a pipe that goes
# on, is refused before any decoding.  `to_cayley_table` writes any group of
# order 2048 in 18,698,251 bytes, as every row permutes the same numbers.
MAX_TABLE_BYTES = 32 << 20

# Each atom kind: its constructor, the parameters it takes within the order
# limit, and the factors whose product is its order.  D and Dic give their
# order as one factor, so a zero parameter is named before the limit fires.
_KINDS = {
    "Z": (make_cyclic, range(1, MAX_SPEC_ORDER + 1), lambda n: (n,)),
    "D": (make_dihedral, range(1, MAX_SPEC_ORDER // 2 + 1), lambda n: (2 * n,)),
    "Dic": (make_dicyclic, range(2, MAX_SPEC_ORDER // 4 + 1), lambda n: (4 * n,)),
    # |S_n| = 2*3*...*n and |A_n| = 3*4*...*n for n >= 2.
    "S": (make_symmetric, range(1, 6), lambda n: range(2, n + 1)),
    "A": (make_alternating, range(3, 6), lambda n: range(3, n + 1)),
}

# ASCII digits only: \d would also take other Unicode digits, which int() reads.
_ATOM = re.compile(f"({'|'.join(_KINDS)})([0-9]+)")

# The largest order in the built-in catalog (Z60 and A5); `catalog_specs`
# with a larger max_order returns the same specs.
CATALOG_MAX_ORDER = 60


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
    order, factors = _read_spec(spec)
    factors = [_load_table(f) if isinstance(f, str) else f for f in factors]
    _guarded(order * math.prod(f.order for f in factors if isinstance(f, FiniteGroup)), spec)
    return direct_product(*(_KINDS[f[0]][0](f[1]) if isinstance(f, tuple) else f for f in factors))


def _read_spec(spec: str) -> tuple[int, list[tuple[str, int] | str]]:
    """The order of the group a product spec names, from the grammar alone,
    and its factors: `(kind, n)` for a built-in atom, the path for a `file:`
    token.

    `file:` factors count as 1.  Tokens are checked from left to right, and
    ValueError names the first faulty one: a token that does not parse, a
    parameter its constructor refuses, or an order above MAX_SPEC_ORDER as
    soon as a partial product passes it, so a huge spec costs nothing.
    """
    order = 1
    factors: list[tuple[str, int] | str] = []
    for token in spec.split("x"):
        if token.startswith("file:"):
            factors.append(token[len("file:") :])
            continue
        m = _ATOM.fullmatch(token)
        if not m:
            raise ValueError(f"bad group spec token {token!r} in {spec!r}")
        kind, digits = m.groups()
        # Digits past the guard's width only make the order larger, and int()
        # may refuse a string of over 4300 digits.
        n = int(digits.lstrip("0")[: len(str(MAX_SPEC_ORDER)) + 1] or 0)
        _, allowed, order_factors = _KINDS[kind]
        for factor in order_factors(n):
            order = _guarded(order * factor, spec)
        if n not in allowed:
            raise ValueError(
                f"bad group spec token {token!r} in {spec!r}: the {kind}"
                f" parameter must be in {allowed.start}..{allowed.stop - 1}"
            )
        factors.append((kind, n))
    return order, factors


def _load_table(path: str) -> FiniteGroup:
    if not path:
        raise ValueError("empty path in file: spec")
    # A device such as /dev/zero never ends, so it is refused unread; a
    # missing file raises here with the message open() would give.
    mode = os.stat(path).st_mode
    if stat.S_ISCHR(mode) or stat.S_ISBLK(mode):
        raise ValueError(f"table file {path!r} is a device, not a file")
    with open(path, "rb") as f:
        data = f.read(MAX_TABLE_BYTES + 1)
    if len(data) > MAX_TABLE_BYTES:
        raise ValueError(f"table file {path!r} is longer than {MAX_TABLE_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GroupTableError(f"table file {path!r} is not UTF-8 at byte {exc.start}") from None
    try:
        return from_cayley_table(text, name=Path(path).stem)
    except GroupTableError as exc:
        raise GroupTableError(f"table file {path!r}: {exc}") from None


class GroupRecord(NamedTuple):
    """A catalog entry: the group and the spec string it came from."""

    group: FiniteGroup
    source: str


def load_record(source: str) -> GroupRecord:
    """The catalog record of one spec string; builds its group."""
    return GroupRecord(parse_group_spec(source), source)


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
    entries = sorted((_read_spec(source)[0], source) for source in specs)
    return tuple(source for order, source in entries if order <= max_order)


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
