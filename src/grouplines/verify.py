"""Exhaustive computational checks of the classification over a group catalog.

The classification says: the cyclic subgroup graph of a finite group is a
line graph exactly when the group is cyclic of prime-power order or cyclic
of order pq.  `verify_main_theorem` confronts that equivalence with every
catalog group; `verify_case_theorems` re-derives the per-case witnesses the
arguments are built from (claws with prescribed subgroup orders); and
`check_completeness_claim` tests that the graph is complete exactly for the
trivial group and groups of prime order.

Each group's work is one function, `_group_rows`, from a record to its row
of each report: Γ is built once, and its verdict (read off its vertex
degrees by `lattice.decide_gamma`), cyclicity and the prediction are
computed once.  `verify_catalog` returns the three reports of one such pass
over the catalog, and each of the three functions above keeps the report it
names.  `verify_sources`, which `grouplines verify` runs, also builds each
group inside that function.  The groups are split over the CPUs available
to the process (`fanout.fan_out`) and the rows put back in catalog order, so
the reports do not depend on the number of CPUs.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any, NamedTuple

from .catalog import GroupRecord, load_record
from .fanout import fan_out
from .graphs import check_induced_embedding
from .groups import FiniteGroup, OrderClass, classify_order, factorize
from .lattice import LabeledGraph, build_gamma, decide_gamma
from .linegraph import CLAW, Verdict

_LINE_GRAPH_CLASSES = frozenset(
    {OrderClass.TRIVIAL, OrderClass.PRIME_POWER, OrderClass.TWO_PRIMES_PQ}
)


def predict(group: FiniteGroup) -> bool:
    """Classification right-hand side: cyclic of prime-power or pq order."""
    return _predicted(group.is_cyclic(), classify_order(factorize(group.order)))


def _predicted(is_cyclic: bool, order_class: OrderClass) -> bool:
    return is_cyclic and order_class in _LINE_GRAPH_CLASSES


def _witness_summary(lg: LabeledGraph, verdict: Verdict) -> str:
    if verdict.is_line_graph:
        return "-"
    orders = sorted(lg.labels[v].order for v in verdict.embedding)
    return f"{verdict.pattern_id} orders={','.join(str(o) for o in orders)}"


# ---------------------------------------------------------------------------
# main theorem


class TheoremRow(NamedTuple):
    name: str
    order: int
    order_class: OrderClass
    is_cyclic: bool
    predicted: bool
    actual: bool
    witness: str


class TheoremReport(NamedTuple):
    rows: tuple[TheoremRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.predicted == r.actual for r in self.rows)

    def summary(self) -> str:
        word = "HOLDS" if self.passed else "FAILS"
        return f"THEOREM {word} over {len(self.rows)} groups"

    def to_text(self) -> str:
        lines = []
        for r in self.rows:
            lines.append(
                "\t".join(
                    (
                        r.name,
                        str(r.order),
                        r.order_class.value,
                        _b(r.is_cyclic),
                        _b(r.predicted),
                        _b(r.actual),
                        r.witness,
                    )
                )
            )
        lines.append(self.summary())
        return "\n".join(lines) + "\n"


def _b(flag: bool) -> str:
    return "true" if flag else "false"


def verify_main_theorem(catalog: tuple[GroupRecord, ...]) -> TheoremReport:
    """One row per group: predicted (right-hand side) vs actual (recognizer)."""
    return verify_catalog(catalog)[0]


# ---------------------------------------------------------------------------
# per-case checks with prescribed witnesses


class CaseCheck(NamedTuple):
    case: str
    group: str
    expect_line_graph: bool
    center_order: int | None
    leaf_orders: tuple[int, ...] | None
    ok: bool

    def witness_text(self) -> str:
        if self.center_order is None:
            return "-"
        leaves = ",".join(str(o) for o in self.leaf_orders)
        return f"claw center={self.center_order} leaves={leaves}"


class CaseReport(NamedTuple):
    checks: tuple[CaseCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary(self) -> str:
        word = "HOLD" if self.passed else "FAIL"
        return f"CASES {word} over {len(self.checks)} checks"

    def to_text(self) -> str:
        lines = [
            "\t".join(
                (
                    c.case,
                    c.group,
                    "line-graph" if c.expect_line_graph else "not-line-graph",
                    c.witness_text(),
                    _b(c.ok),
                )
            )
            for c in self.checks
        ]
        lines.append(self.summary())
        return "\n".join(lines) + "\n"


def verify_case_theorems(catalog: tuple[GroupRecord, ...]) -> CaseReport:
    """Check each classification case on the groups satisfying its hypothesis.

    Negative cases must come with a claw whose subgroup orders follow the
    construction used to rule the group out: {1,p1,p2,p3} when three primes
    divide the order, {1,t,t,t} for non-cyclic abelian groups and non-abelian
    groups of order pq, a chain-shaped claw for cyclic two-prime orders, and
    any induced claw for the remaining negatives.
    """
    return verify_catalog(catalog)[1]


def _case_check(
    record: GroupRecord,
    lg: LabeledGraph,
    verdict: Verdict,
    is_cyclic: bool,
    predicted: bool,
    factors: tuple[tuple[int, int], ...],
    order_class: OrderClass,
) -> CaseCheck | None:
    """The check of the case whose hypothesis the group satisfies, if any.

    Γ's vertices are sorted by order, so {e} is vertex 0 and the cyclic
    subgroups of one order form a block of consecutive vertices: each claw
    is read off `first`, the first vertex of each order, and a block's size
    is the next block's start minus its own.
    """
    actual = verdict.is_line_graph
    if order_class is OrderClass.TRIVIAL:
        return None
    if predicted:
        return CaseCheck("cyclic-two-primes", record.source, True, None, None, actual)
    first: dict[int, int] = {}
    for v, label in enumerate(lg.labels):
        first.setdefault(label.order, v)
    primes = [p for p, _ in factors]
    if order_class is OrderClass.THREE_OR_MORE_PRIMES:
        case, center, leaves = "three-primes", 0, [first[p] for p in primes[:3]]
    elif is_cyclic:
        # Two primes, t the one whose square divides the order: the chain
        # claw t; 1, t², tu.
        (t, _), (u, _) = factors if factors[0][1] >= 2 else factors[::-1]
        case, center, leaves = "cyclic-two-primes", first[t], [0, first[t * t], first[t * u]]
    elif (abelian := record.group.is_abelian()) or order_class is OrderClass.TWO_PRIMES_PQ:
        case = "noncyclic-abelian" if abelian else "nonabelian-pq"
        starts = [*first.values(), len(lg.labels)]
        size = {order: end - start for order, start, end in zip(first, starts, starts[1:])}
        t = next((p for p in primes if size[p] >= 3), None)
        if t is None:
            raise RuntimeError("no prime with three subgroups of that order was found")
        center, leaves = 0, range(first[t], first[t] + 3)
    else:
        # Remaining negatives (non-abelian prime-power or two-prime
        # orders): any induced claw will do; take the verdict's.
        case, center, leaves = "other-negative", None, None
        if not actual:
            *leaves, center = verdict.embedding
    if center is None:
        return CaseCheck(case, record.source, False, None, None, False)
    ok = not actual and check_induced_embedding(lg.graph, CLAW, (*leaves, center))
    leaf_orders = tuple(lg.labels[v].order for v in leaves)
    return CaseCheck(case, record.source, False, lg.labels[center].order, leaf_orders, ok)


# ---------------------------------------------------------------------------
# completeness of the graph


class CompletenessRow(NamedTuple):
    name: str
    order: int
    complete: bool
    expected: bool

    @property
    def ok(self) -> bool:
        return self.complete == self.expected


class CompletenessReport(NamedTuple):
    rows: tuple[CompletenessRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def summary(self) -> str:
        word = "HOLDS" if self.passed else "FAILS"
        return f"COMPLETENESS {word} over {len(self.rows)} groups"


def check_completeness_claim(catalog: tuple[GroupRecord, ...]) -> CompletenessReport:
    """The graph is complete exactly for the trivial group and prime orders."""
    return verify_catalog(catalog)[2]


# ---------------------------------------------------------------------------
# all three reports


_Rows = tuple[TheoremRow, CaseCheck | None, CompletenessRow]


def _group_rows(record: GroupRecord) -> _Rows:
    """One group's rows of the three reports, from one Γ and one verdict.

    Γ's vertices are sorted by subgroup order, so its last vertex is a
    largest cyclic subgroup, and the group is cyclic exactly when that is
    the whole group.
    """
    group = record.group
    lg = build_gamma(group)
    verdict = decide_gamma(lg)
    is_cyclic = lg.labels[-1].order == group.order
    factors = factorize(group.order)
    order_class = classify_order(factors)
    predicted = _predicted(is_cyclic, order_class)
    g = lg.graph
    return (
        TheoremRow(
            name=record.source,
            order=group.order,
            order_class=order_class,
            is_cyclic=is_cyclic,
            predicted=predicted,
            actual=verdict.is_line_graph,
            witness=_witness_summary(lg, verdict),
        ),
        _case_check(record, lg, verdict, is_cyclic, predicted, factors, order_class),
        CompletenessRow(
            name=record.source,
            order=group.order,
            complete=g.edge_count() == g.n * (g.n - 1) // 2,
            expected=group.order == 1 or (len(factors) == 1 and factors[0][1] == 1),
        ),
    )


def _source_rows(source: str) -> _Rows:
    return _group_rows(load_record(source))


def _reports(
    rows_of: Callable[[Any], _Rows], items: Sequence[Any]
) -> tuple[TheoremReport, CaseReport, CompletenessReport]:
    if not items:
        raise ValueError("catalog must be non-empty")
    theorem, cases, completeness = zip(*fan_out(rows_of, items))
    return (
        TheoremReport(theorem),
        CaseReport(tuple(check for check in cases if check is not None)),
        CompletenessReport(completeness),
    )


def verify_catalog(
    catalog: tuple[GroupRecord, ...],
) -> tuple[TheoremReport, CaseReport, CompletenessReport]:
    """The main-theorem, case and completeness reports, one pass per group."""
    return _reports(_group_rows, catalog)


def verify_sources(
    sources: Sequence[str],
) -> tuple[TheoremReport, CaseReport, CompletenessReport]:
    """`verify_catalog` over the records of the given spec strings, with each
    group built, and any table file validated, in the process that verifies
    it.

    When tables are bad, the error of the first in source order is raised.
    """
    return _reports(_source_rows, sources)
