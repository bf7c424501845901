"""Command-line surface: build graphs, decide line-graph membership, emit the
forbidden patterns, and run the full classification check.

Exit codes: 0 = success / all theorems hold, 1 = a theorem check failed,
2 = invalid input.  Output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import CATALOG_MAX_ORDER, catalog_sources, parse_group_spec
from .graphs import format_graph_text
from .groups import GroupTableError
from .lattice import build_gamma, to_dot, to_edge_list
from .linegraph import (
    derive_forbidden_set,
    is_line_graph_by_beineke,
    is_line_graph_by_roots,
)
from .verify import verify_sources


def cmd_gamma(args: argparse.Namespace) -> int:
    lg = build_gamma(parse_group_spec(args.spec))
    if args.format == "dot":
        sys.stdout.write(to_dot(lg))
    else:
        sys.stdout.write(to_edge_list(lg))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    group = parse_group_spec(args.spec)
    lg = build_gamma(group)
    verdict = is_line_graph_by_beineke(lg.graph, derive_forbidden_set())
    if not verdict.is_line_graph:
        names = ", ".join(lg.labels[v].name for v in verdict.embedding)
        print(f"NOT A LINE GRAPH: {verdict.pattern_id} at vertices [{names}]")
        return 0
    rooted = is_line_graph_by_roots(lg.graph)
    edges = " ".join(f"{u}-{v}" for u, v in rooted.root.edges())
    print(f"LINE GRAPH (root graph: {rooted.root.n} vertices, edges {edges})")
    return 0


def cmd_forbidden(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    forbidden = derive_forbidden_set()
    manifest = ["id\tfile\tvertices\tedges"]
    for pid, pattern in forbidden.items():
        filename = f"{pid}.g"
        (out / filename).write_text(format_graph_text(pattern), encoding="utf-8")
        manifest.append(f"{pid}\t{filename}\t{pattern.n}\t{pattern.edge_count()}")
        print(f"wrote {filename}")
    (out / "manifest.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    print("wrote manifest.tsv")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    sources = catalog_sources(args.max_order, tuple(args.catalog))
    if not sources:
        raise ValueError(
            f"--max-order {args.max_order} selects no built-in group (the smallest"
            " has order 1) and no --catalog table was given"
        )
    main_report, case_report, completeness = verify_sources(sources)
    if args.max_order > CATALOG_MAX_ORDER:
        print(
            f"note: built-in catalog stops at order {CATALOG_MAX_ORDER};"
            f" {len(sources) - len(args.catalog)} built-in groups used",
            file=sys.stderr,
        )
    sys.stdout.write(main_report.to_text())
    sys.stdout.write(case_report.to_text())
    sys.stdout.write(completeness.summary() + "\n")
    if main_report.passed and case_report.passed and completeness.passed:
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouplines",
        description=(
            "Cyclic subgroup graphs of finite groups and line-graph recognition."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="build a group's cyclic subgroup graph")
    p.add_argument("spec", help="group spec, e.g. Z6, D4, Dic3, S4, Z2xZ3, file:G.tbl")
    p.add_argument("--format", choices=("dot", "edges"), default="edges")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("check", help="decide whether the graph is a line graph")
    p.add_argument("spec")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("forbidden", help="derive and write the nine forbidden patterns")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_forbidden)

    p = sub.add_parser("verify", help="run the classification over the catalog")
    p.add_argument("--max-order", type=int, default=CATALOG_MAX_ORDER)
    p.add_argument(
        "--catalog",
        action="append",
        default=[],
        metavar="PATH",
        help="extra Cayley-table file to include (repeatable)",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GroupTableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
