"""Command-line surface: build graphs, decide line-graph membership, emit the
forbidden patterns, and run the full classification check.

Each subcommand's arguments are declared once, in `COMMANDS`, in argparse's
own terms: each option is its flags plus the keywords `build_parser` passes to
`add_argument` unchanged (`type=int`, `choices`, `action="append"`,
`default`, `required`).  A plain command line (the subcommand name, its
positionals, and options spelled out in full, each with its value as the next
token) is read directly by `read_plain` from the same keywords, and it returns
the Namespace argparse would.  Help, abbreviations, `--opt=value`, `--` and
every error go through argparse, so their output and exit codes are argparse's.

Exit codes: 0 = success / all theorems hold, 1 = a theorem check failed,
2 = invalid input, 141 = stdout was closed before the output was written.
Output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from .catalog import CATALOG_MAX_ORDER, catalog_sources, parse_group_spec
from .graphs import format_graph_text
from .lattice import build_gamma, decide_gamma, to_dot, to_edge_list
from .linegraph import derive_forbidden_set, is_line_graph_by_roots
from .verify import verify_sources

# The exit code a shell reports for a process killed by SIGPIPE.
EXIT_BROKEN_PIPE = 141


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
    verdict = decide_gamma(lg)
    if not verdict.is_line_graph:
        names = ", ".join(lg.labels[v].name for v in verdict.embedding)
        print(f"NOT A LINE GRAPH: {verdict.pattern_id} at vertices [{names}]")
        return 0
    rooted = is_line_graph_by_roots(lg.graph)
    edges = " ".join(f"{u}-{v}" for u, v in rooted.root.edges())
    print(f"LINE GRAPH (root graph: {rooted.root.n} vertices, edges {edges})")
    return 0


def cmd_forbidden(args: argparse.Namespace) -> int:
    # Path("") is the current directory, which an unset shell variable names.
    if not args.out:
        raise ValueError("--out is empty; name the directory to write the patterns to")
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
    catalog = tuple(args.catalog or ())
    sources = catalog_sources(args.max_order, catalog)
    if not sources:
        raise ValueError(
            f"--max-order {args.max_order} selects no built-in group (the smallest"
            " has order 1) and no --catalog table was given"
        )
    main_report, case_report, completeness = verify_sources(sources)
    if args.max_order > CATALOG_MAX_ORDER:
        print(
            f"note: built-in catalog stops at order {CATALOG_MAX_ORDER};"
            f" {len(sources) - len(catalog)} built-in groups used",
            file=sys.stderr,
        )
    sys.stdout.write(main_report.to_text())
    sys.stdout.write(case_report.to_text())
    sys.stdout.write(completeness.summary() + "\n")
    if main_report.passed and case_report.passed and completeness.passed:
        return 0
    return 1


# Each subcommand's handler, help, positionals as (name, help), and options as
# (flags, keywords), the keywords passed to `add_argument` unchanged.  Every
# option names its `dest`, as `read_plain` stores its value there.
COMMANDS = {
    "gamma": (
        cmd_gamma,
        "build a group's cyclic subgroup graph",
        (("spec", "group spec, e.g. Z6, D4, Dic3, S4, Z2xZ3, file:G.tbl"),),
        ((("--format",), {"dest": "format", "choices": ("dot", "edges"), "default": "edges"}),),
    ),
    "check": (cmd_check, "decide whether the graph is a line graph", (("spec", None),), ()),
    "forbidden": (
        cmd_forbidden,
        "derive and write the nine forbidden patterns",
        (),
        ((("-o", "--out"), {"dest": "out", "required": True, "help": "output directory"}),),
    ),
    "verify": (
        cmd_verify,
        "run the classification over the catalog",
        (),
        (
            (("--max-order",), {"dest": "max_order", "type": int, "default": CATALOG_MAX_ORDER}),
            (
                ("--catalog",),
                {
                    "dest": "catalog",
                    "action": "append",
                    "metavar": "PATH",
                    "help": "extra Cayley-table file to include (repeatable)",
                },
            ),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouplines",
        description=(
            "Cyclic subgroup graphs of finite groups and line-graph recognition."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for positional, positional_help in positionals:
            p.add_argument(positional, help=positional_help)
        for flags, keywords in options:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=handler)
    return parser


def read_plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """The Namespace `build_parser().parse_args(argv)` returns, for a plain
    command line; None for any other, which argparse must read.

    Plain means: a subcommand name, then its positionals (tokens that do not
    start with "-") and its options, each spelled out in full and followed by
    its value, which does not start with "-" and which the option accepts.
    An int must be plain ASCII digits within int()'s digit limit; anything
    else is left to argparse to judge.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, declared, options = COMMANDS[argv[0]]
    values = {keywords["dest"]: keywords.get("default") for _, keywords in options}
    given = set()
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        keywords = next((kw for flags, kw in options if token in flags), None)
        value = next(tokens, None)
        if keywords is None or value is None or value.startswith("-"):
            return None
        if keywords.get("type") is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:
                return None
        elif "choices" in keywords and value not in keywords["choices"]:
            return None
        dest = keywords["dest"]
        if keywords.get("action") == "append":
            values[dest] = [*(values[dest] or ()), value]
        else:
            values[dest] = value
        given.add(dest)
    if len(positionals) != len(declared):
        return None
    if any(kw.get("required") and kw["dest"] not in given for _, kw in options):
        return None
    names = (name for name, _ in declared)
    return argparse.Namespace(
        command=argv[0], **dict(zip(names, positionals)), **values, func=handler
    )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone.  Point stdout at devnull, so that the
        # flush at exit cannot fail again, and exit as a shell reports SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
