"""Command-line surface: build graphs, decide line-graph membership, emit the
forbidden patterns, and run the full classification check.

Each subcommand's arguments are declared once, in `COMMANDS`; `build_parser`
builds the argparse parser from that table.  A plain command line (the
subcommand name, its positionals, and options spelled out in full, each with
its value as the next token) is read directly by `read_plain`, which returns
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
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import NamedTuple

from .catalog import CATALOG_MAX_ORDER, catalog_sources, parse_group_spec
from .graphs import format_graph_text
from .groups import GroupTableError
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


class Option(NamedTuple):
    """One option of a subcommand.

    `kind` says how its value is read: "int" (argparse `type=int`), "choice"
    (one of `choices`), "append" (repeatable; a list, `default` is a tuple)
    or "plain" (the string as given).
    """

    flags: tuple[str, ...]
    dest: str
    kind: str = "plain"
    default: object = None
    choices: tuple[str, ...] = ()
    required: bool = False
    metavar: str | None = None
    help: str | None = None

    def fresh_default(self) -> object:
        return list(self.default) if self.kind == "append" else self.default

    def argparse_kwargs(self) -> dict[str, object]:
        kwargs: dict[str, object] = {
            "dest": self.dest,
            "default": self.fresh_default(),
            "required": self.required,
            "metavar": self.metavar,
            "help": self.help,
        }
        if self.kind == "int":
            kwargs["type"] = int
        elif self.kind == "choice":
            kwargs["choices"] = self.choices
        elif self.kind == "append":
            kwargs["action"] = "append"
        return kwargs

    def read(self, value: str) -> object:
        """The value argparse would store, or None where argparse must judge:
        an int that is not plain ASCII digits or is past int()'s digit limit,
        or a choice outside its set."""
        if self.kind == "int":
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                return int(value)
            except ValueError:
                return None
        if self.kind == "choice" and value not in self.choices:
            return None
        return value


class Command(NamedTuple):
    """One subcommand: its handler, help, positionals as (name, help), options."""

    name: str
    handler: Callable[[argparse.Namespace], int]
    help: str
    positionals: tuple[tuple[str, str | None], ...] = ()
    options: tuple[Option, ...] = ()


COMMANDS = (
    Command(
        "gamma",
        cmd_gamma,
        "build a group's cyclic subgroup graph",
        positionals=(("spec", "group spec, e.g. Z6, D4, Dic3, S4, Z2xZ3, file:G.tbl"),),
        options=(
            Option(("--format",), "format", "choice", "edges", choices=("dot", "edges")),
        ),
    ),
    Command(
        "check",
        cmd_check,
        "decide whether the graph is a line graph",
        positionals=(("spec", None),),
    ),
    Command(
        "forbidden",
        cmd_forbidden,
        "derive and write the nine forbidden patterns",
        options=(Option(("-o", "--out"), "out", required=True, help="output directory"),),
    ),
    Command(
        "verify",
        cmd_verify,
        "run the classification over the catalog",
        options=(
            Option(("--max-order",), "max_order", "int", CATALOG_MAX_ORDER),
            Option(
                ("--catalog",),
                "catalog",
                "append",
                (),
                metavar="PATH",
                help="extra Cayley-table file to include (repeatable)",
            ),
        ),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouplines",
        description=(
            "Cyclic subgroup graphs of finite groups and line-graph recognition."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for name, help_text in command.positionals:
            p.add_argument(name, help=help_text)
        for option in command.options:
            p.add_argument(*option.flags, **option.argparse_kwargs())
        p.set_defaults(func=command.handler)
    return parser


def read_plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """The Namespace `build_parser().parse_args(argv)` returns, for a plain
    command line; None for any other, which argparse must read.

    Plain means: a subcommand name, then its positionals (tokens that do not
    start with "-") and its options, each spelled out in full and followed by
    its value, which does not start with "-" and which the option accepts.
    """
    command = next((c for c in COMMANDS if argv and c.name == argv[0]), None)
    if command is None:
        return None
    values = {option.dest: option.fresh_default() for option in command.options}
    given = set()
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        option = next((o for o in command.options if token in o.flags), None)
        value = next(tokens, None)
        if option is None or value is None or value.startswith("-"):
            return None
        value = option.read(value)
        if value is None:
            return None
        if option.kind == "append":
            values[option.dest].append(value)
        else:
            values[option.dest] = value
        given.add(option.dest)
    if len(positionals) != len(command.positionals):
        return None
    if any(o.required and o.dest not in given for o in command.options):
        return None
    names = (name for name, _ in command.positionals)
    return argparse.Namespace(
        command=command.name,
        **dict(zip(names, positionals)),
        **values,
        func=command.handler,
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
    except (GroupTableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
