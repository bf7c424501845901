"""The three workloads: seeded inputs, one operation each, and its check.

A run executes whole passes of inputs for as long as the clock allows.
Pass p is drawn from `random.Random` seeded with the workload name, the seed
and p, so the same seed gives the same inputs and no two passes share a
relabelling, a graph object or a table file.  Draws are stratified: a fixed
number from each slot, so that every pass has the same cost profile and the
figures of two seeds stay comparable.

The two CLI workloads run each operation in a forked child (`isolated`), as
a CLI process would after import and set-up: nothing one operation caches
is seen by the next.  recognize-lines is a library workload and runs in the
benchmark process.

Each workload gives, for an input, a `key` under which its output must
repeat (None where inputs never repeat) and a small `fact` from which
`describe` reports the input properties over every executed operation.

Only names in `grouplines.__all__` and `grouplines.cli.main` are used.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from pathlib import Path

import grouplines as gl
from grouplines.cli import main as cli_main

import oracle

# Positive graphs up to this size also get a root certificate.
ROOT_CERT_MAX_VERTICES = 12


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue() + err.getvalue()


def _no_span(name: str):
    return contextlib.nullcontext()


def _pattern_index(forbidden, verdict) -> int:
    """How many patterns the scan tried: all nine on a positive."""
    if verdict.is_line_graph:
        return len(forbidden.ids)
    return forbidden.ids.index(verdict.pattern_id) + 1


def _decide(graph, span, counts, forbidden):
    """is_line_graph_by_beineke, then a root certificate for small positives."""
    with span("linegraph.is_line_graph_by_beineke"):
        verdict = gl.is_line_graph_by_beineke(graph, forbidden)
    counts["linegraph.is_line_graph_by_beineke.calls"] += 1
    counts["linegraph.patterns_tried"] += _pattern_index(forbidden, verdict)
    rooted = None
    if verdict.is_line_graph and graph.n <= ROOT_CERT_MAX_VERTICES:
        with span("linegraph.is_line_graph_by_roots"):
            rooted = gl.is_line_graph_by_roots(graph)
        counts["linegraph.is_line_graph_by_roots.calls"] += 1
        counts["linegraph.root_certificates"] += rooted.root is not None
    return verdict, rooted


# ---------------------------------------------------------------------------
# verify-catalog


class VerifyCatalog:
    """`grouplines verify --max-order 60` over the built-in catalog plus a set
    of seeded Cayley-table files, run in-process in a forked child.  Every
    operation has its own table set."""

    name = "verify-catalog"
    isolated = True
    MAX_ORDER = 60
    PASS_OPS = 4
    # One file per slot; the seed picks the construction and relabels it.
    FILE_SLOTS = (
        ("Z21", "Z7:Z3"),
        ("Z27", "Z3xZ9", "Z3xZ3xZ3"),
        ("Z40", "Z2xZ20", "D20", "Dic10"),
        ("Z55", "Z11:Z5"),
        ("Z64", "Z8xZ8", "Z2xZ32", "D32", "Dic16"),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.builtin = {s: oracle.spec_facts(s) for s in gl.catalog_specs(self.MAX_ORDER)}

    def pass_inputs(self, p: int) -> list[tuple]:
        """Each operation is a tuple of (table path, construction) pairs."""
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        inputs = []
        for r in range(self.PASS_OPS):
            files = []
            for slot, choices in enumerate(self.FILE_SLOTS):
                construction = rng.choice(choices)
                path = self.workdir / f"pass{p}-op{r}-table{slot}.tbl"
                path.write_text(table_text(construction, rng), encoding="utf-8")
                files.append((str(path), construction))
            inputs.append(tuple(files))
        return inputs

    def run(self, files):
        argv = ["verify", "--max-order", str(self.MAX_ORDER)]
        for path, _ in files:
            argv += ["--catalog", path]
        return _run_cli(argv)

    def run_traced(self, files, span, counts, forbidden):
        with span("catalog.build_catalog"):
            catalog = gl.build_catalog(self.MAX_ORDER, tuple(path for path, _ in files))
        counts["groups.table_cells"] += sum(rec.group.order**2 for rec in catalog)
        with span("verify.verify_main_theorem"):
            main_report = gl.verify_main_theorem(catalog)
        with span("verify.verify_case_theorems"):
            case_report = gl.verify_case_theorems(catalog)
        with span("verify.check_completeness_claim"):
            completeness = gl.check_completeness_claim(catalog)
        # The same text and exit code as `grouplines verify`.
        text = main_report.to_text() + case_report.to_text() + completeness.summary() + "\n"
        ok = main_report.passed and case_report.passed and completeness.passed
        return (0 if ok else 1), text

    def key(self, files):
        return None

    def fact(self, files):
        return tuple(construction for _, construction in files)

    def check(self, files, result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        expected = dict(self.builtin)
        for path, construction in files:
            expected[f"file:{path}"] = construction_facts(construction)
        return oracle.check_verify_output(text, expected)

    def describe(self, facts: list) -> list[str]:
        sizes = Counter(f"{c} (order {construction_facts(c)[0]})" for op in facts for c in op)
        return [
            f"catalog: {len(self.builtin)} built-in specs (order <= {self.MAX_ORDER})"
            f" + {len(self.FILE_SLOTS)} seeded tables per operation, each table file"
            " written once",
            "seeded tables: " + ", ".join(f"{k} x{v}" for k, v in sorted(sizes.items())),
        ]

    def serialize(self, inputs: list) -> bytes:
        return b"".join(Path(path).read_bytes() for files in inputs for path, _ in files)


def construction_facts(construction: str) -> tuple[int, bool]:
    if ":" in construction:
        p, q = (int(x[1:]) for x in construction.split(":"))
        return p * q, False
    return oracle.spec_facts(construction)


def table_text(construction: str, rng: random.Random) -> str:
    """Cayley table of a construction with its non-identity elements relabelled."""
    if ":" in construction:
        p, q = (int(x[1:]) for x in construction.split(":"))
        elements, mul = oracle.semidirect_group(p, q)
    else:
        elements, mul = oracle.atoms_group(construction)
    rows = oracle.cayley_rows(elements, mul)
    n = len(rows)
    perm = [0] + rng.sample(range(1, n), n - 1)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[rows[a][b]]
    lines = [f"order {n}"] + [" ".join(map(str, row)) for row in table]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# check-groups


class CheckGroups:
    """`grouplines check <spec>` run in-process, one spec per operation."""

    name = "check-groups"
    isolated = True
    # A pass draws two specs from every slot and holds each spec of FIXED
    # once.  Specs in a slot share an order and cost within a few percent of
    # each other, because table validation, cubic in the order, dominates.
    # So every pass has the same cost profile, the median falls among the
    # orders 60 and 64, and the tail inside the slot of order 160.  Orders above
    # 160 are left out: one operation of order 256 takes a third of a pass,
    # which made ops_per_s follow the host's slow phases.
    SLOTS = (
        ("Z16", "Z4xZ4", "Z2xZ8", "D8", "Dic4", "Z2xZ2xZ4"),
        ("Z22", "Z2xZ11", "D11"),
        ("Z24", "Z2xZ12", "S4", "D12", "Dic6"),
        ("Z27", "Z3xZ9", "Z3xZ3xZ3"),
        ("Z32", "Z4xZ8", "Z2xZ16", "D16", "Dic8"),
        ("Z35", "Z5xZ7"),
        ("Z48", "Z4xZ12", "D24", "Dic12"),
        ("Z60", "D30", "Dic15"),
        ("Z64", "Z8xZ8", "D32", "Dic16"),
        ("Z72", "Z6xZ12", "D36", "Dic18"),
        ("Z81", "Z9xZ9", "Z3xZ27"),
        ("Z96", "Z4xZ24", "D48", "Dic24"),
        ("Z100", "Z10xZ10", "D50", "Dic25"),
        ("Z120", "D60", "Dic30"),
        ("Z128", "D64", "Dic32"),
        ("Z143", "Z11xZ13"),
        ("Z160", "Z4xZ40", "D80", "Dic40"),
    )
    FIXED = ("A5", "S5", "Z2xZ2xZ2xZ2xZ2xZ2xZ2")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def pass_inputs(self, p: int) -> list[str]:
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        specs = [rng.choice(slot) for _ in range(2) for slot in self.SLOTS]
        specs += self.FIXED
        rng.shuffle(specs)
        return specs

    def run(self, spec: str):
        return _run_cli(["check", spec])

    def run_traced(self, spec: str, span, counts, forbidden):
        with span("catalog.parse_group_spec"):
            group = gl.parse_group_spec(spec)
        counts["groups.table_cells"] += group.order**2
        with span("lattice.build_gamma"):
            lg = gl.build_gamma(group)
        counts["lattice.build_gamma.calls"] += 1
        counts["lattice.gamma_vertices"] += lg.graph.n
        counts["lattice.gamma_edges"] += lg.graph.edge_count()
        with span("linegraph.derive_forbidden_set"):
            forbidden = gl.derive_forbidden_set()
        verdict, rooted = _decide(lg.graph, span, counts, forbidden)
        # The same text `grouplines check` prints.
        if not verdict.is_line_graph:
            names = ", ".join(lg.labels[v].name for v in verdict.embedding)
            return 0, f"NOT A LINE GRAPH: {verdict.pattern_id} at vertices [{names}]\n"
        if rooted is None:
            return 0, "LINE GRAPH\n"
        edges = " ".join(f"{u}-{v}" for u, v in rooted.root.edges())
        return 0, f"LINE GRAPH (root graph: {rooted.root.n} vertices, edges {edges})\n"

    def key(self, spec: str):
        return spec

    def fact(self, spec: str):
        return spec

    def check(self, spec: str, result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        return oracle.check_check_output(spec, text)

    def describe(self, facts: list) -> list[str]:
        orders = Counter(oracle.spec_facts(s)[0] for s in facts)
        positive = sum(oracle.theorem_says_line_graph(*oracle.spec_facts(s)) for s in facts)
        repeats = len(facts) - len(set(facts))
        n = len(facts)
        return [
            "order histogram: " + " ".join(f"{k}:{v}" for k, v in sorted(orders.items())),
            f"spec repeat share: {repeats / n:.3f} ({repeats} of {n} executed ops repeat"
            f" an earlier spec of the run; {len(set(facts))} distinct specs); each op"
            " runs in a fresh fork, so no repeat finds a cache warmed by an earlier op",
            f"positive share: {positive / n:.3f} ({positive} of {n})",
        ]

    def serialize(self, inputs: list) -> bytes:
        return "\n".join(inputs).encode()


# ---------------------------------------------------------------------------
# recognize-lines


def _random_connected(rng: random.Random, v: int, m: int) -> list[tuple[int, int]]:
    """A random connected simple graph on v vertices with m edges."""
    edges = {tuple(sorted((i, rng.randrange(i)))) for i in range(1, v)}
    others = [(a, b) for a in range(v) for b in range(a + 1, v) if (a, b) not in edges]
    edges.update(rng.sample(others, m - len(edges)))
    return sorted(edges)


def _relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = rng.sample(range(n), n)
    return sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)


def _line_graph_edges(root_edges) -> tuple[int, list[tuple[int, int]]]:
    adj = oracle.line_graph_adj(root_edges)
    k = len(root_edges)
    return k, [(i, j) for i in range(k) for j in range(i + 1, k) if (adj[i] >> j) & 1]


class RecognizeLines:
    """is_line_graph_by_beineke on one graph, plus is_line_graph_by_roots for
    positives with at most ROOT_CERT_MAX_VERTICES vertices."""

    name = "recognize-lines"
    isolated = False
    # Counts per pass.  The median falls in the middle of the L(K6) copies,
    # with 24 cheaper graphs below them and 24 dearer ones above, and the
    # tail among the L(K8) copies.  These are fixed graphs, randomly
    # relabelled, so the two order statistics do not depend on which random
    # graphs a seed drew.  The scan on a copy of L(K6) takes from 1x to 1.8x
    # the fastest time, depending on the labels, so the median sits in the
    # middle of that range rather than at an edge of it.
    # (a) line graphs of connected roots: (root vertices, root edges, count).
    # The last three rows are K6, K7 and K8.
    POSITIVES = (
        (6, 6, 2), (7, 10, 2), (8, 12, 2), (9, 18, 2), (10, 25, 2),
        (6, 15, 30), (7, 21, 18), (8, 28, 4),
    )
    # (b) a line graph plus three pendant vertices on one of its vertices.
    PENDANTS = ((7, 10, 2), (9, 16, 2))
    # (c) unions of a line graph with a disjoint copy of one of Γ2-Γ9, drawn
    # by the seed; these are claw-free, so the claw search runs to exhaustion.
    UNION_ROOT = (8, 14)
    UNIONS = 12

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.forbidden = gl.derive_forbidden_set()

    def pass_inputs(self, p: int) -> list[tuple]:
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        graphs = []
        for v, m, count in self.POSITIVES:
            for _ in range(count):
                n, edges = _line_graph_edges(_random_connected(rng, v, m))
                graphs.append(("a", n, _relabel(rng, n, edges)))
        for v, m, count in self.PENDANTS:
            for _ in range(count):
                n, edges = _line_graph_edges(_random_connected(rng, v, m))
                hub = rng.randrange(n)
                edges = edges + [(hub, n + i) for i in range(3)]
                graphs.append(("b", n + 3, _relabel(rng, n + 3, edges)))
        for _ in range(self.UNIONS):
            n, edges = _line_graph_edges(_random_connected(rng, *self.UNION_ROOT))
            _, k, pattern = oracle.BEINEKE[rng.randrange(1, 9)]
            edges = edges + [(n + a, n + b) for a, b in pattern]
            graphs.append(("c", n + k, _relabel(rng, n + k, edges)))
        rng.shuffle(graphs)
        # The SimpleGraph is built here, outside the timed operation.
        return [
            (cls, n, tuple(edges), gl.SimpleGraph.from_edges(n, edges))
            for cls, n, edges in graphs
        ]

    def run(self, inp):
        return self._result(*_decide(inp[3], _no_span, Counter(), self.forbidden))

    def run_traced(self, inp, span, counts, forbidden):
        return self._result(*_decide(inp[3], span, counts, forbidden))

    @staticmethod
    def _result(verdict, rooted):
        if not verdict.is_line_graph:
            return False, verdict.pattern_id, verdict.embedding
        if rooted is None:
            return True, None, None
        return rooted.is_line_graph, rooted.root.edges(), rooted.edge_map

    def key(self, inp):
        return None

    def fact(self, inp):
        cls, n, edges, _ = inp
        return cls, n, hash((n, edges))

    def check(self, inp, result) -> str | None:
        cls, n, edges, _ = inp
        positive, evidence, mapping = result
        adj = oracle.adj_from_edges(n, edges)
        if positive != (cls == "a"):
            return f"wrong verdict on class ({cls})"
        if not positive:
            if not oracle.is_beineke_witness(adj, mapping):
                return "witness does not induce a Beineke graph"
            return None
        if n <= ROOT_CERT_MAX_VERTICES and not oracle.is_root_certificate(
            adj, evidence, mapping
        ):
            return "root certificate rejected"
        return None

    def describe(self, facts: list) -> list[str]:
        classes = Counter(cls for cls, _, _ in facts)
        sizes = [n for _, n, _ in facts]
        n = len(facts)
        certified = sum(1 for c, k, _ in facts if c == "a" and k <= ROOT_CERT_MAX_VERTICES)
        # Only the complete roots K6, K7 and K8 give 15, 21 and 28 vertices.
        fixed = sum(1 for c, k, _ in facts if c == "a" and k in (15, 21, 28))
        repeats = n - len({h for _, _, h in facts})
        return [
            "class shares: "
            + " ".join(f"({c}) {classes[c] / n:.3f}" for c in "abc")
            + f" of {n} executed ops",
            f"graph vertices: {min(sizes)}-{max(sizes)};"
            f" root-certified positives: {certified / n:.3f} ({certified})",
            f"relabelled copies of L(K6), L(K7), L(K8): {fixed / n:.3f};"
            f" exact repeats of an earlier graph: {repeats / n:.3f} ({repeats})",
        ]

    def serialize(self, inputs: list) -> bytes:
        return repr([inp[:3] for inp in inputs]).encode()


WORKLOADS = {w.name: w for w in (VerifyCatalog, CheckGroups, RecognizeLines)}
