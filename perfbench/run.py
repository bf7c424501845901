"""grouplines benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload check-groups --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`.  With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
it records spans around the public calls each operation makes and prints the
per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Workloads, metrics and their expected movements are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_PROBES = 12
PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import grouplines\n"
    "t1 = time.perf_counter()\n"
    "grouplines.derive_forbidden_set()\n"
    "print(t1 - t0, time.perf_counter() - t1)\n"
)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op_id: int = -1):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def adopt(self, spans: list[list], op_id: int) -> None:
        """Append the spans of one operation, recorded by another tracer."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append(
                [name, start, end, None if parent is None else parent + offset, op_id]
            )

    def self_times(self, op_ids: set) -> Counter:
        """Self time by span name over the given operations: a span's
        duration minus the durations of its child spans."""
        child = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op in op_ids:
                out[name] += end - start - child[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _cache_info():
    import grouplines as gl

    info = getattr(gl.canonical_key, "cache_info", None)
    return info() if info else None


def execute(wl, inp, traced: bool, forbidden):
    """One operation in the calling process.  Returns its latency, result,
    error, spans and work counts; the canonical_key cache deltas are counts."""
    tracer = Tracer() if traced else None
    counts = Counter()
    before = _cache_info()
    error = result = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = wl.run(inp)
        else:
            with tracer.span("op"):
                result = wl.run_traced(inp, tracer.span, counts, forbidden)
    except Exception as exc:  # a failed operation must not end the run
        error = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    after = _cache_info()
    if before and after:
        counts["graphs.canonical_key.hits"] += after.hits - before.hits
        counts["graphs.canonical_key.misses"] += after.misses - before.misses
    return latency, result, error, tracer.spans if tracer else [], counts


def in_child(fn):
    """Call fn() in a forked child and return its value with the child's peak
    resident memory in KiB.  Whatever the call caches ends with the child."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(pickle.dumps(fn()))
        except BaseException:
            code = 1
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"operation process ended with status {status}")
    return pickle.loads(data), usage.ru_maxrss


class Run:
    """Operations of one run: latencies, failures, inputs and work counts."""

    def __init__(self, workload, forbidden, tracer: Tracer | None) -> None:
        self.workload = workload
        self.forbidden = forbidden
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.facts: list = []
        self.first_output: dict = {}
        self.child_rss_kib = 0
        self.op_id = -1

    def op(self, inp, traced: bool, counts: Counter) -> tuple[float, int]:
        """Run, time and check one operation; returns its latency and op id."""
        wl = self.workload
        self.op_id += 1
        call = functools.partial(execute, wl, inp, traced, self.forbidden)
        t0 = time.perf_counter()
        try:
            if wl.isolated:
                (latency, result, error, spans, op_counts), rss = in_child(call)
                self.child_rss_kib = max(self.child_rss_kib, rss)
            else:
                latency, result, error, spans, op_counts = call()
        except (RuntimeError, OSError, pickle.UnpicklingError) as exc:
            latency, result, error = time.perf_counter() - t0, None, str(exc)
            spans, op_counts = [], Counter()
        if traced:
            self.tracer.adopt(spans, self.op_id)
        counts.update(op_counts)
        with self.tracer.span("bench.check", self.op_id) if traced else contextlib.nullcontext():
            if error is None:
                key = wl.key(inp)
                first = result if key is None else self.first_output.setdefault(key, result)
                if result != first:
                    error = "output differs from the first operation on this input"
                else:
                    try:
                        error = wl.check(inp, result)
                    except (ValueError, IndexError, KeyError, TypeError) as exc:
                        error = f"output the checker cannot read: {exc}"
        self.latencies.append(latency)
        self.facts.append(wl.fact(inp))
        if error is not None:
            self.failures.append(error)
        return latency, self.op_id

    def passes(self, seconds: float, min_passes: int, traced_pass, between):
        """Run whole passes, from pass 0, until `min_passes` are
        done and `seconds` of pass time have gone by.  `between(share)` runs
        after each pass with the share of the time used so far; it is not
        counted as pass time.  Returns one list of (latency, op id) per
        pass, and the work counts of the first pass."""
        out, first_counts = [], None
        used = 0.0
        while len(out) < min_passes or used < seconds:
            t0 = time.perf_counter()
            p = len(out)
            on = traced_pass(p)
            counts = Counter()
            out.append([self.op(inp, on, counts) for inp in self.workload.pass_inputs(p)])
            used += time.perf_counter() - t0
            if first_counts is None:
                first_counts = counts
            between(used / seconds if seconds else 1.0)
        return out, first_counts


class SetupProbes:
    """Fresh interpreters that import grouplines and make a cold
    derive_forbidden_set() call, spread through the run."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.walls: list[float] = []
        self.derives: list[float] = []

    def take(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        self.walls.append(wall)
        self.derives.append(float(proc.stdout.split()[1]))

    def keep_pace(self, share: float) -> None:
        """Probe until the probes done keep pace with the share of run time used."""
        while len(self.walls) < min(SETUP_PROBES, 1 + int(share * (SETUP_PROBES - 1))):
            self.take()

    def fill(self) -> None:
        while len(self.walls) < SETUP_PROBES:
            self.take()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it;
    the maximum when there are too few samples for that."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11 if n > 10 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grouplines" / "__init__.py").is_file():
        print(f"error: no grouplines sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grouplines as gl

    if Path(gl.__file__).resolve().parent != (SRC / "grouplines").resolve():
        print(f"error: grouplines was imported from {gl.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    probes = SetupProbes()
    probes.take()
    before = _cache_info()
    forbidden = gl.derive_forbidden_set()
    after = _cache_info()
    setup_misses = after.misses - before.misses if after else -1

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        if args.trace:
            run = Run(wl, forbidden, Tracer())
            report, note = traced(run, args, probes)
            report["graphs.canonical_key.setup_misses"] = (setup_misses, "count")
        else:
            run = Run(wl, forbidden, None)
            report, note = untraced(run, args, probes)
    probes.fill()
    if args.trace:
        report["linegraph.derive_forbidden_set.s"] = (statistics.median(probes.derives), "s")
    else:
        report["setup_s"] = (statistics.median(probes.walls), "s")

    attempted, failed = len(run.latencies), len(run.failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations, one closed-loop client"
          + (", each in a forked child" if wl.isolated else ""))
    print(f"  {note}")
    for line in wl.describe(run.facts):
        print(f"  input {line}")
    for reason, count in Counter(run.failures).most_common():
        print(f"  FAILED x{count}: {reason}")
    print(f"  failed_share {failed / attempted:.6f} (share of {attempted} attempted)")
    print(f"  setup probes: {len(probes.walls)}, wall "
          f"{min(probes.walls):.3f}-{max(probes.walls):.3f} s")
    for name, (value, unit) in report.items():
        print(f"  {name} {value} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def untraced(run: Run, args, probes: SetupProbes) -> tuple[dict, str]:
    passes, _ = run.passes(args.seconds, 1, lambda p: False, probes.keep_pace)
    lat = [latency for rows in passes for latency, _ in rows]
    value, pct, n = tail(lat)
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_tail_ms": (value * 1000, "ms"),
        "peak_rss_mib": (max(self_kib, run.child_rss_kib) / 1024, "MiB"),
    }
    return report, f"{len(passes)} passes; op_tail_ms is p{pct:.1f} of {n} operations"


def traced(run: Run, args, probes: SetupProbes) -> tuple[dict, str]:
    """Pass 0 traced for the deterministic work counts, then untraced and
    traced passes alternating for the layer times and the tracing overhead."""
    passes, counted = run.passes(args.seconds, 3, lambda p: p % 2 == 0, probes.keep_pace)
    run.tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    traced_ops = {op_id for rows in passes[0::2] for _, op_id in rows}
    self_times = run.tracer.self_times(traced_ops)
    report = {}
    for name in (
        "catalog.parse_group_spec", "catalog.build_catalog", "lattice.build_gamma",
        "verify.verify_main_theorem", "verify.verify_case_theorems",
        "verify.check_completeness_claim", "linegraph.is_line_graph_by_beineke",
        "linegraph.is_line_graph_by_roots", "bench.check",
    ):
        report[f"{name}.self_s"] = (self_times[name] / len(traced_ops), "s")
    absent = _cache_info() is None
    for name in (
        "groups.table_cells", "lattice.build_gamma.calls", "lattice.gamma_vertices",
        "lattice.gamma_edges", "linegraph.is_line_graph_by_beineke.calls",
        "linegraph.patterns_tried", "linegraph.is_line_graph_by_roots.calls",
        "linegraph.root_certificates", "graphs.canonical_key.hits",
        "graphs.canonical_key.misses",
    ):
        value = -1 if absent and name.startswith("graphs.") else counted.get(name, 0)
        report[name] = (value, "count")
    report["bench.counted_ops"] = (len(passes[0]), "count")

    def rate(rows_list):
        lat = [latency for rows in rows_list for latency, _ in rows]
        return len(lat) / sum(lat)

    untraced_rate, traced_rate = rate(passes[1::2]), rate(passes[2::2])
    report["bench.trace_overhead_ops_per_s"] = (untraced_rate - traced_rate, "1/s")
    return report, (
        f"{len(passes)} passes; pass 0 counted; ops_per_s untraced {untraced_rate:.4f}"
        f" over {len(passes[1::2])} passes, traced {traced_rate:.4f} over {len(passes[2::2])}"
    )


if __name__ == "__main__":
    sys.exit(main())
