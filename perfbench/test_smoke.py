"""Smoke tests of the benchmark itself, at minimal run length.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import grouplines as gl  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = (
    "groups.table_cells",
    "lattice.build_gamma.calls",
    "lattice.gamma_vertices",
    "lattice.gamma_edges",
    "linegraph.is_line_graph_by_beineke.calls",
    "linegraph.patterns_tried",
    "linegraph.is_line_graph_by_roots.calls",
    "linegraph.root_certificates",
    "graphs.canonical_key.hits",
    "graphs.canonical_key.misses",
    "graphs.canonical_key.setup_misses",
    "bench.counted_ops",
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(workload, 1, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_share 0.000000" in proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"  {name} " in proc.stdout


def _counts(seed: int) -> dict:
    proc = bench("recognize-lines", seed, 1)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def test_work_counts_repeat_under_a_seed_and_change_with_it():
    # Passes are stratified, so two seeds can agree on every count by
    # chance (seeds 5 and 6 both try 634 patterns); three seeds may not.
    first, again = _counts(5), _counts(5)
    assert first == again
    others = [_counts(6), _counts(7)]
    assert any(first != other for other in others)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed_and_the_pass(name, tmp_path):
    def inputs(seed: int, p: int, sub: str) -> bytes:
        (tmp_path / sub).mkdir(exist_ok=True)
        wl = workloads.WORKLOADS[name](seed, tmp_path / sub)
        return wl.serialize(wl.pass_inputs(p))

    assert inputs(7, 0, "a") == inputs(7, 0, "b")
    assert inputs(7, 0, "a") != inputs(8, 0, "c")
    assert inputs(7, 0, "a") != inputs(7, 1, "d")


def test_the_literature_list_is_the_derived_forbidden_set():
    derived = gl.derive_forbidden_set().patterns
    assert len(oracle.BEINEKE_ADJ) == len(derived) == 9
    for pattern in derived:
        matches = [oracle.isomorphic(list(pattern.adj), b) for b in oracle.BEINEKE_ADJ]
        assert matches.count(True) == 1


def test_the_oracle_rejects_wrong_evidence():
    # Γ(Z12) is not a line graph; Γ(Z16) is the path on five vertices.
    assert oracle.check_check_output("Z12", "LINE GRAPH (root graph: 3 vertices, edges 0-1 1-2)\n")
    assert oracle.check_check_output("Z16", "LINE GRAPH (root graph: 3 vertices, edges 0-1 1-2)\n")
    assert oracle.check_check_output(
        "Z2xZ2xZ2", "NOT A LINE GRAPH: Gamma1 at vertices [{e}, <((0,0),1)> (order 2)]\n"
    )
    assert oracle.check_check_output(
        "Z2xZ2xZ2", "NOT A LINE GRAPH: Gamma1 at vertices [{e}, <(0,1)> (order 2)]\n"
    )
    path = oracle.adj_from_edges(3, [(0, 1), (1, 2)])
    assert oracle.is_root_certificate(path, [(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2), (2, 3)])
    assert not oracle.is_root_certificate(path, [(0, 1), (1, 2), (2, 3)], [(0, 1), (2, 3), (1, 2)])
    # In Z12 the subgroups of orders 1, 2, 3 and 4 induce no Beineke graph;
    # those of orders 6, 2, 3 and 12 induce the claw.
    text = "file:t\t12\tother\ttrue\tfalse\tfalse\tGamma1 orders={}\nTHEOREM HOLDS over 1 groups\n"
    expected = {"file:t": (12, True)}
    assert "Beineke" in oracle.check_verify_output(text.format("1,2,3,4"), expected)
    assert oracle.check_verify_output(text.format("6,2,3,12"), expected) == "missing CASES summary"
    claw = oracle.adj_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert oracle.is_beineke_witness(claw, (0, 1, 2, 3))
    assert not oracle.is_beineke_witness(claw, (0, 1, 2))


@pytest.mark.parametrize("spec", ["Z16", "Z35", "Z2xZ2xZ4", "S4", "Dic6", "D11"])
def test_traced_check_prints_what_the_cli_prints(spec):
    wl = workloads.CheckGroups(1, ROOT)
    assert wl.run(spec) == wl.run_traced(spec, workloads._no_span, Counter(), None)
    assert wl.check(spec, wl.run(spec)) is None


def test_an_operation_in_a_child_leaves_no_cache_behind():
    import run

    before = gl.canonical_key.cache_info()
    wl = workloads.CheckGroups(1, ROOT)
    (latency, result, error, _, counts), rss = run.in_child(
        lambda: run.execute(wl, "Z16", False, None)
    )
    assert error is None and wl.check("Z16", result) is None
    assert latency > 0 and rss > 0
    assert gl.canonical_key.cache_info() == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("check-groups", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
