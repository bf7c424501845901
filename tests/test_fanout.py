"""The verify pass split over forked workers: the same results in the same
order as the in-process map, the first error in item order, and no child
process left behind."""

import os
import random
import signal
import threading
from pathlib import Path

import pytest

from grouplines import fanout, verify
from grouplines.catalog import build_catalog, catalog_specs, parse_group_spec
from grouplines.cli import main
from grouplines.fanout import fan_out
from grouplines.groups import GroupTableError

BAD_TABLES = Path(__file__).parent / "data" / "bad_tables"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Count the forks the helper makes."""
    made = []
    real_fork = os.fork

    def counted():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


def force_workers(monkeypatch, workers):
    """Up to `workers` processes, the parent included, at any CPU count and
    for any number of items."""
    monkeypatch.setattr(fanout, "_cpu_count", lambda: workers)
    monkeypatch.setattr(fanout, "MIN_ITEMS_PER_WORKER", 1)


def relabelled_table(spec, rng):
    """The Cayley table of a spec with its non-identity elements permuted."""
    g = parse_group_spec(spec)
    n = g.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[g.table[a][b]]
    return f"order {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table)


@pytest.fixture(scope="module")
def table_paths(tmp_path_factory):
    rng = random.Random(11)
    folder = tmp_path_factory.mktemp("tables")
    paths = []
    for i, spec in enumerate(("Z21", "Z3xZ9", "D20", "Dic10", "S4", "Z2xZ2xZ2xZ4")):
        path = folder / f"t{i}.tbl"
        path.write_text(relabelled_table(spec, rng), encoding="utf-8")
        paths.append(str(path))
    return tuple(paths)


# ---------------------------------------------------------------------------
# the helper


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
def test_results_come_back_in_item_order(monkeypatch, workers, n, forks):
    force_workers(monkeypatch, workers)
    items = [(i * 7) % 11 for i in range(n)]
    assert fan_out(lambda x: (x, x * x), items) == [
        (x, x * x) for x in items
    ]
    assert len(forks) == max(0, min(workers, n) - 1)
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("bad", [{4}, {5}, {3, 4, 5}, {2, 7}, {9}])
def test_the_first_failing_item_is_raised(monkeypatch, workers, bad):
    force_workers(monkeypatch, workers)

    def fn(x):
        if x in bad:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match=rf"^item {min(bad)}$"):
        fan_out(fn, list(range(10)))
    assert_no_child_left()


@pytest.mark.parametrize("how", ["exit", "kill"])
def test_a_worker_that_sends_nothing_raises(monkeypatch, how):
    force_workers(monkeypatch, 3)
    parent = os.getpid()

    def die_in_a_child(x):
        if os.getpid() != parent:
            if how == "exit":
                os._exit(0)
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(RuntimeError, match="without sending its results"):
        fan_out(die_in_a_child, list(range(9)))
    assert_no_child_left()


def test_a_failed_fork_leaves_the_share_to_the_parent(monkeypatch):
    def refuse():
        raise OSError("no fork")

    monkeypatch.setattr(os, "fork", refuse)
    force_workers(monkeypatch, 3)
    assert fan_out(str, range(7)) == [str(i) for i in range(7)]


def test_no_fork_while_another_thread_is_alive(monkeypatch, forks):
    force_workers(monkeypatch, 3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert fan_out(str, range(7)) == [str(i) for i in range(7)]
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_small_inputs_stay_in_process(forks):
    items = range(fanout.MIN_ITEMS_PER_WORKER * 2 - 1)
    assert fan_out(str, items) == [str(i) for i in items]
    assert forks == []


# ---------------------------------------------------------------------------
# verify


def test_reports_do_not_depend_on_the_worker_count(monkeypatch, forks, table_paths):
    sources = (*catalog_specs(60), *(f"file:{p}" for p in table_paths))
    records = build_catalog(60, table_paths)
    reports = {}
    for workers in (1, 3):
        force_workers(monkeypatch, workers)
        reports[workers] = verify.verify_sources(sources)
        assert verify.verify_catalog(records) == reports[workers]
    assert reports[1] == reports[3]
    assert len(forks) == 2 * 2
    main_report, case_report, completeness = reports[1]
    assert [row.name for row in main_report.rows] == list(sources)
    assert main_report.passed and case_report.passed and completeness.passed
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("first,second", [("row_repeat", "non_associative"), ("non_associative", "row_repeat")])
def test_the_first_bad_table_is_reported(monkeypatch, capsys, workers, first, second):
    paths = [str(BAD_TABLES / f"{name}.tbl") for name in (first, second)]
    with pytest.raises(GroupTableError) as expected:
        parse_group_spec(f"file:{paths[0]}")
    force_workers(monkeypatch, workers)
    argv = ["verify", "--max-order", "60", "--catalog", paths[0], "--catalog", paths[1]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected.value}\n"
    assert_no_child_left()
