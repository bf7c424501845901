"""Map a function over a sequence with the items split over forked workers.

`fan_out(fn, items)` returns `[fn(x) for x in items]`.  It forks one worker
per CPU available to the process, but only as many as the work pays for: a
fork plus reap of a verify-sized process costs about 2 ms and one catalog
group about 0.5 ms, so each process gets at least `MIN_ITEMS_PER_WORKER`
items.  Worker k of w computes the interleaved share `items[k::w]`, so on a
sequence sorted by cost every share gets a like mix; the parent computes
share 0 itself, then reads each child's results back over a pipe and puts
them in item order.  Only results cross the pipe, pickled: the function and
the items reach the children by the fork itself.

When fn raises, the exception of the first failing item in item order is
raised, as the in-process map would raise it.  Without `os.fork`, with other
threads alive (a fork copies only the calling thread, and any lock another
thread holds stays held in the child), or with one CPU, the same function is
mapped in-process; a share whose fork fails is computed by the parent.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Sequence
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")

MIN_ITEMS_PER_WORKER = 16


def fan_out(
    fn: Callable[[T], R], items: Sequence[T], *, _workers: int | None = None
) -> list[R]:
    """`[fn(x) for x in items]`, computed in up to one process per CPU.

    `_workers` fixes the number of processes, the parent included, in place
    of the CPU count and the cost rule; tests use it to force either path.
    """
    if _workers is None:
        _workers = min(_cpu_count(), len(items) // MIN_ITEMS_PER_WORKER)
    workers = min(_workers, len(items))
    if workers <= 1 or not _can_fork():
        return [fn(x) for x in items]
    import pickle

    sys.stdout.flush()
    sys.stderr.flush()
    children: dict[int, tuple[int, int]] = {}  # share -> (pid, read end)
    shares: dict[int, tuple[list[R], tuple[int, Exception] | None]] = {}
    statuses: dict[int, int] = {}
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    for _, fd in children.values():
                        os.close(fd)
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(_share(fn, items, k, workers), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[k] = (pid, read_fd)
        for k in range(workers):
            if k not in children:
                shares[k] = _share(fn, items, k, workers)
        data = {}
        for k, (_, read_fd) in children.items():
            with os.fdopen(read_fd, "rb", closefd=False) as pipe:
                data[k] = pipe.read()
    finally:
        # Reap every child, also when the parent's own work raised; a closed
        # read end ends a child that is still writing with a broken pipe.
        for k, (pid, read_fd) in children.items():
            os.close(read_fd)
            statuses[k] = os.waitpid(pid, 0)[1]
    for k, (pid, _) in children.items():
        if statuses[k] != 0 or not data[k]:
            raise RuntimeError(
                f"worker process {pid} ended with wait status {statuses[k]}"
                " without sending its results"
            )
        shares[k] = pickle.loads(data[k])
    errors = [error for _, error in shares.values() if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    results: list = [None] * len(items)
    for k, (share, _) in shares.items():
        results[k::workers] = share
    return results


def _share(
    fn: Callable[[T], R], items: Sequence[T], k: int, step: int
) -> tuple[list[R], tuple[int, Exception] | None]:
    """fn over items[k::step] in order, up to the first item that raises:
    the results so far, and the index and exception of that item, if any."""
    out = []
    for i in range(k, len(items), step):
        try:
            out.append(fn(items[i]))
        except Exception as exc:
            return out, (i, exc)
    return out, None


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _can_fork() -> bool:
    import threading

    return hasattr(os, "fork") and threading.active_count() == 1
