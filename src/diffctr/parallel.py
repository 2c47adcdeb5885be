"""Dealing numpy-bound work to one thread per CPU this process may use.

numpy releases the interpreter lock inside its loops and BLAS runs one
thread per call, so items dealt to threads run side by side, each doing
the arithmetic it would do alone.
"""

from __future__ import annotations

import contextvars
import os
import threading
from typing import Callable, Sequence

import numpy as np

PART_ROWS = 1024  # fewest rows a part of a batch holds


def cpu_workers() -> int:
    """The CPUs this process may use, read from the affinity mask.

    A cgroup CPU quota is not seen.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def threads(items: Sequence) -> int:
    """How many threads deal(items, ...) runs: min(len(items), cpu_workers()), at least one."""
    return max(min(len(items), cpu_workers()), 1)


def parts(n: int) -> list[tuple[int, int]]:
    """(start, end) of each part of n rows, in row order.

    floor(n / PART_ROWS) parts of PART_ROWS to 2 * PART_ROWS - 1 rows (one
    part below that), cut at points that depend on n alone, so the parts,
    and every result computed from them, do not depend on the CPU count.
    """
    cuts = np.linspace(0, n, max(n // PART_ROWS, 1) + 1).astype(np.int64).tolist()
    return list(zip(cuts[:-1], cuts[1:]))


def deal(items: Sequence, work: Callable) -> None:
    """Call work(item, worker) for every item on threads(items) threads.

    worker is the running thread's index: 0 for the calling thread, which
    takes items[0] and every workers-th item after it, and w for the
    helper that takes items[w::workers], so a caller can give each thread
    scratch space of its own. A thread stops at its first exception.
    Every helper is joined before the call returns, then the exception of
    the earliest item that raised is re-raised here. Each helper runs in
    a copy of the caller's context (contextvars), so work sees numpy's
    error state, no_grad and the check-once scope as its caller does.
    """
    workers = threads(items)
    errors: dict[int, BaseException] = {}

    def run(first: int) -> None:
        for i in range(first, len(items), workers):
            try:
                work(items[i], first)
            except BaseException as e:  # re-raised below on the calling thread
                errors[i] = e
                return

    helpers = []
    try:
        for w in range(1, workers):
            helper = threading.Thread(target=contextvars.copy_context().run, args=(run, w))
            helper.start()
            helpers.append(helper)
        run(0)
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
