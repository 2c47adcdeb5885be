"""Dealing numpy-bound work to one thread per CPU this process may use.

numpy releases the interpreter lock inside its loops and BLAS runs one
thread per call, so items dealt to threads run side by side, each doing
the arithmetic it would do alone.

deal hands its items to the cpu_workers() - 1 helper threads of a
helper scope (helpers()), started once for the scope: a pretrain,
finetune or evaluate call is one, and a deal called outside every scope
opens one for its own call. A deal of two no-op items takes about 50-65
us with a live helper and 220-230 us with one started and joined for
the call (medians of 2000 calls, 2-vCPU host). A deal called while an
item of another deal runs, on the calling thread or on a helper, runs
its items on that thread. parts is the one rule by which a batch's rows
are cut into the parts that pretraining, fine-tuning and scoring deal.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

PART_ROWS = 1024  # fewest rows a fine-tuning or scoring part holds

# Fewest rows a pretraining part holds: two parts at B = 256, one below.
# A default-model pretraining step (forward, backward, Adam) in two parts
# on a live helper took, against one part (in-process medians of 60 and 80
# alternating steps, 2-vCPU Xeon, one BLAS thread): 1.42-1.46x the time at
# B = 96, 1.23-1.25x at 128, 1.10-1.17x at 160, 1.02-1.03x at 192,
# 0.84-0.87x at 256 and 0.72-0.74x at 384. So the default B = 96 step
# stays one part.
PRETRAIN_PART_ROWS = 128

_dealing: contextvars.ContextVar[bool] = contextvars.ContextVar("dealing", default=False)
_pool: contextvars.ContextVar[ThreadPoolExecutor | None] = contextvars.ContextVar("pool",
                                                                                  default=None)


def cpu_workers() -> int:
    """The CPUs this process may use, read from the affinity mask.

    A cgroup CPU quota is not seen.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def threads(items: Sequence) -> int:
    """How many threads deal(items, ...) runs: min(len(items), cpu_workers()), at least one.

    One inside an item of another deal.
    """
    if _dealing.get():
        return 1
    return max(min(len(items), cpu_workers()), 1)


def parts(n: int, part_rows: int) -> list[tuple[int, int]]:
    """(start, end) of each part of n rows, in row order.

    floor(n / part_rows) parts of part_rows to 2 * part_rows - 1 rows (one
    part below that), cut at points that depend on n alone, so the parts,
    and every result computed from them, do not depend on the CPU count.
    """
    cuts = np.linspace(0, n, max(n // part_rows, 1) + 1).astype(np.int64).tolist()
    return list(zip(cuts[:-1], cuts[1:]))


@contextmanager
def helpers():
    """Keep cpu_workers() - 1 helper threads for the deals of the body; join them on exit.

    A helper starts at the first deal that needs it and serves every
    later one. Inside a scope already, the body uses that scope's
    helpers. Every helper is joined before the scope exits, whether its
    body returns or raises.
    """
    if _pool.get() is not None:
        yield
        return
    with ThreadPoolExecutor(max_workers=max(cpu_workers() - 1, 1)) as pool:
        token = _pool.set(pool)
        try:
            yield
        finally:
            _pool.reset(token)


def deal(items: Sequence, work: Callable) -> None:
    """Call work(item, worker) for every item on threads(items) threads.

    worker is the running thread's index: 0 for the calling thread, which
    takes items[0] and every workers-th item after it, and w for the
    helper that takes items[w::workers], so a caller can give each thread
    scratch space of its own. A thread stops at its first exception.
    Every helper has finished its items before the call returns, then the
    exception of the earliest item that raised is re-raised here. Each
    helper runs in a copy of the caller's context (contextvars), so work
    sees numpy's error state, no_grad and autodiff.quiet's flag as its
    caller does.
    """
    workers = threads(items)
    if workers > 1 and _pool.get() is None:
        with helpers():  # a scope for this call alone
            return deal(items, work)
    errors: dict[int, BaseException] = {}

    def run(first: int) -> None:
        for i in range(first, len(items), workers):
            try:
                work(items[i], first)
            except BaseException as e:  # re-raised below on the calling thread
                errors[i] = e
                return

    token = _dealing.set(True)
    pool, started = _pool.get(), []
    try:
        for w in range(1, workers):  # run stores its own exceptions, so the futures hold none
            started.append(pool.submit(contextvars.copy_context().run, run, w))
        run(0)
    finally:
        _dealing.reset(token)
        for helper in started:
            helper.result()
    if errors:
        raise errors[min(errors)]
