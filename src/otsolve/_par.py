"""Plan-sized passes split over threads, with the bits of one thread.

A pass over a plan of at least 2^18 entries (``split``) runs as W tasks: the
last on the calling thread, the others on a pool of W - 1 threads made on
first use. W is the number of CPUs this process may run on, at most 8; it is
fixed, not an option. A pass over a smaller plan runs whole, on the calling
thread, and its caller takes the unsplit path.

Every entry, row sum and column sum is computed by one task, with the
operations of the unsplit pass in the same order, so no byte depends on W.
numpy sums each row of a C-ordered float64 array pairwise on its own, so a
row range's sums have the bits of the whole array's; it sums each column
sequentially over the rows, so a column range's sums have them too, as long
as the range is at least two columns wide (a one-column range would be
summed pairwise). A task calls numpy only, and runs in a copy of the
caller's context, so that the caller's ``np.errstate`` holds in it.

Plans are float64 and C-ordered, as every plan a solve makes is. A direct
``kkt_error`` or ``apply_A`` call on another dtype or layout still gets
correct values, but the last bits of its sums may depend on W.
"""

from __future__ import annotations

import contextvars
import os
from collections.abc import Callable

import numpy as np


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


_WORKERS = min(8, _cpus())

# Smallest plan, in entries, whose passes are split. Time per adaptive PDHG
# iteration with every pass split over two threads, over that on one thread
# (`shapes` l1 grids, min of 4 solves, 2-vCPU Xeon, one BLAS thread):
#
#   plan       entries   1 thread    2 threads / 1
#   256x256     65,536    1.02 ms    1.97
#   400x400    160,000    2.99 ms    1.12
#   576x576    331,776    6.72 ms    0.91
#   784x784    614,656   13.27 ms    0.76
#
# A split pass waits for two thread wake-ups, about 80 us here, so the ratio
# crosses 1 between the middle two sizes, near 2^18 entries.
_MIN_ENTRIES = 1 << 18

_pool = None  # the ThreadPoolExecutor, once made


def _forget_pool() -> None:
    global _pool
    _pool = None


# A forked child has none of its parent's threads, but would find the pool
# counting its idle ones and hand them tasks that never run: it makes its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def split(size: int) -> bool:
    """Whether a pass over ``size`` plan entries is split over threads."""
    return size >= _MIN_ENTRIES and _WORKERS > 1


def _bounds(length: int, parts: int, min_width: int = 1) -> list[int]:
    """``parts + 1`` bounds of contiguous ranges that cover ``range(length)``.

    At most ``length // min_width`` ranges are non-empty, each at least
    ``min_width`` long (when ``length`` allows); the rest are empty ranges at
    the end.
    """
    k = max(1, min(parts, length // min_width))
    return [length * i // k for i in range(k)] + [length] * (parts - k + 1)


def _run(task: Callable[[int], None]) -> None:
    """``task(i)`` for i in ``range(W)``, the last on this thread."""
    # Imported with the pool, so that a process which splits no pass does
    # not load concurrent.futures and logging: the set-up times of the small
    # benchmark workloads follow the heap layout that imports leave behind.
    from concurrent.futures import ThreadPoolExecutor, wait

    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="otsolve")
    last = _WORKERS - 1
    futures = [_pool.submit(contextvars.copy_context().run, task, i) for i in range(last)]
    try:
        task(last)
    finally:
        wait(futures)  # no task may still write once the caller goes on
    for future in futures:
        future.result()


def over_rows(
    fn: Callable[[int, int], object] | None, rows: int, sums_of: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """``fn(a, b)`` over W contiguous ranges [a, b) that cover ``range(rows)``.

    ``fn`` must touch only rows a to b of the plan-shaped arrays it writes.
    With ``sums_of``, a plan of ``rows`` rows that ``fn`` does not write, the
    same tasks also take its row and column sums, which are returned.
    """
    bounds = _bounds(rows, _WORKERS)
    X = sums_of
    sums = None
    if X is not None:
        sums = np.empty(rows), np.empty(X.shape[1])
        col_bounds = _bounds(X.shape[1], _WORKERS, min_width=2)

    def task(i):
        a, b = bounds[i], bounds[i + 1]
        if fn is not None and a < b:
            fn(a, b)
        if X is not None:
            X[a:b].sum(axis=1, out=sums[0][a:b])
            a, b = col_bounds[i], col_bounds[i + 1]
            X[:, a:b].sum(axis=0, out=sums[1][a:b])

    _run(task)
    return sums
