"""Tasks on a thread pool with one thread per CPU the process may use.

``pipeline.run_pipeline`` and the head in ``model`` split large matrices
into row blocks and run one task per block.  Both take the pool from
``thread_pool`` and run each phase of tasks with ``run_all``, so the CPU
count, the size from which a pool runs and the block size are stated here
once.  Workers run only private helpers and numpy/scipy calls that release
the GIL; every public function is called on the calling thread, so
wrappers a tracer installs around public functions never run on a worker.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Callable, Iterator

#: Matrix entries (2**19 float64 fill 4 MiB) from which the tasks run on a
#: thread pool.  The cutoff was first set for drawing the hop noise beside
#: the layer: in K=8 sweeps on 2 cores that won in every run from 544k
#: entries up, and at 512k and below it won in some runs and lost in others
#: (the sweeps are in CHANGES.md).  With row blocks the pool already wins at
#: 2**18 entries and ties at 2**17; the cutoff is kept so that small runs,
#: such as each query of an audit and each of its heads, start no threads.
MIN_CELLS = 1 << 19
#: Rows per block when the pool runs.  Small enough that the blocks of one
#: hop keep every thread busy until the noise draw ends, large enough that
#: per-task costs stay small; 2k-16k rows timed alike (CHANGES.md).
BLOCK_ROWS = 4096


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def thread_pool(cells: int) -> Iterator[ThreadPoolExecutor | None]:
    """A pool with one thread per usable CPU for work on a matrix of
    ``cells`` entries, or ``None`` below ``MIN_CELLS`` or with one CPU.
    Leaving the block joins every thread."""
    workers = usable_cpus() if cells >= MIN_CELLS else 1
    if workers < 2:
        yield None
        return
    with ThreadPoolExecutor(workers) as pool:
        yield pool


def run_all(pool: ThreadPoolExecutor | None, tasks: list[Callable[[], object]]) -> None:
    """Run every task, on ``pool`` if there is one, and return when all
    have ended; then raise the first failure in task order, if any."""
    if pool is None:
        for task in tasks:
            task()
        return
    futures = [pool.submit(task) for task in tasks]
    wait(futures)
    for future in futures:
        future.result()

