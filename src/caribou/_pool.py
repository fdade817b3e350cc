"""Tasks on a thread pool whose last worker is the calling thread.

``pipeline.run_pipeline`` and the head in ``model`` split matrices into
row blocks, one task per block; only the head's blocks have ``BLOCK_ROWS``
rows.  Both take the pool from ``thread_pool`` and run each batch with
``run_all``, so the CPU count and the size from which a pool runs are
stated here once.  A pool has one thread fewer than the CPUs the process
may use: the calling thread submits each task as it is produced, and once
the last is submitted it runs, last first, every task that no worker has
started.
Workers run only private helpers and numpy/scipy calls that release the
GIL; every public function is called on the calling thread, so wrappers a
tracer installs around public functions never run on a worker.

The tasks assume one BLAS thread.  With OpenBLAS's own threads as well,
the workers oversubscribe the CPUs: on a 1e5-node graph with 64 features
and 2 CPUs, one ``train_head`` call took 1.34-1.46 s with OpenBLAS at its
default of two threads, against 0.76-0.83 s with one.  So while a pool is
open, numpy's bundled OpenBLAS runs on one thread; numpy has no call for
this, so ``thread_pool`` reaches the library's own through ``ctypes``.
Without that library, set ``OPENBLAS_NUM_THREADS=1`` or its equivalent.

A release on row blocks ends by giving the C heap's free pages back to
the OS.  glibc serves a large block by ``mmap`` and unmaps it when it is
freed, but each such free raises glibc's dynamic mmap threshold to the
block's size, so later blocks up to that size come from the heap, which
keeps the pages they free resident.  The float32 iterate, the float64 Â
its float32 values are rounded from and the hops' temporaries are such
blocks: on the benchmark's 1e5 x 64 release plus head, the second round
peaked about 50 MB above the first.  So ``pipeline.run_pipeline``, once
it has let go of its float32 iterate and its blocks, calls ``_trim_heap``
(``malloc_trim(0)``) when its output reaches ``MIN_CELLS``, and the pages
go back before the head allocates over them: in ten alternating bench
pairs the peak fell from 334.9 to 285.5 MB (medians), and the release
took no longer.  Only there: trimming at the pool's exit, while the
iterate is still held, left a 302.5 MB peak, and trimming after the head
333-334 MB.  Smaller runs, such as every query of an audit, are not
trimmed.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterable, Iterator

#: Matrix entries (2**19 float64 fill 4 MiB) from which the tasks run on a
#: thread pool.  In K=8 sweeps of an earlier hop layout on 2 cores, a pool
#: won in every run from 544k entries up and was mixed at 512k and below
#: (CHANGES.md); with row blocks it wins at 2**18 entries and ties at 2**17.
#: The cutoff is kept so that small runs, such as each query of an audit and
#: each of its heads, start no threads.
MIN_CELLS = 1 << 19
#: Rows per block of the head in ``model`` (not of a release) when the pool
#: runs.  Small enough that the blocks keep every thread busy, large enough
#: that per-task costs stay small; 2k-16k rows timed alike (CHANGES.md).
BLOCK_ROWS = 4096


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS that numpy bundles,
    or ``None`` when numpy bundles none that exports them."""
    try:
        from numpy._core import _multiarray_umath

        # a handle on numpy's core module also finds the symbols of the
        # libraries it was linked against
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@cache
def _malloc_trim() -> Callable[[int], int] | None:
    """glibc's ``malloc_trim``, or ``None`` where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _trim_heap() -> None:
    """Give the free pages of the C heap back to the OS, where glibc can."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


# The BLAS thread count belongs to the process: the first open pool saves
# it and sets one thread, and the last pool to close restores it.
_blas_lock = threading.Lock()
_blas_pools = 0
_blas_saved = 1


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    global _blas_pools, _blas_saved
    calls = _openblas()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_lock:
        if not _blas_pools:
            _blas_saved = get()
            set_(1)
        _blas_pools += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pools -= 1
            if not _blas_pools:
                set_(_blas_saved)


@contextmanager
def thread_pool(cells: int) -> Iterator[ThreadPoolExecutor | None]:
    """A pool with one thread fewer than the usable CPUs, for work on a
    matrix of ``cells`` entries, or ``None`` below ``MIN_CELLS`` or with
    one CPU.  While the pool is open numpy's bundled OpenBLAS runs on one
    thread; leaving the block joins every thread and restores the BLAS
    count."""
    workers = usable_cpus() - 1 if cells >= MIN_CELLS else 0
    if workers < 1:
        yield None
        return
    with _one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        yield pool


def _run_here(task: Callable[[], object]) -> Future:
    """Run ``task`` on this thread; its outcome as a finished future."""
    done = Future()
    try:
        done.set_result(task())
    except Exception as exc:  # noqa: BLE001 - raised in task order by run_all
        done.set_exception(exc)
    return done


def run_all(pool: ThreadPoolExecutor | None, tasks: Iterable[Callable[[], object]]) -> None:
    """Run every task that ``tasks`` yields and return when all have ended;
    then raise the first failure in task order, a failure of ``tasks``
    itself counting after the tasks it yielded.

    Without a pool each task runs as it is yielded.  With one, each is
    submitted as it is yielded; once ``tasks`` ends or fails, this thread
    runs, last first, every task that no worker has started (only those
    can be cancelled), and then waits for the rest."""
    if pool is None:
        for task in tasks:
            task()
        return
    submitted = []
    try:
        for task in tasks:
            submitted.append((task, pool.submit(task)))
    finally:
        futures = [future for _, future in submitted]
        for i in reversed(range(len(submitted))):
            task, future = submitted[i]
            if future.cancel():
                futures[i] = _run_here(task)
        wait(futures)
        for future in futures:
            future.result()
