import platform
import threading
import time

import pytest

import caribou._pool as pool_module
from caribou._pool import MIN_CELLS, run_all, thread_pool


@pytest.fixture
def openblas(monkeypatch):
    """numpy's OpenBLAS thread-count getter and setter, at two threads for
    the test and back at their count after it; two usable CPUs."""
    calls = pool_module._openblas()
    if calls is None:
        pytest.skip("numpy bundles no OpenBLAS that exports its thread count")
    get, set_ = calls
    before = get()
    monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
    set_(2)
    yield get
    set_(before)


def test_open_pool_holds_blas_to_one_thread(openblas):
    with thread_pool(MIN_CELLS) as pool:
        assert pool is not None
        inside = openblas()
    assert (inside, openblas()) == (1, 2)


def test_last_pool_to_close_restores_blas_threads(openblas):
    with thread_pool(MIN_CELLS):
        with thread_pool(MIN_CELLS):
            pass
        between = openblas()
    assert (between, openblas()) == (1, 2)


def test_failing_block_restores_blas_threads(openblas):
    with pytest.raises(RuntimeError):
        with thread_pool(MIN_CELLS):
            raise RuntimeError
    assert openblas() == 2


def test_no_pool_leaves_blas_threads(openblas):
    with thread_pool(MIN_CELLS - 1) as pool:
        assert pool is None
        assert openblas() == 2


def test_missing_library_runs_the_pool(monkeypatch):
    monkeypatch.setattr(pool_module, "_openblas", lambda: None)
    monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
    with thread_pool(MIN_CELLS) as pool:
        assert pool.submit(lambda: 7).result() == 7


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)


def held_worker_tasks(count, task):
    """``count`` tasks, ``task(i)`` for each i, of which the pool's one
    worker takes task 0 and holds it until task 1 has run, so that the
    calling thread runs tasks ``count - 1`` down to 1."""
    started, released = threading.Event(), threading.Event()

    def first():
        started.set()
        assert released.wait(timeout=30)
        return task(0)

    def second():
        try:
            return task(1)
        finally:
            released.set()

    yield first
    assert started.wait(timeout=30)
    yield second
    for i in range(2, count):
        yield lambda i=i: task(i)


def test_caller_takes_unstarted_tasks_last_first(two_cpus):
    runs = []

    def task(i):
        runs.append((i, threading.current_thread() is threading.main_thread()))

    with thread_pool(MIN_CELLS) as pool:
        run_all(pool, held_worker_tasks(6, task))
    assert runs == [(5, True), (4, True), (3, True), (2, True), (1, True), (0, False)]


def test_first_failure_in_task_order_is_raised(two_cpus):
    runs = []

    def task(i):
        runs.append(i)
        if i in (2, 4):
            raise ValueError(f"task {i}")

    with thread_pool(MIN_CELLS) as pool:
        with pytest.raises(ValueError, match="task 2"):
            run_all(pool, held_worker_tasks(6, task))
    # the caller ran task 4, which failed, before task 2
    assert runs == [5, 4, 3, 2, 1, 0]


def test_failing_iterable_raises_after_its_tasks_end(two_cpus):
    before = threading.active_count()
    ended = []

    def task(i):
        time.sleep(0.05)
        ended.append(i)

    def produce():
        for i in range(3):
            yield lambda i=i: task(i)
        raise RuntimeError("no more tasks")

    with thread_pool(MIN_CELLS) as pool:
        with pytest.raises(RuntimeError, match="no more tasks"):
            try:
                run_all(pool, produce())
            finally:
                ended_at_raise = sorted(ended)
    assert ended_at_raise == [0, 1, 2]
    assert threading.active_count() == before


def test_without_pool_each_task_runs_as_it_is_yielded():
    events = []

    def produce():
        for i in range(3):
            events.append(("yield", i))
            yield lambda i=i: events.append(("run", i))

    run_all(None, produce())
    assert events == [(step, i) for i in range(3) for step in ("yield", "run")]


def test_malloc_trim_is_found_once_and_runs():
    trim = pool_module._malloc_trim()
    assert pool_module._malloc_trim() is trim
    if platform.libc_ver()[0] == "glibc":
        assert trim is not None
    pool_module._trim_heap()
