import pytest

import caribou._pool as pool_module
from caribou._pool import MIN_CELLS, thread_pool


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
