import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread running that it did not find.

    The hops of ``run_pipeline`` and the head's passes run on thread pools
    that must be joined before the call returns, also when a task fails.
    """
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still alive after the test: {[t.name for t in left]}")
