import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a non-daemon thread alive: the sampler's
    threads must all be joined before the call that started them returns."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.is_alive() and not t.daemon]
    if left:
        pytest.fail(f"threads left running: {', '.join(left)}")
