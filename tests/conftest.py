import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails the test with TimeoutError past ``seconds``.

    A pooled sweep that waits forever on a dead worker then fails its test
    instead of stalling the run. It uses SIGALRM, so the block must run in
    the main thread.
    """

    @contextlib.contextmanager
    def bound(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    return bound
