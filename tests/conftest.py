import pytest

from pooling import forced_pool


@pytest.fixture
def pooled():
    """A real process pool for the test's pooled runs, whatever their size
    (see pooling.forced_pool); the test fails unless one started. Yields the
    list of the pool sizes started."""
    with forced_pool() as started:
        yield started
    assert started, "no process pool started"
