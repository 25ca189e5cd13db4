"""Context managers for the tests of the engine's pooled path.

risk_engine._run_blocks runs a small job in-process; forced_pool lowers its
threshold so that a test at a small size still runs the pool it checks, and
records every pool started."""

import contextlib
import os

from driftlab import risk_engine


@contextlib.contextmanager
def counted_pools():
    """Record the size of each process pool the engine starts; the pools are
    real ones."""
    started = []
    real = risk_engine.ProcessPoolExecutor

    class CountedPool(real):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    risk_engine.ProcessPoolExecutor = CountedPool
    try:
        yield started
    finally:
        risk_engine.ProcessPoolExecutor = real


@contextlib.contextmanager
def forced_pool():
    """Start a real pool for every run of at least two tasks at two or more
    workers, whatever the number of normals it draws, even on a one-CPU
    host; yield the list of the pool sizes started."""
    threshold, cpu_count = risk_engine._POOL_NORMALS, os.cpu_count
    risk_engine._POOL_NORMALS = 0
    os.cpu_count = lambda: max(2, cpu_count() or 1)
    try:
        with counted_pools() as started:
            yield started
    finally:
        risk_engine._POOL_NORMALS = threshold
        os.cpu_count = cpu_count
