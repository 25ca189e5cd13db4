"""Spans around the public names of driftlab's modules, installed from outside.

The benchmark does not edit the program. A traced round replaces, for its
duration, the module attributes that callers look up at call time (for
example ``risk_engine.noise_stream`` or ``cli``'s ``risk_engine.gain_curve``)
with wrappers that time each call. Spans nest: a layer's self time is its
spans' durations minus the durations of the spans opened inside them.

Pool workers are forked with the wrappers in place. Each block a worker runs
is wrapped so that the worker returns its own span totals next to the block
result, and the parent adds them in. On pooled calls, layer seconds are
therefore busy time summed over processes, not wall time.
"""

from __future__ import annotations

import math
import resource
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

# The installed tracer. A forked pool worker finds its copy here.
_active = None


def children_cpu_s():
    """CPU seconds of all reaped child processes (pool workers, once joined)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Per-name span totals and counts; one instance per workload process."""

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self):
        self._open = []                    # child time of each open span
        self.self_s = defaultdict(float)   # span name -> self time
        self.time_s = defaultdict(float)   # span name -> total duration
        self.calls = defaultdict(int)      # span name -> number of spans
        self.counts = defaultdict(float)   # named counts and pool CPU

    def open(self):
        self._open.append(0.0)
        return time.perf_counter()

    def close(self, name, start):
        duration = time.perf_counter() - start
        child = self._open.pop()
        if self._open:
            self._open[-1] += duration
        self.self_s[name] += duration - child
        self.time_s[name] += duration
        self.calls[name] += 1

    def call(self, name, fn, *args, **kwargs):
        start = self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(name, start)

    def snapshot(self):
        return {
            "self_s": dict(self.self_s), "time_s": dict(self.time_s),
            "calls": dict(self.calls), "counts": dict(self.counts),
        }

    def merge(self, snap):
        for key, table in (("self_s", self.self_s), ("time_s", self.time_s),
                           ("calls", self.calls), ("counts", self.counts)):
            for name, value in snap[key].items():
                table[name] += value

    # -- patching -----------------------------------------------------------

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _stream(self, fn):
        def noise_stream(seed, replicate):
            self.counts["noise_streams"] += 1
            return _Stream(self.call("process_sim.noise", fn, seed, replicate), self)
        return noise_stream

    def install(self):
        """Wrap the public names each module's callers reach; undo with uninstall()."""
        global _active
        from driftlab import cli, estimators, filtering, process_sim, risk_engine

        stream = self._stream(process_sim.noise_stream)
        targets = [
            (process_sim, "noise_stream", stream),
            (risk_engine, "noise_stream", stream),
            (risk_engine, "ProcessPoolExecutor", _TracedPool),
        ]
        spans = {
            "process_sim.basis": [(process_sim.SineBasis, "orthonormal_matrix")],
            "process_sim": [(process_sim, "simulate_path"), (process_sim, "reconstruct_path")],
            "estimators": [
                (estimators, "posterior_drift_curve"), (risk_engine, "posterior_drift_curve"),
                (filtering, "posterior_drift_curve"), (estimators, "stein_estimate"),
                (estimators, "stein_correction"), (estimators, "bayes_risk_closed_form"),
            ],
            "risk_engine": [(risk_engine, name) for name in (
                "mc_risk", "identity_suite", "gain", "gain_curve", "optimal_n_search",
                "gain_large_sigma_limit", "universal_constant", "asymptotic_gain_check",
            )],
            "filtering": [(filtering, "scalar_path_filter"),
                          (filtering, "posterior_variance_curve")],
            "cli": [(cli, "main")],
        }
        for name, owners in spans.items():
            for owner, attr in owners:
                targets.append((owner, attr, self._span(name, getattr(owner, attr))))
        for owner, attr, replacement in targets:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        _active = self

    def uninstall(self):
        global _active
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        _active = None

    def layer_metrics(self):
        """Per-layer figures, (value, unit), of everything traced since the last reset."""
        counts, time_s, self_s = self.counts, self.time_s, self.self_s
        capacity = counts["pool_capacity_s"]
        share = counts["pool_child_cpu_s"] / capacity if capacity else 0.0
        return {
            "process_sim.noise_streams": (int(counts["noise_streams"]), "count"),
            "process_sim.normals": (int(counts["normals"]), "count"),
            "process_sim.noise_s": (time_s["process_sim.noise"], "s"),
            "process_sim.basis_builds": (self.calls["process_sim.basis"], "count"),
            "process_sim.basis_s": (time_s["process_sim.basis"], "s"),
            "process_sim.self_s": (self_s["process_sim"], "s"),
            "estimators.self_s": (self_s["estimators"], "s"),
            "risk_engine.self_s": (self_s["risk_engine"], "s"),
            "risk_engine.pool_wait_s": (time_s["risk_engine.pool"], "s"),
            "risk_engine.pool_child_cpu_s": (counts["pool_child_cpu_s"], "s"),
            "risk_engine.pool_busy_share": (share, "ratio"),
            "filtering.self_s": (self_s["filtering"], "s"),
            "cli.self_s": (self_s["cli"], "s"),
        }


class _Stream:
    """Stand-in for a numpy Generator that times and counts the normals drawn."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        shape = size if isinstance(size, tuple) else (1 if size is None else size,)
        self._tracer.counts["normals"] += math.prod(shape)
        return self._tracer.call("process_sim.noise", self._gen.standard_normal,
                                 size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _InWorker:
    """Runs one block in a pool worker and returns it with the worker's spans."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        tracer = _active
        tracer.reset()
        result = tracer.call("risk_engine", self.fn, *args)
        return result, tracer.snapshot()


def _merged(results):
    for result, snap in results:
        _active.merge(snap)
        yield result


class _TracedPool(ProcessPoolExecutor):
    """The engine's pool, as one span from creation to shutdown.

    The span's duration is the time the caller waits on the pool; the CPU
    its workers used is read from the reaped-children usage after shutdown.
    """

    def __init__(self, max_workers=None, *args, **kwargs):
        self._start = _active.open()
        self._cpu0 = children_cpu_s()
        self._workers = max_workers
        try:
            super().__init__(max_workers, *args, **kwargs)
        except BaseException:
            _active.close("risk_engine.pool", self._start)
            raise

    def map(self, fn, *iterables, **kwargs):
        return _merged(super().map(_InWorker(fn), *iterables, **kwargs))

    def __exit__(self, *exc):
        try:
            return super().__exit__(*exc)
        finally:
            tracer = _active
            duration = time.perf_counter() - self._start
            tracer.close("risk_engine.pool", self._start)
            tracer.counts["pool_child_cpu_s"] += children_cpu_s() - self._cpu0
            tracer.counts["pool_capacity_s"] += duration * self._workers
