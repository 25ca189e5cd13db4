"""The benchmark tracer wraps the package's public names by attribute; a
renamed or deleted name must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from driftlab import DriftSpec, ModelParams, process_sim, risk_engine

from pooling import forced_pool

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_the_wrapped_names():
    tracer = load_spans().Tracer()
    original = risk_engine.noise_stream
    tracer.install()
    try:
        risk_engine.universal_constant(16, 0)
        # one stream per block, re-keyed per replicate; every normal is counted
        assert tracer.counts["noise_streams"] == 1
        assert tracer.counts["normals"] == 64
        assert tracer.calls["risk_engine"] == 1
    finally:
        tracer.uninstall()
    assert risk_engine.noise_stream is original


def test_pooled_workers_count_their_streams(monkeypatch):
    # imported by name, so that the tracer's worker wrapper pickles
    monkeypatch.syspath_prepend(str(SPANS.parent))
    import spans

    # built untraced: the tables' self-check draws streams of its own
    process_sim._array_tables()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # the traced pool in place, and no pool threshold
        with forced_pool():
            risk_engine.mc_risk("efficient", DriftSpec.linear(1.0), ModelParams(), 6144, 3,
                                n_basis=16, workers=2)
        # one pool, two whole-block tasks of 4096 and 2048 replicates, drawn
        # in 64 and 32 sub-chunks of 64 rows
        assert tracer.calls["risk_engine.pool"] == 1
        assert tracer.counts["noise_streams"] == 96
        assert tracer.counts["normals"] == 6144 * 16
    finally:
        tracer.uninstall()
