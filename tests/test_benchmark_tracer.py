"""The benchmark tracer wraps the package's public names by attribute; a
renamed or deleted name must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from driftlab import risk_engine

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
