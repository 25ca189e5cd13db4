"""Property tests over random inputs; derandomized, so every run draws the same cases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import CylindricalFunctional, DriftSpec, ModelParams, identity_suite, noise_stream
from driftlab.risk_engine import _noise_block

U64 = 2**64
PARAMS = ModelParams(sigma=1.0, T=1.0, alpha=1.0)


@st.composite
def noise_blocks(draw):
    seed = draw(st.one_of(st.integers(0, U64 - 1), st.integers(U64 - 8, U64 - 1)))
    count = draw(st.integers(1, 6))
    # the second branch ends the block on the last replicate key, 2^64 - 1
    start = draw(st.one_of(st.integers(0, U64 - count), st.just(U64 - count)))
    dim = draw(st.integers(1, 12))
    return seed, start, count, dim


@settings(derandomize=True, max_examples=60, deadline=None)
@given(noise_blocks())
def test_noise_block_is_the_stream_loop(block):
    # noise_stream defines a replicate's draws; a block must reproduce them
    seed, start, count, dim = block
    expected = np.array([noise_stream(seed, start + i).standard_normal(dim)
                         for i in range(count)])
    np.testing.assert_array_equal(_noise_block(seed, start, count, dim), expected)


@st.composite
def functionals(draw):
    n = draw(st.integers(3, 8))
    # the James-Stein exponent adds the correction-forms row
    a = draw(st.one_of(st.just(float(2 - n)), st.floats(4.0 - 2 * n, 0.0)))
    return CylindricalFunctional(n=n, a=a)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(functionals(), st.integers(0, U64 - 1), st.floats(-3.0, 3.0))
def test_pathwise_rows_hold_to_rounding(fnl, seed, slope):
    report = identity_suite(fnl, DriftSpec.linear(slope), PARAMS, 64, seed,
                            grid_m=64, n_basis=16)
    pathwise = {row.name: row.lhs for row in report.rows if row.name.endswith("-pathwise")}
    expected = {"chain-rule-pathwise"}
    if fnl.is_james_stein:
        expected.add("correction-forms-pathwise")
    assert set(pathwise) == expected
    assert max(pathwise.values()) <= 1e-10
