"""Property tests over random inputs; derandomized, so every run draws the same cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import (BayesSpec, CylindricalFunctional, DriftSpec, ModelParams, gain_curve,
                      identity_suite, mc_risk, noise_stream)
from driftlab.risk_engine import _BLOCK, _noise_block

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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(noise_blocks(), st.integers(1, 12))
def test_noise_block_prefix_is_stable(block, wider):
    # a replicate's first d0 draws do not depend on how many more follow
    seed, start, count, dim = block
    np.testing.assert_array_equal(
        _noise_block(seed, start, count, dim + wider)[:, :dim],
        _noise_block(seed, start, count, dim))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(noise_blocks(), st.data())
def test_noise_block_splits_anywhere(block, data):
    seed, start, count, dim = block
    cut = data.draw(st.integers(0, count))
    np.testing.assert_array_equal(
        _noise_block(seed, start, count, dim),
        np.concatenate([_noise_block(seed, start, cut, dim),
                        _noise_block(seed, start + cut, count - cut, dim)]))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(0, U64 - 1), st.integers(2, 6), st.integers(1, 5), st.integers(0, 4))
def test_noise_block_past_the_last_key_rejected(seed, count, over, back):
    # the block ends `over` keys past 2^64 - 1; it may start before or past it
    start = U64 - count + over + back * (count - 1) // 4
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        _noise_block(seed, start, count, 3)


# each example starts two process pools, so keep the count small
@settings(derandomize=True, max_examples=4, deadline=None)
@given(st.integers(0, U64 - 1), st.integers(_BLOCK + 1, 3 * _BLOCK), st.integers(1, 48))
def test_results_do_not_depend_on_workers(seed, reps, n_basis):
    # two or three blocks, so the pool has blocks to share out
    n_max = 3 + n_basis % 8
    assert (gain_curve(1.0, 1.0, 1.0, n_max, reps, seed, workers=1)
            == gain_curve(1.0, 1.0, 1.0, n_max, reps, seed, workers=2))
    assert (mc_risk("efficient", DriftSpec.linear(1.0), PARAMS, reps, seed,
                    n_basis=n_basis, workers=1)
            == mc_risk("efficient", DriftSpec.linear(1.0), PARAMS, reps, seed,
                       n_basis=n_basis, workers=2))
    bayes = BayesSpec.centered(1.0)
    assert (mc_risk(bayes, None, PARAMS, reps, seed, grid_m=64, workers=1)
            == mc_risk(bayes, None, PARAMS, reps, seed, grid_m=64, workers=2))
    fnl = CylindricalFunctional(n=n_max, a=float(2 - n_max))
    assert (identity_suite(fnl, DriftSpec.linear(1.0), PARAMS, reps, seed, grid_m=64,
                           n_basis=n_basis + n_max, workers=1)
            == identity_suite(fnl, DriftSpec.linear(1.0), PARAMS, reps, seed, grid_m=64,
                              n_basis=n_basis + n_max, workers=2))


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
