"""Property tests over random inputs; derandomized, so every run draws the same cases."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import (BayesSpec, CylindricalFunctional, DriftSpec, ModelParams, SineBasis,
                      TimeGrid, gain_curve, identity_suite, mc_risk, noise_stream,
                      stieltjes_cumulative)
from driftlab import process_sim
from driftlab.process_sim import _noise_block
from driftlab.risk_engine import _BLOCK

U64 = 2**64
PARAMS = ModelParams(sigma=1.0, T=1.0, alpha=1.0)

# _noise_block re-keys one Philox per row through its public state setter;
# narrow blocks of many rows take the array path, here lowered to every block
# of these tests, with its fast-path rows, with every row left to the loop,
# and with tables that its self-check declines. All must give the stream
# loop's bits
REKEY_PATHS = pytest.mark.parametrize(
    "rekey", ["setter", "array", "array-fallback", "array-declined"])


def doubled_widths(probe=process_sim._ziggurat_tables):
    wi, lower = probe()
    return wi * 2.0, lower


@contextmanager
def rekeyed(path):
    # the tables are cached per process: rebuilt around a run that patches them
    tables = process_sim._array_tables
    with pytest.MonkeyPatch.context() as mp:
        if path.startswith("array"):
            mp.setattr(process_sim, "_ARRAY_MIN_ROWS", 1)
            mp.setattr(process_sim, "_ARRAY_MAX_DIM", 24)
        if path == "array-fallback":
            wi, lower = tables()
            mp.setattr(process_sim, "_array_tables", lambda: (wi, np.zeros_like(lower)))
        if path == "array-declined":
            mp.setattr(process_sim, "_ziggurat_tables", doubled_widths)
            tables.cache_clear()
        try:
            yield
        finally:
            if path == "array-declined":
                tables.cache_clear()


@st.composite
def noise_blocks(draw):
    seed = draw(st.one_of(st.integers(0, U64 - 1), st.integers(U64 - 8, U64 - 1)))
    count = draw(st.integers(1, 6))
    # the second branch ends the block on the last replicate key, 2^64 - 1
    start = draw(st.one_of(st.integers(0, U64 - count), st.just(U64 - count)))
    dim = draw(st.integers(1, 12))
    return seed, start, count, dim


@REKEY_PATHS
@settings(derandomize=True, max_examples=60, deadline=None)
@given(noise_blocks())
def test_noise_block_is_the_stream_loop(rekey, block):
    # noise_stream defines a replicate's draws; a block must reproduce them
    with rekeyed(rekey):
        seed, start, count, dim = block
        expected = np.array([noise_stream(seed, start + i).standard_normal(dim)
                             for i in range(count)])
        np.testing.assert_array_equal(_noise_block(seed, start, count, dim), expected)


@REKEY_PATHS
@settings(derandomize=True, max_examples=40, deadline=None)
@given(noise_blocks(), st.integers(1, 12))
def test_noise_block_prefix_is_stable(rekey, block, wider):
    # a replicate's first d0 draws do not depend on how many more follow
    with rekeyed(rekey):
        seed, start, count, dim = block
        np.testing.assert_array_equal(
            _noise_block(seed, start, count, dim + wider)[:, :dim],
            _noise_block(seed, start, count, dim))


@REKEY_PATHS
@settings(derandomize=True, max_examples=40, deadline=None)
@given(noise_blocks(), st.data())
def test_noise_block_splits_anywhere(rekey, block, data):
    with rekeyed(rekey):
        seed, start, count, dim = block
        cut = data.draw(st.integers(0, count))
        np.testing.assert_array_equal(
            _noise_block(seed, start, count, dim),
            np.concatenate([_noise_block(seed, start, cut, dim),
                            _noise_block(seed, start + cut, count - cut, dim)]))


@REKEY_PATHS
@settings(derandomize=True, max_examples=40, deadline=None)
@given(noise_blocks())
def test_noise_block_returns_a_new_array(rekey, block):
    # the blocks scale their draws in place, so every call must hand back a
    # C-contiguous array of its own
    with rekeyed(rekey):
        seed, start, count, dim = block
        first = _noise_block(seed, start, count, dim)
        second = _noise_block(seed, start, count, dim)
        assert first.shape == (count, dim) and first.dtype == np.float64
        assert first.flags.c_contiguous and first.flags.writeable
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, second)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(noise_blocks(), st.integers(1, 4))
def test_philox_block_is_random_raw(block, blocks):
    # every row's words, keys and counters wrapping near 2^64 included, with
    # no overflow warning (warnings are errors here)
    seed, start, count, _ = block
    expected = [np.random.Philox(key=np.array([seed, start + i], dtype=np.uint64))
                .random_raw(4 * blocks) for i in range(count)]
    np.testing.assert_array_equal(process_sim._philox_block(seed, start, count, blocks),
                                  expected)


def test_array_path_is_live():
    # this NumPy's tables pass the probes and the self-check, and nearly every
    # strip has a bound (on NumPy 2.4 all but strip 1, whose ki is 0)
    wi, lower = process_sim._array_tables()
    assert np.all(wi > 0) and np.count_nonzero(lower) >= 250


@pytest.mark.parametrize("tables", [lambda: None, doubled_widths],
                         ids=["probe-fails", "wrong-widths"])
def test_array_path_declines(tables):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(process_sim, "_ziggurat_tables", tables)
        process_sim._array_tables.cache_clear()
        try:
            assert process_sim._array_tables() is None
        finally:
            process_sim._array_tables.cache_clear()


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


@st.composite
def syntheses(draw):
    m = draw(st.integers(2, 300))
    k = draw(st.integers(1, 3 * m))  # k > m: modes past m alias and are folded
    T = draw(st.floats(0.1, 10.0))
    sigma = draw(st.floats(0.1, 10.0))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    seed = draw(st.integers(0, 2**32 - 1))
    coef = np.random.default_rng(seed).standard_normal(batch + (k,))
    return SineBasis(sigma, T, k), TimeGrid(m, T), coef


@settings(derandomize=True, max_examples=80, deadline=None)
@given(syntheses())
def test_synthesize_is_the_mode_sum(case):
    basis, grid, coef = case
    expected = coef @ basis.orthonormal_matrix(grid.points)
    got = basis.synthesize(coef, grid)
    assert got.shape == expected.shape
    assert np.all(got[..., 0] == 0.0)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


@settings(derandomize=True, max_examples=20, deadline=None)
@given(syntheses(), st.floats(0.5, 2.0).filter(lambda f: f != 1.0))
def test_synthesize_rejects_another_horizon(case, factor):
    basis, grid, coef = case
    with pytest.raises(ValueError, match="horizon"):
        basis.synthesize(coef, TimeGrid(grid.M, grid.T * factor))


def _scanning_stieltjes(values, left_weights):
    # the run scan stieltjes_cumulative used before its runs were found in
    # one vectorised comparison; kept as the bit-for-bit reference
    M = values.shape[-1] - 1
    out = np.empty_like(values)
    out[..., 0] = 0.0
    j = 0
    while j < M:
        k = j
        while k + 1 < M and left_weights[k + 1] == left_weights[j]:
            k += 1
        w = left_weights[j]
        seg = values[..., j + 1 : k + 2] - values[..., j : j + 1]
        out[..., j + 1 : k + 2] = out[..., j : j + 1] + w * seg
        j = k + 1
    return out


@st.composite
def piecewise_weights(draw):
    levels = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.0 / 3.0, 2.0, 0.0, -0.0]),
                           min_size=1, max_size=8))
    runs = draw(st.lists(st.integers(1, 12), min_size=len(levels), max_size=len(levels)))
    batch = draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
    seed = draw(st.integers(0, 2**32 - 1))
    weights = np.repeat(levels, runs)
    values = np.random.default_rng(seed).standard_normal(batch + (weights.size + 1,))
    return values, weights


@settings(derandomize=True, max_examples=100, deadline=None)
@given(piecewise_weights())
def test_stieltjes_runs_match_the_scan(case):
    values, weights = case
    np.testing.assert_array_equal(stieltjes_cumulative(values, weights),
                                  _scanning_stieltjes(values, weights))
