import math
import os
import tracemalloc
from functools import partial

import numpy as np
import pytest

from driftlab import (
    BayesSpec,
    CylindricalFunctional,
    DegenerateSampleError,
    DriftSpec,
    GainCurve,
    GainPoint,
    IdentityRow,
    ModelParams,
    RiskReport,
    SineBasis,
    TimeGrid,
    VolatilityProfile,
    asymptotic_gain_check,
    bayes_mse_decomposition,
    bayes_risk_closed_form,
    cli,
    cramer_rao_bound,
    gain,
    gain_curve,
    gain_curves,
    gain_large_sigma_limit,
    gain_small_ratio_asymptote,
    identity_suite,
    mc_risk,
    noise_stream,
    optimal_n_search,
    sample_average_risk,
    simulate_path,
    stein_estimate,
    risk_engine,
    universal_constant,
)

import oracles
from pooling import counted_pools


PARAMS = ModelParams(sigma=1.0, T=1.0, alpha=1.0)
U = DriftSpec.linear(1.0)
JS4 = CylindricalFunctional(n=4, a=-2.0)


def zero_draws(seed, start, count, dim):
    """Stand-in for _noise_block that returns zeros of the shape it would draw."""
    return np.zeros((count, dim))


def truncated_efficient_risk(n_basis, params=PARAMS):
    lam = SineBasis(params.sigma, params.T, n_basis).eigenvalues()
    return float(np.sum(lam * lam))


class TestCramerRao:
    def test_constant_anchors(self):
        assert cramer_rao_bound(1.0, 1.0) == 0.5
        assert cramer_rao_bound(2.0, 1.0) == 2.0
        assert cramer_rao_bound(VolatilityProfile.constant(1.0), 2.0) == 2.0

    def test_two_segment_vs_quadrature(self):
        profile = VolatilityProfile(levels=(1.0, 2.0), breakpoints=(0.5,))
        rate = oracles.profile_rate((1.0, 2.0), (0.5,), 1.0)
        ref = oracles.nested_time_integral(lambda t: rate(t) ** 2, 1.0)
        assert abs(cramer_rao_bound(profile, 1.0) - ref) < 1e-8


class TestMcRisk:
    def test_efficient_matches_truncated_theory(self):
        rep = mc_risk("efficient", U, PARAMS, 20_000, 4, grid_m=512, n_basis=64)
        theory = truncated_efficient_risk(64)
        assert abs(rep.mean - theory) < 4 * rep.stderr
        assert rep.label == "efficient-risk"

    def test_stein_beats_efficient_with_shared_streams(self):
        eff = mc_risk("efficient", U, PARAMS, 30_000, 4, grid_m=512, n_basis=256)
        stein = mc_risk(JS4, U, PARAMS, 30_000, 4, grid_m=512, n_basis=256)
        # shared seed, shared noise: the gap is far larger than either stderr
        margin = eff.mean - stein.mean
        assert margin > 3 * math.hypot(eff.stderr, stein.stderr)
        assert margin > 0.02

    def test_bayes_prior_marginalized_matches_closed_form(self):
        spec = BayesSpec.centered(1.0)
        rep = mc_risk(spec, None, PARAMS, 5_000, 12, grid_m=512)
        closed = bayes_risk_closed_form(
            spec, VolatilityProfile.constant(1.0), 1.0
        )
        assert abs(rep.mean - closed) < 3 * rep.stderr

    def test_bayes_fixed_drift_matches_mse_decomposition(self):
        spec = BayesSpec.centered(1.0)
        grid = TimeGrid(512, 1.0)
        rep = mc_risk(spec, U, PARAMS, 5_000, 21, grid_m=512, prior_drift=False)
        variance, bias_sq = bayes_mse_decomposition(
            spec, U, VolatilityProfile.constant(1.0), grid, PARAMS
        )
        assert abs(rep.mean - (variance + bias_sq)) < 3 * rep.stderr

    @pytest.mark.parametrize("prior_drift, dim", [(True, 128), (False, 64)])
    def test_bayes_draws_only_the_increments_it_reads(self, monkeypatch, prior_drift, dim):
        # a fixed drift reads the 64 noise increments; a prior drift also
        # reads 64 drift increments
        dims = []

        def recording(seed, start, count, d):
            dims.append(d)
            return noise_block(seed, start, count, d)

        noise_block = risk_engine._noise_block
        monkeypatch.setattr(risk_engine, "_noise_block", recording)
        mc_risk(BayesSpec.centered(1.0), U, PARAMS, 300, 5, grid_m=64,
                prior_drift=prior_drift)
        assert dims == [dim] * math.ceil(300 / risk_engine._SUB_CHUNK)  # one per sub-chunk

    def test_stein_needs_n_basis_at_least_n(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("replicates drawn before the check")

        monkeypatch.setattr(risk_engine, "_noise_block", no_draws)
        fnl = CylindricalFunctional(n=40, a=-38.0)
        with pytest.raises(ValueError, match="n=40 exceeds n_basis=16"):
            mc_risk(fnl, U, PARAMS, 100, 0, grid_m=32, n_basis=16)
        with pytest.raises(ValueError, match="n=40 exceeds n_basis=16"):
            identity_suite(fnl, U, PARAMS, 100, 0, grid_m=32, n_basis=16)
        # the n > n_basis check comes first, then the grid the James-Stein norm needs
        with pytest.raises(ValueError, match="n=40 exceeds n_basis=16"):
            identity_suite(fnl, U, PARAMS, 100, 0, grid_m=8, n_basis=16)
        with pytest.raises(ValueError, match="n=4 needs grid_m >= n, got grid_m=3"):
            identity_suite(JS4, U, PARAMS, 100, 0, grid_m=3, n_basis=16)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_risk("efficient", U, PARAMS, 1, 0)
        with pytest.raises(ValueError):
            mc_risk("median", U, PARAMS, 100, 0)

    def test_deterministic_and_worker_invariant(self, pooled):
        a = mc_risk("efficient", U, PARAMS, 9_000, 7, grid_m=256, n_basis=64)
        b = mc_risk("efficient", U, PARAMS, 9_000, 7, grid_m=256, n_basis=64)
        c = mc_risk("efficient", U, PARAMS, 9_000, 7, grid_m=256, n_basis=64, workers=2)
        assert a.mean == b.mean == c.mean
        assert a.stderr == b.stderr == c.stderr

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            mc_risk("efficient", U, PARAMS, 100, 0, grid_m=64, n_basis=16, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            universal_constant(100, 0, workers=workers)

    def test_coefficient_risks_match_grid_quadrature(self):
        # the engine sums coefficients; the public path API integrates the
        # same replicates on the grid, where the first 64 sine rows are
        # orthonormal under the trapezoid rule. The Stein risk replaces each
        # replicate's tail sum_{4<k<=64} lambda_k^2 eta_k^2 by its exact mean
        reps, seed, grid = 64, 13, TimeGrid(256, 1.0)
        w = grid.trapezoid_weights()
        tail = SineBasis(PARAMS.sigma, PARAMS.T, 64).eigenvalues()[JS4.n:]
        eff, stein = [], []
        for r in range(reps):
            sample = simulate_path(seed, r, U, PARAMS, grid, 64)
            err = stein_estimate(sample, U, JS4).values - sample.u
            realised = tail * sample.eta[JS4.n:]
            eff.append(float((sample.xu * sample.xu) @ w))
            stein.append(float((err * err) @ w) - float(realised @ realised)
                         + float(tail @ tail))
        rep_eff = mc_risk("efficient", U, PARAMS, reps, seed, grid_m=256, n_basis=64)
        rep_stein = mc_risk(JS4, U, PARAMS, reps, seed, grid_m=256, n_basis=64)
        assert rep_eff.mean == pytest.approx(np.mean(eff), rel=1e-12)
        assert rep_stein.mean == pytest.approx(np.mean(stein), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_stein_risk_moves_by_the_exact_tail_mean(self, n):
        # the modes past n_basis 16 add the constant sum_{16<k<=1024}
        # lambda_k^2 to every replicate: the mean shifts by it, the spread not
        fnl = CylindricalFunctional(n=n, a=float(2 - n))
        short = mc_risk(fnl, U, PARAMS, 5_000, 31, n_basis=16)
        long = mc_risk(fnl, U, PARAMS, 5_000, 31, n_basis=1024)
        tail = SineBasis(PARAMS.sigma, PARAMS.T, 1024).eigenvalues()[16:]
        assert long.mean - short.mean == pytest.approx(float(tail @ tail), rel=1e-12)
        assert long.stderr == pytest.approx(short.stderr, rel=1e-12)

    def test_stein_block_draws_n_coordinates(self, monkeypatch):
        # only the first n coordinates enter the correction; the rest of the
        # n_basis modes enter as the exact tail mean and are never drawn
        widths = []

        def recording(seed, start, count, dim):
            widths.append(dim)
            return np.ones((count, dim))

        monkeypatch.setattr(risk_engine, "_noise_block", recording)
        mc_risk(JS4, U, PARAMS, 100, 0, n_basis=1024)
        identity_suite(CylindricalFunctional(n=7, a=-3.0), U, PARAMS, 100, 0,
                       grid_m=16, n_basis=1024)
        gain(1.0, 1.0, 1.0, 5, 100, 0, n_basis=1024)
        assert widths == [4, 7, 5, 5]


class TestSampleAverage:
    def test_single_sample_identity(self):
        # a group of one is the efficient estimator, replicate for replicate
        one = sample_average_risk(1, PARAMS, 3_000, 5, n_basis=32)
        eff = mc_risk("efficient", U, PARAMS, 3_000, 5, n_basis=32)
        assert (one.mean, one.stderr) == (eff.mean, eff.stderr)

    def test_average_reduces_noise(self):
        # group g averages the noise of replicates 8g..8g+7, and its loss is
        # the coefficient sum of the averaged path
        reps, group, n_basis = 6, 8, 32
        lam = SineBasis(PARAMS.sigma, PARAMS.T, n_basis).eigenvalues()
        losses = []
        for g in range(reps):
            eta = np.mean([noise_stream(5, g * group + i).standard_normal(n_basis)
                           for i in range(group)], axis=0)
            losses.append(float(np.sum((lam * eta) ** 2)))
        avg = sample_average_risk(group, PARAMS, reps, 5, n_basis=n_basis)
        assert avg.mean == pytest.approx(np.mean(losses), rel=1e-12)
        assert avg.mean < mc_risk("efficient", U, PARAMS, reps, 5, n_basis=n_basis).mean

    def test_risk_scales_as_r_over_n(self):
        theory = truncated_efficient_risk(64)
        for group in (4, 25):
            rep = sample_average_risk(group, PARAMS, 8_000, 3, n_basis=64)
            assert abs(rep.mean - theory / group) < 3 * rep.stderr

    def test_group_block_memory_is_bounded(self, monkeypatch):
        # one 4096-group block of 16 at n_basis 1024 draws 64 Mi normals;
        # drawn at once they peak at 544 MiB. The peak is set by the shapes
        # the block asks for, so zeros stand in for the (slow) draws.
        monkeypatch.setattr(risk_engine, "_noise_block", zero_draws)
        tracemalloc.start()
        try:
            risk_engine._efficient_block(0, 4096, seed=1, params=PARAMS, n_basis=1024,
                                         group=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20


class TestDrawBuffer:
    """Each sub-chunk draws into fresh arrays, so a block's peak is a few
    sub-chunks' arrays; zeros stand in for the (slow) draws, since the peak
    is set by the shapes the block asks for."""

    def test_group_block_draws_into_one_buffer(self, monkeypatch):
        # a 64-group sub-chunk of 16 draws 8 MiB, alive next to the previous
        # one's; at 256 groups the same block peaked at 38 MiB with one
        # 32 MiB buffer for every sub-chunk and at 66 MiB without
        monkeypatch.setattr(risk_engine, "_noise_block", zero_draws)
        tracemalloc.start()
        try:
            risk_engine._efficient_block(0, 4096, seed=1, params=PARAMS, n_basis=1024,
                                         group=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("block, group", [
        (partial(risk_engine._efficient_block, seed=1, params=PARAMS, n_basis=8, group=3), 3),
        (partial(risk_engine._bayes_block, seed=1, grid_m=16, spec=BayesSpec.centered(1.0),
                 params=PARAMS, u=None), 1),
    ], ids=["efficient", "bayes"])
    def test_sub_chunks_tile_the_block(self, monkeypatch, block, group):
        # replicates (groups) 100..699 are drawn as consecutive sub-chunks of
        # _SUB_CHUNK, the last one shorter
        calls = []

        def recording(seed, start, count, dim):
            calls.append((start, count))
            return zero_draws(seed, start, count, dim)

        monkeypatch.setattr(risk_engine, "_noise_block", recording)
        block(100, 600)
        sub = risk_engine._SUB_CHUNK
        assert calls == [((100 + off) * group, min(sub, 600 - off) * group)
                         for off in range(0, 600, sub)]

    @pytest.mark.parametrize("u, bound", [(None, 38), (U, 30)], ids=["prior", "fixed"])
    def test_bayes_paths_fill_buffers_of_the_block_call(self, monkeypatch, u, bound):
        # at grid 2048 the paths of a 64-replicate sub-chunk are 1 MiB each;
        # at 256 replicates the block peaked at 40.3 and 32.3 MiB with fresh
        # paths and at 36.3 and 28.3 MiB with per-call path buffers
        monkeypatch.setattr(risk_engine, "_noise_block", zero_draws)
        tracemalloc.start()
        try:
            risk_engine._bayes_block(0, 4096, seed=1, grid_m=2048, spec=BayesSpec.centered(1.0),
                                     params=PARAMS, u=u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20

    def test_bayes_block_peak_with_a_prior_drift(self, monkeypatch):
        # 64-replicate sub-chunks: the draws are 2 MiB and each path and
        # posterior-curve array 1 MiB; with 256-replicate sub-chunks the
        # block peaked at 36.3 MiB
        monkeypatch.setattr(risk_engine, "_noise_block", zero_draws)
        tracemalloc.start()
        try:
            risk_engine._bayes_block(0, 4096, seed=1, grid_m=2048, spec=BayesSpec.centered(1.0),
                                     params=PARAMS, u=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_stein_block_scales_its_draws_in_place(self, monkeypatch):
        # the block draws 4096 x n: at n = n_basis = 1024 the draws, the
        # coefficients c and the correction are 32 MiB each, and the risk
        # column alone (no grid) peaks at 96.1 MiB. The error coefficients
        # formed as a new array (eta * lam + corr) took it to 128 MiB, and
        # as two copies to 160 MiB; the bound leaves 8 MiB over the in-place
        # peak and a whole 32 MiB array below the first of those
        fnl = CylindricalFunctional(n=1024, a=-1022.0)
        monkeypatch.setattr(risk_engine, "_noise_block", zero_draws)
        tracemalloc.start()
        try:
            stein_worker(fnl, n_basis=1024, grid_m=None)(0, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 104 * 2**20


# the task sizes below a whole block
TASK_SIZES = (risk_engine._TASK, 2 * risk_engine._TASK)


def stein_worker(fnl, lambda_scale=1.0, n_basis=16, grid_m=32):
    return risk_engine._stein_worker(fnl, U, PARAMS, 5, n_basis, grid_m, lambda_scale)


class TestTaskSplit:
    """A pool runs each block as tasks of _TASK, 2 _TASK or _BLOCK replicates,
    whichever first draws _TASK_NORMALS normals (width normals a replicate),
    and joins their columns in the parent, so every block worker must give
    the same rows, byte for byte, however its replicates are split."""

    def test_tasks_keep_the_sub_chunk_boundaries(self):
        for task in TASK_SIZES:
            assert risk_engine._BLOCK % task == 0
            assert task % risk_engine._SUB_CHUNK == 0

    @pytest.mark.parametrize("width, task", [
        (1, risk_engine._BLOCK), (4, risk_engine._BLOCK), (511, risk_engine._BLOCK),
        (512, 2 * risk_engine._TASK), (1023, 2 * risk_engine._TASK),
        (1024, risk_engine._TASK), (4096, risk_engine._TASK),
    ])
    def test_task_size(self, width, task):
        assert risk_engine._task_size(width) == task

    @pytest.mark.parametrize("call", [
        lambda: mc_risk("efficient", U, PARAMS, 300, 0, n_basis=16),
        lambda: sample_average_risk(3, PARAMS, 300, 0, n_basis=16),
        lambda: mc_risk(JS4, U, PARAMS, 300, 0, n_basis=16),
        lambda: mc_risk(BayesSpec.centered(1.0), None, PARAMS, 300, 0, grid_m=16),
        lambda: mc_risk(BayesSpec.centered(1.0), U, PARAMS, 300, 0, grid_m=16,
                        prior_drift=False),
        lambda: identity_suite(JS4, U, PARAMS, 300, 0, grid_m=16, n_basis=16),
        lambda: gain_curves(1.0, [(1.0, 1.0), (2.0, 1.0)], 7, 300, 0),
        lambda: gain(1.0, 1.0, 1.0, 5, 300, 0, include_risk_difference=False),
        lambda: universal_constant(300, 0),
    ], ids=["efficient", "sample-average", "stein", "bayes-prior-drift", "bayes-fixed-drift",
            "identity-suite", "gain-curves", "gain", "constant"])
    def test_width_is_the_normals_a_replicate_draws(self, monkeypatch, call):
        drawn, runs = [], []
        real_draw, real_run = risk_engine._noise_block, risk_engine._run_blocks

        def draw(seed, start, count, dim):
            drawn.append(count * dim)
            return real_draw(seed, start, count, dim)

        def run(worker, reps, workers, width):
            runs.append((reps, width))
            return real_run(worker, reps, workers, width)

        monkeypatch.setattr(risk_engine, "_noise_block", draw)
        monkeypatch.setattr(risk_engine, "_run_blocks", run)
        call()
        (reps, width), = runs
        assert sum(drawn) == reps * width

    @pytest.mark.parametrize("worker", [
        partial(risk_engine._efficient_block, seed=5, params=PARAMS, n_basis=8),
        partial(risk_engine._efficient_block, seed=5, params=PARAMS, n_basis=8, group=16),
        stein_worker(JS4),
        stein_worker(CylindricalFunctional(n=5, a=-1.5)),
        stein_worker(JS4, lambda_scale=1.05),
        partial(risk_engine._bayes_block, seed=5, grid_m=16, spec=BayesSpec.centered(1.0),
                params=PARAMS, u=None),
        partial(risk_engine._bayes_block, seed=5, grid_m=16, spec=BayesSpec.centered(1.0),
                params=PARAMS, u=U),
        partial(risk_engine._gain_block, seed=5, n_max=7, rho=(0.0, 1.0, 2.5, 1.0)),
        partial(risk_engine._const_block, seed=5),
    ], ids=["efficient", "efficient-group-16", "stein-james-stein", "stein-general",
            "stein-corrupted", "bayes-prior-drift", "bayes-fixed-drift", "gain", "const"])
    def test_rows_do_not_depend_on_the_split(self, worker):
        start, count = 4096, 4096 + 300  # whole tasks and a partial one
        whole = worker(start, count)
        for task in TASK_SIZES + (risk_engine._BLOCK,):
            tasks = [worker(start + off, min(task, count - off))
                     for off in range(0, count, task)]
            assert len(tasks) == 4096 // task + 1 and len(tasks[-1][0]) == 300
            assert len(whole) == len(tasks[0])
            for column, parts in zip(whole, zip(*tasks)):
                joined = np.concatenate(parts)
                assert column.shape == joined.shape
                assert column.tobytes() == joined.tobytes()


@pytest.fixture
def pools(monkeypatch):
    """Replace the engine's process pool by a recorder that runs each task in
    this process; returns the list of pools made."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.tasks = []
            made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables, chunksize=1):
            self.tasks = list(zip(*iterables))
            return (fn(*task) for task in self.tasks)

    monkeypatch.setattr(risk_engine, "ProcessPoolExecutor", RecordingPool)
    return made


@pytest.fixture
def any_size(monkeypatch):
    """No pool threshold: only the task and CPU caps decide whether a pool starts."""
    monkeypatch.setattr(risk_engine, "_POOL_NORMALS", 0)


class TestPool:
    """A pool starts only where at least two processes would run, capped at
    the task count and at the CPU count, and the run draws at least
    _POOL_NORMALS normals; anything else runs in-process."""

    @pytest.mark.parametrize("reps, workers, tasks", [
        (1000, 8, []),  # one task: no pool
        (4096, 8, [(0, 1024), (1024, 1024), (2048, 1024), (3072, 1024)]),
        (4396, 3, [(0, 1024), (1024, 1024), (2048, 1024), (3072, 1024), (4096, 300)]),
    ])
    def test_pool_capped_at_the_task_count(self, pools, any_size, monkeypatch, reps,
                                           workers, tasks):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)  # the CPU cap is tested below
        # 1024 normals a replicate: tasks of _TASK replicates
        rep = mc_risk("efficient", U, PARAMS, reps, 7, n_basis=1024, workers=workers)
        assert [(pool.max_workers, pool.tasks) for pool in pools] == (
            [(min(workers, len(tasks)), tasks)] if tasks else [])
        assert rep == mc_risk("efficient", U, PARAMS, reps, 7, n_basis=1024)
        assert len(pools) == bool(tasks)  # the serial run made none

    @pytest.mark.parametrize("cpus, size", [(3, 3), (1, 1), (None, 1)])
    def test_pool_capped_at_the_cpu_count(self, pools, any_size, monkeypatch, cpus, size):
        # five whole-block tasks and 5000 workers asked for; a one-process
        # run starts no pool, and the stand-in pool starts no process, so the
        # cap is checked without starting any
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rep = universal_constant(20480, 7, workers=5000)
        assert [(pool.max_workers, len(pool.tasks)) for pool in pools] == (
            [(size, 5)] if size > 1 else [])
        assert rep == universal_constant(20480, 7)

    @pytest.mark.parametrize("run, task", [
        # 4 normals a replicate: whole-block tasks
        (lambda: universal_constant(3 * risk_engine._BLOCK, 7, workers=2), risk_engine._BLOCK),
        # a 3-block Bayes run at the default grid, 2 x 2048 normals a replicate
        (lambda: mc_risk(BayesSpec.centered(1.0), None, PARAMS, 3 * risk_engine._BLOCK, 7,
                         workers=2), risk_engine._TASK),
    ], ids=["constant", "bayes"])
    def test_tasks_sized_by_the_normals_they_draw(self, pools, any_size, monkeypatch, run, task):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        # the blocks return zeros: only the split is under test here
        for name in ("_const_block", "_bayes_block"):
            monkeypatch.setattr(risk_engine, name, lambda start, count, **_: (np.zeros(count),))
        run()
        (pool,) = pools
        assert pool.tasks == [(s, task) for s in range(0, 3 * risk_engine._BLOCK, task)]
        assert pool.max_workers == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--grid", "64", "--n-basis", "32"],
        ["filter", "--grid", "64"],
        ["gain-curve", "--n-max", "5", "--reps", "5000"],
        ["gain-surface", "--n-max", "5", "--reps", "5000", "--sigma-range", "0.5,1,2,4"],
        ["constant", "--reps", "5000"],
        ["bayes", "--reps", "5000", "--grid", "16"],
        ["identity-suite", "--reps", "5000", "--grid", "32", "--n-basis", "16"],
        ["optimal-n", "--n-max", "5", "--reps", "5000"],
    ], ids=lambda argv: argv[0])
    def test_each_subcommand_opens_at_most_one_pool(self, pools, monkeypatch, tmp_path, argv):
        # two tasks each; below the threshold at these sizes, no subcommand
        # opens a pool, and with the threshold lowered each replicate
        # subcommand opens exactly one and writes the same bytes
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--workers", "3", "--out", str(out)]) == 0
        assert pools == []
        serial = out.read_bytes()
        monkeypatch.setattr(risk_engine, "_POOL_NORMALS", 0)
        assert cli.main(argv + ["--workers", "3", "--out", str(out)]) == 0
        assert len(pools) == (argv[0] not in ("simulate", "filter"))
        assert out.read_bytes() == serial

    def test_a_run_at_the_threshold_pools(self):
        # unpatched: 4096 Bayes replicates of 2 x 256 normals draw 2**21
        # normals, the threshold itself, in two tasks of 2 _TASK replicates
        bayes = BayesSpec.centered(1.0)
        with counted_pools() as started:
            pooled = mc_risk(bayes, None, PARAMS, 4096, 5, grid_m=256, workers=2)
        assert started == ([2] if (os.cpu_count() or 1) > 1 else [])
        serial = mc_risk(bayes, None, PARAMS, 4096, 5, grid_m=256)
        assert (pooled.mean.hex(), pooled.stderr.hex()) == (serial.mean.hex(), serial.stderr.hex())


class TestDegenerateDenominators:
    START, ROW = 4096, 5

    @pytest.fixture
    def zeroed_row(self, monkeypatch):
        # replicates START + ROW and START + ROW + 3 draw all zeros: every
        # block's denominator vanishes there (the functional and gain blocks
        # below have no offsets), and the first one is reported
        real = risk_engine._noise_block
        targets = (self.START + self.ROW, self.START + self.ROW + 3)

        def fake(seed, start, count, dim):
            out = real(seed, start, count, dim)
            for target in targets:
                if start <= target < start + count:
                    out[target - start] = 0.0
            return out

        monkeypatch.setattr(risk_engine, "_noise_block", fake)

    @pytest.mark.parametrize("block, label", [
        (partial(risk_engine._stein_block, seed=3, params=PARAMS, n_basis=8, grid_m=16,
                 fnl=JS4, b=np.zeros(4)), "zero functional denominator"),
        (partial(risk_engine._gain_block, seed=3, n_max=5, rho=(0.0,)), "zero gain denominator"),
        (partial(risk_engine._const_block, seed=3), "zero denominator"),
    ])
    def test_first_zero_names_its_replicate(self, zeroed_row, block, label):
        with pytest.raises(DegenerateSampleError) as info:
            block(self.START, 16)
        assert info.value.replicate == self.START + self.ROW
        assert str(info.value) == f"{label} at replicate {self.START + self.ROW}"

    def test_cli_exits_three_without_output(self, zeroed_row, tmp_path, capsys):
        out = tmp_path / "const.csv"
        assert cli.main(["constant", "--reps", "5000", "--seed", "3", "--out", str(out)]) == 3
        assert f"replicate {self.START + self.ROW}" in capsys.readouterr().err
        assert not out.exists()


class TestIdentitySuite:
    def test_all_rows_pass_at_james_stein_point(self):
        report = identity_suite(JS4, U, PARAMS, 30_000, 6, grid_m=1024, n_basis=512)
        names = [row.name for row in report.rows]
        assert names == [
            "unbiased-risk", "sqrt-laplacian-risk", "log-gradient-risk",
            "harmonic-risk", "chain-rule-pathwise", "correction-forms-pathwise",
            "bias-bound",
        ]
        assert report.all_passed
        for row in report.rows:
            if row.name.endswith("-pathwise"):
                assert row.lhs <= 1e-10
        # healthy margins, not border passes
        for name in ("unbiased-risk", "sqrt-laplacian-risk"):
            row = report.row(name)
            assert abs(row.lhs - row.rhs) < 2.5 * row.paired_stderr

    def test_general_exponent_drops_james_stein_rows(self):
        fnl = CylindricalFunctional(n=5, a=-1.0)
        report = identity_suite(fnl, U, PARAMS, 10_000, 9, grid_m=512, n_basis=128)
        names = [row.name for row in report.rows]
        assert "harmonic-risk" not in names
        assert "correction-forms-pathwise" not in names
        assert report.all_passed

    def test_corrupted_eigenvalues_break_the_risk_rows(self):
        report = identity_suite(JS4, U, PARAMS, 10_000, 6, grid_m=512, n_basis=128,
                                lambda_scale=2.0)
        assert not report.row("sqrt-laplacian-risk").passed
        assert not report.all_passed
        # algebraic rows stay exact: they are downstream of the same
        # corrupted coefficients on both sides
        assert report.row("chain-rule-pathwise").passed

    def test_risk_and_bias_rows_do_not_depend_on_grid(self):
        # n_basis 512 exceeds the 64 grid intervals, where the sine rows
        # alias on the grid; the coefficient-space rows must not notice
        coarse = identity_suite(JS4, U, PARAMS, 2_000, 4, grid_m=64, n_basis=512)
        fine = identity_suite(JS4, U, PARAMS, 2_000, 4, grid_m=2048, n_basis=512)
        for name in ("unbiased-risk", "sqrt-laplacian-risk", "log-gradient-risk",
                     "harmonic-risk", "bias-bound"):
            r1, r2 = coarse.row(name), fine.row(name)
            assert (r1.lhs, r1.rhs, r1.paired_stderr) == pytest.approx(
                (r2.lhs, r2.rhs, r2.paired_stderr), rel=1e-12)
            assert r1.passed == r2.passed

    @pytest.mark.parametrize("fnl", [JS4, CylindricalFunctional(n=5, a=-1.0)],
                             ids=["james-stein", "general-exponent"])
    def test_monte_carlo_rows_are_one_variable(self, fnl):
        # every superharmonic form rewrites the same term a^2/D + 2a(n-2)/D,
        # so the rows are one paired difference, printed once per form
        report = identity_suite(fnl, U, PARAMS, 5_000, 20, grid_m=64, n_basis=16)
        rows = [row for row in report.rows if not row.name.endswith(("-pathwise", "-bound"))]
        assert len(rows) == 3 + fnl.is_james_stein
        unbiased = report.row("unbiased-risk")
        for row in rows:
            assert (row.lhs, row.rhs, row.paired_stderr, row.passed) == (
                unbiased.lhs, unbiased.rhs, unbiased.paired_stderr, unbiased.passed), row.name

    @pytest.mark.parametrize("fnl, peak", [(CylindricalFunctional(n=5, a=-1.0), 0.847),
                                           (JS4, 1.69)], ids=["general-exponent", "james-stein"])
    def test_wrong_closed_form_fails_pathwise(self, monkeypatch, fnl, peak):
        # the Laplacian forms of F_{n+1} keep the chain rule between them
        # exact; only their gap from the unbiased form a^2/D + 2a(n-2)/D,
        # 2a/D per replicate, shows the fault
        real = risk_engine.stein_closed_forms
        monkeypatch.setattr(risk_engine, "stein_closed_forms",
                            lambda n, a, dn: real(n + 1, a, dn))
        report = identity_suite(fnl, U, PARAMS, 4096, 7, grid_m=64, n_basis=16)
        row = report.row("chain-rule-pathwise")
        assert not row.passed
        assert row.lhs == pytest.approx(peak, rel=1e-2)

    def test_worker_invariance(self, pooled):
        one = identity_suite(JS4, U, PARAMS, 9_000, 2, grid_m=256, n_basis=64)
        two = identity_suite(JS4, U, PARAMS, 9_000, 2, grid_m=256, n_basis=64, workers=2)
        for r1, r2 in zip(one.rows, two.rows):
            assert (r1.lhs, r1.rhs, r1.paired_stderr) == (r2.lhs, r2.rhs, r2.paired_stderr)


class TestIdentityReportRows:
    def test_unbiased_row_passes(self):
        report = identity_suite(JS4, U, PARAMS, 8_000, 3, grid_m=256, n_basis=64)
        row = report.row("unbiased-risk")
        assert row.name == "unbiased-risk"
        assert row.passed

    def test_both_stein_forms_pass(self):
        report = identity_suite(JS4, U, PARAMS, 8_000, 3, grid_m=256, n_basis=64)
        rows = [report.row(name) for name in ("sqrt-laplacian-risk", "log-gradient-risk")]
        assert [row.name for row in rows] == [
            "sqrt-laplacian-risk", "log-gradient-risk"
        ]
        assert all(row.passed for row in rows)

    def test_zero_exponent_reduces_to_the_bound(self):
        fnl = CylindricalFunctional(n=4, a=0.0)
        report = identity_suite(fnl, U, PARAMS, 4_000, 5, grid_m=256, n_basis=64)
        assert report.fnl is fnl  # the report records the functional it was computed for
        row = report.row("unbiased-risk")
        assert abs(row.rhs - 0.5) < 1e-10  # RHS collapses to R exactly
        assert row.passed


class TestGain:
    def test_formula_matches_quadrature_oracle(self):
        est = gain(1.0, 1.0, 1.0, 4, 50_000, 31, include_risk_difference=False)
        assert est.risk_difference is None
        ref = oracles.FROZEN_GAIN_UNIT[4]
        assert abs(est.formula.mean - ref) < 3 * est.formula.stderr
        live = oracles.gain_exact(1.0, 1.0, 1.0, 4)
        assert abs(live - ref) < 1e-10

    def test_scale_invariance_is_bitwise(self):
        a = gain(1.0, 1.0, 1.0, 5, 4_000, 9, include_risk_difference=False)
        b = gain(2.0, 2.0, 1.0, 5, 4_000, 9, include_risk_difference=False)
        c = gain(1.0, 2.0, 4.0, 5, 4_000, 9, include_risk_difference=False)
        assert a.formula.mean == b.formula.mean == c.formula.mean
        assert a.formula.stderr == b.formula.stderr == c.formula.stderr

    def test_risk_difference_cross_check(self):
        est = gain(1.0, 1.0, 1.0, 4, 30_000, 14, n_basis=256)
        diff = abs(est.formula.mean - est.risk_difference.mean)
        combined = math.hypot(est.formula.stderr, est.risk_difference.stderr)
        truncation = (0.5 - truncated_efficient_risk(256)) / 0.5
        assert diff < 3 * combined + truncation
        assert est.risk_difference.mean > 0.05

    def test_n_below_three_rejected(self):
        with pytest.raises(ValueError):
            gain(1.0, 1.0, 1.0, 2, 100, 0)
        with pytest.raises(ValueError, match="need n >= 3"):
            asymptotic_gain_check(2, 100, 0)

    def test_model_checked(self):
        with pytest.raises(ValueError, match="T must be positive"):
            gain_curve(1.0, 1.0, 0.0, 5, 100, 0)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_single_gain_equals_curve_column(self, n):
        # a lone column is summed in replicate order, as a column of the curve
        est = gain(1.0, 1.0, 1.0, n, 4_000, 9, include_risk_difference=False)
        curve = gain_curve(1.0, 1.0, 1.0, 8, 4_000, 9)
        row = next(r for r in curve.rows if r.n == n)
        assert est.formula.mean == row.gain_mean
        assert est.formula.stderr == row.gain_stderr

    def test_short_curve_equals_long_curve_row(self):
        assert gain_curve(1.0, 1.0, 1.0, 3, 4_000, 9).rows[0] == \
            gain_curve(1.0, 1.0, 1.0, 8, 4_000, 9).rows[0]


class TestGainCurve:
    def test_optimal_n_is_four_at_unit_parameters(self):
        n_opt, curve = optimal_n_search(1.0, 1.0, 1.0, 10, 50_000, 0)
        assert n_opt == 4
        for row in curve.rows:
            ref = oracles.FROZEN_GAIN_UNIT[row.n]
            assert abs(row.gain_mean - ref) < 4 * row.gain_stderr

    def test_one_pass_gives_each_model_its_own_curve(self):
        # one set of draws for every model, bit for bit one gain_curve each
        models = [(1.0, 2.0), (0.5, 1.0), (1.0, 2.0), (3.0, 0.25)]
        curves = gain_curves(1.5, models, 6, 5000, 9)
        assert curves == tuple(gain_curve(1.5, sigma, T, 6, 5000, 9) for sigma, T in models)

    def test_all_gains_positive(self):
        curve = gain_curve(1.0, 1.0, 1.0, 10, 20_000, 3)
        assert all(row.gain_mean > 0 for row in curve.rows)

    def test_ties_break_toward_smaller_n(self):
        curve = GainCurve(
            alpha=1.0, sigma=1.0, T=1.0, reps=100, seed=0,
            rows=(
                GainPoint(3, 0.1, 0.01),
                GainPoint(4, 0.2, 0.01),
                GainPoint(5, 0.2, 0.01),
            ),
        )
        assert curve.n_opt == 4

    def test_row_ordering_enforced(self):
        with pytest.raises(ValueError):
            GainCurve(alpha=1.0, sigma=1.0, T=1.0, reps=10, seed=0,
                      rows=(GainPoint(4, 0.1, 0.01), GainPoint(3, 0.2, 0.01)))

    def test_small_ratio_regime_pushes_n_opt_up(self):
        # sigma^2/(alpha^2 T) = 0.01: the curve climbs toward n(1-2/n)^2 sigma^2/(alpha^2 T)
        n_opt, _ = optimal_n_search(10.0, 1.0, 1.0, 8, 20_000, 5)
        assert n_opt == 8

    def test_large_sigma_tracks_limit_curve(self):
        # the n=3 and n=4 plateau values differ by only 1.7e-3, below MC
        # resolution here, so check curve agreement rather than the argmax
        n_opt, curve = optimal_n_search(1.0, 1e6, 1.0, 8, 30_000, 6)
        assert n_opt in (3, 4)
        for row in curve.rows:
            ref = oracles.gain_limit_exact(row.n)
            assert abs(row.gain_mean - ref) < 4 * row.gain_stderr


class TestConditionedGain:
    # the n = 3 column integrates the first coordinate out: w_1 = pi/2 and,
    # at unit parameters, delta_1 = sqrt(2)
    @pytest.mark.parametrize("delta", [0.0, math.sqrt(2.0), -3.0, 14.1])
    @pytest.mark.parametrize("r", [1e-3, 0.05, 1.0, 7.0])
    def test_closed_form_matches_quadrature(self, delta, r):
        w = math.pi / 2
        value = risk_engine._conditional_inverse_moment(delta, w, r)
        ref = oracles.conditional_inverse_moment(delta, w, r)
        assert abs(value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("seed", [20, 22, 24, 40, 47, 55, 72, 89, 119, 123, 132])
    def test_seeds_where_raw_n3_won_give_four(self, seed):
        # with the raw 2/Q column, one near-zero Q made n = 3 the argmax here
        curve = gain_curve(1.0, 1.0, 1.0, 10, 20_480, seed)
        assert curve.n_opt == 4
        row = curve.rows[0]
        assert abs(row.gain_mean - oracles.FROZEN_GAIN_UNIT[3]) < 4 * row.gain_stderr


class TestFaddeeva:
    # the n = 3 column's w(z), against SciPy's and against closed forms
    @staticmethod
    def assert_close(got, ref):
        assert np.all(np.abs(got.real - ref.real) <= 1e-12 * np.abs(ref.real))
        assert np.all(np.abs(np.abs(got) - np.abs(ref)) <= 1e-12 * np.abs(ref))

    def test_matches_scipy_across_the_regions(self):
        from scipy.special import wofz

        # crosses |z| = 8 and Im z = 0.05, from Im z = 1e-6 to |Re z| = 1e3
        edges = [0.0, 0.04, 0.05, 0.06, 5.0, 7.9, 7.99, 8.0, 8.01, 8.1, 20.0]
        xs = np.concatenate([np.logspace(-6, 3, 91), np.linspace(0.0, 10.0, 101), edges])
        xs = np.concatenate([-xs, xs])
        ys = np.concatenate([np.logspace(-6, 3, 91), np.linspace(0.0, 0.1, 41)[1:], edges[1:]])
        z = (xs[:, None] + 1j * ys[None, :]).ravel()
        self.assert_close(risk_engine._faddeeva(z), wofz(z))

    def test_imaginary_axis_is_scaled_erfc(self):
        # w(i y) = exp(y^2) erfc(y), SciPy-free
        ys = np.concatenate([np.logspace(-6, math.log10(20.0), 200), [0.05, 8.0, 20.0]])
        ref = np.array([math.exp(y * y) * math.erfc(y) for y in ys])
        got = risk_engine._faddeeva(1j * ys)
        assert np.all(np.abs(got.real - ref) <= 1e-12 * ref)
        assert np.all(np.abs(got.imag) <= 1e-12 * ref)

    def test_real_part_on_the_far_axis(self):
        # just above the axis past |z| = 8, Re w(x + i y) -> exp(-x^2): the
        # continued fraction alone gives y/(sqrt(pi) x^2) there
        from scipy.special import wofz

        z = np.array([8.0 + 1e-30j, -8.5 + 1e-28j, 9.0 + 1e-40j, 20.0 + 1e-30j])
        self.assert_close(risk_engine._faddeeva(z), wofz(z))

    def test_nan_where_not_finite(self):
        z = np.array([complex(math.nan, 1.0), complex(math.nan, math.inf), 1.0 + 1.0j])
        got = risk_engine._faddeeva(z)
        assert np.isnan(got[:2]).all() and np.isfinite(got[2])

    def test_each_value_depends_on_its_own_z_alone(self):
        # values in every region: NumPy's loops must not round a one-element
        # array otherwise than a long one
        rng = np.random.default_rng(0)
        z = rng.uniform(-12.0, 12.0, 64) + 1j * 10.0 ** rng.uniform(-4.0, 1.0, 64)
        whole = risk_engine._faddeeva(z)
        alone = np.concatenate([risk_engine._faddeeva(z[i:i + 1]) for i in range(len(z))])
        assert whole.tobytes() == alone.tobytes()

    def test_matches_scipy_on_drawn_replicates(self, monkeypatch):
        # the (delta, w, r) that the gain blocks pass in across gain-surface's
        # sigma range, and the large-sigma limit's rho = 0
        from scipy.special import wofz

        calls = []
        real = risk_engine._conditional_inverse_moment

        def recording(delta, w, r):
            calls.append((delta, w, r))
            return real(delta, w, r)

        monkeypatch.setattr(risk_engine, "_conditional_inverse_moment", recording)
        gain_curves(1.0, [(sigma, 1.0) for sigma in (0.25, 0.5, 1.0, 2.0, 4.0)], 3, 8192, 5)
        gain_large_sigma_limit(3, 8192, 5)
        assert len(calls) == 6 * 2
        for delta, w, r in calls:
            ref = (math.sqrt(math.pi / 2) / (w * r)
                   * wofz((delta + 1j * r) / (w * math.sqrt(2.0))).real)
            got = real(delta, w, r)
            assert np.all(np.abs(got - ref) <= 1e-12 * ref)


class TestLargeSigmaLimit:
    def test_n4_matches_frozen_constant(self):
        rep = gain_large_sigma_limit(4, 50_000, 8)
        assert abs(rep.mean - oracles.FROZEN_UNIVERSAL_CONSTANT) < 3 * rep.stderr

    def test_n3_matches_quadrature_oracle(self):
        rep = gain_large_sigma_limit(3, 50_000, 8)
        assert abs(rep.mean - oracles.gain_limit_exact(3)) < 3 * rep.stderr

    def test_huge_sigma_gain_is_paired_with_the_limit(self):
        est = gain(1.0, 1e4, 1.0, 4, 40_000, 17, include_risk_difference=False)
        rep = gain_large_sigma_limit(4, 40_000, 17)
        # same seed, same draws: the difference is the tiny offset rho
        assert abs(est.formula.mean - rep.mean) < 3 * math.hypot(
            est.formula.stderr, rep.stderr
        )

    def test_gain_increases_with_sigma_toward_plateau(self):
        means = [
            gain(1.0, s, 1.0, 4, 30_000, 11, include_risk_difference=False).formula.mean
            for s in (0.5, 1.0, 4.0, 100.0)
        ]
        assert all(lo < hi for lo, hi in zip(means, means[1:]))
        assert means[-1] < oracles.FROZEN_UNIVERSAL_CONSTANT + 0.01


class TestUniversalConstant:
    def test_agrees_with_limit_at_n4(self):
        const = universal_constant(50_000, 19)
        limit = gain_large_sigma_limit(4, 50_000, 19)
        assert abs(const.mean - limit.mean) < 3 * math.hypot(const.stderr, limit.stderr)

    def test_against_quadrature_oracle(self):
        const = universal_constant(50_000, 19)
        assert abs(const.mean - oracles.universal_constant_exact()) < 3 * const.stderr

    def test_antithetic_invariance(self):
        # the integrand is even: replaying the same streams negated gives
        # identical per-replicate values, hence an identical estimate
        weights = np.array([1.0, 9.0, 25.0, 49.0])
        for rep in range(100):
            z = noise_stream(19, rep).standard_normal(4)
            q_pos = float((z * z) @ weights)
            q_neg = float(((-z) * (-z)) @ weights)
            assert q_pos == q_neg


class TestAsymptotics:
    def test_ratio_near_one_at_n50(self):
        rep = asymptotic_gain_check(50, 20_000, 23)
        assert 0.9 < rep.mean < 1.1

    def test_small_ratio_asymptote_values(self):
        # (n-2)^2 sigma^2/(n alpha^2 T) = 2^2/(4 * 100)
        assert gain_small_ratio_asymptote(10.0, 1.0, 1.0, 4) == 0.01
        big_n = gain_small_ratio_asymptote(10.0, 1.0, 1.0, 10**6) / 10**6
        assert abs(big_n - 0.01) < 1e-5

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_small_ratio_asymptote_matches_oracle(self, n):
        # the quadrature gain approaches the asymptote as alpha grows; the
        # law without the factor n would leave the ratio near n instead of 1
        ratios = [oracles.gain_exact(alpha, 1.0, 1.0, n)
                  / gain_small_ratio_asymptote(alpha, 1.0, 1.0, n)
                  for alpha in (10.0, 30.0, 100.0)]
        gaps = [abs(r - 1.0) for r in ratios]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2

    def test_small_ratio_asymptote_validation(self):
        with pytest.raises(ValueError):
            gain_small_ratio_asymptote(0.0, 1.0, 1.0, 4)
        with pytest.raises(ValueError):
            gain_small_ratio_asymptote(1.0, 1.0, 1.0, 2)


class TestBiasNorm:
    def test_bound_holds_and_is_strict(self):
        report = identity_suite(JS4, U, PARAMS, 20_000, 29, grid_m=512, n_basis=128)
        row = report.row("bias-bound")
        assert row.lhs <= row.rhs + 3 * row.paired_stderr
        # Jensen gap: ||E xi||^2 strictly below E ||xi||^2
        assert row.lhs < row.rhs - 3 * row.paired_stderr

    def test_zero_drift_zero_offsets_kills_the_bias(self):
        # odd symmetry of the correction under eta -> -eta
        fnl = CylindricalFunctional(n=4, a=-2.0, b=np.zeros(4))
        row = identity_suite(fnl, DriftSpec.zero(), PARAMS, 20_000, 29,
                             grid_m=512, n_basis=128).row("bias-bound")
        assert row.lhs < row.rhs / 100.0


class TestReportTypes:
    def test_riskreport_validation(self):
        with pytest.raises(ValueError):
            RiskReport(mean=0.0, stderr=-1.0, reps=10, seed=0, label="x")
        with pytest.raises(ValueError):
            RiskReport(mean=0.0, stderr=0.1, reps=1, seed=0, label="x")

    def test_identity_row_explains_its_bound(self):
        pathwise = IdentityRow("chain-rule-pathwise", 3e-9, 0.0, 0.0, False)
        assert pathwise.explain() == (
            "chain-rule-pathwise: max deviation 3e-09 against the bound 1e-10")
        paired = IdentityRow("unbiased-risk", 0.5, 0.4, 0.025, False)
        assert paired.explain().endswith("z = |lhs - rhs| / paired_stderr = 4.00")
