import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from driftlab import (
    BayesSpec,
    DegenerateSampleError,
    DriftSpec,
    ModelParams,
    SineBasis,
    TimeGrid,
    VolatilityProfile,
    bayes_estimate,
    bayes_mse_decomposition,
    bayes_risk_closed_form,
    cramer_rao_bound,
    drift_inner_products,
    mc_risk,
    noise_stream,
    observed_coefficient,
    observed_path,
    posterior_drift_curve,
    posterior_variance_curve,
    process_sim,
    reconstruct_path,
    risk_engine,
    scalar_path_filter,
    simulate_path,
    stieltjes_cumulative,
)

import oracles


PARAMS = ModelParams(sigma=1.0, T=1.0, alpha=1.0)


def basis_for(params, n):
    return SineBasis(params.sigma, params.T, n)


def h_matrix(params, n, t):
    """Rows h_k(t) = lambda_k e_k(t) / sigma^2 for k = 1..n."""
    basis = basis_for(params, n)
    return (basis.eigenvalues() / params.sigma**2)[:, None] * basis.orthonormal_matrix(t)


class TestModelTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(sigma=0.0, T=1.0)
        with pytest.raises(ValueError):
            ModelParams(sigma=1.0, T=-2.0)

    def test_grid_basics(self):
        grid = TimeGrid(8, 2.0)
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 2.0
        assert grid.dt == 0.25
        w = grid.trapezoid_weights()
        assert w.shape == (9,)
        assert np.isclose(w.sum(), 2.0)
        assert w[0] == w[-1] == grid.dt / 2

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0, 1.0)
        with pytest.raises(ValueError):
            TimeGrid(16, 0.0)

    def test_profile_constant_and_piecewise(self):
        const = VolatilityProfile.constant(2.0)
        assert const.is_constant
        assert float(const.value(0.3)) == 2.0
        two = VolatilityProfile(levels=(1.0, 3.0), breakpoints=(0.5,))
        assert not two.is_constant
        assert float(two.value(0.25)) == 1.0
        assert float(two.value(0.75)) == 3.0
        segs = list(process_sim.profile_segments(1.0, two))
        assert segs == [(0.0, 0.5, (1.0,)), (0.5, 1.0, (3.0,))]

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            VolatilityProfile(levels=(1.0, -1.0), breakpoints=(0.5,))
        with pytest.raises(ValueError):
            VolatilityProfile(levels=(1.0, 2.0, 3.0), breakpoints=(0.7, 0.2))
        with pytest.raises(ValueError):
            VolatilityProfile(levels=(1.0,), breakpoints=(0.5,))

    @pytest.mark.parametrize("levels, breakpoints", [
        ((math.nan,), ()), ((math.inf,), ()), ((1.0, 2.0), (math.nan,)),
        ((1.0, 2.0), (math.inf,)), ((1.0, math.nan), (0.5,))])
    def test_profile_rejects_non_finite_values(self, levels, breakpoints):
        # nan passed the sign checks and made bayes_risk_closed_form return nan
        with pytest.raises(ValueError, match="finite"):
            VolatilityProfile(levels, breakpoints)


class TestProfileIntegrals:
    # two profiles on [0, 1.3] whose breakpoints differ
    T = 1.3
    TAU = VolatilityProfile(levels=(0.5, 2.0, 1.25), breakpoints=(0.3, 0.9))
    SIG = VolatilityProfile(levels=(1.0, 1.5), breakpoints=(0.7,))

    def test_walker_cuts_at_every_breakpoint(self):
        segs = list(process_sim.profile_segments(self.T, self.TAU, self.SIG))
        assert segs == [(0.0, 0.3, (0.5, 1.0)), (0.3, 0.7, (2.0, 1.0)),
                        (0.7, 0.9, (2.0, 1.5)), (0.9, 1.3, (1.25, 1.5))]

    def test_closed_forms_pinned(self):
        # float.hex values of the per-module segment loops the walker replaced
        spec = BayesSpec(tau=self.TAU, v=DriftSpec.zero())
        grid = TimeGrid(8, self.T)
        params = ModelParams(sigma=1.0, T=self.T)
        assert cramer_rao_bound(self.SIG, self.T).hex() == "0x1.11eb851eb851fp+0"
        assert cramer_rao_bound(self.TAU, self.T).hex() == "0x1.e428f5c28f5c5p+0"
        assert bayes_risk_closed_form(spec, self.SIG, self.T).hex() == "0x1.15e6038f0ece6p-1"
        variance, _ = bayes_mse_decomposition(spec, DriftSpec.linear(1.0), self.SIG, grid, params)
        assert variance.hex() == "0x1.5d2d7b17fd124p-2"
        curve = posterior_variance_curve(self.TAU, self.SIG, grid)
        assert [float(v).hex() for v in curve] == [
            "0x0.0p+0", "0x1.0a3d70a3d70a4p-5", "0x1.47ae147ae147cp-4",
            "0x1.ae147ae147ae3p-3", "0x1.5c28f5c28f5c3p-2", "0x1.15810624dd2f2p-1",
            "0x1.796d0397a718ep-1", "0x1.c625ab7614363p-1", "0x1.096f29aa40a9dp+0",
        ]

    @pytest.mark.parametrize("entry", [
        "cramer_rao_bound", "bayes_risk_closed_form", "bayes_mse_decomposition",
        "posterior_variance_curve", "scalar_path_filter", "posterior_drift_curve",
        "bayes_estimate", "mc_risk-workers-1", "mc_risk-workers-2",
    ])
    @pytest.mark.parametrize("breakpoint", [1.0, 1.5])
    def test_breakpoint_outside_the_horizon_rejected(self, monkeypatch, entry, breakpoint):
        def no_draws(*args):
            raise AssertionError("a replicate was drawn")
        monkeypatch.setattr(risk_engine, "_noise_block", no_draws)
        T = 1.0
        bad = VolatilityProfile(levels=(1.0, 2.0), breakpoints=(breakpoint,))
        ok = VolatilityProfile.constant(1.0)
        spec = BayesSpec(tau=ok, v=DriftSpec.zero())
        grid = TimeGrid(8, T)
        params = ModelParams(sigma=1.0, T=T)
        calls = {
            "cramer_rao_bound": lambda: cramer_rao_bound(bad, T),
            "bayes_risk_closed_form": lambda: bayes_risk_closed_form(spec, bad, T),
            "bayes_mse_decomposition": lambda: bayes_mse_decomposition(
                spec, DriftSpec.zero(), bad, grid, params),
            "posterior_variance_curve": lambda: posterior_variance_curve(ok, bad, grid),
            "scalar_path_filter": lambda: scalar_path_filter(
                grid.points, DriftSpec.zero(), bad, ok, grid, params),
            "posterior_drift_curve": lambda: posterior_drift_curve(
                grid.points, DriftSpec.zero(), bad, ok, grid, params),
            "bayes_estimate": lambda: bayes_estimate(
                simulate_path(0, 0, DriftSpec.zero(), params, grid, 8),
                BayesSpec(tau=bad, v=DriftSpec.zero())),
            "mc_risk-workers-1": lambda: mc_risk(
                BayesSpec(tau=bad, v=DriftSpec.zero()), None, params, 2, 0, grid_m=8),
            "mc_risk-workers-2": lambda: mc_risk(
                BayesSpec(tau=bad, v=DriftSpec.zero()), None, params, 2, 0, grid_m=8,
                workers=2),
        }
        with pytest.raises(ValueError, match=r"strictly inside \(0, T\)"):
            calls[entry]()


class TestBasis:
    def test_boundary_values(self):
        assert np.all(basis_for(PARAMS, 7).orthonormal_matrix([0.0]) == 0.0)
        assert np.all(h_matrix(PARAMS, 7, [0.0]) == 0.0)

    def test_gamma_multiplies_by_sigma_sq(self):
        # Gamma h_k = sigma^2 h_k = lambda_k e_k, with h_k integrated from
        # its derivative rows, so the three basis formulas are tied together
        params = ModelParams(sigma=3.0, T=2.0)
        grid = TimeGrid(4096, 2.0)
        basis = basis_for(params, 4)
        h = cumulative_trapezoid(basis.derivative_matrix(grid.points), dx=grid.dt,
                                 initial=0.0)
        gamma_h = basis.eigenvalues()[:, None] * basis.orthonormal_matrix(grid.points)
        np.testing.assert_allclose(9.0 * h, gamma_h, atol=1e-6)

    def test_eigenvalues_decreasing(self):
        lam = basis_for(PARAMS, 8).eigenvalues()
        assert np.all(lam > 0)
        assert np.all(np.diff(lam) < 0)
        assert np.isclose(lam[0], 1.0 / (np.pi * 0.5))

    def test_orthonormal_under_grid_quadrature(self):
        # products of the first few sine modes integrate exactly under
        # the trapezoid rule on a uniform grid
        grid = TimeGrid(512, 1.0)
        w = grid.trapezoid_weights()
        mat = SineBasis(1.0, 1.0, 8).orthonormal_matrix(grid.points)
        gram = (mat * w) @ mat.T
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)

    def test_derivative_pairing(self):
        # <h_j, h_k> = int hdot_j hdot_k dt = delta_jk / sigma^2
        params = ModelParams(sigma=2.0, T=1.5)
        grid = TimeGrid(512, 1.5)
        w = grid.trapezoid_weights()
        der = SineBasis(2.0, 1.5, 6).derivative_matrix(grid.points)
        gram = (der * w) @ der.T
        np.testing.assert_allclose(gram, np.eye(6) / 4.0, atol=1e-12)

    def test_kernel_eigensystem_oracle(self):
        # lambda_k^2 and e_k are the eigenpairs of the covariance kernel
        sigma, T = 1.3, 0.7
        vals, vecs, t = oracles.kernel_eigensystem(sigma, T, 400)
        basis = SineBasis(sigma, T, 4)
        lams, rows = basis.eigenvalues(), basis.orthonormal_matrix(t)
        for k in range(1, 5):
            lam = lams[k - 1]
            assert abs(vals[k - 1] / lam**2 - 1.0) < 1e-3
            ek = rows[k - 1]
            vk = vecs[:, k - 1]
            if np.dot(vk, ek) < 0:
                vk = -vk
            assert np.max(np.abs(vk - ek)) < 1e-3

    def test_index_and_time_validation(self):
        with pytest.raises(ValueError):
            SineBasis(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            basis_for(PARAMS, 2).derivative_matrix([0.5, 1.5])
        with pytest.raises(ValueError):
            basis_for(PARAMS, 1).orthonormal_matrix([-0.1])
        with pytest.raises(ValueError):
            observed_coefficient(simulate_path(0, 0, DriftSpec.zero(), PARAMS,
                                               TimeGrid(16, 1.0), 8), DriftSpec.zero(), 0)


class TestDriftSpecs:
    def test_linear_values(self):
        u = DriftSpec.linear(2.5)
        t = np.linspace(0.0, 1.0, 5)
        np.testing.assert_allclose(u.values(t, PARAMS), 2.5 * t)
        np.testing.assert_allclose(u.derivative_values(t, PARAMS), 2.5)

    def test_linear_inner_products_against_quadrature(self):
        params = ModelParams(sigma=1.7, T=2.0, alpha=0.8)
        u = DriftSpec.linear(0.8)
        t = np.linspace(0.0, 2.0, 40001)
        vec = drift_inner_products(u, 8, params)
        hdot = basis_for(params, 8).derivative_matrix(t)
        for k in (1, 2, 3, 8):
            ref = np.trapezoid(0.8 * hdot[k - 1], t)
            assert abs(vec[k - 1] - ref) < 1e-8

    def test_inner_products_vector_matches_scalar(self):
        # the tabulated pairings take one axis-1 trapezoid; each entry must
        # equal the one-mode trapezoid bit for bit
        grid = TimeGrid(512, 1.0)
        du = np.cos(3.0 * grid.points) + grid.points**2
        u = DriftSpec.from_tabulated_derivative(du, grid)
        vec = drift_inner_products(u, 6, PARAMS)
        hdot = basis_for(PARAMS, 6).derivative_matrix(grid.points)
        for k in range(1, 7):
            assert vec[k - 1] == np.trapezoid(du * hdot[k - 1], dx=grid.dt)

    @pytest.mark.parametrize("end", [0.5, 2.0])
    @pytest.mark.parametrize("entry", ["values", "derivative_values", "drift_inner_products"])
    def test_tabulated_horizon_must_be_the_model_horizon(self, entry, end):
        # a tabulation ending short of T would give u flat past its end while
        # du is still reported there; one ending past T would be cut at T
        grid = TimeGrid(8, end)
        u = DriftSpec.from_tabulated_derivative(np.ones(9), grid)
        t = np.linspace(0.0, min(end, PARAMS.T), 5)
        calls = {
            "values": lambda: u.values(t, PARAMS),
            "derivative_values": lambda: u.derivative_values(t, PARAMS),
            "drift_inner_products": lambda: drift_inner_products(u, 3, PARAMS),
        }
        with pytest.raises(ValueError, match=re.escape(f"T={end}, the model at T=1.0")):
            calls[entry]()

    def test_alternating_signs_for_linear_drift(self):
        vec = drift_inner_products(DriftSpec.linear(1.0), 6, PARAMS)
        assert np.all(vec[::2] > 0)
        assert np.all(vec[1::2] < 0)

    def test_coefficient_drift_inner_products(self):
        params = ModelParams(sigma=2.0, T=1.0)
        u = DriftSpec.from_coefficients([1.0, -0.5, 0.25])
        vec = drift_inner_products(u, 5, params)
        np.testing.assert_allclose(vec, [0.25, -0.125, 0.0625, 0.0, 0.0])
        np.testing.assert_array_equal(vec[:2], drift_inner_products(u, 2, params))

    def test_coefficient_drift_curve(self):
        params = ModelParams(sigma=2.0, T=1.0)
        u = DriftSpec.from_coefficients([0.0, 1.0])
        t = np.linspace(0.0, 1.0, 9)
        np.testing.assert_allclose(u.values(t, params), h_matrix(params, 2, t)[1])
        np.testing.assert_allclose(u.derivative_values(t, params),
                                   basis_for(params, 2).derivative_matrix(t)[1])

    def test_empty_coefficient_drift_is_zero(self):
        u = DriftSpec.from_coefficients([])
        t = np.linspace(0.0, 1.0, 5)
        np.testing.assert_array_equal(u.values(t, PARAMS), np.zeros(5))
        np.testing.assert_array_equal(u.derivative_values(t, PARAMS), np.zeros(5))
        assert u.values(0.5, PARAMS).shape == ()
        np.testing.assert_array_equal(drift_inner_products(u, 3, PARAMS), np.zeros(3))

    def test_tabulated_derivative_matches_linear(self):
        grid = TimeGrid(2048, 1.0)
        u_tab = DriftSpec.from_tabulated_derivative(
            np.full(grid.points.shape, 1.0), grid
        )
        u_lin = DriftSpec.linear(1.0)
        np.testing.assert_allclose(
            u_tab.values(grid.points, PARAMS), u_lin.values(grid.points, PARAMS),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            drift_inner_products(u_tab, 5, PARAMS), drift_inner_products(u_lin, 5, PARAMS),
            rtol=0.0, atol=1e-6,
        )


class TestNoiseStreams:
    def test_reproducible_and_distinct(self):
        a = noise_stream(42, 7).standard_normal(6)
        b = noise_stream(42, 7).standard_normal(6)
        c = noise_stream(42, 8).standard_normal(6)
        d = noise_stream(43, 7).standard_normal(6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_prefix_stability(self):
        # reading a longer block from a fresh stream keeps the prefix:
        # this is what lets different truncation levels share replicates
        short = noise_stream(5, 3).standard_normal(4)
        long = noise_stream(5, 3).standard_normal(64)
        np.testing.assert_array_equal(short, long[:4])

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            noise_stream(-1, 0)
        with pytest.raises(ValueError):
            noise_stream(0, 2**64)

    def test_simulated_path_draws_its_stream(self):
        eta = simulate_path(1, 2, DriftSpec.zero(), PARAMS, TimeGrid(16, 1.0), 32).eta
        assert eta.shape == (32,)
        np.testing.assert_array_equal(eta, noise_stream(1, 2).standard_normal(32))


class TestPathConstruction:
    def test_expansion_reproduces_single_mode(self):
        grid = TimeGrid(128, 1.0)
        eta = np.zeros(16)
        eta[2] = 1.0
        path = reconstruct_path(eta, grid, PARAMS)
        expected = h_matrix(PARAMS, 3, grid.points)[2]  # sigma = 1: lambda_3 e_3
        np.testing.assert_allclose(path, expected, atol=1e-14)

    def test_projection_builds_no_mode_by_node_matrix(self):
        # one sine transform of M values: the 1024 x 8193 matrix of the
        # mode-by-node product would take about 67 MB
        grid = TimeGrid(8192, 1.0)
        eta = noise_stream(5, 0).standard_normal(1024)
        tracemalloc.start()
        try:
            reconstruct_path(eta, grid, PARAMS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_simulated_path_fields(self):
        grid = TimeGrid(64, 1.0)
        u = DriftSpec.linear(1.0)
        s = simulate_path(9, 4, u, PARAMS, grid, 32)
        assert s.x[0] == 0.0
        assert s.n_basis == 32
        np.testing.assert_array_equal(s.x, s.xu + s.u)
        np.testing.assert_allclose(s.u, grid.points, atol=1e-15)
        assert s.seed == 9 and s.replicate_index == 4

    def test_observed_path_rejects_bad_eta(self):
        grid = TimeGrid(16, 1.0)
        u = DriftSpec.linear(1.0)
        with pytest.raises(ValueError):
            observed_path(np.zeros((3, 2)), u, grid, PARAMS)

    def test_path_variance_matches_eigenvalues(self):
        # Var X^u_T = sum_k lambda_k^2 e_k(T)^2; T is where the sine
        # basis concentrates, a sharp check of the scaling
        grid = TimeGrid(2, 1.0)
        n = 256
        basis = basis_for(PARAMS, n)
        var_theory = float(np.sum(
            basis.eigenvalues() ** 2 * basis.orthonormal_matrix([1.0])[:, 0] ** 2
        ))
        acc = 0.0
        reps = 4000
        for rep in range(reps):
            eta = noise_stream(12, rep).standard_normal(n)
            acc += reconstruct_path(eta, grid, PARAMS)[-1] ** 2
        mc = acc / reps
        # fourth-moment stderr of the variance estimate
        se = var_theory * np.sqrt(2.0 / reps)
        assert abs(mc - var_theory) < 4 * se


class TestObservedCoefficients:
    def test_identity_mode_recovers_scaled_coefficient(self):
        grid = TimeGrid(256, 1.0)
        u = DriftSpec.linear(1.0)
        s = simulate_path(3, 0, u, PARAMS, grid, 64)
        lams = basis_for(PARAMS, 5).eigenvalues()
        pairings = drift_inner_products(u, 5, PARAMS)
        for k in (1, 2, 5):
            expected = s.eta[k - 1] / lams[k - 1] + pairings[k - 1] / lams[k - 1]
            assert observed_coefficient(s, u, k) == expected

    def test_quadrature_mode_near_identity_mode(self):
        grid = TimeGrid(2048, 1.0)
        u = DriftSpec.linear(1.0)
        s = simulate_path(21, 0, u, PARAMS, grid, 512)
        for k in (1, 2, 3):
            ident = observed_coefficient(s, u, k, method="identity")
            quadr = observed_coefficient(s, u, k, method="quadrature")
            assert abs(ident - quadr) < 2e-2

    def test_unknown_method_rejected(self):
        grid = TimeGrid(16, 1.0)
        u = DriftSpec.linear(1.0)
        s = simulate_path(0, 0, u, PARAMS, grid, 8)
        with pytest.raises(ValueError):
            observed_coefficient(s, u, 1, method="midpoint")


class TestStieltjesCumulative:
    def test_against_naive_left_sums(self):
        rng = np.random.default_rng(11)
        values = np.cumsum(rng.standard_normal(33))
        values[0] = 0.0
        weights = np.repeat(rng.uniform(0.2, 2.0, size=4), (8, 8, 8, 8))
        out = stieltjes_cumulative(values, weights)
        naive = np.zeros_like(values)
        for j in range(32):
            naive[j + 1] = naive[j] + weights[j] * (values[j + 1] - values[j])
        np.testing.assert_allclose(out, naive, atol=1e-12)

    def test_constant_half_weight_telescopes_exactly(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(65)
        out = stieltjes_cumulative(values, np.full(64, 0.5))
        np.testing.assert_array_equal(out, 0.5 * (values - values[0]))

    def test_batched_rows(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((3, 17))
        weights = rng.uniform(0.5, 1.5, size=16)
        out = stieltjes_cumulative(values, weights)
        for i in range(3):
            np.testing.assert_allclose(
                out[i], stieltjes_cumulative(values[i], weights), rtol=1e-15
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            stieltjes_cumulative(np.zeros(5), np.zeros(3))


class TestCumulativeTrapezoid:
    @pytest.mark.parametrize("size", [1, 2, 3, 2049, 8193])
    @pytest.mark.parametrize("dx", [1.0, 1 / 2048, 0.1, 3.7e-5, 12.5])
    def test_bits_match_scipy(self, size, dx):
        y = np.random.default_rng(size).standard_normal(size) * 1e3
        ours = process_sim.cumulative_trapezoid(y, dx)
        ref = cumulative_trapezoid(y, dx=dx, initial=0.0)
        assert ours.dtype == ref.dtype and ours.shape == ref.shape
        assert ours.tobytes() == ref.tobytes()

    def test_empty_samples_rejected_like_scipy(self):
        with pytest.raises(ValueError):
            cumulative_trapezoid(np.empty(0), dx=0.5, initial=0.0)
        with pytest.raises(ValueError):
            process_sim.cumulative_trapezoid(np.empty(0), 0.5)


def test_degenerate_error_carries_replicate():
    err = DegenerateSampleError("boom", replicate=17)
    assert err.replicate == 17
    assert isinstance(err, RuntimeError)
