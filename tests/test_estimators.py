import re

import numpy as np
import pytest

from driftlab import (
    BayesSpec,
    CylindricalFunctional,
    DegenerateSampleError,
    DriftSpec,
    ModelParams,
    SineBasis,
    TimeGrid,
    VolatilityProfile,
    bayes_estimate,
    bayes_mse_decomposition,
    bayes_risk_closed_form,
    observed_coefficient,
    observed_path,
    reconstruct_path,
    risk_engine,
    scaled_projection,
    simulate_path,
    stein_correction,
    stein_estimate,
)
from driftlab.estimators import stein_closed_forms, stein_terms

import oracles


PARAMS = ModelParams(sigma=1.0, T=1.0, alpha=1.0)
GRID = TimeGrid(256, 1.0)
U = DriftSpec.linear(1.0)

# the two rounding orders (eta + <u,h>)/lam and eta/lam + <u,h>/lam agree at
# only some seeds, so a single seed cannot tell them apart
SEEDS = range(100)
AGREE_PARAMS = ModelParams(sigma=1.3, T=0.7)
AGREE_GRID = TimeGrid(64, 0.7)
AGREE_DRIFTS = {
    "linear": DriftSpec.linear(0.9),
    "coefficients": DriftSpec.from_coefficients([0.4, -1.1, 0.25, 0.0, 0.7]),
    "tabulated": DriftSpec.from_tabulated_derivative(
        np.cos(4.0 * AGREE_GRID.points) + AGREE_GRID.points, AGREE_GRID),
}


def make_sample(seed=3, replicate=0, n_basis=64, grid=GRID, params=PARAMS, u=U):
    return simulate_path(seed, replicate, u, params, grid, n_basis)


def path_terms(s, u, fnl):
    """(c, D) of stein_terms on the one-row block of the sample's first n
    coefficients."""
    lam = SineBasis(s.params.sigma, s.params.T, fnl.n).eigenvalues()
    c, dn, _ = stein_terms(s.eta[None, : fnl.n], lam, fnl.offsets(u, s.params), fnl.a,
                           s.replicate_index)
    return c[0], float(dn[0])


def sample_with_eta(eta, u=U, grid=GRID, params=PARAMS):
    eta = np.asarray(eta, dtype=float)
    xu = reconstruct_path(eta, grid, params)
    return observed_path(xu, u, grid, params, eta=eta)


class TestFunctionalConfig:
    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            CylindricalFunctional(n=2, a=0.0)

    def test_offset_length_checked(self):
        with pytest.raises(ValueError):
            CylindricalFunctional(n=4, a=-2.0, b=np.zeros(3))

    def test_regime_flags(self):
        fnl = CylindricalFunctional(n=4, a=-2.0)
        assert fnl.is_james_stein and fnl.is_superharmonic and fnl.sqrt_is_superharmonic
        assert CylindricalFunctional(n=4, a=-4.0).sqrt_is_superharmonic
        assert not CylindricalFunctional(n=4, a=-4.0).is_superharmonic
        assert not CylindricalFunctional(n=4, a=-4.5).sqrt_is_superharmonic
        assert CylindricalFunctional(n=4, a=0.0).is_superharmonic

    def test_default_offsets_are_drift_matched(self):
        fnl = CylindricalFunctional(n=4, a=-2.0)
        b = fnl.offsets(U, PARAMS)
        from driftlab import drift_inner_products

        lam = SineBasis(PARAMS.sigma, PARAMS.T, 4).eigenvalues()
        np.testing.assert_allclose(b, drift_inner_products(U, 4, PARAMS) / lam)

    def test_explicit_offsets_returned_verbatim(self):
        b = np.array([1.0, 2.0, 3.0])
        fnl = CylindricalFunctional(n=3, a=-1.0, b=b)
        np.testing.assert_array_equal(fnl.offsets(U, PARAMS), b)


class TestCoefficients:
    def test_observable_form(self):
        # with drift-matched offsets the coefficients are exactly
        # lambda_k^{-1} X(h_k), computable from the observation alone
        fnl = CylindricalFunctional(n=4, a=-2.0)
        for seed in SEEDS:
            s = make_sample(seed=seed)
            c, dn = path_terms(s, U, fnl)
            for k in range(1, 5):
                assert c[k - 1] == observed_coefficient(s, U, k)
            # D is the kernel's row-wise einsum of the observable coefficients
            observed = np.array([[observed_coefficient(s, U, k) for k in range(1, 5)]])
            assert np.float64(dn).tobytes() == np.einsum("ij,ij->i", observed, observed).tobytes()
        # D is a row-wise einsum and c @ c a dot product; their summation
        # orders give the same bits at this seed (3), not at every seed
        c, dn = path_terms(make_sample(), U, fnl)
        assert dn == float(c @ c)

    @pytest.mark.parametrize("kind", sorted(AGREE_DRIFTS))
    def test_observable_coefficients_agree_bit_for_bit(self, kind):
        # observed_coefficient and scaled_projection form lambda_k^{-1} X(h_k)
        # in the kernel's order, so every seed gives the kernel's bytes
        u = AGREE_DRIFTS[kind]
        for seed in SEEDS:
            s = simulate_path(seed, 0, u, AGREE_PARAMS, AGREE_GRID, 8)
            for n in (3, 4, 7):
                c, _ = path_terms(s, u, CylindricalFunctional(n=n, a=-1.0))
                for k in range(1, n + 1):
                    assert observed_coefficient(s, u, k).tobytes() == c[k - 1].tobytes()
                synth = SineBasis(AGREE_PARAMS.sigma, AGREE_PARAMS.T, n).synthesize(c, s.grid)
                assert scaled_projection(s, u, n).values.tobytes() == synth.tobytes()

    def test_dimension_exceeding_sample(self):
        s = make_sample(n_basis=8)
        with pytest.raises(ValueError):
            stein_correction(s, U, CylindricalFunctional(n=16, a=-2.0))

    @pytest.mark.parametrize("call, k", [
        (observed_coefficient, 0), (observed_coefficient, -1), (observed_coefficient, 9),
        (scaled_projection, 0), (scaled_projection, -1), (scaled_projection, 9),
        (lambda s, u, n: stein_correction(s, u, CylindricalFunctional(n=n, a=-1.0)), 9),
    ], ids=["coefficient-0", "coefficient-neg", "coefficient-9", "projection-0",
            "projection-neg", "projection-9", "correction-9"])
    def test_index_range_message(self, call, k):
        # one check, in the package's terms, for every per-path coefficient
        s = make_sample(n_basis=8)
        with pytest.raises(ValueError, match=re.escape("out of range 1..8")):
            call(s, U, k)

    def test_exact_zero_denominator_raises(self):
        lam = SineBasis(PARAMS.sigma, PARAMS.T, 3).eigenvalues()
        b = np.array([1.0, -2.0, 0.5])
        eta = -lam * b
        s = sample_with_eta(eta)
        fnl = CylindricalFunctional(n=3, a=-1.0, b=b)
        with pytest.raises(DegenerateSampleError):
            stein_correction(s, U, fnl)


class TestSteinCorrection:
    def test_boundary_zero(self):
        s = make_sample()
        corr = stein_correction(s, U, CylindricalFunctional(n=4, a=-2.0))
        assert corr.values[0] == 0.0

    def test_a_zero_gives_zero_correction(self):
        s = make_sample()
        corr = stein_correction(s, U, CylindricalFunctional(n=5, a=0.0))
        np.testing.assert_array_equal(corr.values, np.zeros_like(corr.values))

    def test_explicit_offsets_never_read_the_drift(self):
        # a drift tabulated up to T=2 cannot be read at the model's T=1, and
        # explicit offsets need no reading of it, as in mc_risk
        grid = TimeGrid(16, 2.0)
        u = DriftSpec.from_tabulated_derivative(np.cos(grid.points), grid)
        fnl = CylindricalFunctional(n=3, a=-1.0, b=[0.1, 0.2, 0.3])
        s = make_sample()
        values = stein_correction(s, u, fnl).values
        assert values.tobytes() == stein_correction(s, DriftSpec.zero(), fnl).values.tobytes()

    def test_estimate_is_x_plus_correction(self):
        s = make_sample()
        fnl = CylindricalFunctional(n=4, a=-2.0)
        corr = stein_correction(s, U, fnl)
        est = stein_estimate(s, U, fnl)
        np.testing.assert_array_equal(est.values, s.x + corr.values)

    @pytest.mark.parametrize("n, a, b", [
        (3, -0.5, None), (4, -1.0, None), (5, -4.0, None), (10, -3.5, None),
        (3, -1.0, [0.3, -1.2, 2.0]), (4, -2.5, [1.0, 0.0, -0.5, 0.25]),
        (5, 0.5, [-2.0, 1.0, 0.0, 3.0, -0.75]), (10, -8.0, np.linspace(-1.5, 2.0, 10)),
    ])
    def test_path_and_block_share_the_kernel(self, n, a, b):
        # one replicate's correction is the synthesis of the risk engine's
        # corr row for the same (seed, replicate), bit for bit
        fnl = CylindricalFunctional(n=n, a=a, b=b)
        seed, start, count = 41, 5, 8
        block = risk_engine._stein_block(start, count, seed=seed, params=PARAMS, n_basis=16,
                                         grid_m=16, fnl=fnl, b=fnl.offsets(U, PARAMS))
        basis = SineBasis(PARAMS.sigma, PARAMS.T, n)
        for i, corr in enumerate(block[-1]):
            s = make_sample(seed=seed, replicate=start + i, n_basis=16)
            values = stein_correction(s, U, fnl).values
            assert values.tobytes() == basis.synthesize(corr, GRID).tobytes()

    def test_estimate_within_rounding_of_the_quotient_formula(self):
        # the kernel forms (a/Dn) c with a row-wise einsum norm; the former
        # a c/(c @ c) differs from it only in the last bits
        for fnl in (CylindricalFunctional(n=4, a=-2.0), CylindricalFunctional(n=7, a=-3.0)):
            basis = SineBasis(PARAMS.sigma, PARAMS.T, fnl.n)
            lam = basis.eigenvalues()
            for rep in range(120):
                s = make_sample(seed=12, replicate=rep, n_basis=16)
                c = s.eta[: fnl.n] / lam + fnl.offsets(U, PARAMS)
                ref = s.x + basis.synthesize(fnl.a * c / float(c @ c), GRID)
                est = stein_estimate(s, U, fnl).values
                assert np.max(np.abs(est - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_james_stein_quotient_form(self):
        # -(n-2) proj / ||proj||^2 with the quadrature norm of the scaled
        # projection: same curve to 1e-10
        w = GRID.trapezoid_weights()
        for rep in range(50):
            s = make_sample(seed=31, replicate=rep)
            fnl = CylindricalFunctional(n=4, a=-2.0)
            corr = stein_correction(s, U, fnl).values
            proj = scaled_projection(s, U, 4).values
            quotient = -(4 - 2) * proj / float((proj * proj) @ w)
            assert np.max(np.abs(corr - quotient)) < 1e-10

    def test_closed_norm_matches_quadrature_1000_reps(self):
        w = GRID.trapezoid_weights()
        fnl = CylindricalFunctional(n=4, a=-2.0)
        worst = 0.0
        for rep in range(1000):
            s = make_sample(seed=17, replicate=rep, n_basis=16)
            corr = stein_correction(s, U, fnl).values
            quad = float((corr * corr) @ w)
            closed = stein_closed_forms(fnl.n, fnl.a, path_terms(s, U, fnl)[1])[2]
            worst = max(worst, abs(quad / closed - 1.0))
        assert worst < 1e-6

    def test_correction_from_quadrature_coefficients(self):
        # rebuilding the coefficients from left-point quadrature of dX
        # reproduces the correction within discretization tolerance
        grid = TimeGrid(2048, 1.0)
        s = make_sample(seed=8, grid=grid, n_basis=512)
        fnl = CylindricalFunctional(n=4, a=-2.0)
        corr = stein_correction(s, U, fnl).values
        c = np.array([oracles.paley_wiener_coefficient(s, k) for k in range(1, 5)])
        dn = float(c @ c)
        e_rows = np.stack(
            [np.asarray([np.sqrt(2.0) * np.sin((k - 0.5) * np.pi * t) for t in grid.points])
             for k in range(1, 5)]
        )
        alt = (fnl.a * c / dn) @ e_rows
        assert np.max(np.abs(corr - alt)) < 5e-2


class TestLaplacianRatios:
    def test_hand_values(self):
        lam1 = SineBasis(PARAMS.sigma, PARAMS.T, 1).eigenvalues()[0]
        eta = np.zeros(4)
        eta[0] = 2.0 * lam1
        s = sample_with_eta(eta, u=DriftSpec.zero())
        fnl = CylindricalFunctional(n=4, a=-2.0, b=np.zeros(4))
        # single coefficient 2 -> Dn = 4
        dn = path_terms(s, DriftSpec.zero(), fnl)[1]
        df, dsqrt, grad = stein_closed_forms(fnl.n, fnl.a, dn)
        assert df == 0.0
        assert dsqrt == -0.25
        assert grad == 1.0

    def test_unit_denominator_n3(self):
        eta = np.zeros(3)
        eta[0] = SineBasis(PARAMS.sigma, PARAMS.T, 1).eigenvalues()[0]
        s = sample_with_eta(eta, u=DriftSpec.zero())
        fnl = CylindricalFunctional(n=3, a=-1.0, b=np.zeros(3))
        dn = path_terms(s, DriftSpec.zero(), fnl)[1]
        assert stein_closed_forms(fnl.n, fnl.a, dn)[2] == 1.0

    def test_superharmonic_signs(self):
        for rep in range(200):
            s = make_sample(seed=77, replicate=rep, n_basis=16)
            for a in (-2.0, -1.0, -3.9):
                fnl = CylindricalFunctional(n=4, a=a)
                dn = path_terms(s, U, fnl)[1]
                df, dsqrt, _ = stein_closed_forms(fnl.n, fnl.a, dn)
                assert dsqrt < 0.0  # a in (4-2n, 0)
                if a >= -2.0:
                    assert df <= 0.0  # a in [2-n, 0]

    def test_chain_rule_identity(self):
        # 4 dsqrt = 2 df - ||D log F||^2, exactly, for any exponent
        for rep in range(200):
            s = make_sample(seed=13, replicate=rep, n_basis=16)
            for a in (-2.0, -1.3, -3.5, 0.0):
                fnl = CylindricalFunctional(n=5, a=a)
                dn = path_terms(s, U, fnl)[1]
                df, dsqrt, grad = stein_closed_forms(fnl.n, fnl.a, dn)
                assert abs(4.0 * dsqrt - (2.0 * df - grad)) < 1e-12

    @pytest.mark.parametrize("n, a", [(4, -2.0), (5, -1.3), (7, 0.5)])
    def test_closed_forms_take_scalar_or_array_norms(self, n, a):
        # the risk engine passes a block of norms, the estimators one norm
        dn = np.random.default_rng(n).exponential(size=50)
        columns = stein_closed_forms(n, a, dn)
        for i, d in enumerate(dn.tolist()):
            assert [col[i] for col in columns] == list(stein_closed_forms(n, a, d))


class TestScaledProjection:
    def test_coefficient_recovery(self):
        s = make_sample()
        proj = scaled_projection(s, U, 6).values
        w = GRID.trapezoid_weights()
        for k in (1, 3, 6):
            e_k = np.sqrt(2.0) * np.sin((k - 0.5) * np.pi * GRID.points)
            coeff = float((proj * e_k) @ w)
            assert abs(coeff - observed_coefficient(s, U, k)) < 1e-10

    def test_order_validation(self):
        s = make_sample(n_basis=8)
        with pytest.raises(ValueError):
            scaled_projection(s, U, 9)
        with pytest.raises(ValueError):
            scaled_projection(s, U, 0)


class TestBayes:
    def test_equal_volatility_halves_the_observation(self):
        s = make_sample()
        spec = BayesSpec.centered(1.0)
        est = bayes_estimate(s, spec)
        np.testing.assert_array_equal(est.values, 0.5 * s.x)

    def test_shrinks_toward_observation_as_tau_grows(self):
        s = make_sample()
        sig = VolatilityProfile.constant(1.0)
        v = DriftSpec.linear(-1.0)
        curves = []
        for tau in (0.1, 0.5, 1.0, 4.0, 50.0):
            spec = BayesSpec(tau=VolatilityProfile.constant(tau), v=v)
            curves.append(bayes_estimate(s, spec, sig).values)
        from driftlab import stieltjes_cumulative

        x_part = stieltjes_cumulative(s.x, np.ones(GRID.M))
        v_part = stieltjes_cumulative(v.values(GRID.points, PARAMS), np.ones(GRID.M))
        direction = x_part - v_part
        for lo, hi in zip(curves, curves[1:]):
            assert np.all((hi - lo) * direction >= -1e-12)
        assert np.max(np.abs(curves[-1] - s.x)) < 0.01 * np.max(np.abs(s.x))

    def test_closed_form_risk_anchor_values(self):
        spec = BayesSpec.centered(1.0)
        sig = VolatilityProfile.constant(1.0)
        assert bayes_risk_closed_form(spec, sig, 1.0) == 0.25
        big = BayesSpec.centered(1e8)
        assert abs(bayes_risk_closed_form(big, sig, 1.0) - 0.5) < 1e-8

    def test_closed_form_risk_piecewise_vs_quadrature(self):
        spec = BayesSpec(
            tau=VolatilityProfile(levels=(0.5, 2.0), breakpoints=(0.3,)),
            v=DriftSpec.zero(),
        )
        sig = VolatilityProfile(levels=(1.0, 1.5), breakpoints=(0.7,))
        tau_rate = oracles.profile_rate((0.5, 2.0), (0.3,), 1.0)
        sig_rate = oracles.profile_rate((1.0, 1.5), (0.7,), 1.0)

        def rate(t):
            t2 = tau_rate(t) ** 2
            s2 = sig_rate(t) ** 2
            return t2 * s2 / (t2 + s2)

        ref = oracles.nested_time_integral(rate, 1.0)
        assert abs(bayes_risk_closed_form(spec, sig, 1.0) - ref) < 1e-8

    def test_mse_decomposition_zero_bias_when_prior_mean_matches(self):
        spec = BayesSpec(tau=VolatilityProfile.constant(1.0), v=U)
        sig = VolatilityProfile.constant(1.0)
        variance, bias_sq = bayes_mse_decomposition(spec, U, sig, GRID, PARAMS)
        assert bias_sq == 0.0
        # tau = sigma = T = 1: int int tau^4 sigma^2/(tau^2+sigma^2)^2 = 1/8
        assert abs(variance - 0.125) < 1e-14

    def test_mse_decomposition_bias_term(self):
        spec = BayesSpec.centered(1.0)
        sig = VolatilityProfile.constant(1.0)
        variance, bias_sq = bayes_mse_decomposition(spec, U, sig, GRID, PARAMS)
        # bias curve is -t/2, squared-integrated: 1/4 * 1/3
        assert abs(bias_sq - 1.0 / 12.0) < 1e-4
        assert abs(variance - 0.125) < 1e-14

    @pytest.mark.parametrize("end", [0.5, 2.0])
    def test_mse_decomposition_rejects_another_horizon(self, end):
        # the variance term runs to params.T and the bias term to grid.T, so
        # a mismatch would mix two horizons in one answer
        spec = BayesSpec.centered(1.0)
        sig = VolatilityProfile.constant(1.0)
        message = re.escape(f"grid horizon {end} differs from the model horizon 1.0")
        with pytest.raises(ValueError, match=message):
            bayes_mse_decomposition(spec, U, sig, TimeGrid(8, end), PARAMS)
