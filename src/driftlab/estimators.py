"""Drift estimators: efficient, Bayes (independent-increment), and Stein-type.

The efficient estimator is the observed path itself.  The Bayes estimator
under a centered independent-increment Gaussian prior shrinks the
observation toward the prior mean drift with weight tau^2/(tau^2+sigma^2).
The Stein-type family perturbs the efficient estimator by the logarithmic
gradient of a cylindrical functional

    F_{n,a,b} = ( sum_{i<=n} (lambda_i^{-1} X^u(h_i) + b_i)^2 )^(a/2)

whose Laplacian ratios admit scalar closed forms, which is what makes the
risk identities checkable replicate by replicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process_sim import (
    DriftSpec,
    PathSample,
    SineBasis,
    VolatilityProfile,
    _check_nonzero,
    _drift_offsets,
    check_breakpoints,
    cumulative_trapezoid,
    nested_integral,
    stieltjes_cumulative,
)


@dataclass(frozen=True)
class EstimateSeries:
    """Grid values of one estimator, tagged with its family label."""

    values: np.ndarray
    label: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("estimate contains non-finite values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class BayesSpec:
    """Gaussian prior on the drift: volatility profile tau and mean drift v."""

    tau: VolatilityProfile
    v: DriftSpec

    @classmethod
    def centered(cls, tau_level):
        return cls(tau=VolatilityProfile.constant(tau_level), v=DriftSpec.zero())


@dataclass(frozen=True)
class CylindricalFunctional:
    """The triple (n, a, b) indexing F_{n,a,b}.

    Parameters
    ----------
    n : int
        Number of basis coefficients entering the functional; n >= 3.
    a : float
        Norm exponent.  sqrt(F) is superharmonic iff a in [4-2n, 0], F
        itself iff a in [2-n, 0]; a = 2-n is the James-Stein choice.
    b : ndarray or None
        Offset vector of length n.  None means "match the drift": the
        offsets b_k = lambda_k^{-1} <u, h_k> are filled in at evaluation
        time from whichever drift the caller passes, which makes the
        coefficients b_k + lambda_k^{-1} X^u(h_k) = lambda_k^{-1} X(h_k)
        observable, and the same bits wherever they are formed.
    """

    n: int
    a: float
    b: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        if self.b is not None:
            b = np.asarray(self.b, dtype=float)
            if b.shape != (self.n,):
                raise ValueError("offset vector must have length n")
            object.__setattr__(self, "b", b)

    @property
    def sqrt_is_superharmonic(self):
        return 4 - 2 * self.n <= self.a <= 0

    @property
    def is_superharmonic(self):
        return 2 - self.n <= self.a <= 0

    @property
    def is_james_stein(self):
        return self.a == 2 - self.n

    def offsets(self, u, params):
        """Resolved offset vector: stored b, or drift-matched defaults."""
        return _drift_offsets(u, self.n, params)[1] if self.b is None else self.b


def stein_terms(eta, lam, b, a, start):
    """The Stein family's coefficient kernel for a (count, n) block of noise
    rows, replicate start first (one path is the row sample.eta[None, :n]).

    Returns the coefficients c = eta/lam + b, their norms D = |c|^2 per row
    and the log-gradient coefficients (a/D) c of D log F_{n,a,b}. A zero D,
    an event of probability zero, raises DegenerateSampleError naming its
    replicate rather than being clamped, since clamping would bias every
    risk estimate built on top.
    """
    c = eta / lam + b
    dn = np.einsum("ij,ij->i", c, c)
    _check_nonzero(dn, start, "functional denominator")
    return c, dn, (a / dn)[:, None] * c


def _sample_terms(sample, u, fnl):
    """stein_terms of one sample's first n coefficients, as a one-row block."""
    if fnl.n > sample.n_basis:
        raise ValueError(f"functional needs {fnl.n} coefficients, sample has {sample.n_basis}")
    lam, matched = _drift_offsets(u, fnl.n, sample.params)
    b = matched if fnl.b is None else fnl.b
    return stein_terms(sample.eta[None, : fnl.n], lam, b, fnl.a, sample.replicate_index)


def functional_coefficients(sample, u, fnl):
    """Coefficient vector c_i = lambda_i^{-1} X^u(h_i) + b_i and its norm Dn.

    With drift-matched offsets c_i = lambda_i^{-1} X(h_i), the observable
    coefficients of the path.
    """
    c, dn, _ = _sample_terms(sample, u, fnl)
    return c[0], float(dn[0])


def efficient_estimate(sample: PathSample) -> EstimateSeries:
    """The observed path itself; unbiased and attains the variance bound."""
    return EstimateSeries(values=sample.x, label="efficient")


def posterior_drift_curve(x_values, v, tau_profile, sigma_profile, grid, params):
    """Shrinkage curve int_0^t sigma^2/(tau^2+sigma^2) dv + int_0^t tau^2/(tau^2+sigma^2) dX.

    Both integrals are left-point Riemann-Stieltjes sums over grid
    increments; the weights are constant on profile segments, so the sums
    telescope segment by segment.  Shared by the Bayes estimator and the
    scalar path filter, which are required to coincide bitwise.  Raises
    ValueError when a profile breakpoint is not strictly inside (0, T).
    """
    check_breakpoints(grid.T, tau_profile, sigma_profile)
    lefts = grid.points[:-1]
    sig2 = sigma_profile.value(lefts) ** 2
    tau2 = tau_profile.value(lefts) ** 2
    denom = tau2 + sig2
    v_values = v.values(grid.points, params)
    part_v = stieltjes_cumulative(v_values, sig2 / denom)
    part_x = stieltjes_cumulative(np.asarray(x_values, dtype=float), tau2 / denom)
    return part_v + part_x


def bayes_estimate(sample: PathSample, spec: BayesSpec, sigma_profile=None) -> EstimateSeries:
    """Posterior mean drift given the observation, independent-increment case."""
    if sigma_profile is None:
        sigma_profile = VolatilityProfile.constant(sample.params.sigma)
    curve = posterior_drift_curve(
        sample.x, spec.v, spec.tau, sigma_profile, sample.grid, sample.params
    )
    return EstimateSeries(values=curve, label="bayes")


def bayes_risk_closed_form(spec: BayesSpec, sigma_profile, T) -> float:
    """Prior-averaged risk int_0^T int_0^t tau^2 sigma^2 / (tau^2+sigma^2) ds dt."""
    return nested_integral(
        lambda tau, sig: tau**2 * sig**2 / (tau**2 + sig**2), T, spec.tau, sigma_profile
    )


def bayes_mse_decomposition(spec: BayesSpec, u: DriftSpec, sigma_profile, grid, params):
    """(variance term, squared-bias term) of the fixed-drift mean square error.

    The variance term int_0^T int_0^t tau^4 sigma^2/(tau^2+sigma^2)^2 ds dt
    is exact piecewise; the squared bias
    int_0^T | int_0^t sigma^2 (dv/ds - du/ds)/(tau^2+sigma^2) ds |^2 dt
    is computed by composite trapezoid quadrature on a grid ending at T.
    """
    if grid.T != params.T:
        raise ValueError(f"grid horizon {grid.T} differs from the model horizon {params.T}")
    variance = nested_integral(
        lambda tau, sig: tau**4 * sig**2 / (tau**2 + sig**2) ** 2,
        params.T, spec.tau, sigma_profile,
    )
    t = grid.points
    sig2 = sigma_profile.value(t) ** 2
    tau2 = spec.tau.value(t) ** 2
    integrand = sig2 * (
        spec.v.derivative_values(t, params) - u.derivative_values(t, params)
    ) / (tau2 + sig2)
    inner = cumulative_trapezoid(integrand, grid.dt)
    bias_sq = float(np.trapezoid(inner * inner, dx=grid.dt))
    return variance, bias_sq


def scaled_projection(sample: PathSample, u: DriftSpec, n: int) -> EstimateSeries:
    """Projection of the observation on the span of the first n basis images.

    Returns sum_{k<=n} lambda_k^{-2} X(h_k) (Gamma h_k)(t), i.e. the
    coefficients lambda_k^{-1} X(h_k) = eta_k/lambda_k + b_k (bit for bit the
    functional's c_k) against the orthonormal functions lambda_k^{-1} Gamma h_k.
    """
    if n < 1 or n > sample.n_basis:
        raise ValueError(f"projection order {n} out of range 1..{sample.n_basis}")
    lam, b = _drift_offsets(u, n, sample.params)
    basis = SineBasis(sample.params.sigma, sample.params.T, n)
    values = basis.synthesize(sample.eta[:n] / lam + b, sample.grid)
    return EstimateSeries(values=values, label="scaled-projection")


def stein_correction(sample: PathSample, u: DriftSpec, fnl: CylindricalFunctional) -> EstimateSeries:
    """Logarithmic gradient D_t log F_{n,a,b} evaluated on the grid.

    Equals a * sum_i e_i(t) c_i / Dn with e_i = lambda_i^{-1} Gamma h_i;
    for a = 2-n this is the James-Stein form
    -(n-2) * proj(t) / ||proj||^2 applied to the scaled projection.
    """
    corr = _sample_terms(sample, u, fnl)[2]
    params = sample.params
    values = SineBasis(params.sigma, params.T, fnl.n).synthesize(corr[0], sample.grid)
    return EstimateSeries(values=values, label="stein-correction")


def stein_estimate(sample: PathSample, u: DriftSpec, fnl: CylindricalFunctional) -> EstimateSeries:
    """Observed path plus the Stein correction."""
    corr = stein_correction(sample, u, fnl)
    return EstimateSeries(values=sample.x + corr.values, label="stein")


def stein_closed_forms(n, a, dn):
    """(Delta F/F, Delta sqrt(F)/sqrt(F), ||D log F||^2) of F_{n,a,b} at norm Dn.

    Delta F/F = a (n + a - 2) / Dn, Delta sqrt(F)/sqrt(F) = a (n - 2 + a/2) / (2 Dn)
    and ||D log F||^2_{L^2(dt)} = a^2 / Dn.  dn is a scalar or an array of
    per-replicate norms.
    """
    return a * (n + a - 2) / dn, (a * (n - 2 + a / 2) / 2) / dn, a * a / dn


def log_gradient_norm_sq(sample: PathSample, u: DriftSpec, fnl: CylindricalFunctional) -> float:
    """||D log F||^2_{L^2(dt)} = a^2 / Dn for any exponent a."""
    _, dn = functional_coefficients(sample, u, fnl)
    return stein_closed_forms(fnl.n, fnl.a, dn)[2]
