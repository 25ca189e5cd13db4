"""Gaussian conditioning for signal-in-noise observations.

Finite-dimensional conditioning of a Gaussian signal observed in
independent Gaussian noise, together with its scalar specialization to
independent-increment paths, where the posterior mean reduces to a
shrinkage filter along the time axis.

SciPy's Cholesky solver is imported where it is first used, by the
finite-dimensional conditioning; the scalar path filter needs only NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import posterior_drift_curve
from .process_sim import ModelParams, profile_segments

_SYM_TOL = 1e-12
_PSD_TOL = 1e-10
_COND_LIMIT = 1e12


def _check_spd(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if np.max(np.abs(mat - mat.T)) > _SYM_TOL:
        raise ValueError(f"{name} is not symmetric to {_SYM_TOL}")
    if np.min(np.linalg.eigvalsh(mat)) <= 0.0:
        raise ValueError(f"{name} is not positive definite")
    return mat


@dataclass(frozen=True)
class DiscreteGaussianModel:
    """Observation x = z + noise of a Gaussian signal z in d dimensions.

    Parameters
    ----------
    gamma : ndarray, shape (d, d)
        Noise covariance, symmetric positive-definite.
    gamma_tau : ndarray, shape (d, d)
        Prior covariance of the signal, symmetric positive-definite.
    v : ndarray, shape (d,)
        Prior mean of the signal.
    x : ndarray, shape (d,)
        Observed vector.
    """

    gamma: np.ndarray
    gamma_tau: np.ndarray
    v: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        gamma = _check_spd(self.gamma, "gamma")
        gamma_tau = _check_spd(self.gamma_tau, "gamma_tau")
        if gamma.shape != gamma_tau.shape:
            raise ValueError("covariance shapes differ")
        v = np.asarray(self.v, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if v.shape != (gamma.shape[0],) or x.shape != (gamma.shape[0],):
            raise ValueError("mean and observation must have length d")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "gamma_tau", gamma_tau)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "x", x)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class PosteriorLaw:
    """Conditional law of the signal: mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if np.max(np.abs(cov - cov.T)) > _PSD_TOL:
            raise ValueError("posterior covariance is not symmetric")
        if np.min(np.linalg.eigvalsh(cov)) < -_PSD_TOL:
            raise ValueError("posterior covariance has negative eigenvalues")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def conditional_law(model: DiscreteGaussianModel) -> PosteriorLaw:
    """Condition the Gaussian signal on its noisy observation.

    With S = gamma + gamma_tau, the posterior of the signal is Gaussian
    with mean gamma S^{-1} v + gamma_tau S^{-1} x and covariance
    gamma_tau S^{-1} gamma.  All inversions are symmetric solves against
    S; no explicit inverse is formed.

    Parameters
    ----------
    model : DiscreteGaussianModel

    Returns
    -------
    PosteriorLaw

    Raises
    ------
    numpy.linalg.LinAlgError
        If gamma + gamma_tau is conditioned worse than 1e12.
    """
    from scipy.linalg import cho_factor, cho_solve

    s = model.gamma + model.gamma_tau
    if np.linalg.cond(s) > _COND_LIMIT:
        raise np.linalg.LinAlgError("gamma + gamma_tau is too ill-conditioned to solve")
    factor = cho_factor(s, lower=True)
    mean = model.gamma @ cho_solve(factor, model.v) + model.gamma_tau @ cho_solve(factor, model.x)
    cov = model.gamma_tau @ cho_solve(factor, model.gamma)
    cov = 0.5 * (cov + cov.T)
    return PosteriorLaw(mean=mean, cov=cov)


def brute_force_condition(joint_cov, joint_mean, x) -> PosteriorLaw:
    """Condition the first block of a joint Gaussian vector on the second.

    Reference implementation by Schur complement, used to validate
    ``conditional_law``: for a 2d-dimensional joint Gaussian with the
    signal in coordinates 0..d-1 and the observation in d..2d-1, the
    conditional law of the first block given second block = x is returned.

    Parameters
    ----------
    joint_cov : ndarray, shape (2d, 2d)
        Joint covariance, symmetric positive-definite.
    joint_mean : ndarray, shape (2d,)
        Joint mean.
    x : ndarray, shape (d,)
        Observed value of the second block.

    Returns
    -------
    PosteriorLaw

    Raises
    ------
    numpy.linalg.LinAlgError
        If the observed block is singular.
    """
    from scipy.linalg import cho_factor, cho_solve

    joint_cov = np.asarray(joint_cov, dtype=float)
    joint_mean = np.asarray(joint_mean, dtype=float)
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    if joint_cov.shape != (2 * d, 2 * d) or joint_mean.shape != (2 * d,):
        raise ValueError("joint moments must cover exactly two d-blocks")
    sig11 = joint_cov[:d, :d]
    sig12 = joint_cov[:d, d:]
    sig22 = joint_cov[d:, d:]
    factor = cho_factor(sig22, lower=True)
    gain = cho_solve(factor, sig12.T).T  # sig12 sig22^{-1}
    mean = joint_mean[:d] + gain @ (x - joint_mean[d:])
    cov = sig11 - gain @ sig12.T
    cov = 0.5 * (cov + cov.T)
    return PosteriorLaw(mean=mean, cov=cov)


def posterior_variance_curve(tau_profile, sigma_profile, grid):
    """Pointwise conditional variance t -> int_0^t tau^2 sigma^2/(tau^2+sigma^2) ds.

    Exact at every grid node for piecewise-constant profiles: each profile
    segment contributes its rate times the overlap with [0, t].
    """
    t = grid.points
    var = np.zeros_like(t)
    for a, b, (tau, sig) in profile_segments(grid.T, tau_profile, sigma_profile):
        var += tau**2 * sig**2 / (tau**2 + sig**2) * np.clip(t - a, 0.0, b - a)
    return var


def scalar_path_filter(x, v, tau_profile, sigma_profile, grid, params=None):
    """Conditional drift and variance of an independent-increment signal.

    Specializes the matrix conditioning to diagonal increment covariances,
    where the posterior mean becomes the shrinkage curve

        drift(t) = int_0^t sigma^2/(tau^2+sigma^2) dv
                 + int_0^t tau^2/(tau^2+sigma^2) dX

    (left-point sums on the grid) and the variance is the exact piecewise
    integral of tau^2 sigma^2/(tau^2+sigma^2).  The drift values coincide
    bitwise with the Bayes drift estimate on the same inputs; both call
    the same curve routine.

    Parameters
    ----------
    x : ndarray, shape (M+1,)
        Observed path values on the grid.
    v : DriftSpec
        Prior mean drift.
    tau_profile, sigma_profile : VolatilityProfile
        Prior and noise volatility profiles on [0, T].
    grid : TimeGrid
    params : ModelParams, optional
        Model parameters used to evaluate the prior mean drift; defaults
        to the first noise level with the grid horizon.

    Returns
    -------
    drift : ndarray, shape (M+1,)
    variance : ndarray, shape (M+1,)
    """
    if params is None:
        params = ModelParams(sigma=float(sigma_profile.levels[0]), T=grid.T)
    variance = posterior_variance_curve(tau_profile, sigma_profile, grid)
    drift = posterior_drift_curve(x, v, tau_profile, sigma_profile, grid, params)
    return drift, variance
