"""Monte Carlo laboratory for drift estimation on drifted Brownian paths.

Simulates the observation X = X^u + u through a sine expansion of the
noise martingale, implements the efficient, Bayes, and Stein-type drift
estimators, and measures risks, gains, and closed-form risk identities
with paired Monte Carlo.
"""

from .estimators import (
    BayesSpec,
    CylindricalFunctional,
    EstimateSeries,
    bayes_estimate,
    bayes_mse_decomposition,
    bayes_risk_closed_form,
    posterior_drift_curve,
    scaled_projection,
    stein_correction,
    stein_estimate,
)
from .filtering import (
    DiscreteGaussianModel,
    PosteriorLaw,
    brute_force_condition,
    conditional_law,
    posterior_variance_curve,
    scalar_path_filter,
)
from .process_sim import (
    DegenerateSampleError,
    DriftSpec,
    ModelParams,
    PathSample,
    SineBasis,
    TimeGrid,
    VolatilityProfile,
    drift_inner_products,
    noise_stream,
    observed_coefficient,
    observed_path,
    reconstruct_path,
    simulate_path,
    stieltjes_cumulative,
)
from .risk_engine import (
    GainCurve,
    GainEstimate,
    GainPoint,
    IdentityReport,
    IdentityRow,
    RiskReport,
    asymptotic_gain_check,
    cramer_rao_bound,
    gain,
    gain_curve,
    gain_curves,
    gain_large_sigma_limit,
    gain_small_ratio_asymptote,
    identity_suite,
    mc_risk,
    optimal_n_search,
    sample_average_risk,
    universal_constant,
)

__version__ = "0.1.0"
