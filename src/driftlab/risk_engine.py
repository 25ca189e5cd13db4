"""Monte Carlo risk measurement and identity cross-checks.

Replicates are partitioned into fixed-size blocks; block results are
reduced in replicate-index order, so every report is bit-reproducible
from (seed, reps, grid, n_basis) regardless of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .estimators import BayesSpec, CylindricalFunctional, posterior_drift_curve
from .process_sim import (
    DegenerateSampleError,
    DriftSpec,
    ModelParams,
    PathSample,
    SineBasis,
    TimeGrid,
    VolatilityProfile,
    noise_stream,
)

# block size fixed: the replicate partition must not depend on workers
_BLOCK = 4096

SIX_OVER_PI_SQ = 6.0 / math.pi**2


@dataclass(frozen=True)
class RiskReport:
    """Sample mean and standard error of one Monte Carlo functional."""

    mean: float
    stderr: float
    reps: int
    seed: int
    label: str

    def __post_init__(self):
        if self.reps < 2:
            raise ValueError("need reps >= 2 for a standard error")
        if not self.stderr >= 0.0:
            raise ValueError("stderr must be nonnegative")

    def interval(self, k: float = 3.0):
        return self.mean - k * self.stderr, self.mean + k * self.stderr


@dataclass(frozen=True)
class GainPoint:
    n: int
    gain_mean: float
    gain_stderr: float


@dataclass(frozen=True)
class GainCurve:
    """Gain estimates for n = 3..n_max under common random numbers."""

    alpha: float
    sigma: float
    T: float
    reps: int
    seed: int
    rows: tuple

    def __post_init__(self):
        ns = [row.n for row in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])) or (ns and ns[0] < 3):
            raise ValueError("curve rows must have strictly increasing n >= 3")

    @property
    def n_opt(self) -> int:
        means = np.array([row.gain_mean for row in self.rows])
        return self.rows[int(np.argmax(means))].n  # argmax takes first max: ties go to smaller n


@dataclass(frozen=True)
class GainEstimate:
    """Closed-form gain evaluation plus the optional risk-difference cross-check."""

    formula: RiskReport
    risk_difference: RiskReport | None = None

    @property
    def mean(self):
        return self.formula.mean


@dataclass(frozen=True)
class IdentityRow:
    name: str
    lhs: float
    rhs: float
    paired_stderr: float
    passed: bool


@dataclass(frozen=True)
class IdentityReport:
    rows: tuple
    reps: int
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def row(self, name: str) -> IdentityRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


def cramer_rao_bound(sigma_profile, T) -> float:
    """Minimax efficient risk R = int_0^T int_0^t sigma_s^2 ds dt.

    Exact piecewise: the inner cumulative is piecewise linear, so the
    per-segment trapezoid rule integrates it without error.  Constant
    sigma gives sigma^2 T^2 / 2.
    """
    if not isinstance(sigma_profile, VolatilityProfile):
        sigma_profile = VolatilityProfile.constant(sigma_profile)
    inner = 0.0
    total = 0.0
    for a, b, level in sigma_profile.segments(T):
        nxt = inner + level**2 * (b - a)
        total += 0.5 * (inner + nxt) * (b - a)
        inner = nxt
    return total


# ---------------------------------------------------------------------------
# cached per-process geometry


@lru_cache(maxsize=16)
def _ortho_rows(sigma, T, n, grid_m):
    mat = SineBasis(sigma, T, n).orthonormal_matrix(TimeGrid(grid_m, T))
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=16)
def _quad_weights(T, grid_m):
    w = TimeGrid(grid_m, T).trapezoid_weights()
    w.setflags(write=False)
    return w


def _noise_block(seed, start, count, dim):
    out = np.empty((count, dim), dtype=float)
    for i in range(count):
        out[i] = noise_stream(seed, start + i).standard_normal(dim)
    return out


def _block_bounds(reps):
    return [(s, min(_BLOCK, reps - s)) for s in range(0, reps, _BLOCK)]


def _run_blocks(worker, cfg, reps, workers):
    """Run worker over the fixed blocks; return each column of its result
    tuples stacked in block order, so column.sum(axis=0) reduces in
    replicate-index order whatever the worker count."""
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    bounds = _block_bounds(reps)
    if workers > 1:
        starts = [s for s, _ in bounds]
        counts = [c for _, c in bounds]
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(partial(worker, cfg), starts, counts, chunksize=1))
    else:
        parts = [worker(cfg, s, c) for s, c in bounds]
    return [np.stack(column) for column in zip(*parts)]


def _report(total, total_sq, reps, seed, label):
    mean = total / reps
    var = max((total_sq - reps * mean * mean) / (reps - 1), 0.0)
    return RiskReport(mean=mean, stderr=math.sqrt(var / reps), reps=reps, seed=seed, label=label)


# ---------------------------------------------------------------------------
# block workers (top level: they cross the process-pool boundary)


@dataclass(frozen=True, eq=False)
class _PathCfg:
    seed: int
    sigma: float
    T: float
    n_basis: int
    group: int = 1


def _efficient_block(cfg, start, count):
    # estimate - u = X - u = X^u = sum_k lambda_k eta_k e_k: the drift
    # cancels, and the L^2 risk is the coefficient sum sum_k (lambda_k eta_k)^2.
    # start/count index groups; group g averages replicates g*group..(g+1)*group-1
    eta = _noise_block(cfg.seed, start * cfg.group, count * cfg.group, cfg.n_basis)
    eta = eta.reshape(count, cfg.group, cfg.n_basis).mean(axis=1)
    coef = eta * SineBasis(cfg.sigma, cfg.T, cfg.n_basis).eigenvalues()
    risks = np.einsum("ij,ij->i", coef, coef)
    return float(np.sum(risks)), float(np.sum(risks * risks))


@dataclass(frozen=True, eq=False)
class _SteinCfg:
    seed: int
    sigma: float
    T: float
    n_basis: int
    grid_m: int      # only the correction-forms cross-check uses the grid
    n: int
    a: float
    b: np.ndarray
    risk_ref: float
    lambda_scale: float = 1.0


def _stein_block(cfg, start, count):
    n, a = cfg.n, cfg.a
    eta = _noise_block(cfg.seed, start, count, cfg.n_basis)
    # the test hook corrupts the eigenvalues only where coefficients are
    # formed; the error coefficients below stay honest, so a scale != 1
    # breaks the pairing the identities rely on
    lam = SineBasis(cfg.sigma, cfg.T, n).eigenvalues() * cfg.lambda_scale
    c = eta[:, :n] / lam + cfg.b
    dn = np.einsum("ij,ij->i", c, c)
    if np.any(dn == 0.0):
        bad = start + int(np.nonzero(dn == 0.0)[0][0])
        raise DegenerateSampleError(
            f"zero functional denominator at replicate {bad}", replicate=bad
        )
    # estimate - u = X^u + D log F, with D log F = sum_{k<=n} (a c_k/D_n) e_k
    corr = (a / dn)[:, None] * c
    err = eta * SineBasis(cfg.sigma, cfg.T, cfg.n_basis).eigenvalues()
    err[:, :n] += corr
    risk = np.einsum("ij,ij->i", err, err)

    delta_f = a * (n + a - 2) / dn
    delta_sqrt = (a * (n - 2 + a / 2) / 2) / dn
    grad = a * a / dn
    dlog = a * (n - 2) / dn
    r = cfg.risk_ref
    diffs = np.stack([
        risk - r - grad - 2.0 * dlog,    # unbiased-risk
        risk - r - 4.0 * delta_sqrt,     # sqrt-laplacian-risk
        risk - r + grad - 2.0 * delta_f, # log-gradient-risk
        risk - r + grad,                 # harmonic-risk (James-Stein case)
    ])
    chain_max = float(np.max(np.abs(4.0 * delta_sqrt - 2.0 * delta_f + grad)))

    forms_max = 0.0
    if a == 2 - n:
        # James-Stein form -(n-2) proj/||proj||^2, with ||proj||^2 integrated
        # on the grid through the Gram matrix of the first n sine rows
        e_n = _ortho_rows(cfg.sigma, cfg.T, n, cfg.grid_m)
        gram = (e_n * _quad_weights(cfg.T, cfg.grid_m)) @ e_n.T
        norms = np.einsum("ij,ij->i", c @ gram, c)
        js = (-(n - 2) / norms)[:, None] * c
        forms_max = float(np.max(np.abs(corr - js)))

    return (float(np.sum(risk)), float(np.sum(risk * risk)),
            diffs.sum(axis=1), (diffs * diffs).sum(axis=1),
            float(np.sum(grad)), float(np.sum(grad * grad)),
            chain_max, forms_max, corr.sum(axis=0))


@dataclass(frozen=True, eq=False)
class _BayesCfg:
    seed: int
    T: float
    grid_m: int
    spec: BayesSpec
    sigma_profile: VolatilityProfile
    params: ModelParams
    u: DriftSpec | None      # None: redraw the drift from the prior each replicate


def _bayes_block(cfg, start, count):
    grid = TimeGrid(cfg.grid_m, cfg.T)
    m = cfg.grid_m
    qw = _quad_weights(cfg.T, m)
    sqdt = math.sqrt(grid.dt)
    sig_left = cfg.sigma_profile.left_values(grid)
    draws = _noise_block(cfg.seed, start, count, 2 * m)
    # the martingale part is built from grid increments here (exact in
    # distribution at the nodes), so no basis truncation enters
    xinc = draws[:, :m] * (sig_left * sqdt)
    if cfg.u is None:
        tau_left = cfg.spec.tau.left_values(grid)
        uinc = draws[:, m:] * (tau_left * sqdt)
        u_vals = np.concatenate([np.zeros((count, 1)), np.cumsum(uinc, axis=1)], axis=1)
        u_vals += cfg.spec.v.values(grid.points, cfg.params)
    else:
        u_vals = np.broadcast_to(cfg.u.values(grid.points, cfg.params), (count, m + 1))
    xu = np.concatenate([np.zeros((count, 1)), np.cumsum(xinc, axis=1)], axis=1)
    x = xu + u_vals
    xi = posterior_drift_curve(x, cfg.spec.v, cfg.spec.tau, cfg.sigma_profile, grid, cfg.params)
    err = xi - u_vals
    risks = (err * err) @ qw
    return float(np.sum(risks)), float(np.sum(risks * risks))


@dataclass(frozen=True, eq=False)
class _GainCfg:
    seed: int
    n_max: int
    rho: float


def _gain_block(cfg, start, count):
    z = _noise_block(cfg.seed, start, count, cfg.n_max)
    ell = np.arange(1, cfg.n_max + 1)
    w = math.pi * (ell - 0.5)
    delta = -cfg.rho * (-1.0) ** ell
    s = np.cumsum((w * z + delta) ** 2, axis=1)[:, 2:]
    if np.any(s == 0.0):
        bad = start + int(np.nonzero(np.any(s == 0.0, axis=1))[0][0])
        raise DegenerateSampleError(f"zero gain denominator at replicate {bad}", replicate=bad)
    g = 2.0 * (np.arange(3, cfg.n_max + 1) - 2) ** 2 / s
    return g.sum(axis=0), (g * g).sum(axis=0)


@dataclass(frozen=True, eq=False)
class _ConstCfg:
    seed: int


_CONST_WEIGHTS = np.array([1.0, 9.0, 25.0, 49.0])


def _const_block(cfg, start, count):
    z = _noise_block(cfg.seed, start, count, 4)
    q = (z * z) @ _CONST_WEIGHTS
    if np.any(q == 0.0):
        bad = start + int(np.nonzero(q == 0.0)[0][0])
        raise DegenerateSampleError(f"zero denominator at replicate {bad}", replicate=bad)
    vals = (32.0 / math.pi**2) / q
    return float(np.sum(vals)), float(np.sum(vals * vals))


# ---------------------------------------------------------------------------
# public operations


def mc_risk(estimator, u, params, reps, seed, *, grid_m=2048, n_basis=1024,
            workers=1, sigma_profile=None, prior_drift=True) -> RiskReport:
    """Monte Carlo L^2([0,T], dt) risk of one estimator family.

    estimator is "efficient", a CylindricalFunctional (Stein-type), or a
    BayesSpec.  For a BayesSpec with prior_drift=True the drift is redrawn
    from the prior each replicate and u is ignored; with prior_drift=False
    the fixed drift u is used.  Deterministic for fixed
    (seed, reps, grid_m, n_basis) independent of workers.

    The efficient and Stein risks are sums over the first n_basis
    coefficients and do not depend on grid_m; the Bayes risk is integrated
    on the grid_m-interval grid.
    """
    if reps < 2:
        raise ValueError("need reps >= 2")
    if estimator == "efficient":
        cfg = _PathCfg(seed, params.sigma, params.T, n_basis)
        total, total_sq = _run_blocks(_efficient_block, cfg, reps, workers)
        return _report(total.sum(axis=0), total_sq.sum(axis=0), reps, seed, "efficient-risk")
    if isinstance(estimator, CylindricalFunctional):
        cfg = _SteinCfg(
            seed=seed, sigma=params.sigma, T=params.T, n_basis=n_basis, grid_m=grid_m,
            n=estimator.n, a=estimator.a, b=estimator.offsets(u, params),
            risk_ref=cramer_rao_bound(params.sigma, params.T),
        )
        total, total_sq = _run_blocks(_stein_block, cfg, reps, workers)[:2]
        return _report(total.sum(axis=0), total_sq.sum(axis=0), reps, seed, "stein-risk")
    if isinstance(estimator, BayesSpec):
        if sigma_profile is None:
            sigma_profile = VolatilityProfile.constant(params.sigma)
        cfg = _BayesCfg(
            seed=seed, T=params.T, grid_m=grid_m, spec=estimator,
            sigma_profile=sigma_profile, params=params,
            u=None if prior_drift else u,
        )
        total, total_sq = _run_blocks(_bayes_block, cfg, reps, workers)
        return _report(total.sum(axis=0), total_sq.sum(axis=0), reps, seed, "bayes-risk")
    raise ValueError(f"unknown estimator {estimator!r}")


def sample_average_estimator(samples) -> PathSample:
    """Pointwise average of N observations of the same drift."""
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    first = samples[0]
    for s in samples[1:]:
        if s.grid.M != first.grid.M or s.grid.T != first.grid.T:
            raise ValueError("samples live on mismatched grids")
        if (s.drift.kind, s.drift.slope) != (first.drift.kind, first.drift.slope):
            raise ValueError("samples have different drifts")
    eta = np.mean(np.stack([s.eta for s in samples]), axis=0)
    xu = np.mean(np.stack([s.xu for s in samples]), axis=0)
    x = np.mean(np.stack([s.x for s in samples]), axis=0)
    return PathSample(
        eta=eta, xu=xu, u=first.u, x=x, grid=first.grid, params=first.params,
        drift=first.drift, seed=first.seed, replicate_index=first.replicate_index,
    )


def sample_average_risk(group_size, params, reps, seed, *, n_basis=1024,
                        workers=1) -> RiskReport:
    """Risk of the N-sample average path over reps independent groups."""
    if group_size < 1:
        raise ValueError("need group_size >= 1")
    if reps < 2:
        raise ValueError("need reps >= 2")
    cfg = _PathCfg(seed, params.sigma, params.T, n_basis, group_size)
    total, total_sq = _run_blocks(_efficient_block, cfg, reps, workers)
    return _report(total.sum(axis=0), total_sq.sum(axis=0), reps, seed,
                   f"average-of-{group_size}-risk")


def identity_suite(fnl: CylindricalFunctional, u: DriftSpec, params: ModelParams,
                   reps, seed, *, grid_m=2048, n_basis=1024, workers=1,
                   lambda_scale=1.0) -> IdentityReport:
    """All paired risk-identity checks in one common-random-number pass.

    Monte Carlo rows compare the measured risk against a closed-form right
    side replicate by replicate; they pass when |mean difference| <= 3
    paired stderr.  Pathwise rows bound exact algebraic identities by
    1e-10.  The bias row checks ||E corr||^2 <= E||D log F||^2.
    lambda_scale != 1 is a fault-injection hook for negative controls.

    The risk and bias rows are coefficient sums and do not depend on
    grid_m; the correction-forms row integrates the James-Stein norm on
    the grid_m-interval grid, as an independent cross-check.
    """
    if reps < 2:
        raise ValueError("need reps >= 2")
    cfg = _SteinCfg(
        seed=seed, sigma=params.sigma, T=params.T, n_basis=n_basis, grid_m=grid_m,
        n=fnl.n, a=fnl.a, b=fnl.offsets(u, params),
        risk_ref=cramer_rao_bound(params.sigma, params.T),
        lambda_scale=lambda_scale,
    )
    risk, _, diffs, diffs_sq, grad, grad_sq, chain, forms, corr = _run_blocks(
        _stein_block, cfg, reps, workers)
    risk_mean = risk.sum(axis=0) / reps
    diffs, diffs_sq = diffs.sum(axis=0), diffs_sq.sum(axis=0)
    grad_total, grad_sq = grad.sum(axis=0), grad_sq.sum(axis=0)
    chain_max, forms_max = float(chain.max()), float(forms.max())
    corr_mean = corr.sum(axis=0) / reps

    names = ["unbiased-risk", "sqrt-laplacian-risk", "log-gradient-risk", "harmonic-risk"]
    rows = []
    for i, name in enumerate(names):
        if name == "harmonic-risk" and not fnl.is_james_stein:
            continue  # the harmonic form only collapses at a = 2-n
        d_mean = diffs[i] / reps
        d_var = max((diffs_sq[i] - reps * d_mean**2) / (reps - 1), 0.0)
        d_se = math.sqrt(d_var / reps)
        rows.append(IdentityRow(
            name=name, lhs=risk_mean, rhs=risk_mean - d_mean,
            paired_stderr=d_se, passed=bool(abs(d_mean) <= 3.0 * d_se),
        ))
    rows.append(IdentityRow(
        name="chain-rule-pathwise", lhs=chain_max, rhs=0.0,
        paired_stderr=0.0, passed=bool(chain_max <= 1e-10),
    ))
    if fnl.is_james_stein:
        rows.append(IdentityRow(
            name="correction-forms-pathwise", lhs=forms_max, rhs=0.0,
            paired_stderr=0.0, passed=bool(forms_max <= 1e-10),
        ))
    grad_mean = grad_total / reps
    grad_var = max((grad_sq - reps * grad_mean**2) / (reps - 1), 0.0)
    grad_se = math.sqrt(grad_var / reps)
    bias_sq = float(corr_mean @ corr_mean)
    rows.append(IdentityRow(
        name="bias-bound", lhs=bias_sq, rhs=grad_mean,
        paired_stderr=grad_se, passed=bool(bias_sq <= grad_mean + 3.0 * grad_se),
    ))
    return IdentityReport(rows=tuple(rows), reps=reps, seed=seed)


def unbiased_risk_identity_check(fnl, u, params, reps, seed, **kw) -> IdentityReport:
    """Paired check of risk = R + E||xi||^2 + 2 E[Delta log F]."""
    if not fnl.is_superharmonic:
        raise ValueError("exponent outside the superharmonic range [2-n, 0]")
    report = identity_suite(fnl, u, params, reps, seed, **kw)
    return IdentityReport(rows=(report.row("unbiased-risk"),), reps=reps, seed=seed)


def stein_risk_identity_check(fnl, u, params, reps, seed, **kw) -> IdentityReport:
    """Paired check of risk = R + 4 E[Delta sqrt(F)/sqrt(F)], with the
    log-gradient variant R - E||D log F||^2 + 2 E[Delta F/F] alongside."""
    if not fnl.sqrt_is_superharmonic:
        raise ValueError("exponent outside the sqrt-superharmonic range [4-2n, 0]")
    report = identity_suite(fnl, u, params, reps, seed, **kw)
    rows = (report.row("sqrt-laplacian-risk"), report.row("log-gradient-risk"))
    return IdentityReport(rows=rows, reps=reps, seed=seed)


def bias_norm(fnl, u, params, reps, seed, *, grid_m=2048, n_basis=1024, workers=1):
    """(||E corr||^2 grid estimate, closed-form bound report E||D log F||^2)."""
    if not fnl.is_james_stein:
        raise ValueError("bias bound is stated for a = 2 - n")
    report = identity_suite(fnl, u, params, reps, seed,
                            grid_m=grid_m, n_basis=n_basis, workers=workers)
    row = report.row("bias-bound")
    bound = RiskReport(mean=row.rhs, stderr=row.paired_stderr, reps=reps, seed=seed,
                       label="log-gradient-norm-bound")
    return row.lhs, bound


def _gain_rho(alpha, sigma, T):
    # the gain depends on (alpha, sigma, T) only through this ratio
    return alpha * math.sqrt(2.0 * T) / sigma


def _gain_sums(n_max, rho, reps, seed, workers):
    total, total_sq = _run_blocks(_gain_block, _GainCfg(seed, n_max, rho), reps, workers)
    return total.sum(axis=0), total_sq.sum(axis=0)


def gain(alpha, sigma, T, n, reps, seed, *, include_risk_difference=True,
         grid_m=2048, n_basis=1024, workers=1) -> GainEstimate:
    """Superefficiency gain G at one n, by closed formula and by risk difference.

    The formula path evaluates
    2 (n-2)^2 E[(sum_{l<=n} (pi (l-1/2) eta_l - alpha sqrt(2T)/sigma (-1)^l)^2)^{-1}];
    the risk-difference path measures (R - mc_risk(stein, a=2-n))/R with the
    same seed, so the two share the first n coordinates of every replicate.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if reps < 2:
        raise ValueError("need reps >= 2")
    total, total_sq = _gain_sums(n, _gain_rho(alpha, sigma, T), reps, seed, workers)
    formula = _report(float(total[-1]), float(total_sq[-1]), reps, seed, "gain-formula")
    risk_difference = None
    if include_risk_difference:
        params = ModelParams(sigma=sigma, T=T, alpha=alpha)
        fnl = CylindricalFunctional(n=n, a=float(2 - n))
        stein = mc_risk(fnl, DriftSpec.linear(alpha), params, reps, seed,
                        grid_m=grid_m, n_basis=n_basis, workers=workers)
        r = cramer_rao_bound(sigma, T)
        risk_difference = RiskReport(
            mean=(r - stein.mean) / r, stderr=stein.stderr / r,
            reps=reps, seed=seed, label="gain-risk-difference",
        )
    return GainEstimate(formula=formula, risk_difference=risk_difference)


def gain_curve(alpha, sigma, T, n_max, reps, seed, *, workers=1) -> GainCurve:
    """Gain for every n in 3..n_max from one set of replicate draws."""
    if n_max < 3:
        raise ValueError(f"need n_max >= 3, got {n_max}")
    total, total_sq = _gain_sums(n_max, _gain_rho(alpha, sigma, T), reps, seed, workers)
    rows = []
    for j, n in enumerate(range(3, n_max + 1)):
        rep = _report(float(total[j]), float(total_sq[j]), reps, seed, f"gain-n{n}")
        rows.append(GainPoint(n=n, gain_mean=rep.mean, gain_stderr=rep.stderr))
    return GainCurve(alpha=alpha, sigma=sigma, T=T, reps=reps, seed=seed, rows=tuple(rows))


def optimal_n_search(alpha, sigma, T, n_max, reps, seed, *, workers=1):
    """Argmax of the gain curve (ties toward smaller n) with the curve itself."""
    curve = gain_curve(alpha, sigma, T, n_max, reps, seed, workers=workers)
    return curve.n_opt, curve


def gain_large_sigma_limit(n, reps, seed, *, workers=1) -> RiskReport:
    """Limit gain (n-2)^2 (8/pi^2) E[(sum_{l<=n} (2l-1)^2 eta_l^2)^{-1}].

    Identical to the gain formula with the drift offsets removed, which is
    how it is evaluated here (same streams, rho = 0).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    total, total_sq = _gain_sums(n, 0.0, reps, seed, workers)
    rep = _report(float(total[-1]), float(total_sq[-1]), reps, seed, "gain-large-sigma-limit")
    return rep


def universal_constant(reps, seed, *, workers=1) -> RiskReport:
    """The constant (32/pi^2) E[1/(x^2 + 9y^2 + 25z^2 + 49r^2)] ~ 0.1138.

    Equals the large-volatility gain limit at n = 4; the Gaussian
    expectation runs over standard-normal 4-vectors.
    """
    if reps < 2:
        raise ValueError("need reps >= 2")
    total, total_sq = _run_blocks(_const_block, _ConstCfg(seed), reps, workers)
    return _report(total.sum(axis=0), total_sq.sum(axis=0), reps, seed, "universal-constant")


def gain_small_ratio_asymptote(alpha, sigma, T, n) -> float:
    """Leading term (n-2)^2 sigma^2/(n alpha^2 T) = n (1 - 2/n)^2 sigma^2/(alpha^2 T)
    of the gain as sigma^2/(alpha^2 T) tends to zero.

    With rho = alpha sqrt(2T)/sigma, the quadratic form in `gain` satisfies
    Q/rho^2 -> n, so G = 2 (n-2)^2 E[1/Q] ~ 2 (n-2)^2/(n rho^2).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if alpha == 0:
        raise ValueError("asymptote undefined at alpha = 0")
    return (n - 2) ** 2 * sigma**2 / (n * alpha**2 * T)


def asymptotic_gain_check(n, reps, seed, *, alpha=1.0, sigma=1.0, T=1.0,
                          workers=1) -> RiskReport:
    """n pi^2 G / 6 with its stderr; tends to 1 as n grows (G ~ 6/(n pi^2))."""
    total, total_sq = _gain_sums(n, _gain_rho(alpha, sigma, T), reps, seed, workers)
    scale = n * math.pi**2 / 6.0
    rep = _report(float(total[-1]), float(total_sq[-1]), reps, seed, "asymptotic-gain-ratio")
    return RiskReport(mean=scale * rep.mean, stderr=scale * rep.stderr,
                      reps=reps, seed=seed, label="asymptotic-gain-ratio")
