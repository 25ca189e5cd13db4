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
from scipy.special import wofz

from .estimators import BayesSpec, CylindricalFunctional, posterior_drift_curve
from .process_sim import (
    DegenerateSampleError,
    DriftSpec,
    ModelParams,
    SineBasis,
    TimeGrid,
    VolatilityProfile,
    noise_stream,
)

# block size fixed: the replicate partition must not depend on workers
_BLOCK = 4096

_PATHWISE_BOUND = 1e-10  # the pathwise rows are exact up to rounding


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

    def explain(self) -> str:
        """The row and its distance from the pass bound, on one line."""
        if self.name.endswith("-pathwise"):
            return f"{self.name}: max deviation {self.lhs:.3g} against the bound {_PATHWISE_BOUND:.0e}"
        z = abs(self.lhs - self.rhs) / self.paired_stderr if self.paired_stderr else math.inf
        return (f"{self.name}: lhs {self.lhs:.6g}, rhs {self.rhs:.6g}, "
                f"z = |lhs - rhs| / paired_stderr = {z:.2f}")


@dataclass(frozen=True)
class IdentityReport:
    """Rows of one identity_suite pass for the functional fnl."""

    rows: tuple
    reps: int
    seed: int
    fnl: CylindricalFunctional

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
    mat = SineBasis(sigma, T, n).orthonormal_matrix(TimeGrid(grid_m, T).points)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=16)
def _quad_weights(T, grid_m):
    w = TimeGrid(grid_m, T).trapezoid_weights()
    w.setflags(write=False)
    return w


def _noise_block(seed, start, count, dim):
    """Rows start..start+count-1 of seed's replicates: row i is
    noise_stream(seed, start + i).standard_normal(dim), bit for bit.

    One Generator serves the block. Per replicate its Philox key is set to
    (seed, start + i) by assigning the bit generator's state, which also
    resets the counter and the output buffer, so no stream is built per row.
    """
    if start + count - 1 >= 2**64:
        raise ValueError("replicate index must fit an unsigned 64-bit integer")
    out = np.empty((count, dim), dtype=float)
    if count == 0:
        return out
    gen = noise_stream(seed, start)
    state = gen.bit_generator.state
    key = state["state"]["key"]
    for i in range(count):
        key[1] = start + i
        gen.bit_generator.state = state
        gen.standard_normal(dim, out=out[i])
    return out


@dataclass(frozen=True)
class _Moments:
    """Sum, sum of squares and largest magnitude of one per-replicate column
    (elementwise for a column of vectors) over reps replicates."""

    total: np.ndarray
    total_sq: np.ndarray
    peak: np.ndarray
    reps: int

    @property
    def mean(self):
        return self.total / self.reps

    @property
    def stderr(self):
        mean = self.mean
        var = np.maximum((self.total_sq - self.reps * mean * mean) / (self.reps - 1), 0.0)
        return np.sqrt(var / self.reps)


def _block_moments(worker, start, count):
    # reduced where the block ran: the pool ships three values per column,
    # never the per-replicate arrays
    return [(col.sum(axis=0), (col * col).sum(axis=0), np.abs(col).max(axis=0))
            for col in worker(start, count)]


def _run_blocks(worker, reps, workers):
    """Run worker(start, count) over the fixed blocks and return one _Moments
    per per-replicate column it returns. Each block is reduced along its
    replicate axis, and the block partials are added in block order, so the
    result does not depend on the worker count."""
    if reps < 2:
        raise ValueError("need reps >= 2")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    bounds = [(s, min(_BLOCK, reps - s)) for s in range(0, reps, _BLOCK)]
    reduce_block = partial(_block_moments, worker)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(reduce_block, *zip(*bounds), chunksize=1))
    else:
        parts = [reduce_block(s, c) for s, c in bounds]
    moments = []
    for column in zip(*parts):
        total, total_sq, peak = (np.stack(x) for x in zip(*column))
        moments.append(_Moments(total.sum(axis=0), total_sq.sum(axis=0), peak.max(axis=0), reps))
    return moments


def _report(moments, seed, label, j=()):
    """The RiskReport of entry j of a moments value (a scalar column: j = ())."""
    return RiskReport(mean=float(moments.mean[j]), stderr=float(moments.stderr[j]),
                      reps=moments.reps, seed=seed, label=label)


# ---------------------------------------------------------------------------
# block workers (top level: they cross the process-pool boundary). Each takes
# its settings as keywords bound with functools.partial and returns a tuple
# of per-replicate arrays, replicate index first.

_SUB_CHUNK = 256  # Bayes replicates integrated at once: bounds the grid arrays


def _efficient_block(start, count, *, seed, params, n_basis, group=1):
    # estimate - u = X - u = X^u = sum_k lambda_k eta_k e_k: the drift
    # cancels, and the L^2 risk is the coefficient sum sum_k (lambda_k eta_k)^2.
    # start/count index groups; group g averages replicates g*group..(g+1)*group-1
    eta = _noise_block(seed, start * group, count * group, n_basis)
    eta = eta.reshape(count, group, n_basis).mean(axis=1)
    coef = eta * SineBasis(params.sigma, params.T, n_basis).eigenvalues()
    return (np.einsum("ij,ij->i", coef, coef),)


def _stein_block(start, count, *, seed, params, n_basis, grid_m, fnl, b, lambda_scale=1.0):
    # grid_m is read only by the correction-forms cross-check
    n, a = fnl.n, fnl.a
    sigma, T = params.sigma, params.T
    eta = _noise_block(seed, start, count, n_basis)
    # the test hook corrupts the eigenvalues only where coefficients are
    # formed; the error coefficients below stay honest, so a scale != 1
    # breaks the pairing the identities rely on
    lam = SineBasis(sigma, T, n).eigenvalues() * lambda_scale
    c = eta[:, :n] / lam + b
    dn = np.einsum("ij,ij->i", c, c)
    if np.any(dn == 0.0):
        bad = start + int(np.nonzero(dn == 0.0)[0][0])
        raise DegenerateSampleError(
            f"zero functional denominator at replicate {bad}", replicate=bad
        )
    # estimate - u = X^u + D log F, with D log F = sum_{k<=n} (a c_k/D_n) e_k
    corr = (a / dn)[:, None] * c
    err = eta * SineBasis(sigma, T, n_basis).eigenvalues()
    err[:, :n] += corr
    risk = np.einsum("ij,ij->i", err, err)

    delta_f = a * (n + a - 2) / dn
    delta_sqrt = (a * (n - 2 + a / 2) / 2) / dn
    grad = a * a / dn
    dlog = a * (n - 2) / dn
    r = cramer_rao_bound(sigma, T)
    chain = 4.0 * delta_sqrt - 2.0 * delta_f + grad

    forms = np.zeros(count)
    if a == 2 - n:
        # James-Stein form -(n-2) proj/||proj||^2, with ||proj||^2 integrated
        # on the grid through the Gram matrix of the first n sine rows
        e_n = _ortho_rows(sigma, T, n, grid_m)
        gram = (e_n * _quad_weights(T, grid_m)) @ e_n.T
        norms = np.einsum("ij,ij->i", c @ gram, c)
        js = (-(n - 2) / norms)[:, None] * c
        forms = np.abs(corr - js).max(axis=1)

    return (risk,
            risk - r - grad - 2.0 * dlog,     # unbiased-risk
            risk - r - 4.0 * delta_sqrt,      # sqrt-laplacian-risk
            risk - r + grad - 2.0 * delta_f,  # log-gradient-risk
            risk - r + grad,                  # harmonic-risk (James-Stein case)
            grad, chain, forms, corr)


def _bayes_block(start, count, *, seed, grid_m, spec, params, u):
    # u None: the drift is redrawn from the prior each replicate
    m = grid_m
    grid = TimeGrid(m, params.T)
    qw = _quad_weights(params.T, m)
    sqdt = math.sqrt(grid.dt)
    sigma_profile = VolatilityProfile.constant(params.sigma)
    sig_left = sigma_profile.left_values(grid) * sqdt
    tau_left = spec.tau.left_values(grid) * sqdt
    drift = (spec.v if u is None else u).values(grid.points, params)
    risks = np.empty(count)
    for off in range(0, count, _SUB_CHUNK):
        sub = min(_SUB_CHUNK, count - off)
        draws = _noise_block(seed, start + off, sub, 2 * m)
        u_vals = drift
        if u is None:
            u_vals = _from_zero(draws[:, m:] * tau_left) + drift
        # the martingale part is built from grid increments here (exact in
        # distribution at the nodes), so no basis truncation enters
        x = _from_zero(draws[:, :m] * sig_left) + u_vals
        xi = posterior_drift_curve(x, spec.v, spec.tau, sigma_profile, grid, params)
        err = xi - u_vals
        risks[off:off + sub] = (err * err) @ qw
    return (risks,)


def _from_zero(inc):
    """Node values of paths that start at 0 and have the given grid increments."""
    return np.concatenate([np.zeros((inc.shape[0], 1)), np.cumsum(inc, axis=1)], axis=1)


def _gain_block(start, count, *, seed, n_max, rho):
    z = _noise_block(seed, start, count, n_max)
    ell = np.arange(1, n_max + 1)
    w = math.pi * (ell - 0.5)
    delta = -rho * (-1.0) ** ell
    terms = (w * z + delta) ** 2
    # n = 3 is conditioned on coordinates 2 and 3: with Y = w_1 z_1 + delta_1
    # and r^2 = their terms, E[1/(Y^2 + r^2) | r] is a Voigt profile
    r = np.sqrt(terms[:, 1] + terms[:, 2])
    s = np.cumsum(terms, axis=1, out=terms)[:, 2:]  # in place: no extra count x n_max array
    # every denominator, conditioned or raw, is at least r^2
    if np.any(r == 0.0):
        bad = start + int(np.nonzero(r == 0.0)[0][0])
        raise DegenerateSampleError(f"zero gain denominator at replicate {bad}", replicate=bad)
    g = 2.0 * (np.arange(3, n_max + 1) - 2) ** 2 / s
    g[:, 0] = 2.0 * _conditional_inverse_moment(delta[0], w[0], r)
    return (g,)


def _conditional_inverse_moment(delta, w, r):
    """E[1/(Y^2 + r^2)] for Y ~ N(delta, w^2) and r > 0: the Gaussian-Cauchy
    convolution, sqrt(pi/2)/(w r) Re w((delta + i r)/(w sqrt 2)), with w(.)
    the Faddeeva function."""
    return (math.sqrt(math.pi / 2) / (w * r)
            * wofz((delta + 1j * r) / (w * math.sqrt(2.0))).real)


_CONST_WEIGHTS = np.array([1.0, 9.0, 25.0, 49.0])


def _const_block(start, count, *, seed):
    z = _noise_block(seed, start, count, 4)
    q = (z * z) @ _CONST_WEIGHTS
    if np.any(q == 0.0):
        bad = start + int(np.nonzero(q == 0.0)[0][0])
        raise DegenerateSampleError(f"zero denominator at replicate {bad}", replicate=bad)
    return ((32.0 / math.pi**2) / q,)


# ---------------------------------------------------------------------------
# public operations


def mc_risk(estimator, u, params, reps, seed, *, grid_m=2048, n_basis=1024,
            workers=1, prior_drift=True) -> RiskReport:
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
    if estimator == "efficient":
        worker = partial(_efficient_block, seed=seed, params=params, n_basis=n_basis)
        label = "efficient-risk"
    elif isinstance(estimator, CylindricalFunctional):
        worker = partial(_stein_block, seed=seed, params=params, n_basis=n_basis,
                         grid_m=grid_m, fnl=estimator, b=estimator.offsets(u, params))
        label = "stein-risk"
    elif isinstance(estimator, BayesSpec):
        worker = partial(_bayes_block, seed=seed, grid_m=grid_m, spec=estimator,
                         params=params, u=None if prior_drift else u)
        label = "bayes-risk"
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return _report(_run_blocks(worker, reps, workers)[0], seed, label)


def sample_average_risk(group_size, params, reps, seed, *, n_basis=1024,
                        workers=1) -> RiskReport:
    """Risk of the N-sample average path over reps independent groups."""
    if group_size < 1:
        raise ValueError("need group_size >= 1")
    worker = partial(_efficient_block, seed=seed, params=params, n_basis=n_basis,
                     group=group_size)
    return _report(_run_blocks(worker, reps, workers)[0], seed,
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
    worker = partial(_stein_block, seed=seed, params=params, n_basis=n_basis, grid_m=grid_m,
                     fnl=fnl, b=fnl.offsets(u, params), lambda_scale=lambda_scale)
    risk, *diffs, grad, chain, forms, corr = _run_blocks(worker, reps, workers)

    names = ["unbiased-risk", "sqrt-laplacian-risk", "log-gradient-risk", "harmonic-risk"]
    rows = []
    for name, d in zip(names, diffs):
        if name == "harmonic-risk" and not fnl.is_james_stein:
            continue  # the harmonic form only collapses at a = 2-n
        rows.append(IdentityRow(
            name=name, lhs=risk.mean, rhs=risk.mean - d.mean,
            paired_stderr=d.stderr, passed=bool(abs(d.mean) <= 3.0 * d.stderr),
        ))
    pathwise = [("chain-rule-pathwise", chain)]
    if fnl.is_james_stein:
        pathwise.append(("correction-forms-pathwise", forms))
    for name, dev in pathwise:
        rows.append(IdentityRow(
            name=name, lhs=dev.peak, rhs=0.0,
            paired_stderr=0.0, passed=bool(dev.peak <= _PATHWISE_BOUND),
        ))
    bias_sq = corr.mean @ corr.mean
    rows.append(IdentityRow(
        name="bias-bound", lhs=bias_sq, rhs=grad.mean, paired_stderr=grad.stderr,
        passed=bool(bias_sq <= grad.mean + 3.0 * grad.stderr),
    ))
    return IdentityReport(rows=tuple(rows), reps=reps, seed=seed, fnl=fnl)


def unbiased_risk_identity_check(report: IdentityReport) -> IdentityRow:
    """The paired check of risk = R + E||xi||^2 + 2 E[Delta log F] in report."""
    if not report.fnl.is_superharmonic:
        raise ValueError("exponent outside the superharmonic range [2-n, 0]")
    return report.row("unbiased-risk")


def stein_risk_identity_check(report: IdentityReport) -> tuple:
    """The paired checks of risk = R + 4 E[Delta sqrt(F)/sqrt(F)] and of the
    log-gradient variant R - E||D log F||^2 + 2 E[Delta F/F] in report."""
    if not report.fnl.sqrt_is_superharmonic:
        raise ValueError("exponent outside the sqrt-superharmonic range [4-2n, 0]")
    return report.row("sqrt-laplacian-risk"), report.row("log-gradient-risk")


def bias_norm(report: IdentityReport) -> IdentityRow:
    """The bias-bound row of report: lhs ||E corr||^2, rhs the closed-form
    bound E||D log F||^2, paired_stderr the bound's stderr."""
    if not report.fnl.is_james_stein:
        raise ValueError("bias bound is stated for a = 2 - n")
    return report.row("bias-bound")


def _gain_moments(alpha, sigma, T, n_max, reps, seed, workers):
    """Moments of the gain columns n = 3..n_max; the gain depends on the
    model (checked here) only through rho = alpha sqrt(2T)/sigma."""
    if n_max < 3:
        raise ValueError(f"need n >= 3, got {n_max}")
    params = ModelParams(sigma=sigma, T=T, alpha=alpha)
    rho = params.alpha * math.sqrt(2.0 * params.T) / params.sigma
    worker = partial(_gain_block, seed=seed, n_max=n_max, rho=rho)
    return _run_blocks(worker, reps, workers)[0]


def gain(alpha, sigma, T, n, reps, seed, *, include_risk_difference=True,
         grid_m=2048, n_basis=1024, workers=1) -> GainEstimate:
    """Superefficiency gain G at one n, by closed formula and by risk difference.

    The formula path evaluates
    2 (n-2)^2 E[(sum_{l<=n} (pi (l-1/2) eta_l - alpha sqrt(2T)/sigma (-1)^l)^2)^{-1}];
    the risk-difference path measures (R - mc_risk(stein, a=2-n))/R with the
    same seed, so the two share the first n coordinates of every replicate.

    At n = 3 the raw replicate 2/Q has infinite variance (P(Q < e) ~ e^{3/2}),
    so the formula path integrates the first coordinate out in closed form:
    with w_l = pi (l - 1/2), delta_l = -alpha sqrt(2T)/sigma (-1)^l and
    r^2 = sum_{l=2,3} (w_l eta_l + delta_l)^2, each replicate contributes
    2 sqrt(pi/2)/(w_1 r) Re w((delta_1 + i r)/(w_1 sqrt 2)), w the Faddeeva
    function. Same draws, same mean; the tail of the replicate value goes
    from x^{-3/2} to x^{-2}, so its variance is log-divergent rather than
    grossly infinite. The n >= 4 replicates, of finite variance, stay raw.
    """
    formula = _report(_gain_moments(alpha, sigma, T, n, reps, seed, workers), seed,
                      "gain-formula", -1)
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
    m = _gain_moments(alpha, sigma, T, n_max, reps, seed, workers)
    rows = tuple(GainPoint(n=n, gain_mean=float(mean), gain_stderr=float(se))
                 for n, mean, se in zip(range(3, n_max + 1), m.mean, m.stderr))
    return GainCurve(alpha=alpha, sigma=sigma, T=T, reps=reps, seed=seed, rows=rows)


def optimal_n_search(alpha, sigma, T, n_max, reps, seed, *, workers=1):
    """Argmax of the gain curve (ties toward smaller n) with the curve itself."""
    curve = gain_curve(alpha, sigma, T, n_max, reps, seed, workers=workers)
    return curve.n_opt, curve


def gain_large_sigma_limit(n, reps, seed, *, workers=1) -> RiskReport:
    """Limit gain (n-2)^2 (8/pi^2) E[(sum_{l<=n} (2l-1)^2 eta_l^2)^{-1}].

    Identical to the gain formula with the drift offsets removed, which is
    how it is evaluated here (same streams, rho = 0).
    """
    m = _gain_moments(0.0, 1.0, 1.0, n, reps, seed, workers)  # alpha = 0: rho = 0
    return _report(m, seed, "gain-large-sigma-limit", -1)


def universal_constant(reps, seed, *, workers=1) -> RiskReport:
    """The constant (32/pi^2) E[1/(x^2 + 9y^2 + 25z^2 + 49r^2)] ~ 0.1138.

    Equals the large-volatility gain limit at n = 4; the Gaussian
    expectation runs over standard-normal 4-vectors.
    """
    m = _run_blocks(partial(_const_block, seed=seed), reps, workers)[0]
    return _report(m, seed, "universal-constant")


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
    rep = _report(_gain_moments(alpha, sigma, T, n, reps, seed, workers), seed,
                  "asymptotic-gain-ratio", -1)
    scale = n * math.pi**2 / 6.0
    return RiskReport(mean=scale * rep.mean, stderr=scale * rep.stderr,
                      reps=reps, seed=seed, label="asymptotic-gain-ratio")
