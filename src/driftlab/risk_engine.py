"""Monte Carlo risk measurement and identity cross-checks.

Replicates are partitioned into fixed-size blocks; block results are
reduced in replicate-index order, so every report is bit-reproducible
from (seed, reps, grid, n_basis) regardless of the worker count.
"""

from __future__ import annotations

import ctypes
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import wofz

from .estimators import BayesSpec, CylindricalFunctional, posterior_drift_curve, stein_closed_forms
from .process_sim import (
    DegenerateSampleError,
    DriftSpec,
    ModelParams,
    SineBasis,
    TimeGrid,
    VolatilityProfile,
    check_breakpoints,
    nested_integral,
    noise_stream,
)

# block size fixed: the replicate partition must not depend on workers
_BLOCK = 4096
# a pool's unit of work: a multiple of _SUB_CHUNK that divides _BLOCK, so a
# task's sub-chunks start where the whole block's do
_TASK = 1024

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

    Exact piecewise (see nested_integral); constant sigma gives sigma^2 T^2 / 2.
    """
    if not isinstance(sigma_profile, VolatilityProfile):
        sigma_profile = VolatilityProfile.constant(sigma_profile)
    return nested_integral(lambda sig: sig**2, T, sigma_profile)


class _PhiloxHead(ctypes.Structure):
    # the leading fields of NumPy's philox_state, at bit_generator.ctypes.state_address
    _fields_ = [("ctr", ctypes.c_void_p), ("key", ctypes.c_void_p), ("buffer_pos", ctypes.c_int)]


_Counter = ctypes.c_uint64 * 4
_Key = ctypes.c_uint64 * 2


def _at(ctype, addr):
    """A ctypes view of the memory at addr; every read of a bit generator's
    state goes through here."""
    return ctype.from_address(addr)


def _philox_words(bg, seed, start):
    """Views of the words that re-key bg for another replicate: key[1], the
    counter and the head holding buffer_pos. bg must be a fresh Philox keyed
    by (seed, start).

    The views rely on NumPy's private philox_state layout, so it is checked
    first, and None is returned when any check fails. The state address and
    both pointers in it must lie inside the bit generator object, checked
    before each is read. The key read through them must be (seed, start),
    with a zero counter and an empty buffer (buffer_pos 4). And a write
    through the views must read back through bg.state as that counter and
    buffer_pos; the written words are then restored.
    """
    if not isinstance(bg, np.random.Philox):
        return None
    lo = id(bg)
    hi = lo + type(bg).__basicsize__

    def inside(addr, ctype):
        return addr is not None and lo <= addr <= hi - ctypes.sizeof(ctype)

    addr = bg.ctypes.state_address
    if not inside(addr, _PhiloxHead):
        return None
    head = _at(_PhiloxHead, addr)
    if not (inside(head.ctr, _Counter) and inside(head.key, _Key)):
        return None
    ctr, key = _at(_Counter, head.ctr), _at(_Key, head.key)
    if tuple(key) != (seed, start) or any(ctr) or head.buffer_pos != 4:
        return None
    ctr[:], head.buffer_pos = (1, 2, 3, 4), 1
    state = bg.state
    ctr[:], head.buffer_pos = (0, 0, 0, 0), 4
    if state["state"]["counter"].tolist() != [1, 2, 3, 4] or state["buffer_pos"] != 1:
        return None
    return _at(ctypes.c_uint64, head.key + 8), ctr, head


def _noise_block(seed, start, count, dim):
    """Rows start..start+count-1 of seed's replicates, as a new (count, dim)
    array: row i is noise_stream(seed, start + i).standard_normal(dim), bit
    for bit.

    One Generator serves the block. Per replicate its Philox is re-keyed in
    place: key[1] is set to start + i, the four counter words to zero and
    buffer_pos to 4 (empty buffer), through the views _philox_words finds
    once per block. That is the state of a fresh noise_stream(seed, start + i),
    so no stream is built per row. When the layout check declines, each row
    is drawn from its own noise_stream(seed, start + i), the definition
    itself: slower, the same bits.
    """
    # before any write: a c_uint64 key word would wrap silently
    if start + count - 1 >= 2**64:
        raise ValueError("replicate index must fit an unsigned 64-bit integer")
    out = np.empty((count, dim))
    if count == 0:
        return out
    gen = noise_stream(seed, start)
    # a tuple size skips NumPy's slower check of an int size against out
    normal, shape = gen.standard_normal, (dim,)
    words = _philox_words(gen.bit_generator, seed, start)
    if words is None:  # another layout: one stream per row
        for i in range(count):
            noise_stream(seed, start + i).standard_normal(shape, out=out[i])
        return out
    key1, ctr, head = words
    for i in range(count):
        key1.value = start + i
        ctr[:] = (0, 0, 0, 0)
        head.buffer_pos = 4
        normal(shape, out=out[i])
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


def _block_moments(columns):
    """Sum, sum of squares and largest magnitude of each per-replicate column
    of one whole block, along its replicate axis."""
    return [(col.sum(axis=0), (col * col).sum(axis=0), np.abs(col).max(axis=0))
            for col in columns]


def _joined(done, count):
    """The columns of the next block of count replicates, joined in replicate
    order from the results of its tasks."""
    tasks = [next(done) for _ in range(0, count, _TASK)]
    return [np.concatenate(col) for col in zip(*tasks)]


def _run_blocks(worker, reps, workers):
    """Run worker(start, count) over the fixed blocks and return one _Moments
    per per-replicate column it returns.

    Serially, each block is one worker call. A pool runs tasks of _TASK
    replicates instead and ships their per-replicate columns (at most _TASK
    rows each) to the parent, which joins each block's columns in replicate
    order. Either way every whole block is reduced along its replicate axis
    by the same code, and the block partials are added in block order, so the
    result does not depend on the worker count."""
    if reps < 2:
        raise ValueError("need reps >= 2")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    bounds = [(s, min(_BLOCK, reps - s)) for s in range(0, reps, _BLOCK)]
    if workers > 1:
        tasks = [(s + o, min(_TASK, c - o)) for s, c in bounds for o in range(0, c, _TASK)]
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as ex:
            done = ex.map(worker, *zip(*tasks), chunksize=1)
            parts = [_block_moments(_joined(done, c)) for _, c in bounds]
    else:
        parts = [_block_moments(worker(s, c)) for s, c in bounds]
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

_SUB_CHUNK = 64  # replicates (groups) drawn at once: bounds a block's arrays


def _check_nonzero(denom, start, label):
    """Raise DegenerateSampleError naming the first replicate of the block
    starting at start whose denominator is zero."""
    zero = np.flatnonzero(denom == 0.0)
    if zero.size:
        bad = start + int(zero[0])
        raise DegenerateSampleError(f"zero {label} at replicate {bad}", replicate=bad)


def _efficient_block(start, count, *, seed, params, n_basis, group=1):
    # estimate - u = X - u = X^u = sum_k lambda_k eta_k e_k: the drift
    # cancels, and the L^2 risk is the coefficient sum sum_k (lambda_k eta_k)^2.
    # start/count index groups; group g averages replicates g*group..(g+1)*group-1,
    # and _SUB_CHUNK groups are drawn at a time, each sub-chunk into a fresh array
    lam = SineBasis(params.sigma, params.T, n_basis).eigenvalues()
    risks = np.empty(count)
    for off in range(0, count, _SUB_CHUNK):
        sub = min(_SUB_CHUNK, count - off)
        eta = _noise_block(seed, (start + off) * group, sub * group, n_basis)
        coef = eta.reshape(sub, group, n_basis).mean(axis=1) * lam
        risks[off:off + sub] = np.einsum("ij,ij->i", coef, coef)
    return (risks,)


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
    _check_nonzero(dn, start, "functional denominator")
    # estimate - u = X^u + D log F, with D log F = sum_{k<=n} (a c_k/D_n) e_k
    corr = (a / dn)[:, None] * c
    err = eta  # in place: eta is not read again
    err *= SineBasis(sigma, T, n_basis).eigenvalues()
    err[:, :n] += corr
    risk = np.einsum("ij,ij->i", err, err)

    delta_f, delta_sqrt, grad = stein_closed_forms(n, a, dn)
    dlog = a * (n - 2) / dn
    r = cramer_rao_bound(sigma, T)
    chain = 4.0 * delta_sqrt - 2.0 * delta_f + grad

    forms = np.zeros(count)
    if a == 2 - n:
        # James-Stein form -(n-2) proj/||proj||^2, with ||proj||^2 integrated
        # on the grid through the Gram matrix of the first n sine rows
        grid = TimeGrid(grid_m, T)
        e_n = SineBasis(sigma, T, n).orthonormal_matrix(grid.points)
        gram = (e_n * grid.trapezoid_weights()) @ e_n.T
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
    qw = grid.trapezoid_weights()
    sqdt = math.sqrt(grid.dt)
    sigma_profile = VolatilityProfile.constant(params.sigma)
    lefts = grid.points[:-1]
    sig_left = sigma_profile.value(lefts) * sqdt
    tau_left = spec.tau.value(lefts) * sqdt
    drift = (spec.v if u is None else u).values(grid.points, params)
    # m noise increments, then m prior-drift increments when u is drawn;
    # the streams are prefix-stable, so a fixed drift just draws fewer
    dim = 2 * m if u is None else m
    risks = np.empty(count)
    # _SUB_CHUNK replicates at a time; each sub-chunk's draws, paths and
    # posterior curve are fresh arrays
    for off in range(0, count, _SUB_CHUNK):
        sub = min(_SUB_CHUNK, count - off)
        draws = _noise_block(seed, start + off, sub, dim)
        u_vals = drift
        if u is None:
            u_vals = _from_zero(draws[:, m:], tau_left)
            u_vals += drift
        # the martingale part is built from grid increments here (exact in
        # distribution at the nodes), so no basis truncation enters
        x = _from_zero(draws[:, :m], sig_left)
        x += u_vals
        err = posterior_drift_curve(x, spec.v, spec.tau, sigma_profile, grid, params)
        err -= u_vals  # in place: the curve is a fresh array
        err *= err
        risks[off:off + sub] = err @ qw
    return (risks,)


def _from_zero(inc, scale):
    """Node values of paths that start at 0 and have the grid increments
    inc * scale; inc is scaled in place."""
    inc *= scale
    out = np.empty((inc.shape[0], inc.shape[1] + 1))
    out[:, 0] = 0.0
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def _gain_block(start, count, *, seed, n_max, rho):
    # one gain column per entry of the tuple rho, all from the same draws
    z = _noise_block(seed, start, count, n_max)
    ell = np.arange(1, n_max + 1)
    w = math.pi * (ell - 0.5)
    return tuple(_gain_column(z, w, -r * (-1.0) ** ell, start) for r in rho)


def _gain_column(z, w, delta, start):
    """Per-replicate gains n = 3..n_max from the draws z at offsets delta."""
    terms = (w * z + delta) ** 2
    # n = 3 is conditioned on coordinates 2 and 3: with Y = w_1 z_1 + delta_1
    # and r^2 = their terms, E[1/(Y^2 + r^2) | r] is a Voigt profile
    r = np.sqrt(terms[:, 1] + terms[:, 2])
    s = np.cumsum(terms, axis=1, out=terms)[:, 2:]  # in place: no extra count x n_max array
    # every denominator, conditioned or raw, is at least r^2
    _check_nonzero(r, start, "gain denominator")
    g = 2.0 * (np.arange(3, z.shape[1] + 1) - 2) ** 2 / s
    g[:, 0] = 2.0 * _conditional_inverse_moment(delta[0], w[0], r)
    return g


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
    _check_nonzero(q, start, "denominator")
    return ((32.0 / math.pi**2) / q,)


# ---------------------------------------------------------------------------
# public operations


def _stein_worker(fnl, u, params, seed, n_basis, grid_m, lambda_scale=1.0):
    # F_{n,a,b} reads the first n coefficients of each replicate
    if fnl.n > n_basis:
        raise ValueError(f"functional dimension n={fnl.n} exceeds n_basis={n_basis}")
    return partial(_stein_block, seed=seed, params=params, n_basis=n_basis, grid_m=grid_m,
                   fnl=fnl, b=fnl.offsets(u, params), lambda_scale=lambda_scale)


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
        worker = _stein_worker(estimator, u, params, seed, n_basis, grid_m)
        label = "stein-risk"
    elif isinstance(estimator, BayesSpec):
        check_breakpoints(params.T, estimator.tau)
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
    lambda_scale != 1 is a fault-injection hook for negative controls; it
    must be positive.

    The risk and bias rows are coefficient sums and do not depend on
    grid_m; the correction-forms row integrates the James-Stein norm on
    the grid_m-interval grid, as an independent cross-check.
    """
    if not lambda_scale > 0:
        raise ValueError(f"lambda_scale must be positive, got {lambda_scale}")
    worker = _stein_worker(fnl, u, params, seed, n_basis, grid_m, lambda_scale)
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


def _gain_moments(alpha, models, n_max, reps, seed, workers):
    """Moments of the gain columns n = 3..n_max at each (sigma, T) of models,
    all from one set of draws; the gain depends on the model (checked here)
    only through rho = alpha sqrt(2T)/sigma."""
    if n_max < 3:
        raise ValueError(f"need n >= 3, got {n_max}")
    rho = []
    for sigma, T in models:
        params = ModelParams(sigma=sigma, T=T, alpha=alpha)
        rho.append(params.alpha * math.sqrt(2.0 * params.T) / params.sigma)
    worker = partial(_gain_block, seed=seed, n_max=n_max, rho=tuple(rho))
    return _run_blocks(worker, reps, workers)


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
    formula = _report(_gain_moments(alpha, [(sigma, T)], n, reps, seed, workers)[0], seed,
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
    return gain_curves(alpha, [(sigma, T)], n_max, reps, seed, workers=workers)[0]


def gain_curves(alpha, models, n_max, reps, seed, *, workers=1) -> tuple:
    """The gain_curve of every (sigma, T) in models, in order, from one pass
    over the replicates: each model's curve is bit for bit its own
    gain_curve call, but the draws are made once."""
    curves = []
    for (sigma, T), m in zip(models, _gain_moments(alpha, models, n_max, reps, seed, workers)):
        rows = tuple(GainPoint(n=n, gain_mean=float(mean), gain_stderr=float(se))
                     for n, mean, se in zip(range(3, n_max + 1), m.mean, m.stderr))
        curves.append(GainCurve(alpha=alpha, sigma=sigma, T=T, reps=reps, seed=seed, rows=rows))
    return tuple(curves)


def optimal_n_search(alpha, sigma, T, n_max, reps, seed, *, workers=1):
    """Argmax of the gain curve (ties toward smaller n) with the curve itself."""
    curve = gain_curve(alpha, sigma, T, n_max, reps, seed, workers=workers)
    return curve.n_opt, curve


def gain_large_sigma_limit(n, reps, seed, *, workers=1) -> RiskReport:
    """Limit gain (n-2)^2 (8/pi^2) E[(sum_{l<=n} (2l-1)^2 eta_l^2)^{-1}].

    Identical to the gain formula with the drift offsets removed, which is
    how it is evaluated here (same streams, rho = 0).
    """
    m = _gain_moments(0.0, [(1.0, 1.0)], n, reps, seed, workers)[0]  # alpha = 0: rho = 0
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
    rep = _report(_gain_moments(alpha, [(sigma, T)], n, reps, seed, workers)[0], seed,
                  "asymptotic-gain-ratio", -1)
    scale = n * math.pi**2 / 6.0
    return RiskReport(mean=scale * rep.mean, stderr=scale * rep.stderr,
                      reps=reps, seed=seed, label="asymptotic-gain-ratio")
