"""Monte Carlo risk measurement and identity cross-checks.

Replicates are partitioned into fixed-size blocks; block results are
reduced in replicate-index order, so every report is bit-reproducible
from (seed, reps, grid, n_basis) regardless of the worker count, and of
whether a process pool ran the blocks: `_run_blocks` starts one only for a
run of at least two tasks that draws at least `_POOL_NORMALS` normals.

No SciPy module is loaded here: the Faddeeva function of the n = 3 gain
column is `_faddeeva`, NumPy code, so importing driftlab and every gain call
(serial, or in a pool's workers) load no SciPy. `_run_blocks` builds the
noise tables (`process_sim._array_tables`) in the calling process before a
pool forks, so that the workers inherit them.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .estimators import (
    BayesSpec,
    CylindricalFunctional,
    posterior_drift_curve,
    stein_closed_forms,
    stein_terms,
)
from .process_sim import (
    DriftSpec,
    ModelParams,
    SineBasis,
    TimeGrid,
    VolatilityProfile,
    _array_tables,
    _check_nonzero,
    _noise_block,
    check_breakpoints,
    nested_integral,
    noise_stream,  # noqa: F401 (not called here: perfbench/spans.py wraps this name)
)

# block size fixed: the replicate partition must not depend on workers
_BLOCK = 4096
# a pool's unit of work is _TASK or 2 _TASK replicates, whichever first draws
# _TASK_NORMALS normals, or else a whole _BLOCK: each a multiple of _SUB_CHUNK
# that divides _BLOCK, so a task's sub-chunks start where the whole block's do
_TASK = 1024
_TASK_NORMALS = 2**20
# a run that draws fewer normals than this runs in-process: a fork, and the
# tasks' traffic, cost more than a second worker saves
_POOL_NORMALS = 2 * _TASK_NORMALS

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


def _joined(done, count, task):
    """The columns of the next block of count replicates, joined in replicate
    order from the results of its tasks of task replicates."""
    parts = [next(done) for _ in range(0, count, task)]
    return [np.concatenate(col) for col in zip(*parts)]


def _task_size(width):
    """Replicates per pool task for a worker that draws width normals a
    replicate."""
    return next((t for t in (_TASK, 2 * _TASK) if t * width >= _TASK_NORMALS), _BLOCK)


def _run_blocks(worker, reps, workers, width):
    """Run worker(start, count) over the fixed blocks and return one _Moments
    per per-replicate column it returns; width is the number of normals the
    worker draws a replicate.

    A pool starts only when at least two processes would run (capped at the
    task count and at os.cpu_count()) and the run draws at least
    _POOL_NORMALS normals. It runs tasks of _task_size(width) replicates and
    ships their per-replicate columns to the parent, which joins each block's
    columns in replicate order. Otherwise each block is one worker call in
    this process. Either way every whole block is reduced along its replicate
    axis by the same code, and the block partials are added in block order,
    so the result does not depend on the worker count."""
    if reps < 2:
        raise ValueError("need reps >= 2")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    bounds = [(s, min(_BLOCK, reps - s)) for s in range(0, reps, _BLOCK)]
    task = _task_size(width)
    tasks = [(s + o, min(task, c - o)) for s, c in bounds for o in range(0, c, task)]
    pool_size = min(workers, len(tasks), os.cpu_count() or 1)
    if pool_size > 1 and reps * width >= _POOL_NORMALS:
        # built here, the noise tables are inherited by the forked workers
        _array_tables()
        with ProcessPoolExecutor(max_workers=pool_size) as ex:
            done = ex.map(worker, *zip(*tasks), chunksize=1)
            parts = [_block_moments(_joined(done, c, task)) for _, c in bounds]
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


def _stein_block(start, count, *, seed, params, n_basis, fnl, b, grid_m=None,
                 lambda_scale=1.0):
    """The Stein risk of F_{n,a,b} per replicate, from the first n draws of
    each replicate; with grid_m (identity_suite) also the identity columns.

    estimate - u = X^u + D log F, with D log F = sum_{k<=n} (a c_k/D_n) e_k.
    The modes n < k <= n_basis enter the truncated loss only through
    sum_k lambda_k^2 eta_k^2, which is independent of the correction; it is
    replaced by its exact mean sum_k lambda_k^2 (conditional Monte Carlo), so
    only n normals a replicate are drawn. grid_m is read only by the
    correction-forms cross-check; without it the risk column alone is formed.

    With grid_m the block returns six columns: the risk; the one paired
    difference risk - R - a^2/D - 2a(n-2)/D of the risk identity; ||D log F||^2
    (the bias bound's right side); per replicate, the largest gap between the
    unbiased form a^2/D + 2a(n-2)/D and each superharmonic rewrite of it
    (4 Delta sqrt(F)/sqrt(F), 2 Delta F/F - ||D log F||^2 and, at a = 2-n,
    -||D log F||^2); the correction-forms deviation (zero off a = 2-n); and
    the correction coefficients.
    """
    n, a = fnl.n, fnl.a
    sigma, T = params.sigma, params.T
    eta = _noise_block(seed, start, count, n)
    lam = SineBasis(sigma, T, n_basis).eigenvalues()
    # the test hook corrupts the eigenvalues only where coefficients are
    # formed; the error coefficients and the tail stay honest, so a scale
    # != 1 breaks the pairing the identities rely on
    c, dn, corr = stein_terms(eta, lam[:n] * lambda_scale, b, a, start)
    err = eta  # in place: eta is not read again
    err *= lam[:n]
    err += corr
    risk = np.einsum("ij,ij->i", err, err)
    tail = lam[n:]
    risk += tail @ tail
    if grid_m is None:
        return (risk,)

    delta_f, delta_sqrt, grad = stein_closed_forms(n, a, dn)
    dlog = a * (n - 2) / dn
    # the risk identity: risk = R + E[term], term = a^2/D + 2a(n-2)/D
    paired = risk - cramer_rao_bound(sigma, T) - grad - 2.0 * dlog
    # the superharmonic rewrites of term, each checked against it pathwise
    term = grad + 2.0 * dlog
    rewrites = [4.0 * delta_sqrt, 2.0 * delta_f - grad]

    forms = np.zeros(count)
    if a == 2 - n:
        rewrites.append(-grad)  # harmonic F: term = -||D log F||^2
        # James-Stein form -(n-2) proj/||proj||^2, with ||proj||^2 integrated
        # on the grid through the Gram matrix of the first n sine rows
        grid = TimeGrid(grid_m, T)
        e_n = SineBasis(sigma, T, n).orthonormal_matrix(grid.points)
        gram = (e_n * grid.trapezoid_weights()) @ e_n.T
        norms = np.einsum("ij,ij->i", c @ gram, c)
        js = (-(n - 2) / norms)[:, None] * c
        forms = np.abs(corr - js).max(axis=1)

    chain = np.abs(np.subtract(rewrites, term)).max(axis=0)
    return risk, paired, grad, chain, forms, corr


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


def _gain_block(start, count, *, seed, n_max, rho, last=False):
    # one gain column per entry of the tuple rho, all from the same draws
    z = _noise_block(seed, start, count, n_max)
    ell = np.arange(1, n_max + 1)
    w = math.pi * (ell - 0.5)
    return tuple(_gain_column(z, w, -r * (-1.0) ** ell, start, last) for r in rho)


def _gain_column(z, w, delta, start, last=False):
    """Per-replicate gains n = 3..n_max from the draws z at offsets delta;
    with last, the n = n_max gain alone."""
    # (w z + delta)^2 formed in one array: the same bits, a smaller peak
    terms = w * z
    terms += delta
    terms *= terms
    # n = 3 is conditioned on coordinates 2 and 3: with Y = w_1 z_1 + delta_1
    # and r^2 = their terms, E[1/(Y^2 + r^2) | r] is a Voigt profile
    r = np.sqrt(terms[:, 1] + terms[:, 2])
    s = np.cumsum(terms, axis=1, out=terms)[:, 2:]  # in place: no extra count x n_max array
    # every denominator, conditioned or raw, is at least r^2
    _check_nonzero(r, start, "gain denominator")
    n = np.arange(3, z.shape[1] + 1)
    if last:
        n, s = n[-1:], s[:, -1:]
    g = 2.0 * (n - 2) ** 2 / s
    if n[0] == 3:
        g[:, 0] = 2.0 * _conditional_inverse_moment(delta[0], w[0], r)
    if g.shape[1] == 1:
        # NumPy sums a lone column pairwise but each column of a wider array
        # in replicate order, the order the whole n = 3..n_max array was
        # summed in: two copies keep the means' bits
        g = np.repeat(g, 2, axis=1)
    return g


def _conditional_inverse_moment(delta, w, r):
    """E[1/(Y^2 + r^2)] for Y ~ N(delta, w^2) and r > 0: the Gaussian-Cauchy
    convolution, sqrt(pi/2)/(w r) Re w((delta + i r)/(w sqrt 2)), with w(.)
    the Faddeeva function."""
    return (math.sqrt(math.pi / 2) / (w * r)
            * _faddeeva((delta + 1j * r) / (w * math.sqrt(2.0))).real)


# _faddeeva's three forms: the continued fraction's depth and the radius past
# which it is used, Weideman's N, and the strip 0 <= Im z < _AXIS_BAND where
# the Taylor series about the real axis replaces Weideman's form
_CF_LEVELS = 20
_CF_RADIUS = 8.0
_WEIDEMAN_N = 40
_AXIS_BAND = 0.05
_TAYLOR_TERMS = 24
_EXP_TAIL = 27.3  # exp(-x^2) is 0 in double precision for |x| past this


def _faddeeva(z):
    """The Faddeeva function w(z) = exp(-z^2) erfc(-i z) of a complex array
    with Im z >= 0 (nan where z is not finite), to within about 1e-13
    relative on Re w and on |w|, elementwise: each value depends on its own
    z alone, whatever else the array holds. So no complex product is formed
    in place: NumPy multiplies a one-element array in place as a reduction,
    whose rounding differs from its elementwise loop's.

    Three forms, each used only where some z falls in its region:
    - |z| >= _CF_RADIUS: the Laplace continued fraction
      i/sqrt(pi) / (z - (1/2)/(z - (2/2)/(z - ...))), _CF_LEVELS deep and
      evaluated bottom-up; within _AXIS_BAND of the real axis, where a
      rational form misses it, exp(-z^2) is added (until it underflows);
    - elsewhere with Im z >= _AXIS_BAND: Weideman's rational form
      (SIAM J. Numer. Anal. 31(5), 1994) with N = _WEIDEMAN_N;
    - elsewhere: the Taylor series in i y about x = Re z, from
      w(x) = exp(-x^2) + i Im w(x) (the imaginary part from Weideman's form,
      whose real part cancels near the axis), w'(x) = -2x w(x) + 2i/sqrt(pi)
      and w^(n+1)(x) = -2x w^(n)(x) - 2n w^(n-1)(x), _TAYLOR_TERMS terms.
    """
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, complex(math.nan, math.nan))
    finite = np.isfinite(z)
    far = finite & (np.abs(z) >= _CF_RADIUS)
    if far.any():
        zf = z[far]
        t = zf
        for k in range(_CF_LEVELS, 0, -1):
            t = zf - (0.5 * k) / t
        wf = 1j / (math.sqrt(math.pi) * t)
        axis = (zf.imag < _AXIS_BAND) & (np.abs(zf.real) < _EXP_TAIL)
        if axis.any():
            wf[axis] += np.exp(-zf[axis] ** 2)
        out[far] = wf
    inner = finite & ~far
    if inner.any():
        zi = z[inner]
        axis = zi.imag < _AXIS_BAND
        x, y = zi.real[axis], zi.imag[axis]
        zi[axis] = x  # Weideman's form on the axis, for Im w(x) alone
        wi = _weideman(zi)
        if axis.any():
            wi[axis] = _axis_taylor(x, y, wi.imag[axis])
        out[inner] = wi
    return out


@cache
def _weideman_coefficients():
    """L and the polynomial coefficients (highest degree first) of Weideman's
    form, built once per process at its first use: a_j is the j-th cosine
    coefficient of f(t) = exp(-t^2) (L^2 + t^2) on the nodes
    t_k = L tan(k pi / 4N), |k| < 2N."""
    n = _WEIDEMAN_N
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    k = np.arange(-m + 1, m)
    t = scale * np.tan(k * (math.pi / (2 * m)))
    f = np.exp(-t * t) * (scale * scale + t * t)
    a = np.cos(np.outer(np.arange(n, 0, -1), k) * (math.pi / m)) @ f / (2 * m)
    a.flags.writeable = False  # cached: shared by every caller
    return scale, a


def _weideman(z):
    """Weideman's rational form of w(z) for Im z >= 0:
    2 p(Z)/(L - i z)^2 + 1/(sqrt(pi) (L - i z)), Z = (L + i z)/(L - i z)."""
    scale, a = _weideman_coefficients()
    d = scale - 1j * z
    zz = (scale + 1j * z) / d
    p = np.full(z.shape, complex(a[0]))
    for c in a[1:]:
        p = p * zz
        p += c
    return p * (2.0 / (d * d)) + (1.0 / math.sqrt(math.pi)) / d


def _axis_taylor(x, y, im_w):
    """w(x + i y) from the Taylor series in i y about the real point x, given
    Im w(x); term n is c_n = w^(n)(x) (i y)^n / n!, so that
    c_{n+1} = -2 i y/(n + 1) (x c_n + i y c_{n-1}) for n >= 1."""
    iy = 1j * y
    prev = np.exp(-x * x) + 1j * im_w
    term = (2j / math.sqrt(math.pi) - 2.0 * x * prev) * iy
    total = prev + term
    steps = (-2.0 * iy) / np.arange(2.0, _TAYLOR_TERMS)[:, None]
    for step in steps:
        nxt = (x * term + iy * prev) * step
        total += nxt
        prev, term = term, nxt
    return total


_CONST_WEIGHTS = np.array([1.0, 9.0, 25.0, 49.0])


def _const_block(start, count, *, seed):
    z = _noise_block(seed, start, count, 4)
    q = (z * z) @ _CONST_WEIGHTS
    _check_nonzero(q, start, "denominator")
    return ((32.0 / math.pi**2) / q,)


# ---------------------------------------------------------------------------
# public operations


def _stein_worker(fnl, u, params, seed, n_basis, grid_m, lambda_scale=1.0):
    # F_{n,a,b} reads the first n coefficients of each replicate; grid_m None
    # gives the risk column alone
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
    coefficients; grid_m reaches only the Bayes risk, which is integrated
    on the grid_m-interval grid. The efficient risk draws all n_basis
    coefficients. The Stein risk draws the first n, which its correction
    reads, and adds the exact mean sum_{n<k<=n_basis} lambda_k^2 of the
    truncated tail in place of its draws: the same expectation, from n
    normals a replicate, and only the risk column of the Stein block is
    formed.
    """
    if estimator == "efficient":
        worker = partial(_efficient_block, seed=seed, params=params, n_basis=n_basis)
        label, width = "efficient-risk", n_basis
    elif isinstance(estimator, CylindricalFunctional):
        worker = _stein_worker(estimator, u, params, seed, n_basis, None)
        label, width = "stein-risk", estimator.n
    elif isinstance(estimator, BayesSpec):
        check_breakpoints(params.T, estimator.tau)
        worker = partial(_bayes_block, seed=seed, grid_m=grid_m, spec=estimator,
                         params=params, u=None if prior_drift else u)
        label, width = "bayes-risk", 2 * grid_m if prior_drift else grid_m
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return _report(_run_blocks(worker, reps, workers, width)[0], seed, label)


def sample_average_risk(group_size, params, reps, seed, *, n_basis=1024,
                        workers=1) -> RiskReport:
    """Risk of the N-sample average path over reps independent groups."""
    if group_size < 1:
        raise ValueError("need group_size >= 1")
    worker = partial(_efficient_block, seed=seed, params=params, n_basis=n_basis,
                     group=group_size)
    return _report(_run_blocks(worker, reps, workers, n_basis * group_size)[0], seed,
                   f"average-of-{group_size}-risk")


def identity_suite(fnl: CylindricalFunctional, u: DriftSpec, params: ModelParams,
                   reps, seed, *, grid_m=2048, n_basis=1024, workers=1,
                   lambda_scale=1.0) -> IdentityReport:
    """All paired risk-identity checks in one common-random-number pass.

    Monte Carlo rows compare the measured risk against a closed-form right
    side replicate by replicate; they pass when |mean difference| <= 3
    paired stderr.  Pathwise rows bound exact algebraic identities by
    1e-10.

    The Monte Carlo rows are one paired variable: the unbiased, sqrt-Laplacian,
    log-gradient and (at a = 2-n) harmonic forms of the term
    E[a^2/D + 2a(n-2)/D] that the risk adds to R are algebraic rewrites of each
    other, so every row prints the moments of risk - R - a^2/D - 2a(n-2)/D
    (the same lhs, rhs and paired_stderr). The chain-rule row checks the
    rewrites instead: it is the largest gap, over replicates and forms,
    between each rewrite and the unbiased form, so a wrong closed form fails
    it pathwise.  The bias row checks ||E corr||^2 <= E||D log F||^2.
    lambda_scale != 1 is a fault-injection hook for negative controls; it
    must be positive.

    The risk and bias rows are coefficient sums and do not depend on
    grid_m; the correction-forms row integrates the James-Stein norm on
    the grid_m-interval grid, as an independent cross-check. Its trapezoid
    Gram matrix of the first n sine rows is exact only for n <= grid_m, so a
    James-Stein functional with grid_m < n raises ValueError before any draw
    (after the n <= n_basis check). Each replicate
    draws its first n coefficients; the risk's modes n < k <= n_basis enter
    as the exact tail mean sum_k lambda_k^2 (see mc_risk), which cancels
    from every paired difference.

    The pathwise rows are measured in the units of their terms, so that
    rounding is judged against the same bound at every scale: the
    correction-forms row's lhs is the largest deviation divided by sigma T
    (the scale of the correction), and the chain-rule row's by (sigma T)^2
    (the scale of its 1/D terms).
    """
    if not lambda_scale > 0:
        raise ValueError(f"lambda_scale must be positive, got {lambda_scale}")
    worker = _stein_worker(fnl, u, params, seed, n_basis, grid_m, lambda_scale)
    if fnl.is_james_stein and grid_m < fnl.n:
        # the trapezoid Gram matrix of the first n sine rows is exact only
        # for n <= grid_m
        raise ValueError(f"the James-Stein norm at n={fnl.n} needs grid_m >= n, "
                         f"got grid_m={grid_m}")
    risk, d, grad, chain, forms, corr = _run_blocks(worker, reps, workers, fnl.n)

    names = ["unbiased-risk", "sqrt-laplacian-risk", "log-gradient-risk"]
    if fnl.is_james_stein:
        names.append("harmonic-risk")  # the harmonic form only collapses at a = 2-n
    rows = [IdentityRow(name=name, lhs=risk.mean, rhs=risk.mean - d.mean,
                        paired_stderr=d.stderr, passed=bool(abs(d.mean) <= 3.0 * d.stderr))
            for name in names]
    scale = params.sigma * params.T
    pathwise = [("chain-rule-pathwise", chain, scale * scale)]
    if fnl.is_james_stein:
        pathwise.append(("correction-forms-pathwise", forms, scale))
    for name, dev, unit in pathwise:
        peak = dev.peak / unit
        rows.append(IdentityRow(
            name=name, lhs=peak, rhs=0.0,
            paired_stderr=0.0, passed=bool(peak <= _PATHWISE_BOUND),
        ))
    bias_sq = corr.mean @ corr.mean
    rows.append(IdentityRow(
        name="bias-bound", lhs=bias_sq, rhs=grad.mean, paired_stderr=grad.stderr,
        passed=bool(bias_sq <= grad.mean + 3.0 * grad.stderr),
    ))
    return IdentityReport(rows=tuple(rows), reps=reps, seed=seed, fnl=fnl)


def _gain_moments(alpha, models, n_max, reps, seed, workers, last=False):
    """Moments of the gain columns n = 3..n_max at each (sigma, T) of models,
    all from one set of draws; the gain depends on the model (checked here)
    only through rho = alpha sqrt(2T)/sigma. With last, only the n = n_max
    column is formed and reduced."""
    if n_max < 3:
        raise ValueError(f"need n >= 3, got {n_max}")
    rho = []
    for sigma, T in models:
        params = ModelParams(sigma=sigma, T=T, alpha=alpha)
        rho.append(params.alpha * math.sqrt(2.0 * params.T) / params.sigma)
    worker = partial(_gain_block, seed=seed, n_max=n_max, rho=tuple(rho), last=last)
    return _run_blocks(worker, reps, workers, n_max)


def _gain_report(alpha, sigma, T, n, reps, seed, workers, label):
    """The RiskReport of the gain at n alone, the column the scalar gains
    report."""
    m = _gain_moments(alpha, [(sigma, T)], n, reps, seed, workers, last=True)[0]
    return _report(m, seed, label, -1)


def gain(alpha, sigma, T, n, reps, seed, *, include_risk_difference=True,
         n_basis=1024, workers=1) -> GainEstimate:
    """Superefficiency gain G at one n, by closed formula and by risk difference.

    The formula path evaluates
    2 (n-2)^2 E[(sum_{l<=n} (pi (l-1/2) eta_l - alpha sqrt(2T)/sigma (-1)^l)^2)^{-1}];
    the risk-difference path, (R - mc_risk(stein, a=2-n))/R, forms only the
    Stein block's risk column: the first n coordinates of each replicate, drawn,
    plus the exact mean of the modes n < k <= n_basis (no grid). It shares the
    seed, so both paths read the same first n coordinates of each replicate.

    At n = 3 the raw replicate 2/Q has infinite variance (P(Q < e) ~ e^{3/2}),
    so the formula path integrates the first coordinate out in closed form:
    with w_l = pi (l - 1/2), delta_l = -alpha sqrt(2T)/sigma (-1)^l and
    r^2 = sum_{l=2,3} (w_l eta_l + delta_l)^2, each replicate contributes
    2 sqrt(pi/2)/(w_1 r) Re w((delta_1 + i r)/(w_1 sqrt 2)), w the Faddeeva
    function. Same draws, same mean; the tail of the replicate value goes
    from x^{-3/2} to x^{-2}, so its variance is log-divergent rather than
    grossly infinite. The n >= 4 replicates, of finite variance, stay raw.
    """
    formula = _gain_report(alpha, sigma, T, n, reps, seed, workers, "gain-formula")
    risk_difference = None
    if include_risk_difference:
        params = ModelParams(sigma=sigma, T=T, alpha=alpha)
        fnl = CylindricalFunctional(n=n, a=float(2 - n))
        stein = mc_risk(fnl, DriftSpec.linear(alpha), params, reps, seed,
                        n_basis=n_basis, workers=workers)
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
    return _gain_report(0.0, 1.0, 1.0, n, reps, seed, workers, "gain-large-sigma-limit")


def universal_constant(reps, seed, *, workers=1) -> RiskReport:
    """The constant (32/pi^2) E[1/(x^2 + 9y^2 + 25z^2 + 49r^2)] ~ 0.1138.

    Equals the large-volatility gain limit at n = 4; the Gaussian
    expectation runs over standard-normal 4-vectors.
    """
    m = _run_blocks(partial(_const_block, seed=seed), reps, workers, 4)[0]
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
    rep = _gain_report(alpha, sigma, T, n, reps, seed, workers, "asymptotic-gain-ratio")
    scale = n * math.pi**2 / 6.0
    return RiskReport(mean=scale * rep.mean, stderr=scale * rep.stderr,
                      reps=reps, seed=seed, label="asymptotic-gain-ratio")
