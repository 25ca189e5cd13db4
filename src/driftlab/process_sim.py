"""Sine-basis path simulation for drifted Brownian observations.

The observation model is X_t = X^u_t + u_t on [0, T], where X^u is a
centered Gaussian martingale with quadratic variation sigma^2 dt and u is a
deterministic drift with square-integrable derivative and u(0) = 0.  X^u is
simulated by the truncated expansion

    X^u_t = sigma * (sqrt(2T)/pi) * sum_n eta_n sin((n-1/2) pi t / T) / (n-1/2)

with i.i.d. standard normal coefficients eta_n drawn from counter-based
substreams, so every replicate is reproducible independently of execution
order or worker count.

Only NumPy is imported at load time. SciPy's DST (`SineBasis.synthesize`)
is imported at its first use, so a run that projects no path never loads
SciPy. `cumulative_trapezoid` is written in NumPy with SciPy's arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox


class DegenerateSampleError(RuntimeError):
    """A probability-zero configuration was hit (e.g. a zero denominator)."""

    def __init__(self, message, replicate=None):
        super().__init__(message)
        self.replicate = replicate


def _check_nonzero(denom, start, label):
    """Raise DegenerateSampleError naming the first replicate of the block
    starting at start whose denominator is zero."""
    zero = np.flatnonzero(denom == 0.0)
    if zero.size:
        bad = start + int(zero[0])
        raise DegenerateSampleError(f"zero {label} at replicate {bad}", replicate=bad)


@dataclass(frozen=True)
class ModelParams:
    """Scalar model constants: volatility sigma, horizon T, linear slope alpha."""

    sigma: float = 1.0
    T: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (self.T > 0):
            raise ValueError(f"T must be positive, got {self.T}")


@dataclass(frozen=True)
class VolatilityProfile:
    """Piecewise-constant volatility level s -> sigma_s on [0, T].

    `levels` holds one strictly positive value per segment; `breakpoints`
    holds the interior segment boundaries in strictly increasing order.
    A single level with no breakpoints is the constant profile.  The
    breakpoints must lie strictly inside (0, T); T is not stored here,
    so `check_breakpoints` tests it wherever a profile meets a horizon.
    """

    levels: tuple
    breakpoints: tuple = ()

    def __post_init__(self):
        levels = tuple(float(v) for v in self.levels)
        breaks = tuple(float(b) for b in self.breakpoints)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "breakpoints", breaks)
        if len(levels) != len(breaks) + 1:
            raise ValueError("need exactly one more level than breakpoints")
        if any(v <= 0 for v in levels):
            raise ValueError("volatility levels must be strictly positive")
        if any(b <= 0 for b in breaks):
            raise ValueError("breakpoints must be strictly positive")
        if list(breaks) != sorted(set(breaks)):
            raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, level):
        return cls(levels=(float(level),))

    @property
    def is_constant(self):
        return not self.breakpoints

    def value(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(np.asarray(self.breakpoints), t, side="right")
        return np.asarray(self.levels, dtype=float)[idx]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_M = T with spacing exactly T/M."""

    M: int
    T: float = 1.0
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"grid needs at least 2 intervals, got M={self.M}")
        if not (self.T > 0):
            raise ValueError(f"T must be positive, got {self.T}")
        pts = np.linspace(0.0, self.T, self.M + 1)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dt(self):
        return self.T / self.M

    def trapezoid_weights(self):
        w = np.full(self.M + 1, self.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class DriftSpec:
    """Deterministic drift u with u(0) = 0 and square-integrable derivative.

    Three representations are supported: a linear ramp u_t = slope * t, a
    finite combination of basis functions u = sum_k coeffs[k] h_k, or a
    tabulated derivative sampled on a uniform grid.  Random (adapted) drifts
    are not representable here on purpose.
    """

    kind: str
    slope: float = 0.0
    coeffs: tuple = ()
    du: np.ndarray | None = None
    du_grid: TimeGrid | None = None

    @classmethod
    def linear(cls, slope):
        return cls(kind="linear", slope=float(slope))

    @classmethod
    def zero(cls):
        return cls(kind="linear", slope=0.0)

    @classmethod
    def from_coefficients(cls, coeffs):
        return cls(kind="coefficients", coeffs=tuple(float(c) for c in coeffs))

    @classmethod
    def from_tabulated_derivative(cls, du, grid):
        du = np.asarray(du, dtype=float)
        if du.shape != (grid.M + 1,):
            raise ValueError("tabulated derivative must have one value per grid point")
        if not np.all(np.isfinite(du)):
            raise ValueError("tabulated derivative must be finite-valued")
        return cls(kind="tabulated", du=du, du_grid=grid)

    def __post_init__(self):
        if self.kind not in ("linear", "coefficients", "tabulated"):
            raise ValueError(f"unknown drift kind {self.kind!r}")

    def values(self, t, params):
        """u evaluated at times t (u(0) = 0 in every representation)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            return self.slope * t
        if self.kind == "coefficients":
            # u = sum_k c_k h_k with h_k = lambda_k e_k / sigma^2
            basis, c = self._basis(params)
            weights = c * basis.eigenvalues() / params.sigma**2
            return (weights @ basis.orthonormal_matrix(t)).reshape(t.shape)
        # tabulated: cumulative trapezoid of the stored derivative
        u = cumulative_trapezoid(self.du, self.du_grid.dt)
        return np.interp(t, self.du_grid.points, u)

    def derivative_values(self, t, params):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            return np.full_like(t, self.slope)
        if self.kind == "coefficients":
            basis, c = self._basis(params)
            return (c @ basis.derivative_matrix(t)).reshape(t.shape)
        return np.interp(t, self.du_grid.points, self.du)

    def _basis(self, params):
        # an empty combination is the zero drift: one zero-weighted mode
        c = np.asarray(self.coeffs or (0.0,))
        return SineBasis(params.sigma, params.T, c.size), c


# ---------------------------------------------------------------------------
# sine basis


@dataclass(frozen=True)
class SineBasis:
    """The Karhunen-Loeve system of X^u for fixed (sigma, T), modes k = 1..max_index.

        lambda_k       = sigma T / (pi (k - 1/2))                 eigenvalues, decreasing
        e_k(t)         = sqrt(2/T) sin((k - 1/2) pi t / T)        orthonormal in L^2(dt)
        h_k(t)         = lambda_k e_k(t) / sigma^2                Cameron-Martin functions
        (Gamma h_k)(t) = sigma^2 h_k(t) = lambda_k e_k(t)
        dh_k/dt        = (1/sigma) sqrt(2/T) cos((k - 1/2) pi t / T)

    so <h_j, h_k> = int dh_j/dt dh_k/dt dt = delta_jk / sigma^2.  The matrix
    methods take an array of times in [0, T] and return one row per mode;
    `synthesize` evaluates a combination of modes on a uniform grid without
    forming that matrix.
    """

    sigma: float
    T: float
    max_index: int

    def __post_init__(self):
        if self.max_index < 1:
            raise ValueError("max_index must be >= 1")
        if self.sigma <= 0 or self.T <= 0:
            raise ValueError("sigma and T must be positive")

    def eigenvalues(self):
        k = np.arange(1, self.max_index + 1)
        return self.sigma * self.T / (np.pi * (k - 0.5))

    def orthonormal_matrix(self, t):
        """Rows e_k(t_i) for k = 1..max_index."""
        return math.sqrt(2.0 / self.T) * np.sin(self._phases(t))

    def derivative_matrix(self, t):
        """Rows dh_k/dt (t_i) for k = 1..max_index."""
        return (1.0 / self.sigma) * math.sqrt(2.0 / self.T) * np.cos(self._phases(t))

    def synthesize(self, coef, grid):
        """Grid values sum_k coef[..., k-1] e_k(t_i), i = 0..M, of any number of modes.

        On the nodes t_i = i T/M the modes are a discrete sine transform:
        for i = 1..M,

            sum_{k<=K} c_k e_k(t_i) = sqrt(2/T)/2 * DST-II(c zero-padded to M)[i-1],

        and the value at t_0 is 0 exactly.  Mode index j = k-1 >= M aliases
        onto 0..M-1: the node phases have period 2M in j, and j and 2M-1-j
        take opposite signs, so such modes are folded in before the one
        O(M log M) transform.  coef may carry leading batch axes; the
        number of modes is coef.shape[-1] and is not bounded by M.
        """
        from scipy.fft import dst  # loaded at first use: import driftlab needs no SciPy

        if grid.T != self.T:
            raise ValueError(f"grid horizon {grid.T} differs from the basis horizon {self.T}")
        coef = np.asarray(coef, dtype=float)
        m, k = grid.M, coef.shape[-1]
        if k > m:
            periods = -(-k // (2 * m))
            pad = [(0, 0)] * (coef.ndim - 1) + [(0, 2 * m * periods - k)]
            wrapped = np.pad(coef, pad).reshape(*coef.shape[:-1], periods, 2 * m).sum(axis=-2)
            coef = wrapped[..., :m] - wrapped[..., :m - 1:-1]
        out = np.empty(coef.shape[:-1] + (m + 1,))
        out[..., 0] = 0.0
        out[..., 1:] = dst(coef, type=2, n=m, axis=-1)
        out[..., 1:] *= 0.5 * math.sqrt(2.0 / self.T)
        return out

    def _phases(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.T):
            raise ValueError("time outside [0, T]")
        k = np.arange(1, self.max_index + 1)
        return np.outer((k - 0.5) * np.pi / self.T, t)


def drift_inner_products(u, n, params):
    """Vector of unweighted pairings <u, h_k> = int_0^T du/ds dh_k/ds ds, k = 1..n.

    Uses the closed form for linear drifts, the exact coefficients for
    basis-combination drifts, and composite trapezoid quadrature for
    tabulated derivatives.
    """
    if u.kind == "linear":
        k = np.arange(1, n + 1)
        signs = np.where(k % 2 == 1, 1.0, -1.0)
        return u.slope * math.sqrt(2.0 * params.T) / params.sigma * signs / (
            np.pi * (k - 0.5)
        )
    if u.kind == "coefficients":
        return np.concatenate((u.coeffs, np.zeros(n)))[:n] / params.sigma**2
    grid = u.du_grid
    hdot = SineBasis(params.sigma, params.T, n).derivative_matrix(grid.points)
    return np.trapezoid(u.du * hdot, dx=grid.dt, axis=1)


# ---------------------------------------------------------------------------
# simulation


def noise_stream(seed, replicate):
    """Counter-based substream for one replicate, keyed by (seed, replicate).

    Each (seed, replicate) pair owns a disjoint Philox counter space, so the
    draw for coefficient j of replicate r is a pure function of
    (seed, r, j) no matter how many replicates run, or in what order.
    This is the definition of a replicate's draws: the risk engine draws a
    block from one such Generator, re-keyed per replicate, and reproduces
    it bit for bit.
    """
    if seed < 0 or seed >= 2**64:
        raise ValueError("seed must fit an unsigned 64-bit integer")
    if replicate < 0 or replicate >= 2**64:
        raise ValueError("replicate index must fit an unsigned 64-bit integer")
    key = np.array([seed, replicate], dtype=np.uint64)
    return Generator(Philox(key=key))


def simulate_noise(seed, replicate, n_basis):
    """n_basis i.i.d. standard normal coefficients for one replicate."""
    if n_basis < 1:
        raise ValueError("n_basis must be >= 1")
    return noise_stream(seed, replicate).standard_normal(n_basis)


def reconstruct_path(eta, grid, params, n_basis=None):
    """Evaluate the truncated expansion X^u on the grid; X^u_0 = 0 exactly.

    X^u(t_i) = sum_{k<=n_basis} lambda_k eta_k e_k(t_i) is one DST-II of
    the coefficients lambda * eta (see SineBasis.synthesize), so a
    replicate costs O(M log M) time and O(M) memory.  n_basis may exceed
    the grid size M: modes past M alias onto the first M and are folded
    in.  eta may carry leading batch axes.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.size == 0:
        raise ValueError("eta must contain at least one coefficient")
    if n_basis is None:
        n_basis = eta.shape[-1]
    if n_basis > eta.shape[-1]:
        raise ValueError(f"n_basis={n_basis} exceeds the {eta.shape[-1]} coefficients given")
    basis = SineBasis(params.sigma, params.T, n_basis)
    return basis.synthesize(eta[..., :n_basis] * basis.eigenvalues(), grid)


@dataclass(frozen=True)
class PathSample:
    """One simulated replicate: noise coefficients and grid values of X^u, u, X."""

    eta: np.ndarray
    xu: np.ndarray
    u: np.ndarray
    x: np.ndarray
    grid: TimeGrid
    params: ModelParams
    drift: DriftSpec
    seed: int
    replicate_index: int

    @property
    def n_basis(self):
        return self.eta.shape[0]


def observed_path(xu, u, grid, params, eta=None, seed=0, replicate=0):
    """Complete a simulated noise path into an observation X = X^u + u."""
    xu = np.asarray(xu, dtype=float)
    if xu.shape != (grid.M + 1,):
        raise ValueError("xu must have one value per grid point")
    u_vals = u.values(grid.points, params)
    x = xu + u_vals
    if eta is None:
        eta = np.empty(0)
    return PathSample(
        eta=np.asarray(eta, dtype=float),
        xu=xu,
        u=u_vals,
        x=x,
        grid=grid,
        params=params,
        drift=u,
        seed=seed,
        replicate_index=replicate,
    )


def simulate_path(seed, replicate, u, params, grid, n_basis):
    """Draw one replicate and assemble the full PathSample."""
    eta = simulate_noise(seed, replicate, n_basis)
    xu = reconstruct_path(eta, grid, params)
    return observed_path(xu, u, grid, params, eta=eta, seed=seed, replicate=replicate)


def observed_coefficient(sample, u, k, params=None, method="identity"):
    """lambda_k^{-1} X(h_k), the k-th observable coefficient of the path.

    method="identity" uses X^u(h_k) = eta_k, exact in the truncated model.
    method="quadrature" recomputes X(h_k) = int dh_k/dt dX by left-point
    Riemann-Stieltjes sums over the stored grid path, which carries
    truncation plus discretization error and is meant for cross-checking.
    """
    params = sample.params if params is None else params
    basis = SineBasis(params.sigma, params.T, k)
    lam = basis.eigenvalues()[-1]
    if method == "identity":
        if k > sample.n_basis:
            raise ValueError(f"coefficient {k} beyond simulated n_basis={sample.n_basis}")
        return (sample.eta[k - 1] + drift_inner_products(u, k, params)[-1]) / lam
    if method == "quadrature":
        hdot = basis.derivative_matrix(sample.grid.points[:-1])[-1]
        increments = np.diff(sample.x)
        return float(np.sum(hdot * increments)) / lam
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# integrals shared by the estimators, the filter and the risk engine


def check_breakpoints(T, *profiles):
    """Raise ValueError unless every profile's breakpoints lie strictly inside (0, T)."""
    if any(p.breakpoints and p.breakpoints[-1] >= T for p in profiles):
        raise ValueError("breakpoints must lie strictly inside (0, T)")


def profile_segments(T, *profiles):
    """Yield (start, end, levels) covering [0, T], cut at every profile's breakpoints.

    `levels` holds each profile's level on the segment, in argument order,
    read at the segment midpoint.  Raises ValueError when a breakpoint is
    not strictly inside (0, T).
    """
    T = float(T)
    check_breakpoints(T, *profiles)
    edges = sorted({0.0, T}.union(*(p.breakpoints for p in profiles)))
    mids = 0.5 * (np.array(edges[:-1]) + np.array(edges[1:]))
    columns = [p.value(mids).tolist() for p in profiles]
    for a, b, *levels in zip(edges[:-1], edges[1:], *columns):
        yield a, b, tuple(levels)


def nested_integral(rate, T, *profiles):
    """int_0^T int_0^t g(s) ds dt for g(s) = rate(levels of the profiles at s).

    g is piecewise constant, so the inner cumulative is piecewise linear
    and the per-segment trapezoid rule integrates it without error.
    """
    inner = 0.0
    total = 0.0
    for a, b, levels in profile_segments(T, *profiles):
        nxt = inner + rate(*levels) * (b - a)
        total += 0.5 * (inner + nxt) * (b - a)
        inner = nxt
    return total


def cumulative_trapezoid(y, dx):
    """Running trapezoid integrals int_0^{t_i} y of samples y at spacing dx,
    starting at 0.

    The arithmetic is scipy.integrate.cumulative_trapezoid's with initial=0,
    cumsum(dx * (y[1:] + y[:-1]) / 2.0) after a leading 0, so the two agree
    bit for bit. Raises ValueError on an empty y, as SciPy does.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("need at least one sample to integrate")
    return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))


def stieltjes_cumulative(values, left_weights):
    """Cumulative left-point Riemann-Stieltjes sums sum_{j<m} w_j (p_{j+1} - p_j).

    The sum is telescoped over runs of equal weight, so a constant-weight
    integral of a path starting at p_0 = 0 comes out as w * p_m with no
    accumulated rounding.  `values` may be (..., M+1); weights are per
    interval (length M).
    """
    values = np.asarray(values, dtype=float)
    left_weights = np.asarray(left_weights, dtype=float)
    M = values.shape[-1] - 1
    if left_weights.shape != (M,):
        raise ValueError("need one weight per grid interval")
    out = np.empty_like(values)
    out[..., 0] = 0.0
    # run j..k-1 of equal weight covers nodes j+1..k
    starts = np.flatnonzero(left_weights[1:] != left_weights[:-1]) + 1
    for j, k in zip([0, *starts.tolist()], [*starts.tolist(), M]):
        seg = values[..., j + 1 : k + 1] - values[..., j : j + 1]
        out[..., j + 1 : k + 1] = out[..., j : j + 1] + left_weights[j] * seg
    return out
