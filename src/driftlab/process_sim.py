"""Sine-basis path simulation for drifted Brownian observations.

The observation model is X_t = X^u_t + u_t on [0, T], where X^u is a
centered Gaussian martingale with quadratic variation sigma^2 dt and u is a
deterministic drift with square-integrable derivative and u(0) = 0.  X^u is
simulated by the truncated expansion

    X^u_t = sigma * (sqrt(2T)/pi) * sum_n eta_n sin((n-1/2) pi t / T) / (n-1/2)

with i.i.d. standard normal coefficients eta_n, the package's only
randomness; `noise_stream` states which normals each replicate gets.

Only NumPy is imported at load time. SciPy's DST (`SineBasis.synthesize`)
is imported at its first use, so a run that projects no path never loads
SciPy. `cumulative_trapezoid` is written in NumPy with SciPy's arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

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

    `levels` holds one finite, strictly positive value per segment;
    `breakpoints` holds the finite interior segment boundaries in strictly
    increasing order.  A single level with no breakpoints is the constant
    profile.  The breakpoints must lie strictly inside (0, T); T is not
    stored here, so `check_breakpoints` tests it wherever a profile meets
    a horizon.
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
        # nan and inf pass the sign checks below and make the closed forms nan
        if not all(map(math.isfinite, levels + breaks)):
            raise ValueError("volatility levels and breakpoints must be finite")
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
        grid = self._grid(params)  # tabulated: the running trapezoid of du
        return np.interp(t, grid.points, cumulative_trapezoid(self.du, grid.dt))

    def derivative_values(self, t, params):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            return np.full_like(t, self.slope)
        if self.kind == "coefficients":
            basis, c = self._basis(params)
            return (c @ basis.derivative_matrix(t)).reshape(t.shape)
        return np.interp(t, self._grid(params).points, self.du)

    def _grid(self, params):
        if self.du_grid.T != params.T:  # u would be read past or short of T
            raise ValueError(f"drift grid ends at T={self.du_grid.T}, the model at T={params.T}")
        return self.du_grid

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
    grid = u._grid(params)
    hdot = SineBasis(params.sigma, params.T, n).derivative_matrix(grid.points)
    return np.trapezoid(u.du * hdot, dx=grid.dt, axis=1)


def _drift_offsets(u, n, params):
    """(lam, b = <u, h>/lam) for k <= n; lambda_k^{-1} X(h_k) is eta/lam + b everywhere."""
    lam = SineBasis(params.sigma, params.T, n).eigenvalues()
    return lam, drift_inner_products(u, n, params) / lam


# ---------------------------------------------------------------------------
# noise (the stream contract and the block layer) and simulation


def _check_keys(seed, first, last):
    """Raise ValueError unless seed and replicates first..last fit a Philox key."""
    if seed < 0 or seed >= 2**64:
        raise ValueError("seed must fit an unsigned 64-bit integer")
    if first < 0 or last >= 2**64:
        raise ValueError("replicate index must fit an unsigned 64-bit integer")


def noise_stream(seed, replicate):
    """The Generator whose standard normals are the draws of one replicate.

    This is the definition of the stream contract. Each (seed, replicate)
    pair keys its own Philox4x64-10 counter space, so normal j of replicate
    r is a pure function of (seed, r, j), whatever the order, the block
    partition or the worker count, and a longer draw keeps a shorter one's
    prefix. `_noise_block` reproduces these streams bit for bit without
    building one per row.
    """
    _check_keys(seed, replicate, replicate)
    key = np.array([seed, replicate], dtype=np.uint64)
    return Generator(Philox(key=key))


# Narrow blocks of many rows are drawn in array form: every row's Philox
# words at once, then NumPy's ziggurat fast path on all of them. The cut-overs
# are measured (CHANGES.md): wider or shorter blocks draw faster one row at a
# time.
_ARRAY_MAX_DIM = 12
_ARRAY_MIN_ROWS = 512
# how far below the ratio of strip widths the ki bound is put: far more than
# the ratio's rounding
_KI_MARGIN = 16

# Philox4x64-10 (Salmon et al., SC'11) as NumPy computes it: the round
# multipliers and the key bumps
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)


def _noise_block(seed, start, count, dim):
    """Rows start..start+count-1 of seed's replicates, as a new (count, dim)
    array: row i is noise_stream(seed, start + i).standard_normal(dim).

    A narrow block of many rows (dim <= _ARRAY_MAX_DIM, count >=
    _ARRAY_MIN_ROWS) is drawn in array form by _array_rows, when
    _array_tables has its tables; the rows it leaves, and every row of any
    other block, are drawn by _rekeyed_rows.
    """
    # before any draw: past the key range the state setter and the array
    # path's uint64 arrays raise OverflowError, not this ValueError
    _check_keys(seed, start, start + count - 1)
    out = np.empty((count, dim))
    rows = range(count)
    if count >= _ARRAY_MIN_ROWS and dim <= _ARRAY_MAX_DIM:
        tables = _array_tables()
        if tables is not None:
            rows = _array_rows(out, _philox_block(seed, start, count, -(-dim // 4)), tables)
    _rekeyed_rows(out, seed, start, rows)
    return out


def _rekeyed_rows(out, seed, start, rows):
    """Draw each row i in rows (a sequence of indices of out) as
    noise_stream(seed, start + i).standard_normal(out.shape[1]).

    One Generator serves them all. Per row its Philox is re-keyed through
    the public state setter: key (seed, start + i), the four counter words
    zero and an empty buffer (buffer_pos 4). That is the state of a fresh
    noise_stream(seed, start + i), so no stream is built per row. The words
    are Python lists, which the setter reads faster than arrays.
    """
    if not rows:
        return
    gen = noise_stream(seed, start + rows[0])
    bg = gen.bit_generator
    # a tuple size skips NumPy's slower check of an int size against out
    normal, shape = gen.standard_normal, out.shape[1:]
    key = [seed, 0]
    state = bg.state
    state.update(buffer=[0, 0, 0, 0], buffer_pos=4, has_uint32=0, uinteger=0)
    state["state"] = {"counter": [0, 0, 0, 0], "key": key}
    for i in rows:
        key[1] = start + i
        bg.state = state
        normal(shape, out=out[i])


def _mulhilo(m, x):
    """Low and high words of m * x for a constant m < 2^64 and a uint64
    array x; the high word is built from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW, x >> _HALF
    cross = x_lo * m_hi
    x_lo *= m_lo
    x_lo >>= _HALF
    cross += x_lo                # x_lo m_hi + carry of x_lo m_lo: no wrap
    mid = x_hi * m_lo
    mid += cross & _LOW          # no wrap either
    x_hi *= m_hi
    x_hi += cross >> _HALF
    x_hi += mid >> _HALF
    return x * np.uint64(m), x_hi


def _philox_block(seed, start, count, blocks):
    """Philox4x64-10 words of the rows keyed (seed, start + i), i < count, at
    counters 1..blocks, as a (count, 4 * blocks) uint64 array: row i is
    Philox(key=(seed, start + i)).random_raw(4 * blocks).

    Every value is a uint64 array, so the key bumps wrap without NumPy's
    scalar overflow warning. The counter (c, 0, 0, 0) and the shared key
    word broadcast, so the first two rounds work on part-size arrays.
    """
    key0 = np.full((1, 1), seed, dtype=np.uint64)
    key1 = (np.arange(count, dtype=np.uint64) + np.uint64(start))[:, None]
    zero = np.zeros((1, 1), dtype=np.uint64)
    v0, v1, v2, v3 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :], zero, zero, zero
    for r in range(10):
        if r:
            key0 += np.uint64(_PHILOX_W[0])
            key1 += np.uint64(_PHILOX_W[1])
        lo0, hi0 = _mulhilo(_PHILOX_M[0], v0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], v2)
        hi1 ^= v1
        hi1 ^= key0
        v0, v1, v2, v3 = hi1, lo1, hi0 ^ v3 ^ key1, lo0
    words = np.stack(np.broadcast_arrays(v0, v1, v2, v3), axis=-1)
    return words.reshape(count, 4 * blocks)


def _array_rows(out, words, tables):
    """Fill out's rows from their Philox words (a row's words first) and
    return the indices of the rows left for _rekeyed_rows.

    A row's normals take one Philox word each while NumPy's ziggurat stays
    on its fast path: bits 0-7 of the word pick the strip idx, bit 8 is the
    sign and bits 9-60 the magnitude rabs, and the normal is +-rabs wi[idx]
    when rabs < ki[idx]. A row with a word at or past the known bound of
    ki[idx] would draw more words, so it is left to be redrawn whole.
    """
    wi, lower = tables
    words = words[:, :out.shape[1]]
    strip = (words & 0xFF).astype(np.intp)
    rabs = (words >> 9) & (2**52 - 1)
    np.multiply(rabs, wi[strip], out=out)
    np.negative(out, out=out, where=(words & 0x100).astype(bool))
    return np.flatnonzero((rabs >= lower[strip]).any(axis=1)).tolist()


def _ziggurat_tables():
    """NumPy's standard-normal ziggurat tables as the array path needs them:
    wi, and for each strip a lower bound of ki (0: the word always leaves
    the fast path). None when a probe does not behave as the fast path.

    The tables are read from NumPy itself. Chosen words go into a Philox's
    public buffer, and a draw from exactly those words, with the counter
    untouched, is a fast-path draw. With rabs = 1 the draw is wi[idx]. The
    bound of ki[idx] is the ratio of neighbouring strip widths times 2^52,
    which the ziggurat's construction makes ki, less a margin; it is trusted
    only after a word with rabs one below it is drawn on the fast path.
    """
    bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    normal = np.random.Generator(bg).standard_normal
    state = bg.state

    def draw(words):
        # one normal per word (at most four), and whether they read exactly
        # those words
        state["buffer"] = np.array([0] * (4 - len(words)) + words, dtype=np.uint64)
        state["buffer_pos"] = 4 - len(words)
        bg.state = state
        x = normal(len(words))
        after = bg.state
        return x, after["buffer_pos"] == 4 and after["state"]["counter"][0] == 0

    wi = np.empty(256)
    on_fast_path = np.ones(256, dtype=bool)
    for group in range(0, 256, 4):
        wi[group:group + 4], exact = draw([idx | 1 << 9 for idx in range(group, group + 4)])
        if not exact:  # one of them left the fast path
            for idx in range(group, group + 4):
                (wi[idx],), on_fast_path[idx] = draw([idx | 1 << 9])
    # strip 0 is the base strip, whose ratio is r = x_255 over its width
    ratio = np.concatenate([wi[-1:] / wi[:1], wi[:-1] / wi[1:]])
    bound = np.floor(ratio * 2.0**52) - _KI_MARGIN
    lower = np.where(on_fast_path & (bound >= 1), bound, 0).astype(np.uint64)
    probes = [(idx, int(lower[idx]) - 1) for idx in np.flatnonzero(lower).tolist()]
    for k in range(0, len(probes), 4):
        chunk = probes[k:k + 4]
        x, exact = draw([idx | rabs << 9 for idx, rabs in chunk])
        if not exact or any(v != rabs * wi[idx] for v, (idx, rabs) in zip(x, chunk)):
            return None
    wi.flags.writeable = lower.flags.writeable = False  # cached: shared by every caller
    return wi, lower


@cache
def _array_tables():
    """The tables of the array path, built once per process at its first
    use, or None when the path declines: a table probe failed, or the path
    did not reproduce Philox.random_raw and noise_stream on a probe block.
    Then _rekeyed_rows draws every row.
    """
    tables = _ziggurat_tables()
    return tables if tables is not None and _array_path_agrees(tables) else None


def _array_path_agrees(tables):
    """Whether the array path gives the definition's words and normals on a
    probe block three counters wide whose key words wrap in the key bumps."""
    seed, start, count, dim = 2**64 - 1, 2**64 - 8, 8, 12
    words = _philox_block(seed, start, count, 3)
    raw = [np.random.Philox(key=np.array([seed, start + i], dtype=np.uint64)).random_raw(dim)
           for i in range(count)]
    if not np.array_equal(words, raw):
        return False
    out = np.empty((count, dim))
    redo = _array_rows(out, words, tables)
    return len(redo) < count and all(
        out[i].tobytes() == noise_stream(seed, start + i).standard_normal(dim).tobytes()
        for i in range(count) if i not in redo)


def reconstruct_path(eta, grid, params):
    """Evaluate the truncated expansion X^u on the grid; X^u_0 = 0 exactly.

    X^u(t_i) = sum_k lambda_k eta_k e_k(t_i), over all of eta's modes, is one
    DST-II of lambda * eta (see SineBasis.synthesize): O(M log M) time and O(M)
    memory a replicate, with modes past the grid size M folded in.  eta may
    carry leading batch axes.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.size == 0:
        raise ValueError("eta must contain at least one coefficient")
    basis = SineBasis(params.sigma, params.T, eta.shape[-1])
    return basis.synthesize(eta * basis.eigenvalues(), grid)


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
    eta = _noise_block(seed, replicate, 1, n_basis)[0]
    xu = reconstruct_path(eta, grid, params)
    return observed_path(xu, u, grid, params, eta=eta, seed=seed, replicate=replicate)


def observed_coefficient(sample, u, k, method="identity"):
    """lambda_k^{-1} X(h_k), the k-th observable coefficient of the path.

    method="identity" uses X^u(h_k) = eta_k: exact, and bit for bit the kernel's c_k.
    method="quadrature" recomputes X(h_k) = int dh_k/dt dX by left-point
    Riemann-Stieltjes sums over the stored grid path, which carries
    truncation plus discretization error and is meant for cross-checking.
    """
    if method == "identity":
        if k > sample.n_basis:
            raise ValueError(f"coefficient {k} beyond simulated n_basis={sample.n_basis}")
        lam, b = _drift_offsets(u, k, sample.params)
        return sample.eta[k - 1] / lam[-1] + b[-1]
    if method == "quadrature":
        basis = SineBasis(sample.params.sigma, sample.params.T, k)
        hdot = basis.derivative_matrix(sample.grid.points[:-1])[-1]
        return float(np.sum(hdot * np.diff(sample.x))) / basis.eigenvalues()[-1]
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
