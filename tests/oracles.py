"""Independent reference implementations used only by the tests.

Everything here is built from generic quadrature or dense linear algebra,
never from the package's own closed forms, so agreement is evidence and
not tautology.
"""

import numpy as np
from scipy.integrate import quad


def inv_moment(weights, offsets):
    """E[ 1 / sum_l (w_l Z_l + d_l)^2 ] for independent standard normals Z_l.

    Uses the identity 1/q = int_0^inf exp(-s q) ds and the Gaussian
    moment-generating function of each squared term, which leaves a 1-d
    integral evaluated adaptively.  The substitution s = c y with
    c = 1/(sum w^2 + sum d^2) keeps the integrand's decay scale at order
    one for any dimension, and the log-space product survives hundreds of
    terms.
    """
    w2 = np.asarray(weights, dtype=float) ** 2
    d2 = np.asarray(offsets, dtype=float) ** 2
    if d2.ndim == 0:
        d2 = np.full_like(w2, float(d2))
    c = 1.0 / (np.sum(w2) + np.sum(d2))

    def integrand(y):
        s = c * y
        den = 1.0 + 2.0 * s * w2
        logval = -0.5 * np.sum(np.log(den)) - np.sum(s * d2 / den)
        return np.exp(logval)

    val, err = quad(integrand, 0.0, np.inf, limit=500, epsabs=1e-14, epsrel=1e-12)
    return c * val, c * err


def conditional_inverse_moment(delta, w, r):
    """E[1/(Y^2 + r^2)] for Y ~ N(delta, w^2), by direct quadrature of the
    Gaussian density over 1/(y^2 + r^2).

    The range is cut 40 w either side of delta (the rest is below e^-800)
    and split at 0, +-r, +-10r, +-100r and delta, so the Cauchy peak of
    height 1/r^2 is resolved for small r.
    """
    def integrand(y):
        return np.exp(-0.5 * ((y - delta) / w) ** 2) / (w * np.sqrt(2.0 * np.pi)) / (y * y + r * r)

    lo, hi = delta - 40.0 * w, delta + 40.0 * w
    cuts = {0.0, -r, r, -10.0 * r, 10.0 * r, -100.0 * r, 100.0 * r, delta}
    edges = [lo] + sorted(p for p in cuts if lo < p < hi) + [hi]
    return sum(quad(integrand, a, b, limit=500, epsabs=0.0, epsrel=1e-13)[0]
               for a, b in zip(edges, edges[1:]))


def gain_exact(alpha, sigma, T, n):
    """Quadrature value of the gain 2 (n-2)^2 E[1/sum (pi(l-1/2)eta_l + delta_l)^2]."""
    ell = np.arange(1, n + 1)
    w = np.pi * (ell - 0.5)
    d = -alpha * np.sqrt(2.0 * T) / sigma * (-1.0) ** ell
    val, _ = inv_moment(w, d)
    return 2.0 * (n - 2) ** 2 * val


def gain_limit_exact(n):
    """Quadrature value of the large-volatility limit (offsets removed)."""
    ell = np.arange(1, n + 1)
    val, _ = inv_moment(np.pi * (ell - 0.5), 0.0)
    return 2.0 * (n - 2) ** 2 * val


def universal_constant_exact():
    """Quadrature value of (32/pi^2) E[1/(x^2 + 9y^2 + 25z^2 + 49r^2)]."""
    val, _ = inv_moment([1.0, 3.0, 5.0, 7.0], 0.0)
    return 32.0 / np.pi**2 * val


def kernel_eigensystem(sigma, T, m):
    """Dense eigendecomposition of the covariance kernel sigma^2 min(s, t).

    Midpoint discretization on m cells; returns (eigenvalues descending,
    eigenvectors as columns scaled to unit L^2(dt) norm, cell centers).
    """
    dt = T / m
    t = (np.arange(m) + 0.5) * dt
    kernel = sigma**2 * np.minimum.outer(t, t) * dt
    vals, vecs = np.linalg.eigh(kernel)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order] / np.sqrt(dt)
    return vals, vecs, t


def paley_wiener_coefficient(sample, k):
    """lambda_k^{-1} X(h_k) with X(h_k) = int_0^T dh_k/dt dX, by left-point
    Riemann-Stieltjes sums over the sample's stored grid path.

    dh_k/dt = (1/sigma) sqrt(2/T) cos((k - 1/2) pi t / T) and
    lambda_k = sigma T / (pi (k - 1/2)) are written out here, so the value
    carries the path's truncation and discretization error and none of the
    package's coefficient arithmetic.
    """
    sigma, T = sample.params.sigma, sample.params.T
    t = sample.grid.points[:-1]
    freq = (k - 0.5) * np.pi / T
    hdot = np.sqrt(2.0 / T) * np.cos(freq * t) / sigma
    lam = sigma * T / (np.pi * (k - 0.5))
    return float(np.sum(hdot * np.diff(sample.x))) / lam


def nested_time_integral(rate_fn, T, m=1_000_000):
    """int_0^T int_0^t rate(s) ds dt on m cells.

    The inner integral uses midpoint sums, so piecewise-constant rates
    whose jumps sit on cell edges integrate without error; the outer
    trapezoid is then exact on the piecewise-linear cumulative.
    """
    t = np.linspace(0.0, T, m + 1)
    mid = 0.5 * (t[:-1] + t[1:])
    dt = T / m
    inner = np.concatenate([[0.0], np.cumsum(rate_fn(mid) * dt)])
    return float(np.trapezoid(inner, dx=dt))


def profile_rate(levels, breakpoints, T):
    """Right-continuous piecewise-constant evaluator for profile tests."""
    levels = np.asarray(levels, dtype=float)
    edges = np.asarray(breakpoints, dtype=float)

    def rate(t):
        idx = np.searchsorted(edges, t, side="right")
        return levels[idx]

    return rate


# values frozen from the quadrature oracle above (20+ digit agreement on
# recomputation); unit tests assert the live oracle still reproduces them
FROZEN_GAIN_UNIT = {
    3: 0.090472372522956589,
    4: 0.102483658700830193,
    5: 0.095506880784233443,
    6: 0.085599984608916416,
    7: 0.076438724010494496,
    8: 0.068632390370719033,
    9: 0.062089124596822391,
    10: 0.056593321114136133,
}
FROZEN_UNIVERSAL_CONSTANT = 0.1137700317245921
FROZEN_GAIN_ALPHA10_N4 = 0.009647689019787497
