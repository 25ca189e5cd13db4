"""Checks of driftlab's outputs against values computed outside the program.

Closed forms are written out here; quadrature values come from the test
suite's oracle module (``tests/oracles.py``), which uses generic quadrature
and never the package's own formulas. Each check returns a list of problem
strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import math
from pathlib import Path

# Monte Carlo means must lie within this many of their standard errors.
K_SE = 5.0
PATHWISE_TOL = 1e-10


def load_oracles(root: Path):
    """The test suite's quadrature oracles, loaded by path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def efficient_risk(sigma, T, n_basis):
    """sum_{k<=n_basis} sigma^2 T^2 / (pi^2 (k-1/2)^2): the truncated expansion's risk."""
    return sum(sigma**2 * T**2 / (math.pi**2 * (k - 0.5) ** 2) for k in range(1, n_basis + 1))


def posterior_rate(tau, sigma):
    """tau^2 sigma^2 / (tau^2 + sigma^2): the growth rate of the posterior variance."""
    return tau**2 * sigma**2 / (tau**2 + sigma**2)


def bayes_risk(tau, sigma, T):
    """tau^2 sigma^2 / (tau^2 + sigma^2) * T^2 / 2 for constant volatilities."""
    return posterior_rate(tau, sigma) * T**2 / 2


def near(label, value, stderr, target):
    """Problem when value is more than K_SE standard errors from target."""
    value, stderr = float(value), float(stderr)
    if abs(value - target) <= K_SE * stderr:
        return []
    gap = (value - target) / stderr if stderr > 0 else math.inf
    return [f"{label}: {value:.6g} is {gap:+.1f} stderr from {target:.6g}"]


def identity_rows(rows):
    """rows: (name, lhs, passed). Every row passes; pathwise rows are <= 1e-10."""
    problems = []
    names = [name for name, _, _ in rows]
    expected = {"unbiased-risk", "sqrt-laplacian-risk", "log-gradient-risk",
                "chain-rule-pathwise", "bias-bound"}
    if not expected <= set(names):
        problems.append(f"identity suite rows {names} lack {sorted(expected - set(names))}")
    for name, lhs, passed in rows:
        if not passed:
            problems.append(f"identity row {name} failed")
        if name.endswith("-pathwise") and not abs(float(lhs)) <= PATHWISE_TOL:
            problems.append(f"identity row {name}: {float(lhs):.3g} > {PATHWISE_TOL}")
    return problems


def identity_csv_rows(rows):
    """identity_rows for the rows of an identity-suite CSV."""
    return identity_rows([(name, lhs, ok == "1") for name, lhs, _, _, ok in rows])


def gain_rows(label, rows, oracle):
    """rows: (n, mean, stderr); oracle(n) gives the quadrature gain."""
    problems = []
    for n, mean, stderr in rows:
        problems += near(f"{label} n={n}", mean, stderr, oracle(n))
    return problems


def read_csv(text):
    """Header and rows of a driftlab CSV."""
    table = list(csv.reader(io.StringIO(text)))
    return table[0], table[1:]
