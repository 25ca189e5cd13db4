"""Every public Monte Carlo result pinned bit for bit at one small geometry.

5000 replicates make two blocks, so the block reduction is pinned as well.
The literals are float.hex values; a change to any kernel, stream or
reduction order shows here before it shows in a CSV. Paired standard errors
are compared to 1e-12 relative, since their rounding may follow the
variance formula; everything else must match exactly.
"""

import pytest

from driftlab import (
    BayesSpec,
    CylindricalFunctional,
    DriftSpec,
    ModelParams,
    asymptotic_gain_check,
    gain,
    gain_curve,
    gain_large_sigma_limit,
    identity_suite,
    mc_risk,
    sample_average_risk,
    universal_constant,
)

PARAMS = ModelParams(sigma=1.0, T=1.0, alpha=1.0)
U = DriftSpec.linear(1.0)
JS4 = CylindricalFunctional(n=4, a=-2.0)
BAYES = BayesSpec.centered(1.0)
REPS = 5000

REPORTS = {
    "efficient": (lambda: mc_risk("efficient", U, PARAMS, REPS, 11, n_basis=16),
                  "0x1.fcb2503e2192dp-2", "0x1.12694a645c9fcp-7"),
    "stein": (lambda: mc_risk(JS4, U, PARAMS, REPS, 12, grid_m=64, n_basis=16),
              "0x1.d458763045436p-2", "0x1.012807840fc74p-7"),
    "bayes": (lambda: mc_risk(BAYES, None, PARAMS, REPS, 13, grid_m=64),
              "0x1.edd02f4e0096cp-3", "0x1.020e66962f758p-8"),
    "bayes-fixed-drift": (lambda: mc_risk(BAYES, U, PARAMS, REPS, 13, grid_m=64,
                                          prior_drift=False),
                          "0x1.9e016758403b1p-3", "0x1.9b47d4370b88ep-9"),
    "sample-average": (lambda: sample_average_risk(3, PARAMS, REPS, 14, n_basis=16),
                       "0x1.5a7e80227daadp-3", "0x1.6b9e9dc5d3f89p-9"),
    "gain-formula": (lambda: gain(1.0, 1.0, 1.0, 4, REPS, 16, n_basis=16).formula,
                     "0x1.aa69012061756p-4", "0x1.e0935119eb1e8p-9"),
    "gain-risk-difference": (lambda: gain(1.0, 1.0, 1.0, 4, REPS, 16,
                                          n_basis=16).risk_difference,
                             "0x1.efb6902316268p-4", "0x1.e457b9b724cc5p-7"),
    "large-sigma-limit": (lambda: gain_large_sigma_limit(4, REPS, 17),
                          "0x1.e4c702bd7c9a2p-4", "0x1.1b37a67e9e8f0p-8"),
    "asymptotic-gain": (lambda: asymptotic_gain_check(8, REPS, 18),
                        "0x1.d5e47a9d985eap-1", "0x1.9d8cc7e683233p-7"),
    "universal-constant": (lambda: universal_constant(REPS, 19),
                           "0x1.d8d4900be0137p-4", "0x1.612df69f39cf6p-8"),
}

CURVE = [
    (3, "0x1.a8abc02a627e7p-4", "0x1.3d56e7514d89ap-7"),
    (4, "0x1.a5815544dd4e5p-4", "0x1.91756644531adp-9"),
    (5, "0x1.8f85c9d058383p-4", "0x1.1a506f0663d48p-9"),
    (6, "0x1.60150d793d126p-4", "0x1.9b04953434300p-10"),
]

_JS4_RISK = ("0x1.ca150f481ad56p-2", "0x1.c2a9d15dc4c4fp-2", "0x1.0c9a24920e0afp-7")
_GENERAL_RISK = ("0x1.e286edab04ba1p-2", "0x1.ddb7036467bbbp-2", "0x1.067a351c86076p-7")
SUITES = {
    "james-stein": (JS4, [
        ("unbiased-risk", *_JS4_RISK),
        ("sqrt-laplacian-risk", *_JS4_RISK),
        ("log-gradient-risk", *_JS4_RISK),
        ("harmonic-risk", *_JS4_RISK),
        ("chain-rule-pathwise", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("correction-forms-pathwise", "0x1.0000000000000p-52", "0x0.0p+0", "0x0.0p+0"),
        ("bias-bound", "0x1.d1781fa0646b5p-10", "0x1.b6d5677dfd2a5p-5", "0x1.e87f1ca4f1f9bp-10"),
    ]),
    "general-exponent": (CylindricalFunctional(n=5, a=-1.0), [
        ("unbiased-risk", *_GENERAL_RISK),
        ("sqrt-laplacian-risk", *_GENERAL_RISK),
        ("log-gradient-risk", *_GENERAL_RISK),
        ("chain-rule-pathwise", "0x1.0000000000000p-52", "0x0.0p+0", "0x0.0p+0"),
        ("bias-bound", "0x1.ef6c281cf80c1p-14", "0x1.63dfbedb08ba9p-8", "0x1.20e99de19356bp-13"),
    ]),
}


def hexed(*values):
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bits(name):
    call, mean, stderr = REPORTS[name]
    rep = call()
    assert hexed(rep.mean, rep.stderr) == (mean, stderr)


def test_gain_curve_bits():
    curve = gain_curve(1.0, 1.0, 1.0, 6, REPS, 15)
    assert [(row.n, *hexed(row.gain_mean, row.gain_stderr)) for row in curve.rows] == CURVE


@pytest.mark.parametrize("name", sorted(SUITES))
def test_identity_suite_bits(name):
    fnl, expected = SUITES[name]
    report = identity_suite(fnl, U, PARAMS, REPS, 20, grid_m=64, n_basis=16)
    assert [row.name for row in report.rows] == [row[0] for row in expected]
    assert all(row.passed for row in report.rows)
    for row, (_, lhs, rhs, paired_stderr) in zip(report.rows, expected):
        assert hexed(row.lhs, row.rhs) == (lhs, rhs), row.name
        assert row.paired_stderr == pytest.approx(float.fromhex(paired_stderr),
                                                  rel=1e-12, abs=0.0), row.name
