"""Command-line front end for the drift-estimation laboratory.

Usage:
    driftlab simulate --alpha 1 --n 5 --seed 7 --out path.csv
    driftlab gain-curve --n-max 10 --reps 100000 --out gain.csv
    driftlab gain-surface --n-max 8 --sigma-range 0.5,1,2,4 --out surf.csv
    driftlab constant --reps 1000000 --out const.csv
    driftlab bayes --tau 1.0 --reps 20000 --out bayes.csv
    driftlab filter --tau 1.0 --seed 3 --out filt.csv
    driftlab identity-suite --n 4 --reps 100000 --out suite.csv
    driftlab optimal-n --n-max 10 --reps 100000 --out curve.csv

Every subcommand writes one CSV file (single header row, "." decimal,
17-significant-digit floats) plus a companion gnuplot script at
<out>.plot.txt referencing the CSV columns.  Output is byte-identical
for identical configuration, including the seed, and does not depend on
--workers.

Exit codes: 0 success, 1 invalid configuration (an arithmetic overflow
or a run too large for memory included), 2 I/O failure, 3 degenerate
sample, 4 identity-suite failure (each failing row on stderr).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import estimators, filtering, process_sim, risk_engine
from .process_sim import DegenerateSampleError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _finite_float(text):
    # model constants must be finite: inf and nan would flow into the
    # engine and come back as a plausible-looking table or a late warning
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_int(text):
    # counts and sizes: a value below one would be ignored by some
    # subcommands and rejected late by others
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _float_list(text):
    values = [_finite_float(part) for part in text.split(",") if part != ""]
    if not values:
        raise argparse.ArgumentTypeError("empty value list")
    return values


# every flag once: (type, default, help); each subcommand lists the flags it reads
_FLAGS = {
    "alpha": (_finite_float, 1.0, "drift slope"),
    "sigma": (_finite_float, 1.0, "noise volatility"),
    "T": (_finite_float, 1.0, "time horizon"),
    "reps": (_positive_int, 100_000, "replicates"),
    "seed": (int, 0, "stream seed"),
    "n-basis": (_positive_int, 1024, "expansion length"),
    "grid": (_positive_int, 2048, "grid intervals"),
    "workers": (_positive_int, 1,
                "worker processes, at most one per CPU (simulate and filter use one process)"),
    "n": (int, 4, "functional dimension"),
    "a": (_finite_float, None, "exponent (default 2-n)"),
    "n-max": (int, 10, "largest n"),
    "tau": (_finite_float, 1.0, "prior volatility"),
    "v-slope": (_finite_float, 0.0, "slope of the linear prior mean drift"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="driftlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, about, flags, defaults, *_) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=about)
        for flag in flags.split():
            kind, default, text = _FLAGS[flag]
            default = defaults.get(flag, default)
            if default is not None:
                text = f"{text} (default {default:g})"
            p.add_argument(f"--{flag}", type=kind, default=default, help=text)
        p.add_argument("--out", required=True, help="output CSV path")
    group = sub.choices["gain-surface"].add_mutually_exclusive_group(required=True)
    group.add_argument("--T-range", type=_float_list, default=None,
                       help="comma-separated horizons to sweep")
    group.add_argument("--sigma-range", type=_float_list, default=None,
                       help="comma-separated volatilities to sweep")
    sub.choices["identity-suite"].add_argument(
        "--corrupt-lambda", type=_finite_float, default=1.0, help=argparse.SUPPRESS)
    return parser


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _write(args, rows):
    """Write rows under the subcommand's CSV header to args.out, and its
    companion gnuplot script to <out>.plot.txt. A non-finite number in a row
    is a ValueError naming its column, and then nothing is written."""
    *_, header, title, terms = _SUBCOMMANDS[args.subcommand]
    out = args.out
    columns = header.split(",")
    csv_lines = [header]
    for i, row in enumerate(rows, 1):
        for name, value in zip(columns, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} is {value} in row {i}; no output written")
        csv_lines.append(",".join(_fmt(v) for v in row))
    with open(out, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(csv_lines) + "\n")
    lines = [
        "# companion plot script; render with: gnuplot -p " + out + ".plot.txt",
        'set datafile separator ","',
        "set key autotitle columnhead",
        f'set title "{title}"',
        "plot " + ", ".join(f'"{out}" using {term}' for term in terms),
        "",
    ]
    with open(out + ".plot.txt", "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines))


def _model(args):
    return process_sim.ModelParams(sigma=args.sigma, T=args.T, alpha=args.alpha)


def _functional(args):
    # --a defaults to the James-Stein exponent 2 - n
    a = args.a if args.a is not None else float(2 - args.n)
    return estimators.CylindricalFunctional(n=args.n, a=a)


def _path(args):
    """One observed path of the linear drift alpha * t, on --grid intervals."""
    params = _model(args)
    grid = process_sim.TimeGrid(args.grid, args.T)
    u = process_sim.DriftSpec.linear(args.alpha)
    return process_sim.simulate_path(args.seed, 0, u, params, grid, args.n_basis)


def _cmd_simulate(args):
    sample = _path(args)
    stein = estimators.stein_estimate(sample, sample.drift, _functional(args))
    _write(args, zip(sample.grid.points, sample.u, sample.x, sample.xu, stein.values))


def _gain_rows(curve):
    for row in curve.rows:
        yield row.n, row.gain_mean, row.gain_stderr, 100.0 * row.gain_mean


def _cmd_gain_curve(args):
    curve = risk_engine.gain_curve(args.alpha, args.sigma, args.T, args.n_max,
                                   args.reps, args.seed, workers=args.workers)
    _write(args, _gain_rows(curve))


def _cmd_gain_surface(args):
    sweep_t = args.T_range is not None
    values = args.T_range if sweep_t else args.sigma_range
    distinct = sorted(set(values))
    models = [(args.sigma, v) if sweep_t else (v, args.T) for v in distinct]
    curves = risk_engine.gain_curves(args.alpha, models, args.n_max, args.reps,
                                     args.seed, workers=args.workers)
    # a swept value given twice is run once; its rows are written twice,
    # grouped by n
    _write(args, [(row.n, value, row.gain_mean, row.gain_stderr)
                  for value, curve in zip(distinct, curves)
                  for row in curve.rows for _ in range(values.count(value))])


def _cmd_constant(args):
    rep = risk_engine.universal_constant(args.reps, args.seed, workers=args.workers)
    _write(args, [(rep.mean, rep.stderr, rep.reps)])


def _cmd_bayes(args):
    params = process_sim.ModelParams(sigma=args.sigma, T=args.T)  # the slope alpha is unused
    spec = estimators.BayesSpec(
        tau=process_sim.VolatilityProfile.constant(args.tau),
        v=process_sim.DriftSpec.linear(args.v_slope),
    )
    sigma_profile = process_sim.VolatilityProfile.constant(args.sigma)
    closed = estimators.bayes_risk_closed_form(spec, sigma_profile, args.T)
    rep = risk_engine.mc_risk(spec, None, params, args.reps, args.seed,
                              grid_m=args.grid, workers=args.workers)
    _write(args, [(closed, rep.mean, rep.stderr, rep.reps)])


def _cmd_filter(args):
    sample = _path(args)
    v = process_sim.DriftSpec.linear(args.v_slope)
    tau_profile = process_sim.VolatilityProfile.constant(args.tau)
    sigma_profile = process_sim.VolatilityProfile.constant(args.sigma)
    drift, variance = filtering.scalar_path_filter(
        sample.x, v, tau_profile, sigma_profile, sample.grid, sample.params
    )
    _write(args, zip(sample.grid.points, drift, variance))


def _cmd_identity_suite(args) -> int:
    params = _model(args)
    u = process_sim.DriftSpec.linear(args.alpha)
    report = risk_engine.identity_suite(
        _functional(args), u, params, args.reps, args.seed, grid_m=args.grid,
        n_basis=args.n_basis, workers=args.workers,
        lambda_scale=args.corrupt_lambda,
    )
    _write(args, [(r.name, r.lhs, r.rhs, r.paired_stderr, r.passed) for r in report.rows])
    for row in report.rows:
        if not row.passed:
            print(f"driftlab: identity failed: {row.explain()}", file=sys.stderr)
    return 0 if report.all_passed else 4


def _cmd_optimal_n(args):
    n_opt, curve = risk_engine.optimal_n_search(
        args.alpha, args.sigma, args.T, args.n_max, args.reps, args.seed,
        workers=args.workers,
    )
    _write(args, _gain_rows(curve))
    print(f"n_opt={n_opt}")


_GAIN_TABLE = ("n,gain_mean,gain_stderr,gain_pct", "percentage gain against n",
               ["1:4 with linespoints"])

# one entry per subcommand: (function, help, the flags it reads, its own
# defaults, CSV header, plot title, gnuplot terms); gain-surface's range
# group and identity-suite's hidden flag are added in _build_parser
_SUBCOMMANDS = {
    "simulate": (_cmd_simulate, "one observed path and its shrunk estimate",
                 "alpha sigma T seed n-basis grid workers n a", {"n": 5},
                 "t,u,x,xu,stein_estimate", "observed path and estimates",
                 ["1:2 with lines", "1:3 with lines", "1:5 with lines"]),
    "gain-curve": (_cmd_gain_curve, "gain for n = 3..n-max",
                   "alpha sigma T reps seed workers n-max", {}, *_GAIN_TABLE),
    "gain-surface": (_cmd_gain_surface, "gain over n and one swept parameter",
                     "alpha sigma T reps seed workers n-max", {},
                     "n,param_value,gain_mean,gain_stderr", "gain surface",
                     ["1:2:3 with points palette"]),
    "constant": (_cmd_constant, "the universal limit-gain constant", "reps seed workers", {},
                 "estimate,stderr,reps", "universal constant", ["0:1 with points"]),
    "bayes": (_cmd_bayes, "Bayes risk: closed form vs Monte Carlo",
              "sigma T reps seed grid workers tau v-slope", {"reps": 20_000},
              "closed_form_risk,mc_risk,mc_stderr,reps", "Bayes risk check",
              ["0:1 with points", "0:2 with points"]),
    "filter": (_cmd_filter, "conditional drift and variance of one path",
               "alpha sigma T seed n-basis grid workers tau v-slope", {},
               "t,cond_drift,cond_variance", "conditional drift and variance",
               ["1:2 with lines", "1:3 with lines"]),
    "identity-suite": (_cmd_identity_suite, "paired closed-form risk identity checks",
                       "alpha sigma T reps seed n-basis grid workers n a", {},
                       "name,lhs,rhs,paired_stderr,pass", "identity suite",
                       ["2:3 with points"]),
    "optimal-n": (_cmd_optimal_n, "argmax of the gain curve",
                  "alpha sigma T reps seed workers n-max", {}, *_GAIN_TABLE),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _SUBCOMMANDS[args.subcommand][0](args)
        return 0 if code is None else code
    except _UsageError as exc:
        print(f"driftlab: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"driftlab: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # e.g. an input near the float limit overflowing a closed form
        print(f"driftlab: invalid configuration: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"driftlab: invalid configuration: out of memory: {exc}", file=sys.stderr)
        return 1
    except DegenerateSampleError as exc:
        print(f"driftlab: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"driftlab: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
