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

Exit codes: 0 success, 1 invalid configuration, 2 I/O failure,
3 degenerate sample, 4 identity-suite failure (each failing row on stderr).
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
    "workers": (_positive_int, 1, "worker processes"),
    "n": (int, 4, "functional dimension"),
    "a": (_finite_float, None, "exponent (default 2-n)"),
    "n-max": (int, 10, "largest n"),
    "tau": (_finite_float, 1.0, "prior volatility"),
    "v-slope": (_finite_float, 0.0, "slope of the linear prior mean drift"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="driftlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, about, flags, **defaults):
        p = sub.add_parser(name, help=about)
        for flag in flags.split():
            kind, default, text = _FLAGS[flag]
            default = defaults.get(flag, default)
            if default is not None:
                text = f"{text} (default {default:g})"
            p.add_argument(f"--{flag}", type=kind, default=default, help=text)
        p.add_argument("--out", required=True, help="output CSV path")
        return p

    command("simulate", "one observed path and its shrunk estimate",
            "alpha sigma T seed n-basis grid workers n a", n=5)
    command("gain-curve", "gain for n = 3..n-max", "alpha sigma T reps seed workers n-max")
    p = command("gain-surface", "gain over n and one swept parameter",
                "alpha sigma T reps seed workers n-max")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--T-range", type=_float_list, default=None,
                       help="comma-separated horizons to sweep")
    group.add_argument("--sigma-range", type=_float_list, default=None,
                       help="comma-separated volatilities to sweep")
    command("constant", "the universal limit-gain constant", "reps seed workers")
    command("bayes", "Bayes risk: closed form vs Monte Carlo",
            "sigma T reps seed grid workers tau v-slope", reps=20_000)
    command("filter", "conditional drift and variance of one path",
            "alpha sigma T seed n-basis grid workers tau v-slope")
    p = command("identity-suite", "paired closed-form risk identity checks",
                "alpha sigma T reps seed n-basis grid workers n a")
    p.add_argument("--corrupt-lambda", type=_finite_float, default=1.0, help=argparse.SUPPRESS)
    command("optimal-n", "argmax of the gain curve", "alpha sigma T reps seed workers n-max")
    return parser


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_plot_script(out, title, plot_terms):
    lines = [
        "# companion plot script; render with: gnuplot -p " + out + ".plot.txt",
        'set datafile separator ","',
        "set key autotitle columnhead",
        f'set title "{title}"',
        "plot " + ", ".join(f'"{out}" using {term}' for term in plot_terms),
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


def _cmd_simulate(args) -> int:
    params = _model(args)
    grid = process_sim.TimeGrid(args.grid, args.T)
    u = process_sim.DriftSpec.linear(args.alpha)
    sample = process_sim.simulate_path(args.seed, 0, u, params, grid, args.n_basis)
    stein = estimators.stein_estimate(sample, u, _functional(args))
    rows = zip(grid.points, sample.u, sample.x, sample.xu, stein.values)
    _write_csv(args.out, ["t", "u", "x", "xu", "stein_estimate"], rows)
    _write_plot_script(args.out, "observed path and estimates",
                       ["1:2 with lines", "1:3 with lines", "1:5 with lines"])
    return 0


def _gain_rows(curve):
    for row in curve.rows:
        yield row.n, row.gain_mean, row.gain_stderr, 100.0 * row.gain_mean


def _cmd_gain_curve(args) -> int:
    curve = risk_engine.gain_curve(args.alpha, args.sigma, args.T, args.n_max,
                                   args.reps, args.seed, workers=args.workers)
    _write_csv(args.out, ["n", "gain_mean", "gain_stderr", "gain_pct"], _gain_rows(curve))
    _write_plot_script(args.out, "percentage gain against n",
                       ["1:4 with linespoints"])
    return 0


def _cmd_gain_surface(args) -> int:
    sweep_t = args.T_range is not None
    values = sorted(args.T_range if sweep_t else args.sigma_range)
    rows = []
    for value in values:
        t_hor = value if sweep_t else args.T
        sigma = args.sigma if sweep_t else value
        curve = risk_engine.gain_curve(args.alpha, sigma, t_hor, args.n_max,
                                       args.reps, args.seed, workers=args.workers)
        for row in curve.rows:
            rows.append((row.n, value, row.gain_mean, row.gain_stderr))
    rows.sort(key=lambda r: (r[1], r[0]))
    _write_csv(args.out, ["n", "param_value", "gain_mean", "gain_stderr"], rows)
    _write_plot_script(args.out, "gain surface", ["1:2:3 with points palette"])
    return 0


def _cmd_constant(args) -> int:
    rep = risk_engine.universal_constant(args.reps, args.seed, workers=args.workers)
    _write_csv(args.out, ["estimate", "stderr", "reps"],
               [(rep.mean, rep.stderr, rep.reps)])
    _write_plot_script(args.out, "universal constant", ["0:1 with points"])
    return 0


def _cmd_bayes(args) -> int:
    params = process_sim.ModelParams(sigma=args.sigma, T=args.T)  # the slope alpha is unused
    spec = estimators.BayesSpec(
        tau=process_sim.VolatilityProfile.constant(args.tau),
        v=process_sim.DriftSpec.linear(args.v_slope),
    )
    sigma_profile = process_sim.VolatilityProfile.constant(args.sigma)
    closed = estimators.bayes_risk_closed_form(spec, sigma_profile, args.T)
    rep = risk_engine.mc_risk(spec, None, params, args.reps, args.seed,
                              grid_m=args.grid, workers=args.workers)
    _write_csv(args.out, ["closed_form_risk", "mc_risk", "mc_stderr", "reps"],
               [(closed, rep.mean, rep.stderr, rep.reps)])
    _write_plot_script(args.out, "Bayes risk check", ["0:1 with points", "0:2 with points"])
    return 0


def _cmd_filter(args) -> int:
    params = _model(args)
    grid = process_sim.TimeGrid(args.grid, args.T)
    u = process_sim.DriftSpec.linear(args.alpha)
    sample = process_sim.simulate_path(args.seed, 0, u, params, grid, args.n_basis)
    v = process_sim.DriftSpec.linear(args.v_slope)
    tau_profile = process_sim.VolatilityProfile.constant(args.tau)
    sigma_profile = process_sim.VolatilityProfile.constant(args.sigma)
    drift, variance = filtering.scalar_path_filter(
        sample.x, v, tau_profile, sigma_profile, grid, params
    )
    rows = zip(grid.points, drift, variance)
    _write_csv(args.out, ["t", "cond_drift", "cond_variance"], rows)
    _write_plot_script(args.out, "conditional drift and variance",
                       ["1:2 with lines", "1:3 with lines"])
    return 0


def _cmd_identity_suite(args) -> int:
    params = _model(args)
    u = process_sim.DriftSpec.linear(args.alpha)
    report = risk_engine.identity_suite(
        _functional(args), u, params, args.reps, args.seed, grid_m=args.grid,
        n_basis=args.n_basis, workers=args.workers,
        lambda_scale=args.corrupt_lambda,
    )
    rows = [(r.name, r.lhs, r.rhs, r.paired_stderr, r.passed) for r in report.rows]
    _write_csv(args.out, ["name", "lhs", "rhs", "paired_stderr", "pass"], rows)
    _write_plot_script(args.out, "identity suite", ["2:3 with points"])
    for row in report.rows:
        if not row.passed:
            print(f"driftlab: identity failed: {row.explain()}", file=sys.stderr)
    return 0 if report.all_passed else 4


def _cmd_optimal_n(args) -> int:
    n_opt, curve = risk_engine.optimal_n_search(
        args.alpha, args.sigma, args.T, args.n_max, args.reps, args.seed,
        workers=args.workers,
    )
    _write_csv(args.out, ["n", "gain_mean", "gain_stderr", "gain_pct"], _gain_rows(curve))
    _write_plot_script(args.out, "percentage gain against n", ["1:4 with linespoints"])
    print(f"n_opt={n_opt}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "gain-curve": _cmd_gain_curve,
    "gain-surface": _cmd_gain_surface,
    "constant": _cmd_constant,
    "bayes": _cmd_bayes,
    "filter": _cmd_filter,
    "identity-suite": _cmd_identity_suite,
    "optimal-n": _cmd_optimal_n,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except _UsageError as exc:
        print(f"driftlab: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"driftlab: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except DegenerateSampleError as exc:
        print(f"driftlab: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"driftlab: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
