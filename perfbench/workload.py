"""One workload in one process: set up, run timed rounds, check every output.

run.py starts this file with BLAS pinned to one thread. Set-up is the import
of driftlab plus a warm-up call that builds the workload's first cached
geometry; the process prints the monotonic time at which set-up ended. With
--probe it stops there. Otherwise it runs whole rounds (one call of each of
the workload's operations) until --seconds have passed, checks every output,
and prints one JSON line with the rounds' figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from driftlab import (
    BayesSpec,
    CylindricalFunctional,
    DriftSpec,
    ModelParams,
    cli,
    risk_engine,
)

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
MIN_ROUNDS = 3

PARAMS = ModelParams(sigma=1.0, T=1.0, alpha=1.0)
DRIFT = DriftSpec.linear(1.0)
JS4 = CylindricalFunctional(n=4, a=-2.0)
BAYES = BayesSpec.centered(1.0)
GEOMETRY = {"grid_m": 2048, "n_basis": 1024}   # the acceptance geometry


@dataclass
class Op:
    """One timed call and the check of its output."""

    name: str
    reps: int                               # Monte Carlo replicates the call draws
    call: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    csv: str


@dataclass
class Round:
    wall: float = 0.0
    cpu: float = 0.0
    failed: int = 0
    csv_bytes: int = 0
    layers: dict = field(default_factory=dict)


def op_seeds(workload, seed, count):
    """driftlab seeds for the workload's operations, all drawn from --seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.getrandbits(32) for _ in range(count)]


def cpu_s():
    return time.process_time() + spans.children_cpu_s()


def peak_rss_mb():
    """Largest resident set of this process or any reaped child (pool workers)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A round of operations, its warm-up, and checks beyond each output's own."""

    def prepare(self, oracles):
        """Compute the oracle values the checks need (after set-up, untimed)."""

    def after_rounds(self, first):
        """Untimed extra operations: {name: problems}."""
        return {}


class PathRisk(Workload):
    """Grid projection, quadrature and long noise streams at the acceptance geometry."""

    REPS = 4096

    def __init__(self, seed, workdir):
        self.seeds = op_seeds("path-risk", seed, 3)
        self.efficient = checks.efficient_risk(1.0, 1.0, GEOMETRY["n_basis"])

    def warm(self):
        risk_engine.mc_risk("efficient", DRIFT, PARAMS, 2, 0, **GEOMETRY)
        risk_engine.identity_suite(JS4, DRIFT, PARAMS, 2, 0, **GEOMETRY)
        risk_engine.mc_risk(BAYES, DRIFT, PARAMS, 2, 0, grid_m=GEOMETRY["grid_m"])

    def ops(self):
        r, (s0, s1, s2) = self.REPS, self.seeds
        bayes = checks.bayes_risk(1.0, 1.0, 1.0)
        return [
            Op("efficient", r,
               lambda: risk_engine.mc_risk("efficient", DRIFT, PARAMS, r, s0, **GEOMETRY),
               lambda rep: checks.near("efficient risk", rep.mean, rep.stderr, self.efficient)),
            Op("identity-suite", r,
               lambda: risk_engine.identity_suite(JS4, DRIFT, PARAMS, r, s1, **GEOMETRY),
               lambda rep: checks.identity_rows([(x.name, x.lhs, x.passed) for x in rep.rows])),
            Op("bayes", r,
               lambda: risk_engine.mc_risk(BAYES, DRIFT, PARAMS, r, s2,
                                           grid_m=GEOMETRY["grid_m"]),
               lambda rep: checks.near("bayes risk", rep.mean, rep.stderr, bayes)),
        ]

    def negative_control(self, first):
        rep = first["efficient"]
        return checks.near("efficient risk shifted by +10 stderr",
                           rep.mean + 10.0 * rep.stderr, rep.stderr, self.efficient)


class GainScalar(Workload):
    """Gain formulas without a grid: building a noise stream per replicate dominates."""

    REPS = 20480

    def __init__(self, seed, workdir):
        self.seeds = op_seeds("gain-scalar", seed, 5)

    def prepare(self, oracles):
        self.gain = {n: oracles.gain_exact(1.0, 1.0, 1.0, n) for n in range(3, 11)}
        self.constant = oracles.universal_constant_exact()
        self.limit4 = oracles.gain_limit_exact(4)
        self.gain_alpha10 = oracles.gain_exact(10.0, 1.0, 1.0, 4)
        self.asymptotic = 200 * math.pi**2 / 6 * oracles.gain_exact(1.0, 1.0, 1.0, 200)

    def warm(self):
        risk_engine.gain_curve(1.0, 1.0, 1.0, 10, 2, 0)

    def _curve_check(self, curve):
        problems = checks.gain_rows(
            "gain curve", [(p.n, p.gain_mean, p.gain_stderr) for p in curve.rows],
            self.gain.__getitem__)
        if [p.n for p in curve.rows] != list(range(3, 11)):
            problems.append("gain curve rows are not n = 3..10")
        return problems

    def _gain_check(self, est):
        problems = checks.near("gain alpha=10 n=4", est.formula.mean, est.formula.stderr,
                               self.gain_alpha10)
        if est.risk_difference is not None:
            problems.append("gain ran the risk-difference path it was told to skip")
        return problems

    def ops(self):
        r, (s0, s1, s2, s3, s4) = self.REPS, self.seeds
        return [
            Op("gain-curve", r, lambda: risk_engine.gain_curve(1.0, 1.0, 1.0, 10, r, s0),
               self._curve_check),
            Op("universal-constant", r, lambda: risk_engine.universal_constant(r, s1),
               lambda rep: checks.near("universal constant", rep.mean, rep.stderr,
                                       self.constant)),
            Op("large-sigma-limit", r, lambda: risk_engine.gain_large_sigma_limit(4, r, s2),
               lambda rep: checks.near("large-sigma limit n=4", rep.mean, rep.stderr,
                                       self.limit4)),
            Op("gain", r,
               lambda: risk_engine.gain(10.0, 1.0, 1.0, 4, r, s3,
                                        include_risk_difference=False),
               self._gain_check),
            Op("asymptotic-gain", r, lambda: risk_engine.asymptotic_gain_check(200, r, s4),
               lambda rep: checks.near("asymptotic gain ratio n=200", rep.mean, rep.stderr,
                                       self.asymptotic)),
        ]

    def negative_control(self, first):
        rep = first["universal-constant"]
        return checks.near("universal constant shifted by +10 stderr",
                           rep.mean + 10.0 * rep.stderr, rep.stderr, self.constant)


class CliPool(Workload):
    """All eight subcommands through driftlab.cli.main with --workers 2."""

    REPS = 20480
    SURFACE = (0.5, 1.0, 2.0, 4.0)
    SURFACE_REPS = 8192
    BAYES_REPS = 4096        # one block: one busy worker
    SUITE_REPS = 8192
    GRID = 8192              # simulate and filter

    def __init__(self, seed, workdir):
        self.seeds = op_seeds("cli-pool", seed, 8)
        self.workdir = workdir

    def prepare(self, oracles):
        self.gain = {(sigma, n): oracles.gain_exact(1.0, sigma, 1.0, n)
                     for sigma in self.SURFACE for n in range(3, 11)}
        self.constant = oracles.universal_constant_exact()

    def warm(self):
        self.run_cli(["constant", "--reps", "2", "--workers", "1"], "warm")

    def run_cli(self, argv, name):
        """cli.main in this process, writing <workdir>/<name>.csv, which is read back."""
        out, err = io.StringIO(), io.StringIO()
        path = self.workdir / f"{name}.csv"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out", str(path)])
        csv = path.read_text() if code in (0, 4) else ""
        return CliResult(code, out.getvalue(), err.getvalue(), csv)

    def _table(self, name, header):
        """Check wrapper: exit code 0 and the expected header, then the rows."""
        def wrap(rows_check):
            def check(res):
                if res.code != 0:
                    return [f"{name}: exit {res.code}: {res.stderr.strip()}"]
                got, rows = checks.read_csv(res.csv)
                if got != header:
                    return [f"{name}: header {got}"]
                return rows_check(rows, res)
            return check
        return wrap

    def _path_rows(self, rows, res):
        problems = []
        if len(rows) != self.GRID + 1:
            problems.append(f"simulate: {len(rows)} rows")
        for t, u, x, xu, _ in rows:
            t, u, x, xu = float(t), float(u), float(x), float(xu)
            if x != xu + u or u != 1.0 * t:
                problems.append(f"simulate: row t={t!r} has x={x!r}, xu={xu!r}, u={u!r}")
                break
        return problems

    def _filter_rows(self, rows, res):
        rate = checks.posterior_rate(1.0, 1.0)
        for t, _, var in rows:
            if not math.isclose(float(var), float(t) * rate, rel_tol=1e-12, abs_tol=1e-15):
                return [f"filter: cond_variance {var} at t={t}, expected {float(t) * rate!r}"]
        return [] if len(rows) == self.GRID + 1 else [f"filter: {len(rows)} rows"]

    def _curve_rows(self, label):
        def check(rows, res):
            problems = checks.gain_rows(
                label, [(int(n), float(m), float(s)) for n, m, s, _ in rows],
                lambda n: self.gain[(1.0, n)])
            if [int(r[0]) for r in rows] != list(range(3, 11)):
                problems.append(f"{label}: rows are not n = 3..10")
            if any(not math.isclose(float(p), 100 * float(m), rel_tol=1e-12)
                   for _, m, _, p in rows):
                problems.append(f"{label}: gain_pct is not 100 * gain_mean")
            return problems
        return check

    def _surface_rows(self, rows, res):
        problems = []
        for n, value, mean, se in rows:
            problems += checks.near(f"gain surface sigma={value} n={n}", mean, se,
                                    self.gain[(float(value), int(n))])
        keys = sorted((float(v), int(n)) for n, v, _, _ in rows)
        if keys != sorted((s, n) for s in self.SURFACE for n in range(3, 9)):
            problems.append("gain surface: rows do not cover sigma x n")
        return problems

    def _constant_rows(self, rows, res):
        (estimate, se, reps), = rows
        problems = checks.near("constant", estimate, se, self.constant)
        return problems + ([] if int(reps) == self.REPS else [f"constant: reps {reps}"])

    def _bayes_rows(self, rows, res):
        (closed, mc, se, _), = rows
        target = checks.bayes_risk(1.0, 1.0, 1.0)
        problems = checks.near("bayes mc risk", mc, se, target)
        if not math.isclose(float(closed), target, rel_tol=1e-12):
            problems.append(f"bayes closed form {closed}, expected {target!r}")
        return problems

    def _optimal_rows(self, rows, res):
        # n_opt is not checked against 4: the n = 3 gain has infinite variance,
        # and at these replicate counts some seeds put the argmax at 3
        problems = self._curve_rows("optimal-n")(rows, res)
        best = max(rows, key=lambda row: float(row[1]))[0]
        if res.stdout.strip() != f"n_opt={best}":
            problems.append(f"optimal-n printed {res.stdout.strip()!r}, table argmax is {best}")
        return problems

    def ops(self):
        s = [str(x) for x in self.seeds]
        reps, grid = str(self.REPS), str(self.GRID)
        surface = ",".join(str(v) for v in self.SURFACE)
        specs = [
            ("simulate", 1, ["simulate", "--grid", grid, "--seed", s[0]],
             ["t", "u", "x", "xu", "stein_estimate"], self._path_rows),
            ("filter", 1, ["filter", "--grid", grid, "--tau", "1", "--seed", s[1]],
             ["t", "cond_drift", "cond_variance"], self._filter_rows),
            ("gain-curve", self.REPS,
             ["gain-curve", "--n-max", "10", "--reps", reps, "--seed", s[2]],
             ["n", "gain_mean", "gain_stderr", "gain_pct"], self._curve_rows("gain-curve")),
            ("gain-surface", len(self.SURFACE) * self.SURFACE_REPS,
             ["gain-surface", "--n-max", "8", "--sigma-range", surface,
              "--reps", str(self.SURFACE_REPS), "--seed", s[3]],
             ["n", "param_value", "gain_mean", "gain_stderr"], self._surface_rows),
            ("constant", self.REPS, ["constant", "--reps", reps, "--seed", s[4]],
             ["estimate", "stderr", "reps"], self._constant_rows),
            ("bayes", self.BAYES_REPS,
             ["bayes", "--tau", "1", "--reps", str(self.BAYES_REPS), "--seed", s[5]],
             ["closed_form_risk", "mc_risk", "mc_stderr", "reps"], self._bayes_rows),
            ("identity-suite", self.SUITE_REPS,
             ["identity-suite", "--reps", str(self.SUITE_REPS), "--seed", s[6]],
             ["name", "lhs", "rhs", "paired_stderr", "pass"],
             lambda rows, res: checks.identity_csv_rows(rows)),
            ("optimal-n", self.REPS,
             ["optimal-n", "--n-max", "10", "--reps", reps, "--seed", s[7]],
             ["n", "gain_mean", "gain_stderr", "gain_pct"], self._optimal_rows),
        ]
        self.argv = {name: argv for name, _, argv, _, _ in specs}
        return [
            Op(name, count,
               lambda argv=argv, name=name: self.run_cli([*argv, "--workers", "2"], name),
               self._table(name, header)(rows_check))
            for name, count, argv, header, rows_check in specs
        ]

    def after_rounds(self, first):
        """--workers 1 must write the bytes --workers 2 wrote."""
        problems = {}
        for name in ("gain-surface", "identity-suite"):
            serial = self.run_cli([*self.argv[name], "--workers", "1"], name)
            problems[f"{name} --workers 1"] = (
                [] if serial.code == 0 and serial.csv == first[name].csv
                else [f"{name}: --workers 1 output differs from --workers 2"])
        return problems

    def negative_control(self, first):
        _, rows = checks.read_csv(first["constant"].csv)
        (estimate, se, _), = rows
        return checks.near("constant shifted by +10 stderr",
                           float(estimate) + 10.0 * float(se), se, self.constant)


WORKLOADS = {"path-risk": PathRisk, "gain-scalar": GainScalar, "cli-pool": CliPool}


# ---------------------------------------------------------------------------
# measurement


def run_round(ops, first, problems):
    """One call of each operation; checks each output and compares it with round 1."""
    rnd = Round()
    for op in ops:
        cpu0, start = cpu_s(), time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising call is one failed operation
            errors = [f"{op.name}: raised {exc!r}"]
        else:
            rnd.wall += time.perf_counter() - start
            rnd.cpu += cpu_s() - cpu0
            errors = op.check(out)
            if op.name in first and out != first[op.name]:
                errors.append(f"{op.name}: output differs from the first round")
            first.setdefault(op.name, out)
            if isinstance(out, CliResult):
                rnd.csv_bytes += len(out.csv.encode())
        if errors:
            rnd.failed += 1
            problems.extend(errors)
    return rnd


def measure(workload, seconds, tracer, setup_layers):
    ops = workload.ops()
    first, problems = {}, []
    plain, traced = [], []
    start = time.monotonic()
    while len(plain) < MIN_ROUNDS or time.monotonic() - start < seconds:
        plain.append(run_round(ops, first, problems))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                rnd = run_round(ops, first, problems)
            finally:
                tracer.uninstall()
            rnd.layers = tracer.layer_metrics()
            traced.append(rnd)
    peak = peak_rss_mb()

    rounds = plain + traced
    attempted = len(ops) * len(rounds)
    failed = sum(r.failed for r in rounds)
    for name, errors in workload.after_rounds(first).items():
        attempted += 1
        failed += bool(errors)
        problems.extend(errors)

    wall = statistics.median(r.wall for r in plain)
    if tracer is None:
        reps = sum(op.reps for op in ops)
        metrics = {
            "wall_s": (wall, "s"),
            "reps_per_s": (reps / wall, "1/s"),
            "cpu_s": (statistics.median(r.cpu for r in plain), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
    else:
        metrics = {}
        for name, (_, unit) in traced[0].layers.items():
            middle = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = (middle(r.layers[name][0] for r in traced), unit)
        metrics["cli.csv_bytes"] = (statistics.median_low(r.csv_bytes for r in traced), "bytes")
        metrics["setup.basis_builds"] = setup_layers["process_sim.basis_builds"]
        metrics["setup.basis_s"] = setup_layers["process_sim.basis_s"]
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall for r in traced) - wall, "s")

    control = workload.negative_control(first)
    return {
        "rounds": len(plain), "traced_rounds": len(traced),
        "round_wall_s": [r.wall for r in plain],
        "attempted": attempted, "failed": failed, "problems": problems,
        "negative_control": control, "metrics": metrics,
    }


def host_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up and print only its end time")
    args = parser.parse_args(argv)

    workdir = RESULTS / f"work-{args.workload}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = spans.Tracer() if args.trace and not args.probe else None
        if tracer is not None:
            tracer.install()
        workload.warm()
        ready = time.monotonic()
        setup_layers = {}
        if tracer is not None:
            tracer.uninstall()
            setup_layers = tracer.layer_metrics()
        if args.probe:
            print(json.dumps({"ready": ready}))
            return 0
        workload.prepare(checks.load_oracles(ROOT))
        result = measure(workload, args.seconds, tracer, setup_layers)
        result.update(ready=ready, host=host_facts())
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
