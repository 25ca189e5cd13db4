import csv
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import ModelParams, cli, sample_average_risk


def run(argv):
    return cli.main(argv)


def child_env():
    # a `python -m driftlab.cli` child must import the driftlab under test,
    # which pytest may have found through its own pythonpath setting
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestSimulate:
    def test_writes_path_table(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--alpha", "1.0", "--seed", "3", "--grid", "64",
                    "--n-basis", "32", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["t", "u", "x", "xu", "stein_estimate"]
        assert len(rows) == 65
        t = np.array([float(r[0]) for r in rows])
        u = np.array([float(r[1]) for r in rows])
        x = np.array([float(r[2]) for r in rows])
        xu = np.array([float(r[3]) for r in rows])
        np.testing.assert_allclose(x - xu, u, atol=1e-12)
        np.testing.assert_allclose(u, 1.0 * t, atol=1e-12)
        stein0 = float(rows[0][4])
        assert stein0 == 0.0  # every estimate starts at the origin

    def test_plot_script_written(self, tmp_path):
        out = tmp_path / "sim.csv"
        run(["simulate", "--grid", "32", "--n-basis", "16", "--out", str(out)])
        script = tmp_path / "sim.csv.plot.txt"
        assert script.exists()
        assert "sim.csv" in script.read_text()


class TestGainCurve:
    def test_curve_table(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(["gain-curve", "--n-max", "6", "--reps", "2000", "--seed", "9",
                    "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["n", "gain_mean", "gain_stderr", "gain_pct"]
        assert [int(r[0]) for r in rows] == [3, 4, 5, 6]
        for r in rows:
            assert float(r[3]) == pytest.approx(100.0 * float(r[1]), rel=1e-12)

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        args = ["gain-curve", "--n-max", "5", "--reps", "3000", "--seed", "4"]
        outs = [tmp_path / f"c{i}.csv" for i in range(3)]
        run(args + ["--out", str(outs[0])])
        run(args + ["--out", str(outs[1])])
        run(args + ["--workers", "2", "--out", str(outs[2])])
        blobs = [p.read_bytes() for p in outs]
        assert blobs[0] == blobs[1] == blobs[2]


class TestGainSurface:
    def test_rows_sorted_by_param_then_n(self, tmp_path):
        out = tmp_path / "surf.csv"
        code = run(["gain-surface", "--n-max", "4", "--reps", "500", "--seed", "2",
                    "--T-range", "1.0,0.5", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["n", "param_value", "gain_mean", "gain_stderr"]
        keys = [(float(r[1]), int(r[0])) for r in rows]
        assert keys == sorted(keys)
        assert keys == [(0.5, 3), (0.5, 4), (1.0, 3), (1.0, 4)]

    def test_repeated_value_rows_grouped_by_n(self, tmp_path):
        out = tmp_path / "surf.csv"
        assert run(["gain-surface", "--n-max", "4", "--reps", "100", "--seed", "1",
                    "--T-range", "2,2,1", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [(r[1], r[0]) for r in rows] == [
            ("1", "3"), ("1", "4"), ("2", "3"), ("2", "3"), ("2", "4"), ("2", "4")]

    def test_t_slice_matches_gain_curve(self, tmp_path):
        surf = tmp_path / "surf.csv"
        curve = tmp_path / "curve.csv"
        run(["gain-surface", "--n-max", "4", "--reps", "800", "--seed", "5",
             "--T-range", "1.0,2.0", "--out", str(surf)])
        run(["gain-curve", "--n-max", "4", "--reps", "800", "--seed", "5",
             "--out", str(curve)])
        _, surf_rows = read_rows(surf)
        _, curve_rows = read_rows(curve)
        slice_rows = [(r[0], r[2], r[3]) for r in surf_rows if float(r[1]) == 1.0]
        full_rows = [(r[0], r[1], r[2]) for r in curve_rows]
        assert slice_rows == full_rows  # string equality: bitwise agreement

    def test_exactly_one_range_required(self, tmp_path):
        out = tmp_path / "surf.csv"
        assert run(["gain-surface", "--n-max", "4", "--reps", "10",
                    "--out", str(out)]) == 1
        assert run(["gain-surface", "--n-max", "4", "--reps", "10",
                    "--T-range", "1.0", "--sigma-range", "1.0",
                    "--out", str(out)]) == 1


class TestConstant:
    def test_single_row(self, tmp_path):
        out = tmp_path / "const.csv"
        code = run(["constant", "--reps", "4000", "--seed", "1", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["estimate", "stderr", "reps"]
        assert len(rows) == 1
        assert 0.08 < float(rows[0][0]) < 0.15
        assert int(rows[0][2]) == 4000


class TestBayes:
    def test_closed_form_column_is_exact(self, tmp_path):
        out = tmp_path / "bayes.csv"
        code = run(["bayes", "--tau", "1.0", "--v-slope", "0.0", "--reps", "500",
                    "--grid", "128", "--seed", "3", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["closed_form_risk", "mc_risk", "mc_stderr", "reps"]
        closed, mc, se, reps = rows[0]
        assert float(closed) == 0.25
        assert abs(float(mc) - 0.25) < 4 * float(se)
        assert int(reps) == 500

    def test_negative_tau_rejected(self, tmp_path):
        out = tmp_path / "bayes.csv"
        assert run(["bayes", "--tau", "-1.0", "--reps", "10",
                    "--out", str(out)]) == 1


class TestFilter:
    def test_variance_column_matches_half_t(self, tmp_path):
        out = tmp_path / "filt.csv"
        code = run(["filter", "--tau", "1.0", "--v-slope", "0.0", "--grid", "64",
                    "--seed", "8", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["t", "cond_drift", "cond_variance"]
        for r in rows:
            assert float(r[2]) == pytest.approx(0.5 * float(r[0]), abs=1e-12)


class TestIdentitySuite:
    def test_pass_exit_zero(self, tmp_path):
        out = tmp_path / "suite.csv"
        code = run(["identity-suite", "--n", "4", "--reps", "9000", "--seed", "2",
                    "--grid", "256", "--n-basis", "64", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["name", "lhs", "rhs", "paired_stderr", "pass"]
        assert [r[0] for r in rows] == [
            "unbiased-risk", "sqrt-laplacian-risk", "log-gradient-risk",
            "harmonic-risk", "chain-rule-pathwise", "correction-forms-pathwise",
            "bias-bound",
        ]
        assert all(r[4] == "1" for r in rows)

    def test_corrupted_eigenvalues_exit_four(self, tmp_path, capsys):
        out = tmp_path / "suite.csv"
        code = run(["identity-suite", "--n", "4", "--reps", "9000", "--seed", "2",
                    "--grid", "256", "--n-basis", "64", "--corrupt-lambda", "2.0",
                    "--out", str(out)])
        assert code == 4
        _, rows = read_rows(out)
        failed = [r[0] for r in rows if r[4] == "0"]
        assert "unbiased-risk" in failed
        assert "sqrt-laplacian-risk" in failed
        # one stderr line per failing row, each naming the row and its z-score
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(failed)
        unbiased = next(line for line in err if "unbiased-risk" in line)
        z = float(unbiased.split("z = |lhs - rhs| / paired_stderr = ")[1])
        assert z > 3.0


class TestOptimalN:
    def test_reports_n_four(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        code = run(["optimal-n", "--n-max", "8", "--reps", "20000", "--seed", "0",
                    "--out", str(out)])
        assert code == 0
        assert "n_opt=4" in capsys.readouterr().out
        header, rows = read_rows(out)
        assert header == ["n", "gain_mean", "gain_stderr", "gain_pct"]
        assert [int(r[0]) for r in rows] == list(range(3, 9))


# sha256 of each subcommand's CSV and of its plot script with the CSV path
# replaced by "OUT", at the acceptance criterion-10 sizes
PINNED_BYTES = {
    "simulate": (["simulate", "--grid", "256", "--n-basis", "128", "--seed", "11"],
                 "9738b96b2f88ad433fd262f9ced58548c0f3802fdb09f05a841bb6d113e271e0",
                 "cea8621d004d376346c4da7088072a457460d92586d4be62aed6945082fc7d77"),
    "gain-curve": (["gain-curve", "--n-max", "6", "--reps", "4000", "--seed", "11"],
                   "683c88b069f8bcd520043bbc6edeca8b6f162f6dafa646a93adbda9c9a80e3de",
                   "bc23931a279fa9526a787cb7a8c45ce55b11306afd8040eab92cc42b6ed16b33"),
    "gain-surface": (["gain-surface", "--n-max", "4", "--reps", "1500", "--seed", "11",
                      "--sigma-range", "0.5,1,2"],
                     "e605f3a001090e7264d8868ef231a802a03c878fd8e9e7177b3a4ec75bef049f",
                     "25dd116db55645f9735af9bf2ee64d1cf17c09c00b24b63283781ef48d4f39ab"),
    "constant": (["constant", "--reps", "5000", "--seed", "11"],
                 "7ad0d9fbf4127bd0650ee73f3497c4abc858c4a15b8317dda4b25a9f523c367b",
                 "9a496d4f02c0281aa303d55ab6a75f98bee77c53ac36b4c79deb584a7cb763e7"),
    "bayes": (["bayes", "--tau", "1.0", "--reps", "1500", "--grid", "256", "--seed", "11"],
              "ace3833e4173254047d1c79204a0089d8a5661777946e2d7e736c9b0bd1ba40a",
              "4975ef21adb2d1c13ed9620b704368d0e5958c1ca38eb451dfd81ef8da392b76"),
    "filter": (["filter", "--tau", "1.0", "--grid", "256", "--seed", "11"],
               "8acd9aa765073bae12a6aef1484b4d6f4694c05c39a171f7fdc937349597a699",
               "9b09b6b691a6a278dc9a2bf44287221ba0eb77d95e3346c840743847c123111f"),
    "identity-suite": (["identity-suite", "--n", "4", "--reps", "9000", "--seed", "2",
                        "--grid", "256", "--n-basis", "64"],
                       "1c8101ba27c1492d33e2060f64e1e365c93e14d5bff1a4cd9d3ba3f18987f84f",
                       "a98f3b842641197e1aa6211ffe3c910bc69240b277ea3f70d71997ae7bdec08f"),
    "optimal-n": (["optimal-n", "--n-max", "6", "--reps", "4000", "--seed", "11"],
                  "683c88b069f8bcd520043bbc6edeca8b6f162f6dafa646a93adbda9c9a80e3de",
                  "bc23931a279fa9526a787cb7a8c45ce55b11306afd8040eab92cc42b6ed16b33"),
}


@pytest.mark.parametrize("name", sorted(PINNED_BYTES))
def test_output_bytes_pinned(tmp_path, name):
    argv, csv_digest, plot_digest = PINNED_BYTES[name]
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
    plot = (tmp_path / "out.csv.plot.txt").read_text().replace(str(out), "OUT")
    assert hashlib.sha256(plot.encode("ascii")).hexdigest() == plot_digest


# one block split into tasks, an odd replicate count, a repeated swept value
WORKER_ARGV = {
    "bayes": ["bayes", "--tau", "1", "--reps", "4096", "--grid", "128", "--seed", "21"],
    "constant": ["constant", "--reps", "5001", "--seed", "22"],
    "gain-surface": ["gain-surface", "--n-max", "5", "--reps", "5000", "--seed", "23",
                     "--T-range", "2,2,1"],
}


@pytest.mark.parametrize("name", sorted(WORKER_ARGV))
def test_output_bytes_do_not_depend_on_workers(tmp_path, name):
    csvs = []
    for workers in ("1", "2", "3"):
        out = tmp_path / f"workers-{workers}.csv"
        assert run(WORKER_ARGV[name] + ["--workers", workers, "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[1] == csvs[0] and csvs[2] == csvs[0]


def test_sample_average_risk_does_not_depend_on_workers():
    # 4396 groups of 16: a whole block and a partial one
    params = ModelParams(sigma=1.0, T=1.0, alpha=1.0)
    reports = [sample_average_risk(16, params, 4396, 24, n_basis=32, workers=workers)
               for workers in (1, 2, 3)]
    bits = [(rep.mean.hex(), rep.stderr.hex()) for rep in reports]
    assert bits[1] == bits[0] and bits[2] == bits[0]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "driftlab:" in capsys.readouterr().err

    def test_missing_out(self):
        assert run(["gain-curve", "--reps", "10"]) == 1

    def test_bad_numeric_argument(self):
        assert run(["gain-curve", "--reps", "ten", "--out", "/tmp/x.csv"]) == 1

    def test_invalid_model_configuration(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["simulate", "--sigma", "-2.0", "--out", str(out)]) == 1

    def test_unwritable_output_path(self):
        assert run(["constant", "--reps", "100",
                    "--out", "/nonexistent-dir/deep/x.csv"]) == 2

    @pytest.mark.parametrize("argv", [
        ["gain-curve", "--alpha", "inf", "--n-max", "5"],
        ["gain-curve", "--sigma", "nan", "--n-max", "5"],
        ["bayes", "--T=-inf"],
        ["bayes", "--tau", "inf"],
        ["filter", "--v-slope", "nan", "--grid", "32"],
        ["identity-suite", "--a", "nan", "--grid", "32", "--n-basis", "16"],
        ["identity-suite", "--corrupt-lambda", "nan", "--grid", "32", "--n-basis", "16"],
        ["gain-surface", "--n-max", "4", "--sigma-range", "1,inf"],
        ["gain-surface", "--n-max", "4", "--T-range", "nan,1"],
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert run(argv + ["--reps", "100", "--out", str(out)]) == 1
        assert "not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        # simulate and filter run no replicate pool, so only the flag's
        # type can reject the value there
        for argv in (["constant", "--reps", "2000"],
                     ["simulate", "--grid", "32", "--n-basis", "16"],
                     ["filter", "--grid", "32", "--n-basis", "16"]):
            out = tmp_path / f"{argv[0]}.csv"
            assert run(argv + ["--workers", workers, "--out", str(out)]) == 1
            assert "workers" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("flag", ["--reps", "--n-basis", "--grid"])
    def test_count_flags_must_be_positive(self, tmp_path, capsys, flag):
        out = tmp_path / "suite.csv"
        argv = ["identity-suite", "--grid", "32", "--n-basis", "16", flag, "-1"]
        assert run(argv + ["--out", str(out)]) == 1
        assert "not a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gain-curve"],
        ["gain-surface", "--sigma-range", "1,2"],
        ["optimal-n"],
    ])
    def test_single_replicate_rejected(self, tmp_path, capsys, argv):
        # a standard error needs two replicates; this was a ZeroDivisionError
        out = tmp_path / "x.csv"
        assert run(argv + ["--n-max", "4", "--reps", "1", "--out", str(out)]) == 1
        assert "need reps >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gain-curve", "--T", "0"],
        ["gain-curve", "--sigma", "-1"],
        ["gain-curve", "--sigma", "0"],
        ["gain-surface", "--T-range", "0,1"],
    ])
    def test_gain_model_checked(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert run(argv + ["--n-max", "4", "--reps", "100", "--out", str(out)]) == 1
        assert "must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_non_positive_corrupt_lambda_rejected(self, tmp_path, capsys, scale):
        # 0 wrote an all-nan table with exit 4 and -1 a passing one with exit 0
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["identity-suite", "--reps", "100", "--grid", "32", "--n-basis", "16",
                        "--corrupt-lambda", scale, "--out", str(out)]) == 1
        assert "lambda_scale must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_functional_wider_than_the_expansion_rejected(self, tmp_path, capsys):
        # this was a broadcasting error from inside the Stein block
        out = tmp_path / "x.csv"
        assert run(["identity-suite", "--n", "40", "--n-basis", "16", "--grid", "32",
                    "--reps", "100", "--out", str(out)]) == 1
        assert "n=40 exceeds n_basis=16" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, grid", [(3, 2), (4, 3), (5, 4), (8, 5)])
    def test_james_stein_grid_coarser_than_n_rejected(self, tmp_path, capsys, n, grid):
        # the trapezoid Gram matrix of the first n sine rows is exact only for
        # n <= grid: each of these exited 4 on a correct program, with
        # correction-forms-pathwise deviations of 1.3 to 142
        out = tmp_path / "x.csv"
        assert run(["identity-suite", "--n", str(n), "--grid", str(grid), "--reps", "200",
                    "--n-basis", "16", "--out", str(out)]) == 1
        assert f"n={n} needs grid_m >= n, got grid_m={grid}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--n", "4", "--grid", "4"],
                                      ["--n", "5", "--a", "-1", "--grid", "2"]],
                             ids=["james-stein-grid-n", "general-exponent-grid-2"])
    def test_grid_rule_reaches_only_the_james_stein_norm(self, tmp_path, capsys, argv):
        # a grid of n intervals is enough, and a run off a = 2-n never reads it
        out = tmp_path / "x.csv"
        assert run(["identity-suite", *argv, "--reps", "200", "--n-basis", "16",
                    "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["bayes", "--tau", "1e300", "--grid", "4", "--reps", "4"],
        ["filter", "--sigma", "1e300", "--grid", "4"],
    ], ids=["bayes-tau-1e300", "filter-sigma-1e300"])
    def test_overflow_exits_one_without_output(self, tmp_path, capsys, argv):
        # both ended in an uncaught OverflowError traceback from a closed form
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("driftlab: invalid configuration: OverflowError")
        assert not out.exists()
        assert not (tmp_path / "x.csv.plot.txt").exists()

    @pytest.mark.parametrize("argv, column", [
        (["gain-curve", "--n-max", "3", "--reps", "64", "--alpha", "1e200"], "gain_mean"),
        (["identity-suite", "--n", "4", "--reps", "64", "--n-basis", "8", "--grid", "8",
          "--sigma", "1e-300"], "lhs"),
    ], ids=["gain-curve-alpha-1e200", "identity-suite-sigma-1e-300"])
    def test_non_finite_result_exits_one_without_output(self, tmp_path, capsys, argv, column):
        # finite inputs whose results overflow: the first wrote 3,nan,nan,nan
        # with exit 0, the second rows of nan with exit 4
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            # NumPy warns on the way to the nan; the exit code is under test
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("driftlab: invalid configuration: ")
        assert f"{column} is nan in row 1" in err
        assert not out.exists()
        assert not (tmp_path / "x.csv.plot.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["--sigma", "1e6"],
        ["--T", "1e6", "--alpha", "1e-6"],
        ["--n", "5", "--a", "-1", "--sigma", "1e6"],
    ], ids=["sigma-1e6", "T-1e6-alpha-1e-6", "general-exponent-sigma-1e6"])
    def test_pathwise_rows_hold_at_a_large_scale(self, tmp_path, capsys, argv):
        # the pathwise deviations were absolute: rounding of a correction of
        # size sigma T (its 1/D terms, (sigma T)^2) crossed 1e-10, exit 4
        out = tmp_path / "x.csv"
        assert run(["identity-suite", "--reps", "4096", *argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = {row[0]: row for row in csv.reader(out.read_text().splitlines()[1:])}
        for name in ("chain-rule-pathwise", "correction-forms-pathwise"):
            if name in rows:
                assert float(rows[name][1]) <= 1e-10 and rows[name][4] == "1"

    def test_memory_error_exits_one_without_output(self, tmp_path, capsys, monkeypatch):
        # optimal-n --n-max 1000000000 asks NumPy for 14.9 GiB and ended in a
        # MemoryError traceback; the engine call raises it here instead
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.9 GiB for an array")

        monkeypatch.setattr(cli.risk_engine, "optimal_n_search", too_large)
        out = tmp_path / "x.csv"
        assert run(["optimal-n", "--n-max", "5", "--reps", "10", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("driftlab: invalid configuration: ")
        assert not out.exists()
        assert not (tmp_path / "x.csv.plot.txt").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("argv", [
        ["constant", "--reps", "600"],
        ["gain-curve", "--n-max", "4", "--reps", "4096"],
    ], ids=lambda argv: argv[0])
    def test_seed_outside_the_key_range_exits_one_without_output(self, tmp_path, capsys,
                                                                 argv, seed):
        # blocks of 512 rows or more and at most 12 normals a row take the
        # array path, which ended in NumPy's OverflowError for these seeds
        out = tmp_path / "x.csv"
        assert run(argv + ["--seed", seed, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "driftlab: invalid configuration: seed must fit an unsigned 64-bit integer\n"
        assert not out.exists()
        assert not (tmp_path / "x.csv.plot.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["constant", "--reps", "100", "--T", "1"],
        ["gain-curve", "--n-max", "4", "--reps", "100", "--grid", "64"],
    ])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


# (moderate, extreme) values of each flag: sizes at most 16, --reps at most
# 64, --workers 1 or 2 (each pooled run forks); an extreme value is tiny,
# huge, zero or negative, and a seed at either end of its range or past it
_MAGNITUDES = [1e-300, 1e-8, 1e8, 1e300]
_FLOATS = (st.sampled_from([0.25, 1.0, 2.5]),
           st.sampled_from([0.0, -1.0] + _MAGNITUDES + [-m for m in _MAGNITUDES]))
_VALUES = {"reps": (st.integers(2, 64), st.integers(-2, 1)),
           "workers": (st.integers(1, 2),) * 2,
           "seed": (st.integers(0, 99), st.sampled_from([-1, 2**64 - 1, 2**64]))}
_SIZES = (st.integers(3, 16), st.integers(-2, 2))


@st.composite
def argvs(draw, name):
    """An argv of every flag the subcommand name reads, from the cli tables;
    at most three of its flags, or the swept range, take extreme values."""
    flags = cli._SUBCOMMANDS[name][2].split() + ["range"] * (name == "gain-surface")
    extreme = draw(st.lists(st.sampled_from(flags), max_size=3))
    argv = [name]
    for flag in flags:
        if flag == "range":
            flag = draw(st.sampled_from(["T-range", "sigma-range"]))
            values = draw(st.lists(_FLOATS["range" in extreme], min_size=1, max_size=3))
            argv.append(f"--{flag}={','.join(map(repr, values))}")
            continue
        kind = _FLOATS if cli._FLAGS[flag][0] is cli._finite_float else _VALUES.get(flag, _SIZES)
        value = draw(kind[flag in extreme])
        argv.append(f"--{flag}={value!r}")  # "=" keeps a negative value a value
    return argv


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None  # an identity row's name


@pytest.mark.parametrize("name", sorted(cli._SUBCOMMANDS))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(name, data):
    # main returns a documented code for any argv; a failed run writes
    # nothing, and a successful one writes only finite numbers
    argv = data.draw(argvs(name))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "x.csv")
        with warnings.catch_warnings():
            # NumPy warns on the way to an overflow; the outcome is under test
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run(argv + ["--out", out])
        assert code in (0, 1, 2, 3, 4)
        written = [os.path.exists(path) for path in (out, out + ".plot.txt")]
        if code in (1, 2, 3):
            assert not any(written)
        if code == 0:
            assert all(written)
            _, rows = read_rows(out)
            numbers = [_number(field) for row in rows for field in row]
            assert all(math.isfinite(x) for x in numbers if x is not None)


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "driftlab.cli", "--help"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        for name in ("simulate", "gain-curve", "identity-suite", "optimal-n"):
            assert name in proc.stdout

    @pytest.mark.skipif(
        shutil.which("driftlab") is None,
        reason="driftlab console script not on PATH; it exists only after "
               "`pip install -e .`",
    )
    def test_console_script_runs_a_command(self, tmp_path):
        out = tmp_path / "curve.csv"
        proc = subprocess.run(
            ["driftlab", "gain-curve", "--n-max", "4", "--reps", "500",
             "--seed", "1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_module_entry_point_runs_a_command(self, tmp_path):
        # the same `driftlab.cli:main` the console script calls, in a fresh
        # process, so the entry point stays checked without an install
        out = tmp_path / "curve.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "driftlab.cli", "gain-curve", "--n-max", "4",
             "--reps", "500", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert out.exists()
