import csv
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from driftlab import cli


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

    @pytest.mark.parametrize("argv", [
        ["constant", "--reps", "100", "--T", "1"],
        ["gain-curve", "--n-max", "4", "--reps", "100", "--grid", "64"],
    ])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


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
