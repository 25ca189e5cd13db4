"""Importing driftlab loads NumPy and no SciPy module, and probes no noise
tables. Each SciPy function is loaded at its first use, and the gain engine
loads scipy.special, and the block runner the noise tables, in the calling
process before a pool forks, so the workers inherit them. No module imports
ctypes: the noise layer re-keys Philox through its public state setter."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(driftlab.__file__)))


def run_python(code, *args):
    """Run code in a fresh interpreter that imports the driftlab under test;
    return the JSON value of its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_loads_no_scipy():
    loaded = run_python(f"import json, sys, driftlab, driftlab.cli\n"
                        f"print(json.dumps({SCIPY_MODULES}))")
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["bayes", "--reps", "64", "--grid", "16"],
    ["constant", "--reps", "64"],
], ids=lambda argv: argv[0])
def test_subcommand_runs_without_scipy(tmp_path, argv):
    code = ("import json, sys\n"
            "from driftlab import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            f"print(json.dumps([code, {SCIPY_MODULES}]))")
    out = tmp_path / "out.csv"
    assert run_python(code, *argv, "--out", str(out)) == [0, []]
    assert out.exists()


# A stand-in _gain_block, patched onto risk_engine under the same name so that
# it still pickles, records in each worker whether what it is asked about
# (a Python expression, evaluated before and during the pooled run) was
# already true when that worker's first block started.
POOLED_GAIN = """
import json, os, sys
from driftlab import risk_engine

real_block = risk_engine._gain_block
seen, loaded = sys.argv[1], sys.argv[2]


def _gain_block(start, count, **kwargs):
    path = os.path.join(seen, str(os.getpid()))
    if not os.path.exists(path):
        with open(path, "w") as fh:
            fh.write(json.dumps(eval(loaded)))
    return real_block(start, count, **kwargs)


_gain_block.__module__ = risk_engine.__name__
risk_engine._gain_block = _gain_block
before = eval(loaded)
risk_engine.gain_curve(1.0, 1.0, 1.0, 5, 8192, 3, workers=2)
print(json.dumps([before, os.getpid()]))
"""


def assert_workers_inherit(tmp_path, loaded):
    # not loaded by importing driftlab; loaded by the parent before the pool
    # forks, so that no worker loads its own
    before, parent = run_python(POOLED_GAIN, str(tmp_path), loaded)
    assert before is False
    workers = {int(path.name): json.loads(path.read_text()) for path in tmp_path.iterdir()}
    assert workers and parent not in workers  # every block ran in a worker
    assert all(workers.values()), workers


def test_pool_workers_inherit_scipy_special(tmp_path):
    assert_workers_inherit(tmp_path, "'scipy.special' in sys.modules")


def test_pool_workers_inherit_noise_tables(tmp_path):
    # the 1024-row tasks of 5 normals a row take the array path
    assert_workers_inherit(tmp_path, "risk_engine._array_tables.cache_info().currsize == 1")


def test_no_module_imports_ctypes():
    # NumPy's private state layout is no part of the noise contract
    importers = set()
    for path in Path(SRC, "driftlab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "ctypes" for name in names):
                importers.add(path.stem)
    assert importers == set()
