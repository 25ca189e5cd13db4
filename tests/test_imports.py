"""Importing driftlab loads NumPy and no SciPy module, and probes no noise
tables. Each SciPy function is loaded at its first use, and the bayes,
constant and gain subcommands, and a pooled gain curve in its parent and in
every worker, load none: the n = 3 gain column's Faddeeva function is NumPy
code. The block runner builds the noise tables in the calling process before
a pool forks, so the workers inherit them. The pooled runs here are far
below the block runner's pool threshold, so each child runs them under
pooling.forced_pool and checks that a pool started. No module imports ctypes:
the noise layer re-keys Philox through its public state setter. README's
library example imports only names the package has."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import driftlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(driftlab.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))
README = Path(__file__).resolve().parent.parent / "README.md"


def run_python(code, *args):
    """Run code in a fresh interpreter that imports the driftlab under test
    (and this directory's helpers); return the JSON value of its last stdout
    line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, TESTS, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SCIPY_MODULES = ("sorted(m for m, mod in sys.modules.items()"
                 " if m.split('.')[0] == 'scipy' and mod is not None)")


def test_import_loads_no_scipy():
    loaded = run_python(f"import json, sys, driftlab, driftlab.cli\n"
                        f"print(json.dumps({SCIPY_MODULES}))")
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["bayes", "--reps", "64", "--grid", "16"],
    ["constant", "--reps", "64"],
    ["gain-curve", "--n-max", "5", "--reps", "64"],
    # two tasks, so that two workers run the n = 3 column
    ["gain-surface", "--n-max", "4", "--reps", "8192", "--sigma-range", "0.5,1",
     "--workers", "2"],
    ["optimal-n", "--n-max", "5", "--reps", "64"],
], ids=lambda argv: argv[0])
def test_subcommand_runs_without_scipy(tmp_path, argv):
    # SciPy cannot be imported at all: a None entry in sys.modules makes
    # every import of it raise ImportError, in the forked workers too
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from driftlab import cli\n"
            "from pooling import forced_pool\n"
            "with forced_pool() as pools:\n"
            "    code = cli.main(sys.argv[1:])\n"
            f"print(json.dumps([code, {SCIPY_MODULES}, pools]))")
    out = tmp_path / "out.csv"
    assert run_python(code, *argv, "--out", str(out)) == [0, [], [2] * ("--workers" in argv)]
    assert out.exists()


# A stand-in _gain_block, patched onto risk_engine under the same name so that
# it still pickles, records in each worker the value of a probe (a Python
# expression, also evaluated in the parent before and after the pooled run)
# at the start of that worker's first block and after its latest block.
POOLED_GAIN = """
import json, os, sys
from driftlab import risk_engine
from pooling import forced_pool

real_block = risk_engine._gain_block
seen, probe = sys.argv[1], sys.argv[2]


def _gain_block(start, count, **kwargs):
    path = os.path.join(seen, str(os.getpid()))
    first = json.loads(open(path).read())[0] if os.path.exists(path) else eval(probe)
    columns = real_block(start, count, **kwargs)
    with open(path, "w") as fh:
        fh.write(json.dumps([first, eval(probe)]))
    return columns


_gain_block.__module__ = risk_engine.__name__
risk_engine._gain_block = _gain_block
before = eval(probe)
with forced_pool() as pools:
    risk_engine.gain_curve(1.0, 1.0, 1.0, 5, 8192, 3, workers=2)
assert pools == [2]
print(json.dumps([before, eval(probe), os.getpid()]))
"""


def pooled_gain_probe(tmp_path, probe):
    """The probe's value in the parent before and after a pooled gain_curve,
    and per worker [at the start of its first block, after its latest]."""
    before, after, parent = run_python(POOLED_GAIN, str(tmp_path), probe)
    workers = {int(path.name): json.loads(path.read_text()) for path in tmp_path.iterdir()}
    assert workers and parent not in workers  # every block ran in a worker
    return [before, after], workers


def test_pooled_gain_loads_no_scipy(tmp_path):
    # the n = 3 column is computed in every worker, and no process loads SciPy
    parent, workers = pooled_gain_probe(tmp_path, SCIPY_MODULES)
    assert parent == [[], []]
    assert all(value == [[], []] for value in workers.values()), workers


def test_pool_workers_inherit_noise_tables(tmp_path):
    # not built by importing driftlab; built by the parent before the pool
    # forks, so that no worker builds its own. The whole-block tasks of 5
    # normals a row take the array path
    parent, workers = pooled_gain_probe(
        tmp_path, "risk_engine._array_tables.cache_info().currsize == 1")
    assert parent[0] is False
    assert all(first for first, _ in workers.values()), workers


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


def test_readme_library_imports_resolve():
    # the from-driftlab import of README's first Library example runs, so a
    # name removed from the package cannot linger in the docs
    block = re.search(r"^## Library\n.*?```python\n(.*?)```", README.read_text(),
                      re.DOTALL | re.MULTILINE).group(1)
    imports = [node for node in ast.parse(block).body
               if isinstance(node, ast.ImportFrom) and node.module == "driftlab"]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(README), "exec"), {})
