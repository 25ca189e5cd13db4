"""Negative control: the identity-suite checks must flag a corrupted program.

``identity-suite --corrupt-lambda 1.05`` forms the functional's coefficients
with eigenvalues 5 % off. At the workloads' replicate counts this moves the
suite's paired risk rows by only about one paired standard error, so the
control runs at SUITE_REPS replicates, where the expected shift is about
seven. (The other control, a result shifted by ten standard errors, runs in
every workload run.)

Started by ``run.py --negative-control``; prints the suite's CSV, the
verdict, and a JSON line last. The control passes when the checks report
the suite as failed and the CLI exits 4.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
from workload import RESULTS, CliPool

SUITE_REPS = 1 << 19
SEED = 20080


def main():
    workdir = RESULTS / f"work-negative-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        argv = ["identity-suite", "--corrupt-lambda", "1.05", "--reps", str(SUITE_REPS),
                "--grid", "1025", "--n-basis", "1024", "--seed", str(SEED), "--workers", "2"]
        res = CliPool(SEED, workdir).run_cli(argv, "suite")
        problems = checks.identity_csv_rows(checks.read_csv(res.csv)[1]) if res.csv else []
        if res.code != 4:
            problems.append(f"identity-suite exit code {res.code}, expected 4")
        flagged = bool(problems) and res.code == 4
        print(f"driftlab {' '.join(argv)}: exit {res.code}")
        print(res.csv.strip())
        print(f"negative control: {'flagged' if flagged else 'NOT flagged'}: {'; '.join(problems)}")
        print(json.dumps({"correct": flagged, "attempted": 1, "failed": int(flagged)}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
