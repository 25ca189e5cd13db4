"""driftlab benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload {path-risk,gain-scalar,cli-pool} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --negative-control

Runs from a source checkout (driftlab is imported from src/). Every child
process gets BLAS pinned to one thread. The workload's set-up is timed in
SETUP_PROBES fresh processes and in the measuring process, and the median
is reported (untraced runs only). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end figures; with --trace 1 the per-layer figures. A copy
with host facts goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("path-risk", "gain-scalar", "cli-pool")
SETUP_PROBES = 4
DEADLINE_S = 170.0          # a run must end within 180 s
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    path = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_child(script, args, timeout):
    """Run a benchmark script in its own process group; its stdout lines and spawn time."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"{script} {' '.join(args)} did not finish in {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"{script} {' '.join(args)} exited {proc.returncode}: {err.strip()}")
    return spawned, out.splitlines()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):   # set-up is reported untraced only
        spawned, lines = run_child("workload.py", [*common, "--probe"], deadline - time.monotonic())
        setups.append(json.loads(lines[-1])["ready"] - spawned)
    spawned, lines = run_child("workload.py", common, deadline - time.monotonic())
    result = json.loads(lines[-1])
    setups.append(result["ready"] - spawned)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    control = result["negative_control"]
    summary = {
        "correct": bool(control),        # the checks must flag the shifted result
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    for problem in result["problems"]:
        print(f"failed: {problem}")
    print(f"negative control: {'flagged' if control else 'NOT flagged'}: {'; '.join(control)}")
    print(f"rounds: {result['rounds']} untraced, {result['traced_rounds']} traced; "
          f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")

    host = {**result["host"], "cpu": cpu_model(), "nproc": os.cpu_count(),
            "blas_env": BLAS_THREADS}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {"args": vars(args), "host": host, "rounds": result["rounds"],
              "traced_rounds": result["traced_rounds"], "setup_samples": setups,
              "round_wall_s": result["round_wall_s"],
              "problems": result["problems"], "negative_control": control, **summary}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


def negative_control():
    _, lines = run_child("negative.py", [], 600.0)
    print("\n".join(lines))
    return 0 if json.loads(lines[-1])["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="run the negative controls of the output checks instead")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "driftlab").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"run.py: no driftlab source checkout at {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.negative_control:
            return negative_control()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds < 1:
            parser.error("--seconds must be at least 1")
        return measure(args)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
