"""Benchmark entry point: times set-up, runs one workload in a child, prints the result.

Run from the root of a topospinor checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The program is used from source (``src/``); nothing is installed.  Set-up is
timed from spawning a child to its ``ready`` line: the measuring child, and a
set-up-only child that the measuring child starts before every operation, so
that the samples span the whole run.  It is reported as their median.  BLAS
is pinned to one thread in every child.  The last line of standard output is
the result as one JSON object; the line before it is the run's report
(environment, operation times), which is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# The names in workloads.py, repeated so that this process imports neither numpy nor topospinor.
WORKLOADS = ("sweep", "denoise", "file_fit")
OUT_DIR = ".perfbench_out"
CHILD_TIMEOUT_S = 170.0
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _start(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; return it and the seconds that took."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, env=env, text=True
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start (said {line.strip()!r})")
    return proc, elapsed


def spawn_ready(args: list[str], env: dict) -> float:
    """Start a set-up-only worker, wait for it to end, and return its start-to-ready seconds."""
    proc, elapsed = _start(args, env)
    _finish(proc, CHILD_TIMEOUT_S)
    return elapsed


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    env = dict(os.environ, **PINNED_BLAS)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    proc, elapsed = _start(args, env)
    lines = _finish(proc, deadline - time.perf_counter()).strip().splitlines()
    if len(lines) < 2:
        raise BenchError("worker printed no result")
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    setup = report["setup_s"] = [elapsed, *report["setup_s"]]
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "topospinor" / "__init__.py").is_file():
        print(f"perfbench: no topospinor sources under {root / 'src'}; run from a checkout's root", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        result, report = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({"result": result, "report": report}, indent=2) + "\n")
    print(json.dumps({"report": {k: report[k] for k in ("workload", "seed", "op_s_samples", "environment")}}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
