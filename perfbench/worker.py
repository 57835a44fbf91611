"""Benchmark child process: imports the program, says ``ready``, runs one workload.

Started by ``run.py`` with BLAS pinned to one thread.  Prints ``ready`` once
the imports are done (the parent times set-up up to that line), then one
JSON line with the run's result and one with its report.  In an untraced run
it starts a set-up-only copy of itself before every operation and times it
the same way, so that set-up is sampled across the whole run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from tracing import Recorder, Tracing  # noqa: E402
from run import spawn_ready  # noqa: E402
from workloads import WORKLOADS, Quality, geomean, master_seed  # noqa: E402

OUT_DIR = ".perfbench_out"
# Traced runs alternate blocks of this many traced and untraced operations;
# a block of four covers every sweep signal class.
TRACE_BLOCK = 4
# Stop starting operations after this long, whatever --seconds says.
HARD_LIMIT_S = 120.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "src_lines": src_lines,
    }


def traced_op(wl, master: int, out: Path, rec: Recorder, op: int):
    """Run one operation under tracing, counting the warnings it raises."""
    rec.op, rec.labels = op, {}
    try:
        with warnings.catch_warnings(record=True) as caught, Tracing(rec, layers.TARGETS, layers.PACKAGE):
            warnings.simplefilter("always")
            idx = rec.open("op")
            try:
                return wl.op(master, out)
            finally:
                rec.close(idx)
    finally:
        for w in caught:
            name = layers.WARNINGS.get(w.category.__name__)
            if name:
                rec.count(name)
        rec.op = None


def run(
    workload: str, seed: int, seconds: float, trace: bool, root: Path, probe: Callable[[], float] | None = None
) -> tuple[dict, dict]:
    """Run the closed loop.  ``probe``, if given, is called before every
    operation, outside its timing, and its set-up times are reported."""
    wl = WORKLOADS[workload]
    workdir = root / OUT_DIR / f"work-{os.getpid()}"
    rec = Recorder()
    op_s: list[float] = []
    traced: dict[int, float] = {}
    untraced: list[float] = []
    quality: list[Quality] = []
    setup: list[float] = []
    attempted = failed = 0
    busy = 0.0
    start = time.perf_counter()
    try:
        while attempted < wl.quality_ops or time.perf_counter() - start < min(seconds, HARD_LIMIT_S):
            i = attempted
            attempted += 1
            out = workdir / f"op{i}"
            if probe is not None:
                setup.append(probe())
            master = master_seed(seed, i, wl.quality_ops)
            is_traced = trace and (i // TRACE_BLOCK) % 2 == 0
            t0 = time.perf_counter()
            try:
                try:
                    result = traced_op(wl, master, out, rec, i) if is_traced else wl.op(master, out)
                finally:
                    dt = time.perf_counter() - t0
                    busy += dt
                q = wl.check(result)
            except Exception:  # a failed operation is counted and the run goes on
                failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                op_s.append(dt)
                if is_traced:
                    traced[i] = dt
                elif trace:
                    untraced.append(dt)
                if i < wl.quality_ops:
                    quality.append(q)
            finally:
                shutil.rmtree(out, ignore_errors=True)
        scaling = layers.scaling_table(rec, seed) if trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = failed == 0 and len(quality) == wl.quality_ops
    if trace:
        values = layers.per_layer_metrics(rec, list(traced), list(traced.values()), untraced, scaling)
        units = {name: unit for name, unit, *_ in layers.PER_LAYER}
    else:
        values = {
            "ops_per_s": len(op_s) / busy if busy else 0.0,
            "op_s.p50": statistics.median(op_s) if op_s else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        # A run with a failed operation has no quality figures rather than a
        # misleadingly good one.
        if ok:
            values["nmse_ddtl.geomean"] = geomean([v for q in quality for v in q.ddtl])
            values["nmse_fixed.geomean"] = geomean([v for q in quality for v in q.fixed])
        units = {"ops_per_s": "1/s", "op_s.p50": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units.get(name, "ratio")} for name, v in values.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "op_s": op_s,
        "op_s_samples": len(op_s),
        "quality_ops": wl.quality_ops,
        "quality": [{"ddtl": q.ddtl, "fixed": q.fixed} for q in quality],
        "setup_s": setup,
        "environment": environment(root),
    }
    if trace:
        report["per_layer"] = values
        report["spans"] = len(rec.spans)
        write_spans(rec, root / OUT_DIR / f"{workload}-seed{seed}-spans.csv")
    return result, report


def write_spans(rec: Recorder, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("index,op,parent,name,tag,start,end\n")
        for idx, s in enumerate(rec.spans):
            parent = "" if s.parent is None else s.parent
            fh.write(f"{idx},{s.op},{parent},{s.name},{s.tag or ''},{s.start!r},{s.end!r}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    probe = None
    if not args.trace:
        setup_only = ["--workload", args.workload, "--seed", "0", "--seconds", "0", "--trace", "0", "--setup-only"]
        probe = lambda: spawn_ready(setup_only, dict(os.environ))  # noqa: E731
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, probe)
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
