"""Paired perfbench runs of a change against its parent, written as one BENCH_*.json file.

    python tools/bench_pairs.py --parent HEAD~1 --workloads sweep --pairs 10 --seconds 30 --out BENCH_N.json
    python tools/bench_pairs.py --parent HEAD~1 --workloads sweep --pairs 10 --seconds 30 --aa --out aa.json

The parent revision and the change, the checkout's HEAD, are each exported
with ``git archive`` into a temporary directory, so that neither side reads
a ``__pycache__`` or an uncommitted edit.  With ``--aa`` the parent runs
against a second export of itself, which gives the noise floor in the same
format.  Each run is

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

from its side's own tree, with ``PYTHONDONTWRITEBYTECODE=1`` and one BLAS
thread.  Pair p runs every workload in turn, each on both sides; the parent
goes first in odd pairs and the change in even ones.  ``os.getloadavg()`` is
recorded before each run, so that a busy machine shows.

Output schema (``"schema": "bench_pairs/1"``):

- ``command``: the perfbench command line, with W, S and N left open;
- ``parent`` and ``change``: ``{"rev", "src_lines": {"raw", "code"}}``, the
  exported commit and the totals of ``tools/src_lines.py`` over its ``src``;
- ``aa``, ``pairs``, ``seconds``, ``seed``, ``workloads``, ``description``;
- ``environment``: Python version, CPU count, the variables set for each run;
- ``runs``: one object per run, in the order run: ``pair``, ``workload``,
  ``side`` (``"parent"`` or ``"change"``), ``first`` (whether that side went
  first in its pair), ``loadavg`` (1, 5 and 15 min) and ``result`` (run.py's
  last line), or ``error`` for a run that printed no result;
- ``summary``: per workload, per end-to-end metric of ``BENCHMARK.json``:
  ``better``; ``parent`` and ``change``, each ``{"median", "q1", "q3"}`` over
  that side's runs; ``median_ratio``, the median of change / parent over the
  pairs where both sides ran; ``pairs_won``, how many of those ``pairs`` favour
  the change; ``parent_iqr_rel``, (q3 - q1) / median of the parent; and, for
  the NMSE metrics, ``bit_identical``, whether every run of both sides gave
  one value; and ``verdict``, the first that holds of
  ``"worse"`` (the change's median is worse than the parent's by more than the
  metric's ``bound``, relative to the parent's median), ``"unresolved"`` (the
  parent's IQR over its median exceeds that bound, and not every change run
  beats every parent run), ``"gain"`` (the change wins at least 9 in 10 of
  the pairs, and the medians differ, in its favour, by more than the
  parent's IQR) and ``"same"``.  ``failed_ops`` sums each side's failed
  operations and ``errors`` counts its runs without a result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable

from src_lines import count

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0"
RUN_ENV = {"PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
SIDES = ("parent", "change")


def export(rev: str, into: Path) -> Path:
    """``git archive`` of ``rev`` unpacked into ``into``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def perfbench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run from ``tree``: its result line, or ``{"error": ...}``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=dict(os.environ, **RUN_ENV), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {"result": json.loads(lines[-1])}


def pair_runs(workloads: list[str], pairs: int, run: Callable[[str, str], dict],
              loadavg: Callable[[], tuple] = os.getloadavg) -> list[dict]:
    """Every run in order: pair p runs each workload on both sides, the parent first when p is odd."""
    runs = []
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                record = {"pair": pair, "workload": workload, "side": side, "first": side == order[0],
                          "loadavg": list(loadavg())}
                runs.append({**record, **run(side, workload)})
    return runs


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str, bound: float, pairs_won: int, pairs: int) -> str:
    """The ``verdict`` of the module docstring, from each side's values and the paired wins."""
    sign = 1.0 if better == "higher" else -1.0  # sign * value grows as the metric gets better
    p, c = _quartiles(parent), _quartiles(change)
    gain, iqr, scale = sign * (c["median"] - p["median"]), p["q3"] - p["q1"], bound * abs(p["median"])
    if gain < -scale:
        return "worse"
    if iqr > scale and min(sign * v for v in change) <= max(sign * v for v in parent):
        return "unresolved"
    if pairs_won >= 0.9 * pairs and gain > iqr:
        return "gain"
    return "same"


def summarize(runs: list[dict], metrics: dict[str, tuple[str, float]]) -> dict:
    """Per workload and metric (name -> (``"higher"`` or ``"lower"``, bound)), the summary of the module docstring."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        done = {side: {r["pair"]: r["result"] for r in runs
                       if r["workload"] == workload and r["side"] == side and "result" in r} for side in SIDES}
        entry = {
            "failed_ops": {side: sum(res["failed"] for res in done[side].values()) for side in SIDES},
            "errors": {side: sum(r["workload"] == workload and r["side"] == side and "error" in r for r in runs)
                       for side in SIDES},
        }
        for name, (better, bound) in metrics.items():
            values = {side: {p: res["metrics"][name]["value"] for p, res in done[side].items()
                             if name in res["metrics"]} for side in SIDES}
            if not values["parent"] or not values["change"]:
                continue
            paired = sorted(values["parent"].keys() & values["change"].keys())
            ratios = [values["change"][p] / values["parent"][p] for p in paired if values["parent"][p]]
            won = sum((values["change"][p] > values["parent"][p]) if better == "higher"
                      else (values["change"][p] < values["parent"][p]) for p in paired)
            stats = {side: _quartiles(list(values[side].values())) for side in SIDES}
            parent = stats["parent"]
            entry[name] = {
                "better": better, **stats,
                "median_ratio": statistics.median(ratios) if ratios else None,
                "pairs_won": won, "pairs": len(paired),
                "parent_iqr_rel": (parent["q3"] - parent["q1"]) / parent["median"] if parent["median"] else None,
                "verdict": verdict(*(list(values[side].values()) for side in SIDES), better, bound, won, len(paired)),
            }
            if name.startswith("nmse"):
                entry[name]["bit_identical"] = len({*values["parent"].values(), *values["change"].values()}) == 1
        summary[workload] = entry
    return summary


def src_size(tree: Path) -> dict:
    raw = code = 0
    for path in sorted((tree / "src").rglob("*.py")):
        r, c = count(path)
        raw, code = raw + r, code + c
    return {"raw": raw, "code": code}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD~1", help="revision to run against HEAD (default HEAD~1)")
    parser.add_argument("--workloads", default="sweep,denoise,file_fit", help="comma-separated perfbench workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--aa", action="store_true", help="run the parent against itself (the noise floor)")
    parser.add_argument("--description", default="", help="free text stored in the output")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    revs = {"parent": _git("rev-parse", args.parent)}
    revs["change"] = revs["parent"] if args.aa else _git("rev-parse", "HEAD")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: export(rev, Path(tmp) / side) for side, rev in revs.items()}
        end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        metrics = {m["name"]: (m["better"], m["bound"]) for m in end_to_end}

        def run(side: str, workload: str) -> dict:
            outcome = perfbench(trees[side], workload, args.seed, args.seconds)
            print(f"{workload} {side}: {json.dumps(outcome)[:200]}", file=sys.stderr, flush=True)
            return outcome

        runs = pair_runs(workloads, args.pairs, run)
        report = {
            "schema": "bench_pairs/1",
            "command": COMMAND,
            "description": args.description,
            **{side: {"rev": revs[side], "src_lines": src_size(trees[side])} for side in SIDES},
            "aa": args.aa, "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed, "workloads": workloads,
            "environment": {"python": platform.python_version(), "cpu_count": os.cpu_count(), "env": RUN_ENV},
            "runs": runs,
            "summary": summarize(runs, metrics),
        }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
