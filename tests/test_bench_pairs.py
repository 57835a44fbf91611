import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402

METRICS = {"ops_per_s": "higher", "op_s.p50": "lower", "nmse_fixed.geomean": "lower"}


def fake_result(ops_per_s: float, p50: float, nmse: float, failed: int = 0) -> dict:
    metrics = {"ops_per_s": ops_per_s, "op_s.p50": p50, "nmse_fixed.geomean": nmse}
    return {"correct": True, "failed": failed, "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}


def test_pairs_alternate_which_side_goes_first_with_workloads_interleaved():
    calls = []

    def run(side, workload):
        calls.append((side, workload))
        return {"result": fake_result(1.0, 1.0, 0.5)}

    loads = iter(range(100))
    runs = bench_pairs.pair_runs(["sweep", "denoise"], 3, run, loadavg=lambda: (next(loads), 0.0, 0.0))
    parent_first = [("parent", "sweep"), ("change", "sweep"), ("parent", "denoise"), ("change", "denoise")]
    change_first = [("change", "sweep"), ("parent", "sweep"), ("change", "denoise"), ("parent", "denoise")]
    assert calls == parent_first + change_first + parent_first
    assert [r["pair"] for r in runs] == [1] * 4 + [2] * 4 + [3] * 4
    assert [r["first"] for r in runs] == [True, False] * 6
    assert [r["loadavg"][0] for r in runs] == list(range(12))  # read before each run


def test_summary_ratios_wins_quartiles_and_bit_identity():
    # Per pair (parent, change) ops_per_s: the change wins pairs 1, 2 and 4, loses pair 3; p50 = 1 / ops_per_s.
    ops = {1: (100.0, 120.0), 2: (110.0, 121.0), 3: (90.0, 81.0), 4: (100.0, 150.0)}
    runs = []
    for pair, (parent, change) in ops.items():
        for side, value in (("parent", parent), ("change", change)):
            nmse = 0.25 if side == "parent" or pair != 4 else 0.2500000000000001
            runs.append({"pair": pair, "workload": "sweep", "side": side, "result": fake_result(value, 1 / value, nmse)})
            runs.append({"pair": pair, "workload": "denoise", "side": side, "result": fake_result(parent, 0.1, 0.5, 1)})
    runs.append({"pair": 5, "workload": "sweep", "side": "parent", "error": "exit 1"})
    summary = bench_pairs.summarize(runs, METRICS)

    sweep = summary["sweep"]["ops_per_s"]
    assert sweep["pairs"] == 4 and sweep["pairs_won"] == 3
    assert sweep["median_ratio"] == pytest.approx((1.1 + 1.2) / 2)  # ratios 1.2, 1.1, 0.9, 1.5
    assert sweep["parent"] == {"median": 100.0, "q1": 97.5, "q3": 102.5}
    assert sweep["parent_iqr_rel"] == pytest.approx(0.05)
    assert summary["sweep"]["op_s.p50"]["pairs_won"] == 3  # lower is better: the same pairs
    assert summary["sweep"]["nmse_fixed.geomean"]["bit_identical"] is False
    assert summary["denoise"]["nmse_fixed.geomean"]["bit_identical"] is True
    assert summary["denoise"]["ops_per_s"]["pairs_won"] == 0  # the same values on both sides win nothing
    assert summary["denoise"]["failed_ops"] == {"parent": 4, "change": 4}
    assert summary["sweep"]["errors"] == {"parent": 1, "change": 0}
    assert "bit_identical" not in sweep
