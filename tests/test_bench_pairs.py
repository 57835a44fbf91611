import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402

METRICS = {"ops_per_s": ("higher", 0.25), "op_s.p50": ("lower", 0.25), "nmse_fixed.geomean": ("lower", 0.001)}


def fake_result(ops_per_s: float, p50: float, nmse: float, failed: int = 0) -> dict:
    metrics = {"ops_per_s": ops_per_s, "op_s.p50": p50, "nmse_fixed.geomean": nmse}
    return {"correct": True, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}


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
    assert sweep["ratio_q1"] == pytest.approx(1.05) and sweep["ratio_q3"] == pytest.approx(1.275)
    assert sweep["parent"] == {"median": 100.0, "q1": 97.5, "q3": 102.5}
    assert sweep["parent_iqr_rel"] == pytest.approx(0.05)
    assert summary["sweep"]["op_s.p50"]["pairs_won"] == 3  # lower is better: the same pairs
    assert summary["sweep"]["nmse_fixed.geomean"]["bit_identical"] is False
    assert summary["denoise"]["nmse_fixed.geomean"]["bit_identical"] is True
    assert summary["denoise"]["ops_per_s"]["pairs_won"] == 0  # the same values on both sides win nothing
    assert summary["denoise"]["failed_ops"] == {"parent": 4, "change": 4}
    assert summary["denoise"]["failed_share"] == {"parent": 0.1, "change": 0.1}
    assert summary["sweep"]["errors"] == {"parent": 1, "change": 0}
    assert "bit_identical" not in sweep


STEADY = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0, 103.0, 97.0, 100.0, 102.0]  # median 100.5, IQR 2.75
NOISY = [60.0, 140.0, 70.0, 130.0, 100.0, 80.0, 120.0, 90.0, 110.0, 100.0]  # median 100, IQR 35: above the bound


@pytest.mark.parametrize(
    "better, parent, change, expected",
    [
        ("higher", STEADY, [0.7 * v for v in STEADY], "worse"),  # median ratio 0.7, below 1 - bound
        ("lower", STEADY, [1.3 * v for v in STEADY], "worse"),  # a time 30% longer
        ("higher", NOISY, [v + 5 for v in NOISY], "unresolved"),  # wins every pair, within the parent's spread
        ("higher", NOISY, [v + 100 for v in NOISY], "gain"),  # every change run beats every parent run
        ("higher", STEADY, [v + 5 for v in STEADY], "gain"),  # 10 of 10 pairs, medians 5 apart, IQR 2.75
        ("lower", STEADY, [v - 5 for v in STEADY], "gain"),
        ("higher", STEADY, [v + 2 for v in STEADY], "same"),  # every pair won, but within the parent's IQR
        ("higher", STEADY, [v + (5 if i < 8 else -5) for i, v in enumerate(STEADY)], "same"),  # 8 of 10 pairs
    ],
    ids=["worse", "worse-lower", "unresolved", "gain-beyond-the-noise", "gain", "gain-lower", "same-within-iqr",
         "same-8-of-10"],
)
def test_verdict_per_metric(better, parent, change, expected):
    values = {"parent": iter(parent), "change": iter(change)}

    def run(side, workload):
        metrics = {"m": {"value": next(values[side]), "unit": ""}}
        return {"result": {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}}

    runs = bench_pairs.pair_runs(["sweep"], len(parent), run, loadavg=lambda: (0.0, 0.0, 0.0))
    assert bench_pairs.summarize(runs, {"m": (better, 0.25)})["sweep"]["m"]["verdict"] == expected


def test_no_gain_where_the_change_fails_a_larger_share_of_operations():
    # Every pair is a clear gain on both metrics, but the change fails 1 of its 10 operations in the first pair.
    values = {"parent": iter(STEADY), "change": iter(v + 5 for v in STEADY)}
    failures = {"parent": iter([0] * 10), "change": iter([1] + [0] * 9)}

    def run(side, workload):
        value = next(values[side])
        return {"result": fake_result(value, 1 / value, 0.5, next(failures[side]))}

    runs = bench_pairs.pair_runs(["file_fit"], len(STEADY), run, loadavg=lambda: (0.0, 0.0, 0.0))
    summary = bench_pairs.summarize(runs, METRICS)["file_fit"]
    assert summary["failed_share"] == {"parent": 0.0, "change": 0.01}
    assert summary["ops_per_s"]["pairs_won"] == 10 and summary["ops_per_s"]["verdict"] == "same"
    assert summary["op_s.p50"]["verdict"] == "same"


def test_ratio_quartiles_stay_narrow_when_both_sides_drift_together():
    # The machine slows by a third from pair 6 on, on both sides alike: the parent's IQR is about a quarter of its
    # median, so the verdict cannot tell, while every pair reads the change 2% ahead.
    drift = [100.0] * 5 + [66.0] * 5
    values = {"parent": iter(drift), "change": iter(1.02 * v for v in drift)}

    def run(side, workload):
        return {"result": fake_result(next(values[side]), 1.0, 0.5)}

    runs = bench_pairs.pair_runs(["file_fit"], len(drift), run, loadavg=lambda: (0.0, 0.0, 0.0))
    ops = bench_pairs.summarize(runs, METRICS)["file_fit"]["ops_per_s"]
    assert ops["parent_iqr_rel"] > 0.25 and ops["verdict"] == "unresolved"
    assert ops["ratio_q1"] == pytest.approx(1.02) and ops["ratio_q3"] == pytest.approx(1.02)
    assert ops["median_ratio"] == pytest.approx(1.02) and ops["pairs_won"] == 10



def test_first_ratio_shows_a_pair_order_effect_on_identical_code():
    # An A/A run in which whichever run goes first in its pair is 10% faster: the alternation cancels the effect in
    # the medians, and first_ratio reads it.
    calls = []

    def run(side, workload):
        value = STEADY[len(calls) // 2] * (1.1 if len(calls) % 2 == 0 else 1.0)
        calls.append(side)
        return {"result": fake_result(value, 1 / value, 0.5)}

    runs = bench_pairs.pair_runs(["file_fit"], len(STEADY), run, loadavg=lambda: (0.0, 0.0, 0.0))
    summary = bench_pairs.summarize(runs, METRICS)["file_fit"]
    assert summary["ops_per_s"]["first_ratio"] == pytest.approx(1.1)
    assert summary["op_s.p50"]["first_ratio"] == pytest.approx(1 / 1.1)
    assert summary["ops_per_s"]["verdict"] == "same" and summary["ops_per_s"]["pairs_won"] == 5
    # Runs that do not record which went first give no first_ratio.
    unordered = [{key: value for key, value in r.items() if key != "first"} for r in runs]
    assert bench_pairs.summarize(unordered, METRICS)["file_fit"]["ops_per_s"]["first_ratio"] is None

def test_each_run_keeps_its_report_environment_and_the_file_names_numpy_and_the_blas(monkeypatch, tmp_path):
    # run.py prints its report line, then its result line; the environment of the first goes with each run.
    env = {"numpy": "2.4.6", "blas": {"name": "scipy-openblas", "version": "0.3.31"},
           "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}, "cpu_count": 2, "python": "3.11.7"}
    report = {"report": {"workload": "sweep", "seed": 1, "op_s_samples": [0.01], "environment": env}}
    result = fake_result(1.0, 1.0, 0.5)
    stdout = json.dumps(report) + "\n" + json.dumps(result) + "\n"

    def fake_run(argv, **kwargs):
        assert argv[1:3] == ["perfbench/run.py", "--workload"] and kwargs["env"]["OPENBLAS_NUM_THREADS"] == "1"
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    outcome = bench_pairs.perfbench(tmp_path, "sweep", 1, 1)
    assert outcome == {"environment": env, "result": result}
    runs = bench_pairs.pair_runs(["sweep"], 1, lambda side, workload: outcome, loadavg=lambda: (0.0, 0.0, 0.0))
    assert [r["environment"] for r in runs] == [env, env]
    block = bench_pairs.environment([{"error": "exit 1"}, *runs])
    assert block["numpy"] == "2.4.6" and block["blas"] == env["blas"] and block["blas_threads"] == env["blas_threads"]
    assert block["env"] == bench_pairs.RUN_ENV

    stdout = json.dumps(result) + "\n"  # a result with no report line
    assert "error" in bench_pairs.perfbench(tmp_path, "sweep", 1, 1)
