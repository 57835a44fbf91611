"""Tests of the benchmark's own machinery: span arithmetic, rebinding, output checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder, Span, Tracing, self_times  # noqa: E402

import topospinor  # noqa: E402
from topospinor import ddtl, experiments, sparse  # noqa: E402


ORIGINALS = {id(getattr(sys.modules[t.module], t.attr)) for t in layers.TARGETS}
NO_SCALING = {name: 0.0 for name, *_ in layers.PER_LAYER if name.startswith("scaling.")}


def _bindings():
    """Every (module, name) binding in the package that holds an original target function."""
    return {
        (mod_name, attr): value
        for mod_name, module in sys.modules.items()
        if mod_name == "topospinor" or mod_name.startswith("topospinor.")
        for attr, value in vars(module).items()
        if id(value) in ORIGINALS
    }


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b.inner", 4.0, 4.5, 2, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 1.0, 0.5])


def test_recorder_nests_spans_and_their_self_times_add_up():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    rec.op = 7
    root = rec.open("op")
    child = rec.open("child")
    rec.close(rec.open("grandchild"))
    rec.close(child)
    rec.close(rec.open("child"))
    rec.close(root)
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert all(s.op == 7 for s in rec.spans)
    own = self_times(rec.spans)
    assert sum(own) == pytest.approx(rec.spans[0].end - rec.spans[0].start)
    with pytest.raises(RuntimeError):
        rec.close(99)


def test_tracing_rebinds_every_call_site_and_restores_it():
    before = _bindings()
    # `from .x import y` leaves several bindings of one function.
    assert before[("topospinor.experiments", "omp")] is before[("topospinor.sparse", "omp")]
    assert ("topospinor.ddtl", "row_hard_threshold") in before
    rec = Recorder()
    with Tracing(rec, layers.TARGETS, layers.PACKAGE):
        during = _bindings()
        assert not during, "a binding was left unwrapped"
        assert experiments.omp is not before[("topospinor.sparse", "omp")]
        assert ddtl.column_normalize.__wrapped__ is before[("topospinor.sparse", "column_normalize")]
    assert _bindings() == before
    assert experiments.ddtl_fit is ddtl.ddtl_fit is topospinor.ddtl_fit


def test_traced_fit_records_nested_layers_and_counts():
    rec = Recorder()
    rec.op = 0
    graph = topospinor.random_graph(8, 14, 0)
    d = topospinor.spectral_decompose(topospinor.build_incidence(graph))
    S = np.random.default_rng(0).normal(size=(d.dim, 20))
    with Tracing(rec, layers.TARGETS, layers.PACKAGE):
        ddtl.ddtl_fit(S, d, ddtl.DdtlConfig(eta0=5, max_iter=2))
    names = {s.name for s in rec.spans}
    assert {"ddtl.ddtl_fit", "ddtl.update_k", "transform.basis_build", "sparse.column_normalize"} <= names
    parents = {rec.spans[s.parent].name for s in rec.spans if s.name == "ddtl.update_k"}
    assert parents == {"ddtl.ddtl_fit"}
    assert rec.counts[(0, "ddtl.fits")] == 1
    assert rec.counts[(0, "ddtl.iterations")] == 2
    metrics = layers.per_layer_metrics(rec, [0], [1.0], [], NO_SCALING)
    assert set(metrics) == {name for name, *_ in layers.PER_LAYER}
    assert metrics["ddtl.iterations"] == 2


def test_untraced_run_sees_the_original_functions(tmp_path, monkeypatch):
    import worker

    before = _bindings()
    seen = []

    def op(master, out):
        seen.append(sparse.omp is before[("topospinor.sparse", "omp")])
        out.mkdir(parents=True)
        return out

    fake = workloads.Workload("fake", "", op, lambda out: workloads.Quality((0.5,), (0.25,)), quality_ops=8)
    monkeypatch.setitem(worker.WORKLOADS, "fake", fake)
    monkeypatch.setattr(layers, "scaling_table", lambda rec, seed: NO_SCALING)
    result, _ = worker.run("fake", seed=3, seconds=0.0, trace=True, root=tmp_path)
    assert result["correct"] and result["attempted"] == fake.quality_ops
    # Blocks of TRACE_BLOCK operations alternate traced and untraced.
    block = worker.TRACE_BLOCK
    assert seen == ([False] * block + [True] * block) * (fake.quality_ops // (2 * block))
    seen.clear()
    result, report = worker.run("fake", seed=3, seconds=0.0, trace=False, root=tmp_path, probe=lambda: 0.25)
    assert seen == [True] * fake.quality_ops
    assert result["metrics"]["nmse_ddtl.geomean"]["value"] == pytest.approx(0.5)
    assert report["setup_s"] == [0.25] * fake.quality_ops
    assert _bindings() == before


def test_reference_operations_ignore_the_seed_and_failures_hide_quality(tmp_path, monkeypatch):
    import worker

    masters = []

    def op(master, out):
        masters.append(master)
        out.mkdir(parents=True)
        if master == 9:
            raise RuntimeError("fails")
        return out

    fake = workloads.Workload("fake", "", op, lambda out: workloads.Quality((0.5,), (0.25,)), quality_ops=2)
    monkeypatch.setitem(worker.WORKLOADS, "fake", fake)
    result, _ = worker.run("fake", seed=7, seconds=0.0, trace=False, root=tmp_path)
    assert masters == [workloads.REFERENCE_SEED, workloads.REFERENCE_SEED + 1]
    assert result["correct"] and set(result["metrics"]) >= {"nmse_ddtl.geomean", "nmse_fixed.geomean"}
    masters.clear()
    monkeypatch.setattr(workloads, "REFERENCE_SEED", 8)
    result, _ = worker.run("fake", seed=7, seconds=0.0, trace=False, root=tmp_path)
    assert masters == [8, 9]
    assert not result["correct"] and result["failed"] == 1
    assert not {"nmse_ddtl.geomean", "nmse_fixed.geomean"} & set(result["metrics"])


def _write_rows(path, columns, rows):
    path.mkdir(parents=True, exist_ok=True)
    lines = [",".join(columns)] + [",".join(str(v) for v in row) for row in rows]
    (path / "results.csv").write_text("\n".join(lines) + "\n")


def _denoise_rows():
    rows = []
    for snr in (0.0, 10.0):
        rows.append(("noisy_input", snr, "", 0, 10 ** (-snr / 10)))
        for method in ("ddtl", "dirac_truncation", "laplacian_truncation"):
            rows.append((method, snr, 10, 0, 0.05))
    return rows


def test_denoise_check_rejects_a_nan_row(tmp_path):
    columns = ("method", "snr_db", "bandwidth", "realization", "nmse")
    rows = _denoise_rows()
    _write_rows(tmp_path / "good", columns, rows)
    assert workloads.check_denoise(tmp_path / "good").ddtl == (0.05, 0.05)
    rows[2] = ("dirac_truncation", 0.0, 10, 0, float("nan"))
    _write_rows(tmp_path / "bad", columns, rows)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_denoise(tmp_path / "bad")


def test_sweep_check_rejects_nan_and_rising_curves(tmp_path):
    columns = ("method", "sparsity", "realization", "nmse")
    levels = range(5, 85, 5)

    def rows(value):
        return [(m, lv, 0, value(m, lv)) for m in experiments.SWEEP_METHODS for lv in levels]

    _write_rows(tmp_path / "good", columns, rows(lambda m, lv: 1.0 / lv))
    assert workloads.check_sweep(tmp_path / "good").ddtl == (1.0 / 35,)
    for name, value in {
        "nan": lambda m, lv: math.nan if (m, lv) == ("frame", 40) else 1.0 / lv,
        "rising": lambda m, lv: lv / 100.0,
    }.items():
        _write_rows(tmp_path / name, columns, rows(value))
        with pytest.raises(workloads.CheckFailed):
            workloads.check_sweep(tmp_path / name)


def test_geomean_floors_values():
    assert workloads.geomean([1e-30, 1e-4]) == pytest.approx(1e-8)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"ops_per_s", "op_s.p50", "setup_s", "peak_rss_mb", "nmse_ddtl.geomean", "nmse_fixed.geomean"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
