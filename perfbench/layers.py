"""The layer map of topospinor: which functions are traced and the per-layer metrics.

Every per-layer metric is a value per traced operation (a total over the
traced operations divided by their number) unless it is a ratio.  Each entry
of ``PER_LAYER`` records the end-to-end metric and workload it should move;
``README.md`` explains the predictions.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from tracing import Recorder, Target, Tracing, self_times

PACKAGE = "topospinor"
SWEEP_DICTIONARIES = ("laplacian", "dirac", "frame", "ddtl")
SCALING_SIZES = (20, 40, 80, 160)
WARNINGS = {
    "DegenerateRetractionWarning": "warnings.degenerate_retraction",
    "NonOrthonormalBasisWarning": "warnings.non_orthonormal_basis",
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _label_dictionaries(rec: Recorder, args, kwargs, result) -> None:
    for name, matrix in result.items():
        rec.labels[id(matrix)] = name


def _omp_tag(rec: Recorder, args, kwargs):
    return rec.labels.get(id(_arg(args, kwargs, 0, "dictionary")))


def _omp_counts(rec: Recorder, args, kwargs, code) -> None:
    rec.count("sparse.omp.atoms", len(code.support))
    rec.count("sparse.omp.ridge_refits", float(bool(code.ridge_regularized)))


def _fit_counts(rec: Recorder, args, kwargs, solution) -> None:
    rec.count("ddtl.fits")
    rec.count("ddtl.iterations", solution.report.iterations)
    rec.count("ddtl.tol_stops", float(solution.report.stop_reason == "tolerance"))


def _written(rec: Recorder, args, kwargs, result) -> None:
    rec.count("io.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _results_written(rec: Recorder, args, kwargs, out) -> None:
    tables = _arg(args, kwargs, 1, "tables")
    tables = tables if isinstance(tables, (list, tuple)) else [tables]
    files = [out / "run.json"] + [out / f"{t.name}.csv" for t in tables]
    rec.count("io.bytes_written", sum(os.path.getsize(f) for f in files))


def _series_read(rec: Recorder, args, kwargs, result) -> None:
    nodes = _arg(args, kwargs, 1, "node_csv_path")
    edges = _arg(args, kwargs, 2, "edge_csv_path")
    rec.count("io.bytes_read", os.path.getsize(nodes) + os.path.getsize(edges))


def _edges_read(rec: Recorder, args, kwargs, result) -> None:
    rec.count("io.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _t(module: str, attr: str, span: str | None = None, **hooks) -> Target:
    return Target(f"{PACKAGE}.{module}", attr, span or f"{module}.{attr}", **hooks)


TARGETS = (
    _t("cli", "main", "cli.main"),
    *(
        _t("experiments", name, "experiments")
        for name in ("run_spectra", "run_synth", "run_ddtl_fit", "run_sparsity_sweep", "run_denoise")
    ),
    _t("experiments", "sweep_dictionaries", "experiments", after=_label_dictionaries),
    _t("sparse", "omp", tag=_omp_tag, after=_omp_counts),
    _t("sparse", "row_hard_threshold"),
    _t("sparse", "column_normalize"),
    _t("ddtl", "ddtl_fit", after=_fit_counts),
    *(
        _t("ddtl", phase)
        for phase in ("initialize_state", "update_k", "update_omega", "update_p", "update_x", "update_duals")
    ),
    _t("transform", "unnormalized_basis_matrix", "transform.basis_build"),
    _t("transform", "build_mass_basis", "transform.basis_build"),
    _t("io", "write_matrix_csv", after=_written),
    _t("io", "save_results", after=_results_written),
    _t("io", "load_time_series", after=_series_read),
    _t("io", "load_edge_list", after=_edges_read),
    _t("topology", "spectral_decompose"),
    _t("topology", "dirac_eigenbasis", "topology.eigenbases"),
    _t("topology", "super_laplacian_eigenbasis", "topology.eigenbases"),
    _t("synth", "random_graph"),
    _t("synth", "gen_signals"),
    _t("synth", "add_awgn"),
    _t("frames", "build_frame"),
)

# Spans whose self time is reported as ``<span>.self_s``.
SELF_SPANS = tuple(dict.fromkeys(t.span for t in TARGETS))
IO_SPANS = tuple(s for s in SELF_SPANS if s.startswith("io."))

_SWEEP = "op_s.p50 and ops_per_s on sweep"
_DENOISE = "op_s.p50 and ops_per_s on denoise"
_FILE_FIT = "op_s.p50 and ops_per_s on file_fit"
_LEARNER = "op_s.p50 and ops_per_s on denoise most, then file_fit, then sweep"
_SMALL = "at most about 1% of op_s.p50 on any workload; catches repeated or costlier calls"
_ALL = "op_s.p50 and ops_per_s on every workload"
_INFO = "informational; moves no gated metric"

# (name, unit, better, what it should move)
PER_LAYER = (
    ("sparse.omp.self_s", "s", "lower", _SWEEP + " only"),
    *((f"sparse.omp.{d}.self_s", "s", "lower", _SWEEP + " only") for d in SWEEP_DICTIONARIES),
    ("sparse.omp.calls", "count", "lower", _SWEEP + "; zero on denoise and file_fit"),
    ("sparse.omp.atoms", "count", "lower", _SWEEP + " (work count)"),
    ("sparse.omp.ridge_refits", "count", "lower", _SWEEP),
    ("sparse.omp.s_per_atom", "s", "lower", _SWEEP),
    ("sparse.omp.share", "ratio", "lower", _SWEEP),
    ("sparse.row_hard_threshold.self_s", "s", "lower", _SWEEP),
    ("sparse.column_normalize.self_s", "s", "lower", _SWEEP),
    ("ddtl.fit_s", "s", "lower", _LEARNER + "; peak_rss_mb on file_fit"),
    ("ddtl.ddtl_fit.self_s", "s", "lower", _LEARNER),
    ("ddtl.fits", "count", "lower", _INFO + "; fixed by the workload"),
    ("ddtl.iterations", "count", "lower", _LEARNER),
    ("ddtl.s_per_iter", "s", "lower", _LEARNER + "; peak_rss_mb on file_fit"),
    ("ddtl.tol_stop_frac", "ratio", "higher", _LEARNER + " (fewer iterations)"),
    ("ddtl.fit.share", "ratio", "lower", _LEARNER),
    *(
        (f"ddtl.{phase}.self_s", "s", "lower", _LEARNER)
        for phase in ("initialize_state", "update_k", "update_omega", "update_p", "update_x", "update_duals")
    ),
    ("transform.basis_build.self_s", "s", "lower", _DENOISE),
    ("transform.basis_build.calls", "count", "lower", _DENOISE),
    ("io.write_matrix_csv.self_s", "s", "lower", _FILE_FIT + "; negligible elsewhere"),
    ("io.load_time_series.self_s", "s", "lower", _FILE_FIT + "; negligible elsewhere"),
    ("io.load_edge_list.self_s", "s", "lower", _FILE_FIT + "; negligible elsewhere"),
    ("io.save_results.self_s", "s", "lower", _FILE_FIT + "; negligible elsewhere"),
    ("io.bytes_written", "B", "lower", _FILE_FIT),
    ("io.bytes_read", "B", "lower", _FILE_FIT),
    ("io.share", "ratio", "lower", _FILE_FIT),
    ("topology.spectral_decompose.self_s", "s", "lower", _SMALL),
    ("topology.spectral_decompose.calls", "count", "lower", _SMALL),
    ("topology.eigenbases.self_s", "s", "lower", _SMALL),
    ("synth.random_graph.self_s", "s", "lower", _SMALL),
    ("synth.gen_signals.self_s", "s", "lower", _SMALL),
    ("synth.add_awgn.self_s", "s", "lower", _SMALL),
    ("frames.build_frame.self_s", "s", "lower", _SMALL),
    ("experiments.self_s", "s", "lower", _ALL),
    ("cli.main.self_s", "s", "lower", "op_s.p50 and ops_per_s on file_fit only"),
    ("warnings.degenerate_retraction", "count", "lower", _INFO + "; zero on every workload when the benchmark was added"),
    ("warnings.non_orthonormal_basis", "count", "lower", _INFO + "; zero on every workload when the benchmark was added"),
    ("trace.op_s.p50", "s", "lower", _INFO + "; traced op_s.p50"),
    ("trace.untraced_op_s.p50", "s", "lower", _INFO + "; untraced ops of the same run"),
    ("trace.overhead_s", "s", "lower", _INFO + "; traced minus untraced op_s.p50"),
    ("trace.unaccounted_s", "s", "lower", _INFO + "; op time outside every span"),
    ("trace.spans_per_op", "count", "lower", _INFO),
    *(
        (f"scaling.V{v}.{what}", "s", "lower", _INFO + "; scaling table")
        for v in SCALING_SIZES
        for what in ("spectral_decompose_s", "learner_iter_s", "omp_frame_s")
    ),
)


def per_layer_metrics(
    rec: Recorder,
    traced_ops: list[int],
    traced_op_s: list[float],
    untraced_op_s: list[float],
    scaling: dict[str, float],
) -> dict[str, float]:
    """Per-operation layer metrics over the traced operations of a run."""
    ops = set(traced_ops)
    n = max(len(ops), 1)
    self_s: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(rec.spans, self_times(rec.spans)):
        if span.op not in ops:
            continue
        self_s[span.name] += own
        total[span.name] += span.end - span.start
        calls[span.name] += 1
        if span.tag is not None:
            self_s[f"{span.name}.{span.tag}"] += own
    counts: dict[str, float] = defaultdict(float)
    for (op, name), value in rec.counts.items():
        if op in ops:
            counts[name] += value

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    op_total = total["op"]
    traced_p50 = statistics.median(traced_op_s) if traced_op_s else 0.0
    untraced_p50 = statistics.median(untraced_op_s) if untraced_op_s else 0.0
    m = {f"{name}.self_s": self_s[name] / n for name in SELF_SPANS}
    m.update({f"sparse.omp.{d}.self_s": self_s[f"sparse.omp.{d}"] / n for d in SWEEP_DICTIONARIES})
    m.update(
        {
            "sparse.omp.calls": calls["sparse.omp"] / n,
            "sparse.omp.atoms": counts["sparse.omp.atoms"] / n,
            "sparse.omp.ridge_refits": counts["sparse.omp.ridge_refits"] / n,
            "sparse.omp.s_per_atom": ratio(self_s["sparse.omp"], counts["sparse.omp.atoms"]),
            "sparse.omp.share": ratio(self_s["sparse.omp"], op_total),
            "ddtl.fit_s": total["ddtl.ddtl_fit"] / n,
            "ddtl.fits": counts["ddtl.fits"] / n,
            "ddtl.iterations": counts["ddtl.iterations"] / n,
            "ddtl.s_per_iter": ratio(total["ddtl.ddtl_fit"], counts["ddtl.iterations"]),
            "ddtl.tol_stop_frac": ratio(counts["ddtl.tol_stops"], counts["ddtl.fits"]),
            "ddtl.fit.share": ratio(total["ddtl.ddtl_fit"], op_total),
            "transform.basis_build.calls": calls["transform.basis_build"] / n,
            "io.bytes_written": counts["io.bytes_written"] / n,
            "io.bytes_read": counts["io.bytes_read"] / n,
            "io.share": ratio(sum(self_s[s] for s in IO_SPANS), op_total),
            "topology.spectral_decompose.calls": calls["topology.spectral_decompose"] / n,
            "trace.op_s.p50": traced_p50,
            "trace.untraced_op_s.p50": untraced_p50,
            "trace.overhead_s": traced_p50 - untraced_p50 if untraced_op_s else 0.0,
            "trace.unaccounted_s": self_s["op"] / n,
            "trace.spans_per_op": sum(calls.values()) / n,
        }
    )
    m.update({metric: counts[metric] / n for metric in WARNINGS.values()})
    m.update(scaling)
    return {name: float(m[name]) for name, *_ in PER_LAYER}


def scaling_table(rec: Recorder, seed: int) -> dict[str, float]:
    """Traced cost of the size-dependent kernels at V in SCALING_SIZES, E = 2V.

    One learner iteration is the marginal cost of the iterations between a
    one-iteration fit and a six-iteration fit of the same data.
    """
    import topospinor.ddtl as ddtl
    import topospinor.frames as frames
    import topospinor.sparse as sparse
    import topospinor.synth as synth
    import topospinor.topology as topology

    out = {}
    for V in SCALING_SIZES:
        key = -V
        rec.op = key
        with Tracing(rec, TARGETS, PACKAGE):
            graph = synth.random_graph(V, 2 * V, seed)
            d = topology.spectral_decompose(topology.build_incidence(graph))
            spec = synth.SignalClassSpec("mixture_of_dirac", eta0=min(35, 2 * d.rank), num_signals=600, seed=seed)
            S, _ = synth.gen_signals(d, spec)
            fits = [ddtl.ddtl_fit(S, d, ddtl.DdtlConfig(eta0=spec.eta0, max_iter=m)) for m in (1, 6)]
            phi, _ = topology.dirac_eigenbasis(d)
            theta, _ = topology.super_laplacian_eigenbasis(d)
            sparse.omp(frames.build_frame(phi, theta).matrix, S, min(80, d.dim))
        rec.op = None

        def durations(name: str) -> list[float]:
            return [s.end - s.start for s in rec.spans if s.op == key and s.name == name]

        first, last = durations("ddtl.ddtl_fit")
        iters = [fit.report.iterations for fit in fits]
        step = iters[1] - iters[0]
        out[f"scaling.V{V}.spectral_decompose_s"] = durations("topology.spectral_decompose")[0]
        out[f"scaling.V{V}.learner_iter_s"] = (last - first) / step if step > 0 else last / iters[1]
        out[f"scaling.V{V}.omp_frame_s"] = durations("sparse.omp")[0]
    return out
