"""Experiment pipelines behind the CLI: spectra dump, synthesis, fitting, sweeps.

Every pipeline is deterministic given its master seed.  Sub-seeds are derived
by the documented splitting rule

    sub_seed(master, realization, tag) =
        first word of SeedSequence([master, realization, crc32(tag)])

so stages and realizations are statistically independent but reproducible.
Result rows are merged in realization order; output formats live in
:mod:`topospinor.io`.
"""

from __future__ import annotations

import json
import zlib
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import io as tsio
from .ddtl import ConvergenceReport, DdtlConfig, DdtlSolution, ddtl_fit
from .frames import build_frame
from .sparse import SparseCode, nmse, omp, row_energy_curve, row_hard_threshold, square_factor
from .synth import SignalClassSpec, add_awgn, gen_signals, random_graph
from .topology import (
    OrientedGraph,
    build_incidence,
    decomposition_residuals,
    dirac_eigenbasis,
    spectral_decompose,
    super_laplacian_eigenbasis,
)

__all__ = [
    "sub_seed",
    "SpectraConfig",
    "SynthConfig",
    "FitConfig",
    "SweepConfig",
    "DenoiseConfig",
    "run_spectra",
    "run_synth",
    "run_ddtl_fit",
    "run_sparsity_sweep",
    "run_denoise",
]

SWEEP_METHODS = ("laplacian", "dirac", "frame", "ddtl")
# The orthonormal sweep dictionaries, coded by row energies rather than by a pursuit.
# The learned basis is not among them: its two branches carry separate couplings.
ROW_ENERGY_METHODS = ("laplacian", "dirac")
# Slack of the dominance counts in run.json, in NMSE.
DOMINANCE_SLACK = 1e-12


def sub_seed(master_seed: int, realization: int, tag: str) -> int:
    """Deterministic per-(realization, stage) seed derived from the master seed."""
    digest = zlib.crc32(tag.encode("utf-8"))
    ss = np.random.SeedSequence([int(master_seed), int(realization), int(digest)])
    return int(ss.generate_state(1)[0])


def _config_metadata(cfg) -> dict:
    meta = asdict(cfg)
    meta.pop("out", None)
    return meta


def _learner_tally(reports: list[ConvergenceReport]) -> dict:
    """How a study's learner fits ended: fit count, fits per stop reason, total iterations."""
    return {
        "fits": len(reports),
        "stop_reasons": dict(Counter(r.stop_reason for r in reports)),
        "iterations": sum(r.iterations for r in reports),
    }


def _load_graph(graph_path: str | None, num_nodes: int, num_edges: int, seed: int) -> OrientedGraph:
    if graph_path:
        return tsio.load_edge_list(graph_path)
    return random_graph(num_nodes, num_edges, seed)


def _load_measured(graph_path, node_csv, edge_csv) -> tuple[OrientedGraph, np.ndarray] | None:
    """The graph and (V+E) x T spinor matrix named by three paths; None when no path is given.

    A partial set raises ValueError rather than falling back to anything.
    """
    paths = (graph_path, node_csv, edge_csv)
    if not any(paths):
        return None
    if not all(paths):
        raise ValueError("graph_path, node_csv and edge_csv must be given together")
    graph = tsio.load_edge_list(graph_path)
    return graph, tsio.load_time_series(graph, node_csv, edge_csv).spinor_matrix()


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectraConfig:
    out: str
    graph_path: str | None = None
    num_nodes: int = 40
    num_edges: int = 80
    seed: int = 0


def run_spectra(cfg: SpectraConfig) -> Path:
    """Dump the singular spectrum, harmonic counts, and structural residuals."""
    graph = _load_graph(cfg.graph_path, cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, 0, "graph"))
    B = build_incidence(graph)
    d = spectral_decompose(B)
    residuals = decomposition_residuals(d, B)
    table = tsio.ResultTable(
        name="spectrum",
        columns=("index", "sigma"),
        rows=tuple((i, float(s)) for i, s in enumerate(d.sigma)),
    )
    metadata = {
        "command": "spectra",
        "config": _config_metadata(cfg),
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "sigma": [float(s) for s in d.sigma],
        "xi0": d.xi0,
        "xi1": d.xi1,
        "rank": d.rank,
        "residuals": residuals,
    }
    out = tsio.save_results(cfg.out, table, metadata)
    tsio.save_edge_list(out / "graph.txt", graph)
    return out


# ---------------------------------------------------------------------------
# synth


@dataclass(frozen=True)
class SynthConfig:
    out: str
    num_nodes: int = 40
    num_edges: int = 80
    signal_class: str = "fully_coupled"
    eta0: int = 35
    num_signals: int = 600
    graph_path: str | None = None
    seed: int = 0


def run_synth(cfg: SynthConfig) -> Path:
    """Generate one dataset (graph + node/edge series + ground truth) on disk.

    The generator's constants are fixed: unit-variance coefficients, half of
    the touched mode pairs coupled in the partially coupled class, and the
    mixture's Cauchy scale gamma at the median singular value.
    """
    graph = _load_graph(cfg.graph_path, cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, 0, "graph"))
    d = spectral_decompose(build_incidence(graph))
    spec = SignalClassSpec(cfg.signal_class, cfg.eta0, cfg.num_signals, sub_seed(cfg.seed, 0, "signals"))
    S, truth = gen_signals(d, spec)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    tsio.save_edge_list(out / "graph.txt", graph)
    V = graph.num_nodes
    tsio.write_matrix_csv(out / "node_series.csv", S[:V].T)
    tsio.write_matrix_csv(out / "edge_series.csv", S[V:].T)
    tsio.write_matrix_csv(out / "coefficients.csv", truth.coefficients)
    metadata = {
        "command": "synth",
        "config": _config_metadata(cfg),
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "tables": [],
        "truth": {
            "signal_class": truth.signal_class,
            "support": [int(i) for i in truth.support],
            "support_columns": [int(i) for i in truth.support_columns],
            "k_modes": [float(k) for k in truth.k_modes],
        },
    }
    (out / "run.json").write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    return out


# ---------------------------------------------------------------------------
# ddtl-fit


@dataclass(frozen=True)
class FitConfig:
    """A dataset (a synth directory or a graph and two CSVs, not both) and the learner's bandwidth and budget.

    The fit draws no random numbers: ``seed`` is only recorded in run.json.
    """

    out: str
    dataset_dir: str | None = None
    graph_path: str | None = None
    node_csv: str | None = None
    edge_csv: str | None = None
    eta0: int = 35
    max_iter: int = 500
    seed: int = 0


def _load_dataset(cfg: FitConfig) -> tuple[OrientedGraph, np.ndarray]:
    if cfg.dataset_dir:
        if cfg.graph_path or cfg.node_csv or cfg.edge_csv:
            raise ValueError("give either dataset_dir or graph_path + node_csv + edge_csv, not both")
        base = Path(cfg.dataset_dir)
        measured = _load_measured(base / "graph.txt", base / "node_series.csv", base / "edge_series.csv")
    else:
        measured = _load_measured(cfg.graph_path, cfg.node_csv, cfg.edge_csv)
    if measured is None:
        raise ValueError("provide either dataset_dir or graph_path + node_csv + edge_csv")
    return measured


def run_ddtl_fit(cfg: FitConfig) -> Path:
    """Fit the coupling transform to a dataset and store (k*, Omega*, diagnostics)."""
    graph, S = _load_dataset(cfg)
    d = spectral_decompose(build_incidence(graph))
    solution = ddtl_fit(S, d, DdtlConfig(eta0=cfg.eta0, max_iter=cfg.max_iter))
    report = solution.report

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    tsio.save_edge_list(out / "graph.txt", graph)
    tsio.write_matrix_csv(out / "omega_star.csv", solution.omega_star)
    metadata = {
        "command": "ddtl-fit",
        "config": _config_metadata(cfg),
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "tables": ["history"],
        "k_star": [float(k) for k in solution.k_star.stacked()],
        "reconstruction_nmse": nmse(S, solution.s_hat),
        "stop_reason": report.stop_reason,
        "iterations": report.iterations,
        "initial_objective": report.initial_objective,
        "final_objective": report.final_objective,
    }
    history = tsio.ResultTable(
        name="history",
        columns=("iteration", "objective", "basis_gap", "code_gap"),
        rows=tuple(
            (i + 1, obj, bg, cg)
            for i, (obj, bg, cg) in enumerate(
                zip(report.objective_curve, report.basis_gap_curve, report.code_gap_curve)
            )
        ),
    )
    tsio.save_results(out, history, metadata)
    return out


# ---------------------------------------------------------------------------
# sparsity sweep


@dataclass(frozen=True)
class SweepConfig:
    out: str
    signal_class: str = "fully_coupled"
    num_nodes: int = 40
    num_edges: int = 80
    eta0: int = 35
    num_signals: int = 600
    realizations: int = 10
    sparsity_grid: tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80)
    ddtl_max_iter: int = 150
    seed: int = 0

    def __post_init__(self):
        if not self.sparsity_grid:
            raise ValueError("sparsity_grid must be non-empty")
        if self.realizations < 1:
            raise ValueError("realizations must be positive")


def _nmse_at_levels(code: SparseCode, signal_energy: float, levels) -> dict[int, float]:
    history = np.asarray(code.residual_history)
    return {int(lv): float(history[lv - 1] ** 2 / signal_energy) for lv in levels}


def sweep_dictionaries(d, solution: DdtlSolution) -> dict[str, np.ndarray]:
    """The four unit-column dictionaries compared by the sweep."""
    phi, _ = dirac_eigenbasis(d)
    theta, _ = super_laplacian_eigenbasis(d)
    return {
        "laplacian": theta,
        "dirac": phi,
        "frame": build_frame(phi, theta).matrix,
        "ddtl": solution.basis,
    }


def _dominance(curves: list[dict[str, dict[int, float]]], eta0: int) -> dict:
    """Counts of realizations where the learned basis is no worse than the fixed ones, in NMSE.

    ``ddtl_le_bases_every_level`` counts realizations where ddtl is at most
    min(dirac, laplacian) at every grid level; ``ddtl_le_frame_at_eta0``
    those where it is at most frame at eta0, or is None when eta0 is not a
    grid level.  Both allow ``DOMINANCE_SLACK``.  Recorded, not asserted.
    """

    def le(a: float, b: float) -> bool:
        return a <= b + DOMINANCE_SLACK

    bases = sum(
        all(le(c["ddtl"][lv], min(c["dirac"][lv], c["laplacian"][lv])) for lv in c["ddtl"]) for c in curves
    )
    at_eta0 = eta0 in curves[0]["ddtl"]
    frame = sum(le(c["ddtl"][eta0], c["frame"][eta0]) for c in curves) if at_eta0 else None
    return {"realizations": len(curves), "ddtl_le_bases_every_level": bases, "ddtl_le_frame_at_eta0": frame}


def run_sparsity_sweep(cfg: SweepConfig) -> Path:
    """Reconstruction error versus sparsity for the four dictionaries.

    Per realization: draw a graph and a signal batch and factor a wide batch
    once, S = L Q1^T (``square_factor``).  Learn the coupling transform on
    L, then code L in each dictionary up to the largest grid level: by row
    energies in the orthonormal Laplacian and Dirac bases, by one joint
    pursuit in the frame and the learned basis, reading intermediate levels
    off its residual history.  This is exact, since the sweep reads only
    residual norms and the learned basis, and neither sees Q1^T.
    """
    rows = []
    reports = []
    curves = []
    graph_summary = None
    max_level = max(cfg.sparsity_grid)
    for real in range(cfg.realizations):
        graph = random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, real, "graph"))
        d = spectral_decompose(build_incidence(graph))
        spec = SignalClassSpec(cfg.signal_class, cfg.eta0, cfg.num_signals, sub_seed(cfg.seed, real, "signals"))
        S, _ = gen_signals(d, spec)
        energy = float(np.linalg.norm(S) ** 2)
        factor = square_factor(S)
        solution = ddtl_fit(factor, d, DdtlConfig(eta0=cfg.eta0, max_iter=cfg.ddtl_max_iter))
        reports.append(solution.report)
        curve = {}
        for method, dictionary in sweep_dictionaries(d, solution).items():
            if method in ROW_ENERGY_METHODS:
                _, residual = row_energy_curve(dictionary, factor, cfg.sparsity_grid)
                curve[method] = {int(lv): float(e / energy) for lv, e in zip(cfg.sparsity_grid, residual)}
            else:
                code = omp(dictionary, factor, sparsity=max_level)
                curve[method] = _nmse_at_levels(code, energy, cfg.sparsity_grid)
            rows.extend((method, level, real, value) for level, value in curve[method].items())
        curves.append(curve)
        if graph_summary is None:
            graph_summary = {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges}

    table = tsio.ResultTable(
        name="results",
        columns=("method", "sparsity", "realization", "nmse"),
        rows=tuple(rows),
    )
    metadata = {
        "command": "sparsity-sweep",
        "config": _config_metadata(cfg),
        "graph": graph_summary,
        "learner": _learner_tally(reports),
        "dominance": _dominance(curves, cfg.eta0),
        "seed_rule": "sub_seed = SeedSequence([master, realization, crc32(tag)]) first word",
    }
    return tsio.save_results(cfg.out, table, metadata)


# ---------------------------------------------------------------------------
# denoise


@dataclass(frozen=True)
class DenoiseConfig:
    out: str
    graph_path: str | None = None
    node_csv: str | None = None
    edge_csv: str | None = None
    num_nodes: int = 22
    num_edges: int = 41
    num_signals: int = 240
    signal_class: str = "mixture_of_dirac"
    gen_eta0: int = 30
    snr_grid: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    bandwidth_grid: tuple[int, ...] = (10, 30, 50)
    realizations: int = 10
    ddtl_max_iter: int = 150
    seed: int = 0

    def __post_init__(self):
        if not self.snr_grid or not self.bandwidth_grid:
            raise ValueError("snr_grid and bandwidth_grid must be non-empty")
        if self.realizations < 1:
            raise ValueError("realizations must be positive")


def _truncation_nmse(clean: np.ndarray, noisy: np.ndarray, basis: np.ndarray, bandwidths) -> dict:
    """NMSE of hard spectral truncation per bandwidth: the coefficients once, thresholded per bandwidth."""
    coeffs = basis.T @ noisy
    return {bw: nmse(clean, basis @ row_hard_threshold(coeffs, int(bw))) for bw in bandwidths}


def run_denoise(cfg: DenoiseConfig) -> Path:
    """Denoising sweep: learned-transform filtering versus fixed-basis truncation.

    Clean data comes either from a graph and node/edge CSV files (all three
    paths given) or, when none is given, from a synthetic surrogate batch.
    For each SNR and noise realization the noisy input error is recorded,
    then per bandwidth the transform is learned on the noisy data and the
    filtered reconstruction compared against the clean signals, alongside
    hard spectral truncation in the Dirac and Laplacian bases.
    """
    measured = _load_measured(cfg.graph_path, cfg.node_csv, cfg.edge_csv)
    graph, clean = measured or (random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, 0, "graph")), None)
    d = spectral_decompose(build_incidence(graph))
    if clean is None:
        spec = SignalClassSpec(cfg.signal_class, cfg.gen_eta0, cfg.num_signals, sub_seed(cfg.seed, 0, "signals"))
        clean, _ = gen_signals(d, spec)
    phi, _ = dirac_eigenbasis(d)
    theta, _ = super_laplacian_eigenbasis(d)

    rows = []
    reports = []
    for real in range(cfg.realizations):
        for snr in cfg.snr_grid:
            noisy = add_awgn(clean, snr, sub_seed(cfg.seed, real, f"awgn@{snr:g}"))
            rows.append(("noisy_input", float(snr), None, real, nmse(clean, noisy)))
            truncation = {
                method: _truncation_nmse(clean, noisy, basis, cfg.bandwidth_grid)
                for method, basis in (("dirac_truncation", phi), ("laplacian_truncation", theta))
            }
            for bandwidth in cfg.bandwidth_grid:
                solution = ddtl_fit(noisy, d, DdtlConfig(eta0=int(bandwidth), max_iter=cfg.ddtl_max_iter))
                reports.append(solution.report)
                rows.append(("ddtl", float(snr), int(bandwidth), real, nmse(clean, solution.s_hat)))
                for method, curve in truncation.items():
                    rows.append((method, float(snr), int(bandwidth), real, curve[bandwidth]))

    table = tsio.ResultTable(
        name="results",
        columns=("method", "snr_db", "bandwidth", "realization", "nmse"),
        rows=tuple(rows),
    )
    metadata = {
        "command": "denoise",
        "config": _config_metadata(cfg),
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "learner": _learner_tally(reports),
        "seed_rule": "sub_seed = SeedSequence([master, realization, crc32(tag)]) first word",
    }
    return tsio.save_results(cfg.out, table, metadata)
