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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import io as tsio
from .ddtl import DdtlConfig, DdtlSolution, ddtl_fit
from .frames import build_frame
from .sparse import SparseCode, nmse, omp, row_hard_threshold
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


def sub_seed(master_seed: int, realization: int, tag: str) -> int:
    """Deterministic per-(realization, stage) seed derived from the master seed."""
    digest = zlib.crc32(tag.encode("utf-8"))
    ss = np.random.SeedSequence([int(master_seed), int(realization), int(digest)])
    return int(ss.generate_state(1)[0])


def _config_metadata(cfg) -> dict:
    meta = asdict(cfg)
    meta.pop("out", None)
    return meta


def _load_graph(graph_path: str | None, num_nodes: int, num_edges: int, seed: int) -> OrientedGraph:
    if graph_path:
        return tsio.load_edge_list(graph_path)
    return random_graph(num_nodes, num_edges, seed)


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
    coeff_std: float = 1.0
    coupled_fraction: float = 0.5
    cauchy_scale: float | None = None
    noise_std: float = 0.0
    graph_path: str | None = None
    seed: int = 0


def _signal_spec(cfg, seed: int) -> SignalClassSpec:
    return SignalClassSpec(
        signal_class=cfg.signal_class,
        eta0=cfg.eta0,
        num_signals=cfg.num_signals,
        coeff_std=cfg.coeff_std,
        coupled_fraction=cfg.coupled_fraction,
        cauchy_scale=cfg.cauchy_scale,
        seed=seed,
    )


def run_synth(cfg: SynthConfig) -> Path:
    """Generate one dataset (graph + node/edge series + ground truth) on disk."""
    graph = _load_graph(cfg.graph_path, cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, 0, "graph"))
    d = spectral_decompose(build_incidence(graph))
    spec = _signal_spec(cfg, sub_seed(cfg.seed, 0, "signals"))
    S, truth = gen_signals(d, spec, noise_std=cfg.noise_std)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    tsio.save_edge_list(out / "graph.txt", graph)
    V = graph.num_nodes
    tsio.write_matrix_csv(out / "node_series.csv", S[:V].T)
    tsio.write_matrix_csv(out / "edge_series.csv", S[V:].T)
    if cfg.noise_std > 0:
        tsio.write_matrix_csv(out / "clean_node_series.csv", truth.clean[:V].T)
        tsio.write_matrix_csv(out / "clean_edge_series.csv", truth.clean[V:].T)
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
            "noise_std": truth.noise_std,
        },
    }
    (out / "run.json").write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    return out


# ---------------------------------------------------------------------------
# ddtl-fit


@dataclass(frozen=True)
class FitConfig:
    out: str
    dataset_dir: str | None = None
    graph_path: str | None = None
    node_csv: str | None = None
    edge_csv: str | None = None
    eta0: int = 35
    c1: float = 1.0
    c2: float = 1.0
    rho1: float = 10.0
    rho2: float = 10.0
    max_iter: int = 500
    primal_tol: float = 1e-4
    init_mode: str = "dirac"
    seed: int = 0


def _load_dataset(cfg) -> tuple[OrientedGraph, np.ndarray]:
    if cfg.dataset_dir:
        base = Path(cfg.dataset_dir)
        graph = tsio.load_edge_list(base / "graph.txt")
        dataset = tsio.load_time_series(graph, base / "node_series.csv", base / "edge_series.csv")
        return graph, dataset.spinor_matrix()
    if not (cfg.graph_path and cfg.node_csv and cfg.edge_csv):
        raise ValueError("provide either dataset_dir or graph_path + node_csv + edge_csv")
    graph = tsio.load_edge_list(cfg.graph_path)
    dataset = tsio.load_time_series(graph, cfg.node_csv, cfg.edge_csv)
    return graph, dataset.spinor_matrix()


def _ddtl_config(cfg, eta0: int, max_iter: int, init_seed: int) -> DdtlConfig:
    """The learner config of a pipeline: its flat learner fields plus the per-fit values."""
    return DdtlConfig(
        eta0=eta0,
        c1=cfg.c1,
        c2=cfg.c2,
        rho1=cfg.rho1,
        rho2=cfg.rho2,
        max_iter=max_iter,
        primal_tol=cfg.primal_tol,
        init_mode=cfg.init_mode,
        init_seed=init_seed,
    )


def run_ddtl_fit(cfg: FitConfig) -> Path:
    """Fit the coupling transform to a dataset and store (k*, Omega*, diagnostics)."""
    graph, S = _load_dataset(cfg)
    d = spectral_decompose(build_incidence(graph))
    solution = ddtl_fit(S, d, _ddtl_config(cfg, cfg.eta0, cfg.max_iter, sub_seed(cfg.seed, 0, "ddtl-init")))
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
    coeff_std: float = 1.0
    coupled_fraction: float = 0.5
    cauchy_scale: float | None = None
    realizations: int = 10
    sparsity_grid: tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80)
    c1: float = 1.0
    c2: float = 1.0
    rho1: float = 10.0
    rho2: float = 10.0
    ddtl_max_iter: int = 150
    primal_tol: float = 1e-4
    init_mode: str = "dirac"
    seed: int = 0

    def __post_init__(self):
        if not self.sparsity_grid:
            raise ValueError("sparsity_grid must be non-empty")
        if self.realizations < 1:
            raise ValueError("realizations must be positive")


def _nmse_at_levels(code: SparseCode, signal_energy: float, levels) -> dict[int, float]:
    history = np.asarray(code.residual_history)
    return {int(lv): float(history[lv - 1] ** 2 / signal_energy) for lv in levels}


def sweep_dictionaries(d, solution: DdtlSolution | None) -> dict[str, np.ndarray]:
    """The four unit-column dictionaries compared by the sweep."""
    phi, _ = dirac_eigenbasis(d)
    theta, _ = super_laplacian_eigenbasis(d)
    dicts = {
        "laplacian": theta,
        "dirac": phi,
        "frame": build_frame(phi, theta).matrix,
    }
    if solution is not None:
        dicts["ddtl"] = solution.basis.psi_bar
    return dicts


def run_sparsity_sweep(cfg: SweepConfig) -> Path:
    """Reconstruction error versus sparsity for the four dictionaries.

    Per realization: draw a graph and a signal batch, learn the coupling
    transform, then run one joint pursuit per dictionary up to the largest
    grid level, reading intermediate levels off the residual history.
    """
    rows = []
    graph_summary = None
    for real in range(cfg.realizations):
        graph = random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, real, "graph"))
        d = spectral_decompose(build_incidence(graph))
        spec = _signal_spec(cfg, sub_seed(cfg.seed, real, "signals"))
        S, _ = gen_signals(d, spec)
        energy = float(np.linalg.norm(S) ** 2)
        init_seed = sub_seed(cfg.seed, real, "ddtl-init")
        solution = ddtl_fit(S, d, _ddtl_config(cfg, cfg.eta0, cfg.ddtl_max_iter, init_seed))
        max_level = max(cfg.sparsity_grid)
        for method, dictionary in sweep_dictionaries(d, solution).items():
            code = omp(dictionary, S, sparsity=max_level)
            for level, value in _nmse_at_levels(code, energy, cfg.sparsity_grid).items():
                rows.append((method, level, real, value))
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
    coeff_std: float = 1.0
    coupled_fraction: float = 0.5
    cauchy_scale: float | None = None
    snr_grid: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    bandwidth_grid: tuple[int, ...] = (10, 30, 50)
    realizations: int = 10
    c1: float = 1.0
    c2: float = 1.0
    rho1: float = 10.0
    rho2: float = 10.0
    ddtl_max_iter: int = 150
    primal_tol: float = 1e-4
    init_mode: str = "dirac"
    seed: int = 0

    def __post_init__(self):
        if not self.snr_grid or not self.bandwidth_grid:
            raise ValueError("snr_grid and bandwidth_grid must be non-empty")
        if self.realizations < 1:
            raise ValueError("realizations must be positive")


def _truncation_reconstruction(basis: np.ndarray, noisy: np.ndarray, bandwidth: int) -> np.ndarray:
    coeffs = basis.T @ noisy
    return basis @ row_hard_threshold(coeffs, bandwidth)


def run_denoise(cfg: DenoiseConfig) -> Path:
    """Denoising sweep: learned-transform filtering versus fixed-basis truncation.

    Clean data comes either from node/edge CSV files or from a synthetic
    surrogate batch.  For each SNR and noise realization the noisy input error
    is recorded, then per bandwidth the transform is learned on the noisy data
    and the filtered reconstruction compared against the clean signals,
    alongside hard spectral truncation in the Dirac and Laplacian bases.
    """
    if cfg.graph_path and cfg.node_csv and cfg.edge_csv:
        graph = tsio.load_edge_list(cfg.graph_path)
        dataset = tsio.load_time_series(graph, cfg.node_csv, cfg.edge_csv)
        clean = dataset.spinor_matrix()
    else:
        graph = random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, 0, "graph"))
        d0 = spectral_decompose(build_incidence(graph))
        spec = SignalClassSpec(
            signal_class=cfg.signal_class,
            eta0=cfg.gen_eta0,
            num_signals=cfg.num_signals,
            coeff_std=cfg.coeff_std,
            coupled_fraction=cfg.coupled_fraction,
            cauchy_scale=cfg.cauchy_scale,
            seed=sub_seed(cfg.seed, 0, "signals"),
        )
        clean, _ = gen_signals(d0, spec)

    d = spectral_decompose(build_incidence(graph))
    phi, _ = dirac_eigenbasis(d)
    theta, _ = super_laplacian_eigenbasis(d)

    rows = []
    for real in range(cfg.realizations):
        for snr in cfg.snr_grid:
            noisy = add_awgn(clean, snr, sub_seed(cfg.seed, real, f"awgn@{snr:g}"))
            rows.append(("noisy_input", float(snr), None, real, nmse(clean, noisy)))
            for bandwidth in cfg.bandwidth_grid:
                init_seed = sub_seed(cfg.seed, real, f"ddtl-init@{snr:g}@{bandwidth}")
                solution = ddtl_fit(noisy, d, _ddtl_config(cfg, int(bandwidth), cfg.ddtl_max_iter, init_seed))
                rows.append(("ddtl", float(snr), int(bandwidth), real, nmse(clean, solution.s_hat)))
                rows.append(
                    (
                        "dirac_truncation",
                        float(snr),
                        int(bandwidth),
                        real,
                        nmse(clean, _truncation_reconstruction(phi, noisy, int(bandwidth))),
                    )
                )
                rows.append(
                    (
                        "laplacian_truncation",
                        float(snr),
                        int(bandwidth),
                        real,
                        nmse(clean, _truncation_reconstruction(theta, noisy, int(bandwidth))),
                    )
                )

    table = tsio.ResultTable(
        name="results",
        columns=("method", "snr_db", "bandwidth", "realization", "nmse"),
        rows=tuple(rows),
    )
    metadata = {
        "command": "denoise",
        "config": _config_metadata(cfg),
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "seed_rule": "sub_seed = SeedSequence([master, realization, crc32(tag)]) first word",
    }
    return tsio.save_results(cfg.out, table, metadata)
