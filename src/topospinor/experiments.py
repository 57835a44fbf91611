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

import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import io as tsio
from .ddtl import ConvergenceReport, DdtlConfig, DdtlSolution, ddtl_fit, ddtl_fit_many
from .frames import build_frame
from .sparse import nmse, plane_pursuit_curve, row_hard_threshold
from .sparse import omp  # noqa: F401  unused; perfbench pins this binding (ROADMAP item 0)
from .synth import SIGNAL_CLASSES, SignalClassSpec, add_awgn, gen_signals, random_graph
from .topology import (
    OrientedGraph,
    build_incidence,
    decomposition_residuals,
    dirac_eigenbasis,
    lift_planes,
    project,
    reduce_planes,
    spectral_decompose,
    super_laplacian_eigenbasis,
    unproject,
)
from .transform import CouplingVector

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
# Slack of the dominance counts in run.json, in NMSE.
DOMINANCE_SLACK = 1e-12
# Field metadata name the CLI flag (``flag``, else ``--<field-name>``), its ``choices`` and its ``help`` (see cli).
_GRAPH_FLAG = {"flag": "--graph", "help": "edge-list file (otherwise a random graph)"}


def sub_seed(master_seed: int, realization: int, tag: str) -> int:
    """Deterministic per-(realization, stage) seed derived from the master seed."""
    digest = zlib.crc32(tag.encode("utf-8"))
    ss = np.random.SeedSequence([int(master_seed), int(realization), int(digest)])
    return int(ss.generate_state(1)[0])


def _run_header(command: str, cfg, graph: OrientedGraph) -> dict:
    """The run.json keys of every command: its name, its config without ``out`` and the graph's size."""
    config = asdict(cfg)
    config.pop("out")
    return {"command": command, "config": config, "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges}}


def _check_levels(name: str, levels: tuple[int, ...], n: int) -> None:
    """Refuse a grid of sparsity levels or bandwidths outside [1, n], n = V + E."""
    if not all(1 <= lv <= n for lv in levels):
        raise ValueError(f"{name} levels must lie in [1, V + E = {n}], got {levels}")


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


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectraConfig:
    out: str = field(metadata={"help": "output directory"})
    graph_path: str | None = field(default=None, metadata=_GRAPH_FLAG)
    num_nodes: int = 40
    num_edges: int = 80
    seed: int = field(default=0, metadata={"help": "master seed"})


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
        **_run_header("spectra", cfg, graph),
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
    out: str = field(metadata={"help": "output directory"})
    num_nodes: int = 40
    num_edges: int = 80
    signal_class: str = field(default="fully_coupled", metadata={"choices": SIGNAL_CLASSES})
    eta0: int = field(default=35, metadata={"help": "support size of the generated batch"})
    num_signals: int = 600
    graph_path: str | None = field(default=None, metadata=_GRAPH_FLAG)
    seed: int = field(default=0, metadata={"help": "master seed"})


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

    out = tsio.save_dataset(cfg.out, graph, S)
    tsio.write_matrix_csv(out / "coefficients.csv", truth.coefficients)
    metadata = {
        **_run_header("synth", cfg, graph),
        "truth": {
            "signal_class": truth.signal_class,
            "support": [int(i) for i in truth.support],
            "support_columns": [int(i) for i in truth.support_columns],
            "k_modes": [float(k) for k in truth.k_modes],
        },
    }
    return tsio.save_results(out, [], metadata)


# ---------------------------------------------------------------------------
# ddtl-fit


@dataclass(frozen=True)
class FitConfig:
    """A dataset directory (the layout ``synth`` writes; required) and the learner's bandwidth and budget.

    The fit draws no random numbers: ``seed`` is only recorded in run.json.
    """

    out: str = field(metadata={"help": "output directory"})
    dataset_dir: str | None = field(
        default=None, metadata={"flag": "--dataset", "help": "dataset directory, as the synth command writes it"}
    )
    eta0: int = field(default=35, metadata={"help": "bandwidth (row-sparsity) of the codes"})
    max_iter: int = 500
    seed: int = field(default=0, metadata={"help": "master seed"})

    def __post_init__(self):
        if not self.dataset_dir:
            raise ValueError("a dataset directory is required (--dataset or config key 'dataset_dir')")


def run_ddtl_fit(cfg: FitConfig) -> Path:
    """Fit the coupling transform to a dataset and store (k*, Omega*, diagnostics)."""
    graph, S = tsio.load_dataset(cfg.dataset_dir)
    d = spectral_decompose(build_incidence(graph))
    solution = ddtl_fit(S, d, DdtlConfig(eta0=cfg.eta0, max_iter=cfg.max_iter))
    report = solution.report

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    tsio.save_edge_list(out / "graph.txt", graph)
    tsio.write_matrix_csv(out / "omega_star.csv", solution.omega_star)
    metadata = {
        **_run_header("ddtl-fit", cfg, graph),
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
    out: str = field(metadata={"help": "output directory"})
    signal_class: str = field(default="fully_coupled", metadata={"choices": SIGNAL_CLASSES})
    num_nodes: int = 40
    num_edges: int = 80
    eta0: int = 35
    num_signals: int = 600
    realizations: int = 10
    sparsity_grid: tuple[int, ...] = field(
        default=(5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80),
        metadata={"help": "comma-separated sparsity levels"},
    )
    ddtl_max_iter: int = 150
    seed: int = field(default=0, metadata={"help": "master seed"})

    def __post_init__(self):
        if not self.sparsity_grid:
            raise ValueError("sparsity_grid must be non-empty")
        _check_levels("sparsity_grid", self.sparsity_grid, self.num_nodes + self.num_edges)
        if self.realizations < 1:
            raise ValueError("realizations must be positive")


# No study path calls sweep_dictionaries; the tests' dense oracle and perfbench do (ROADMAP item 0).
def sweep_dictionaries(d, solution: DdtlSolution) -> dict[str, np.ndarray]:
    """The four dense unit-column dictionaries that ``_plane_dictionaries`` describes per mode plane."""
    phi, theta = dirac_eigenbasis(d)[0], super_laplacian_eigenbasis(d)[0]
    return {"laplacian": theta, "dirac": phi, "frame": build_frame(phi, theta).matrix, "ddtl": solution.basis}


def _plane_dictionaries(d, k: CouplingVector) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The four sweep dictionaries as ``plane_pursuit_curve`` takes them: atoms, atom indices, harmonic indices.

    The dense column indices are those of ``super_laplacian_eigenbasis``,
    ``dirac_eigenbasis``, the frame [Dirac | Laplacian] and ``build_mass_basis``.
    """
    r, xi0, xi1, n = d.rank, d.xi0, d.xi1, d.dim
    xi, i, h = xi0 + xi1, np.arange(r), np.arange(xi0 + xi1)
    c = 1.0 / np.sqrt(2.0)  # as in dirac_eigenbasis
    laplacian = (np.array([[[1.0, 0.0]], [[0.0, 1.0]]]), np.array([xi + i, xi + r + i]), h)
    dirac = (np.array([[[c, -c]], [[c, c]]]), np.array([i, r + xi + i]), np.where(h < xi0, r + xi1 + h, r + h - xi0))
    frame = (np.concatenate([dirac[0], laplacian[0]]), np.concatenate([dirac[1], laplacian[1] + n]), dirac[2])
    minus = np.stack([k.k_minus, -np.ones(r)], axis=1) / np.sqrt(1.0 + k.k_minus**2)[:, None]
    plus = np.stack([np.ones(r), k.k_plus], axis=1) / np.sqrt(1.0 + k.k_plus**2)[:, None]
    ddtl = (np.stack([minus, plus]), np.array([i, r + xi + i]), r + h)
    return {"laplacian": laplacian, "dirac": dirac, "frame": frame, "ddtl": ddtl}


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

    Per realization: draw a graph and a signal batch and reduce its
    projection once, each mode plane's 2 x T block to its 2 x 2 QR triangle
    (``topology.reduce_planes``, R only: the per-plane bases are never
    formed).  Learn the coupling transform on the two reduced columns, in
    signal coordinates, and read every dictionary's joint OMP curve off the
    reduced projection, one mode plane at a time (``plane_pursuit_curve``):
    each atom of the four dictionaries lies in one mode plane or on one
    harmonic row.  Both read the batch only through within-plane rotations,
    row energies and within-plane sums of products, which the reduction keeps.
    """
    rows = []
    reports = []
    curves = []
    for real in range(cfg.realizations):
        graph = random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, real, "graph"))
        d = spectral_decompose(build_incidence(graph))
        spec = SignalClassSpec(cfg.signal_class, cfg.eta0, cfg.num_signals, sub_seed(cfg.seed, real, "signals"))
        S, _ = gen_signals(d, spec)
        energy = float(np.linalg.norm(S) ** 2)
        z, _ = reduce_planes(S, d, basis=False)
        solution = ddtl_fit(unproject(z, d), d, DdtlConfig(eta0=cfg.eta0, max_iter=cfg.ddtl_max_iter))
        reports.append(solution.report)
        curve = {}
        for method, (atoms, atom_index, harmonic_index) in _plane_dictionaries(d, solution.k_star).items():
            _, residual = plane_pursuit_curve(z, d.rank, atoms, atom_index, harmonic_index, cfg.sparsity_grid)
            curve[method] = {int(lv): float(e / energy) for lv, e in zip(cfg.sparsity_grid, residual)}
            rows.extend((method, level, real, value) for level, value in curve[method].items())
        curves.append(curve)

    table = tsio.ResultTable(
        name="results",
        columns=("method", "sparsity", "realization", "nmse"),
        rows=tuple(rows),
    )
    metadata = {
        **_run_header("sparsity-sweep", cfg, graph),  # random_graph gives every realization V and E exactly
        "learner": _learner_tally(reports),
        "dominance": _dominance(curves, cfg.eta0),
        "seed_rule": "sub_seed = SeedSequence([master, realization, crc32(tag)]) first word",
    }
    return tsio.save_results(cfg.out, table, metadata)


# ---------------------------------------------------------------------------
# denoise


@dataclass(frozen=True)
class DenoiseConfig:
    out: str = field(metadata={"help": "output directory"})
    dataset_dir: str | None = field(
        default=None, metadata={"flag": "--dataset", "help": "dataset directory (otherwise the synthetic surrogate)"}
    )
    num_nodes: int = 22
    num_edges: int = 41
    num_signals: int = 240
    signal_class: str = field(default="mixture_of_dirac", metadata={"choices": SIGNAL_CLASSES})
    gen_eta0: int = field(default=30, metadata={"help": "support size of the synthetic surrogate"})
    snr_grid: tuple[float, ...] = field(
        default=(0.0, 5.0, 10.0, 15.0, 20.0), metadata={"help": "comma-separated SNR levels in dB"}
    )
    bandwidth_grid: tuple[int, ...] = field(default=(10, 30, 50), metadata={"help": "comma-separated bandwidths"})
    realizations: int = 10
    ddtl_max_iter: int = 150
    seed: int = field(default=0, metadata={"help": "master seed"})

    def __post_init__(self):
        if not self.snr_grid or not self.bandwidth_grid:
            raise ValueError("snr_grid and bandwidth_grid must be non-empty")
        if self.realizations < 1:
            raise ValueError("realizations must be positive")
        if len({_noise_tag(snr) for snr in self.snr_grid}) != len(self.snr_grid):
            raise ValueError(f"snr_grid values that print alike with %g would share one noise draw: {self.snr_grid}")


def _noise_tag(snr: float) -> str:
    """Sub-seed tag of the noise at one SNR level; equal tags mean one shared noise draw."""
    return f"awgn@{snr:g}"


def _truncation_nmse(clean: np.ndarray, noisy: np.ndarray, basis: np.ndarray, bandwidths) -> dict:
    """NMSE of hard spectral truncation per bandwidth: the coefficients once, thresholded per bandwidth."""
    coeffs = basis.T @ noisy
    return {bw: nmse(clean, basis @ row_hard_threshold(coeffs, int(bw))) for bw in bandwidths}


def run_denoise(cfg: DenoiseConfig) -> Path:
    """Denoising sweep: learned-transform filtering versus fixed-basis truncation.

    Clean data is read from ``dataset_dir`` when it is given (the surrogate
    settings are then ignored) and is otherwise a synthetic surrogate batch.
    For each SNR and noise realization the noisy input error is recorded,
    then per bandwidth the transform is learned on the noisy data and the
    filtered reconstruction compared against the clean signals, alongside
    hard spectral truncation in the Dirac and Laplacian bases.  Each noisy
    batch is reduced once (``topology.reduce_planes``), and every fit of a
    realization, one per SNR and bandwidth, runs on its batch's two columns
    in one ``ddtl_fit_many`` call, so that the per-iteration cost of the
    learner is paid once for all of them.  Each reconstruction is lifted back
    to T signals through the per-plane bases (``topology.lift_planes``).
    """
    if cfg.dataset_dir:
        graph, clean = tsio.load_dataset(cfg.dataset_dir)
    else:
        graph, clean = random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, 0, "graph")), None
    d = spectral_decompose(build_incidence(graph))
    _check_levels("bandwidth_grid", cfg.bandwidth_grid, d.dim)
    if clean is None:
        spec = SignalClassSpec(cfg.signal_class, cfg.gen_eta0, cfg.num_signals, sub_seed(cfg.seed, 0, "signals"))
        clean, _ = gen_signals(d, spec)
    phi, _ = dirac_eigenbasis(d)
    theta, _ = super_laplacian_eigenbasis(d)
    configs = [DdtlConfig(eta0=int(bandwidth), max_iter=cfg.ddtl_max_iter) for bandwidth in cfg.bandwidth_grid]

    rows = []
    reports = []
    for real in range(cfg.realizations):
        noisy_batches = []  # per SNR: its noisy-input NMSE, truncation curves, reduced batch and per-plane bases
        for snr in cfg.snr_grid:
            noisy = add_awgn(clean, snr, sub_seed(cfg.seed, real, _noise_tag(snr)))
            z, plane_basis = reduce_planes(noisy, d)
            truncation = {
                method: _truncation_nmse(clean, noisy, basis, cfg.bandwidth_grid)
                for method, basis in (("dirac_truncation", phi), ("laplacian_truncation", theta))
            }
            noisy_batches.append((nmse(clean, noisy), truncation, unproject(z, d), plane_basis))
        fits = [reduced for _, _, reduced, _ in noisy_batches for _ in configs]
        solutions = iter(ddtl_fit_many(fits, d, configs * len(noisy_batches)))
        for snr, (noisy_nmse, truncation, _, plane_basis) in zip(cfg.snr_grid, noisy_batches):
            rows.append(("noisy_input", float(snr), None, real, noisy_nmse))
            for bandwidth in cfg.bandwidth_grid:
                solution = next(solutions)
                reports.append(solution.report)
                s_hat = unproject(lift_planes(project(solution.s_hat, d), plane_basis), d)
                rows.append(("ddtl", float(snr), int(bandwidth), real, nmse(clean, s_hat)))
                for method, curve in truncation.items():
                    rows.append((method, float(snr), int(bandwidth), real, curve[bandwidth]))

    table = tsio.ResultTable(
        name="results",
        columns=("method", "snr_db", "bandwidth", "realization", "nmse"),
        rows=tuple(rows),
    )
    metadata = {
        **_run_header("denoise", cfg, graph),
        "learner": _learner_tally(reports),
        "seed_rule": "sub_seed = SeedSequence([master, realization, crc32(tag)]) first word",
    }
    return tsio.save_results(cfg.out, table, metadata)
