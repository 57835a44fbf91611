"""Experiment pipelines behind the CLI: spectra dump, synthesis, fitting, sweeps.

The two studies (``run_sparsity_sweep`` and ``run_denoise``) learn the
coupling in closed form (``ddtl.fit_coupling``), one angle per mode plane,
and code or truncate in each dictionary one mode plane at a time, from the
projected batch: no study builds a dense (V+E) x (V+E) basis or runs the
ADMM, and neither has a learner setting (``ddtl_max_iter`` is gone).  The
rule (each plane's principal axis, mod 90 degrees, clipped to the box
k in [0, 1], ties to k = 1) is stated in :mod:`topospinor.ddtl`.
``run_ddtl_fit`` runs the ADMM (``ddtl.ddtl_fit``) until ROADMAP item 0 lets
it move to the closed form.

Every pipeline is deterministic given its master seed, at a fixed BLAS
thread count.  Sub-seeds are derived by the documented splitting rule

    sub_seed(master, realization, tag) =
        first word of SeedSequence([master, realization, crc32(tag)])

so stages and realizations are statistically independent but reproducible.
Result rows are merged in realization order; output formats live in
:mod:`topospinor.io`.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import io as tsio
from .ddtl import DdtlConfig, ddtl_fit, fit_coupling
from .frames import build_frame
from .sparse import nmse, plane_pursuit_curve, rotate_planes
from .sparse import omp  # noqa: F401  unused; perfbench pins this binding (ROADMAP item 0)
from .synth import SIGNAL_CLASSES, SignalClassSpec, add_awgn, draw_signals, gen_signals, random_graph
from .topology import (
    OrientedGraph,
    build_incidence,
    decomposition_residuals,
    dirac_eigenbasis,
    project,
    reduce_blocks,
    singular_values,
    spectral_decompose,
    super_laplacian_eigenbasis,
)
from .transform import CouplingVector, build_mass_basis

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
# Slack of the dominance counts in run.json, in NMSE (relative to ||S||^2).
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


def _load_dataset(dataset_dir: str) -> tuple[OrientedGraph, np.ndarray]:
    """``io.load_dataset``, refusing a batch with a non-finite cell or zero energy: no NMSE against it is defined."""
    graph, S = tsio.load_dataset(dataset_dir)
    if not np.all(np.isfinite(S)):
        raise ValueError(f"dataset {dataset_dir} has a non-finite cell, so no NMSE against it is defined")
    if float(np.linalg.norm(S) ** 2) == 0.0:
        raise ValueError(f"dataset {dataset_dir} has zero energy, so no NMSE against it is defined")
    return graph, S


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
    """Dump the singular spectrum, harmonic counts, and the residuals of the SVD relations (no n x n array)."""
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
    graph, S = _load_dataset(cfg.dataset_dir)
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
    seed: int = field(default=0, metadata={"help": "master seed"})

    def __post_init__(self):
        if not self.sparsity_grid:
            raise ValueError("sparsity_grid must be non-empty")
        _check_levels("sparsity_grid", self.sparsity_grid, self.num_nodes + self.num_edges)
        if self.realizations < 1:
            raise ValueError("realizations must be positive")


# No study path calls sweep_dictionaries; the tests' dense oracle and perfbench do (ROADMAP item 0).
def sweep_dictionaries(d, k: np.ndarray) -> dict[str, np.ndarray]:
    """The four dense unit-column dictionaries that ``_plane_bases`` describes, at the shared coupling k (length r)."""
    phi, theta = dirac_eigenbasis(d)[0], super_laplacian_eigenbasis(d)[0]
    ddtl = build_mass_basis(d, CouplingVector(k, k))
    return {"laplacian": theta, "dirac": phi, "frame": build_frame(phi, theta).matrix, "ddtl": ddtl}


# The two bases of _plane_bases that do not depend on k; 1/sqrt(2) as in dirac_eigenbasis.
_FIXED_BASES = {"laplacian": np.eye(2)[None, None], "dirac": np.array([[[[1.0, -1.0], [1.0, 1.0]]]]) / np.sqrt(2.0)}


def _plane_bases(k: np.ndarray) -> dict[str, np.ndarray]:
    """The four sweep dictionaries as orthonormal atom pairs per mode plane: (bases, r or 1, 2, 2) each.

    Row j of a plane's 2 x 2 is atom j as (node, edge) coefficients: Laplacian
    ((1, 0), (0, 1)), Dirac ((c, -c), (c, c)) with c = 1/sqrt(2), learned
    ((k, -1), (1, k)) / sqrt(1 + k^2) at the shared coupling k, and the frame
    [Dirac, Laplacian], each in its dense columns' order, so that a tie sent to
    the first atom listed goes where dense OMP sends it.
    """
    laplacian, dirac = _FIXED_BASES["laplacian"], _FIXED_BASES["dirac"]
    k, one = np.asarray(k, dtype=float), np.ones(len(k))
    ddtl = np.stack([k, -one, one, k], axis=1).reshape(-1, 2, 2) / np.sqrt(1.0 + k**2)[:, None, None]
    return {"laplacian": laplacian, "dirac": dirac, "frame": np.concatenate([dirac, laplacian]), "ddtl": ddtl[None]}


def _dominance(curves: list[dict[str, dict[int, float]]]) -> dict:
    """How many realizations have the learned curve at most min(dirac, laplacian, frame) at every grid level.

    Allows ``DOMINANCE_SLACK``.  It holds for every realization: the learned
    basis captures, at each sparsity, at least what any support of the fixed
    dictionaries does (ROADMAP item 4).  Recorded here, asserted by the tests.
    """
    fixed = ("dirac", "laplacian", "frame")
    count = sum(
        all(c["ddtl"][lv] <= min(c[m][lv] for m in fixed) + DOMINANCE_SLACK for lv in c["ddtl"]) for c in curves
    )
    return {"realizations": len(curves), "ddtl_le_fixed_every_level": count}


def run_sparsity_sweep(cfg: SweepConfig) -> Path:
    """Reconstruction error versus sparsity for the four dictionaries, in spectral coordinates.

    The curves depend on the graph only through its rank r and singular
    values sigma.  So per realization the batch is drawn from sigma alone
    (``synth.draw_signals``; ``topology.singular_values`` forms no singular
    vector) and written straight into its mode planes: plane i's 2 x T block
    is the learned pair of ``_plane_bases`` at the generator's k_i times the
    coefficients of its minus and plus columns, and the harmonic rows are
    zero.  The blocks are reduced to their 2 x 2 QR triangles
    (``topology.reduce_blocks``, R only), the coupling is learned in closed
    form on them (``ddtl.fit_coupling``) and each dictionary's joint OMP curve
    is read off them (``plane_pursuit_curve``), over the blocks' energy.
    """
    rows = []
    curves = []
    for real in range(cfg.realizations):
        graph = random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, real, "graph"))
        sigma = singular_values(build_incidence(graph))
        spec = SignalClassSpec(cfg.signal_class, cfg.eta0, cfg.num_signals, sub_seed(cfg.seed, real, "signals"))
        truth, r = draw_signals(sigma, graph.dim, spec), len(sigma)
        codes = np.zeros((r, 2, cfg.num_signals))  # plane, (minus, plus) column
        codes[truth.support % r, (truth.support >= r).astype(int)] = truth.coefficients
        planes = _plane_bases(truth.k_modes)["ddtl"][0].swapaxes(1, 2) @ codes
        energy = float(np.vdot(planes, planes))
        z, _ = reduce_blocks(planes, np.zeros(graph.dim - 2 * r))
        k = fit_coupling(z, r)
        curve = {}
        for method, pairs in _plane_bases(k).items():
            residual = plane_pursuit_curve(z, r, pairs, cfg.sparsity_grid)
            curve[method] = {int(lv): float(e / energy) for lv, e in zip(cfg.sparsity_grid, residual)}
            rows.extend((method, level, real, value) for level, value in curve[method].items())
        curves.append(curve)

    table = tsio.ResultTable(
        name="results",
        columns=("method", "sparsity", "realization", "nmse"),
        rows=tuple(rows),
    )
    fits = cfg.realizations
    metadata = {
        **_run_header("sparsity-sweep", cfg, graph),  # random_graph gives every realization V and E exactly
        "learner": {"fits": fits, "stop_reasons": {"exact": fits}, "iterations": 0},
        "dominance": _dominance(curves),
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


def _rotated(z, rank, pairs) -> tuple[np.ndarray, np.ndarray]:
    """``sparse.rotate_planes(z, rank, pairs)`` and the energy of each of its rows."""
    rows = rotate_planes(z, rank, pairs)
    return rows, np.einsum("jt,jt->j", rows, rows)


def _truncation_nmse(clean, noisy, bandwidths, energy) -> dict:
    """NMSE of hard truncation in an orthonormal plane basis, per bandwidth, from the rotated batches.

    ``clean`` and ``noisy`` are ``_rotated`` of the clean and the noisy
    projected batch (``topology.project``) into one basis of
    ``_plane_bases``.  A stable sort orders the noisy rows by energy, ties to
    the lower row of [first atoms | second atoms | harmonic rows] (with
    Gaussian noise, ties have probability zero), and the NMSE at bandwidth b
    is the noise energy of the b kept rows plus the clean energy of the
    dropped ones, over ``energy``.  Every energy is a sum of squares of
    rotated rows.
    """
    (clean, clean_energy), (noisy, noisy_energy) = clean, noisy
    error = noisy - clean
    order = np.argsort(-noisy_energy, kind="stable")
    kept, dropped = np.einsum("jt,jt->j", error, error)[order], clean_energy[order]
    return {bw: float(np.sum(kept[:bw]) + np.sum(dropped[bw:])) / energy for bw in bandwidths}


def run_denoise(cfg: DenoiseConfig) -> Path:
    """Denoising sweep: learned-basis truncation versus fixed-basis truncation.

    Clean data is read from ``dataset_dir`` when it is given (the surrogate
    settings are then ignored) and is otherwise a synthetic surrogate batch.
    For each SNR and noise realization the noisy input error is recorded,
    the coupling is learned in closed form on the noisy batch
    (``ddtl.fit_coupling``; the basis does not depend on the bandwidth), and
    per bandwidth the clean signals are compared with hard truncation of the
    noisy ones in the learned, the Dirac and the Laplacian basis.  The clean
    batch is projected once and each noisy batch once
    (``topology.project``); every truncation is read off the projections one
    mode plane at a time, so no dense basis is built.  The clean projection
    is rotated into the fixed bases once per run, into the learned one per fit.
    """
    if cfg.dataset_dir:
        graph, clean = _load_dataset(cfg.dataset_dir)
    else:
        graph, clean = random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, 0, "graph")), None
    d = spectral_decompose(build_incidence(graph))
    _check_levels("bandwidth_grid", cfg.bandwidth_grid, d.dim)
    if clean is None:
        spec = SignalClassSpec(cfg.signal_class, cfg.gen_eta0, cfg.num_signals, sub_seed(cfg.seed, 0, "signals"))
        clean, _ = gen_signals(d, spec)
    clean_z, energy = project(clean, d), float(np.linalg.norm(clean) ** 2)
    bandwidths = [int(bw) for bw in cfg.bandwidth_grid]
    methods = (("ddtl", "ddtl"), ("dirac_truncation", "dirac"), ("laplacian_truncation", "laplacian"))
    fixed_clean = {name: _rotated(clean_z, d.rank, pairs) for name, pairs in _FIXED_BASES.items()}

    rows = []
    le_fixed = {snr: 0 for snr in cfg.snr_grid}
    for real in range(cfg.realizations):
        for snr in cfg.snr_grid:
            noisy = add_awgn(clean, snr, sub_seed(cfg.seed, real, _noise_tag(snr)))
            noisy_z = project(noisy, d)
            k = fit_coupling(noisy_z, d.rank)
            bases = _plane_bases(k)
            clean_rows = {**fixed_clean, "ddtl": _rotated(clean_z, d.rank, bases["ddtl"])}
            curves = {
                method: _truncation_nmse(clean_rows[name], _rotated(noisy_z, d.rank, bases[name]), bandwidths, energy)
                for method, name in methods
            }
            rows.append(("noisy_input", float(snr), None, real, nmse(clean, noisy)))
            for bw in bandwidths:
                rows.extend((method, float(snr), bw, real, curve[bw]) for method, curve in curves.items())
                fixed = min(curves["dirac_truncation"][bw], curves["laplacian_truncation"][bw])
                le_fixed[snr] += curves["ddtl"][bw] <= fixed + DOMINANCE_SLACK

    table = tsio.ResultTable(
        name="results",
        columns=("method", "snr_db", "bandwidth", "realization", "nmse"),
        rows=tuple(rows),
    )
    fits = cfg.realizations * len(cfg.snr_grid)
    metadata = {
        **_run_header("denoise", cfg, graph),
        "learner": {"fits": fits, "stop_reasons": {"exact": fits}, "iterations": 0},
        # Recorded, not asserted: a basis fitted to the noise has no dominance theorem (ROADMAP item 11).
        "ddtl_le_truncations": {
            "pairs_per_snr": cfg.realizations * len(bandwidths),
            "by_snr": {f"{snr:g}": int(count) for snr, count in le_fixed.items()},
        },
        "seed_rule": "sub_seed = SeedSequence([master, realization, crc32(tag)]) first word",
    }
    return tsio.save_results(cfg.out, table, metadata)
