"""Experiment pipelines behind the CLI: spectra dump, synthesis, fitting, sweeps.

The two studies (``run_sparsity_sweep`` and ``run_denoise``) learn the
coupling in closed form, one angle per mode plane from the plane's 2 x 2
Gram (``ddtl.plane_grams`` and ``ddtl.coupling_from_grams``), and code or
truncate in each dictionary one mode plane at a time, from its atoms'
energies: the sweep's from each plane's 2 x 2 factor, built from the
batch's coefficient rows (``sparse.plane_energies``), the denoising
sweep's from each plane's Gram and, for the clean batch, its 2 x 2
triangles.  No study builds a dense (V+E) x (V+E) basis or runs the ADMM.
The sweep reads no graph at all on the three classes whose model reads only
the rank r = V - 1, and no singular vector on ``mixture_of_dirac``.
The rule (each plane's principal axis, mod 90 degrees, clipped to the box
k in [0, 1], ties to k = 1) is stated in :mod:`topospinor.ddtl`.
``run_ddtl_fit`` runs the ADMM (``ddtl.ddtl_fit``) until ROADMAP item 0 lets
it move to the closed form, and writes its eta0-row-sparse codes.

Every pipeline is deterministic given its master seed, at a fixed BLAS
thread count and one numpy/LAPACK build (ROADMAP item 15: LAPACK picks the
basis of a degenerate eigenspace).  Sub-seeds follow the splitting rule

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
from .ddtl import DdtlConfig, coupling_from_grams, ddtl_fit, fit_coupling, plane_grams
from .frames import build_frame
from .sparse import nmse, plane_energies, plane_pursuit_curves, truncation_curves
from .sparse import omp  # noqa: F401  unused; perfbench pins this binding (ROADMAP item 0)
from .synth import (
    SIGNAL_CLASSES,
    SignalClassSpec,
    add_awgn,
    check_graph_size,
    draw_signals,
    gen_signals,
    random_graph,
)
from .topology import (
    OrientedGraph,
    build_incidence,
    decomposition_residuals,
    dirac_eigenbasis,
    laplacian_singular_values,
    project,
    reduce_planes,
    spectral_decompose,
    super_laplacian_eigenbasis,
)
from .transform import build_mass_basis

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
    """Deterministic per-(realization, stage) seed derived from the master seed, which must not be negative."""
    if master_seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {master_seed}")
    digest = zlib.crc32(tag.encode("utf-8"))
    ss = np.random.SeedSequence([int(master_seed), int(realization), int(digest)])
    return int(ss.generate_state(1)[0])


def _run_header(command: str, cfg, graph: OrientedGraph | None = None) -> dict:
    """The run.json keys of every command: its name, its config without ``out`` and the graph's size, the config's
    when no graph is given (``random_graph`` gives V and E exactly)."""
    config = asdict(cfg)
    config.pop("out")
    size = (cfg.num_nodes, cfg.num_edges) if graph is None else (graph.num_nodes, graph.num_edges)
    return {"command": command, "config": config, "graph": dict(zip(("num_nodes", "num_edges"), size))}


def _check_levels(name: str, levels: tuple[int, ...], n: int | None) -> None:
    """Refuse a grid of sparsity levels or bandwidths with a level that is not an integer (a bool is not one), one
    outside [1, n], n = V + E, or a repeated level.  With n None, as in ``DenoiseConfig`` before its graph is read,
    the range is left to a later call."""
    if bad := [lv for lv in levels if isinstance(lv, bool) or not isinstance(lv, (int, np.integer))]:
        raise ValueError(f"{name} levels must be integers, not {', '.join(map(repr, bad))}")
    if n is not None and not all(1 <= lv <= n for lv in levels):
        raise ValueError(f"{name} levels must lie in [1, V + E = {n}], got {levels}")
    if len(set(levels)) != len(levels):
        raise ValueError(f"{name} levels must not repeat, got {levels}")


def _load_dataset(dataset_dir: str) -> tuple[OrientedGraph, np.ndarray, float]:
    """``io.load_dataset`` and the batch's energy ||S||_F^2, refusing a batch with a non-finite cell or an energy of
    zero, one that underflows below the smallest normal double (``np.finfo(float).tiny``) or one past the largest:
    no NMSE against it is defined."""
    graph, S = tsio.load_dataset(dataset_dir)
    if not np.all(np.isfinite(S)):
        raise ValueError(f"dataset {dataset_dir} has a non-finite cell, so no NMSE against it is defined")
    with np.errstate(over="ignore"):  # an overflow is refused below, by name
        energy = float(np.linalg.norm(S) ** 2)
    if not np.finfo(float).tiny <= energy < np.inf:
        kind = ("an energy that " + ("underflows" if energy < 1 else "overflows")) if np.any(S) else "zero energy"
        raise ValueError(f"dataset {dataset_dir} has {kind}, so no NMSE against it is defined")
    return graph, S, energy


def _load_graph(cfg: SpectraConfig | SynthConfig) -> OrientedGraph:
    """The graph of ``cfg.graph_path``, else a random one: only then is the ``"graph"`` sub-seed derived."""
    if cfg.graph_path:
        return tsio.load_edge_list(cfg.graph_path)
    return random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, 0, "graph"))


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
    graph = _load_graph(cfg)
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
    graph = _load_graph(cfg)
    d = spectral_decompose(build_incidence(graph))
    spec = SignalClassSpec(cfg.signal_class, cfg.eta0, cfg.num_signals, sub_seed(cfg.seed, 0, "signals"))
    S, truth = gen_signals(d, spec)

    out = tsio.save_dataset(cfg.out, graph, S)
    tsio.write_matrix_csv(out / "coefficients.csv", truth.coefficients)
    metadata = {
        **_run_header("synth", cfg, graph),
        "truth": {
            "signal_class": cfg.signal_class,
            "support": [int(i) for i in truth.support],
            # The support as full-basis columns: the harmonic ones sit between the minus and the plus block.
            "support_columns": (truth.support + np.where(truth.support < d.rank, 0, d.dim - 2 * d.rank)).tolist(),
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
            raise ValueError("a dataset directory is required (--dataset)")


def run_ddtl_fit(cfg: FitConfig) -> Path:
    """Fit the coupling transform to a dataset and store k*, the row-sparse codes and the diagnostics."""
    graph, S, energy = _load_dataset(cfg.dataset_dir)
    d = spectral_decompose(build_incidence(graph))
    solution = ddtl_fit(S, d, DdtlConfig(eta0=cfg.eta0, max_iter=cfg.max_iter))
    report = solution.report

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    tsio.save_edge_list(out / "graph.txt", graph)
    tsio.write_matrix_csv(out / "omega_star.csv", solution.codes)
    metadata = {
        **_run_header("ddtl-fit", cfg, graph),
        "k_star": [float(k) for k in solution.k_star],
        "reconstruction_nmse": solution.codes_error / energy,  # ||S - Psi(k*) codes||^2
        "kept_rows": int(np.count_nonzero(np.any(solution.codes != 0.0, axis=1))),
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
        check_graph_size(self.num_nodes, self.num_edges)  # as random_graph would, which three classes never call
        if not self.sparsity_grid:
            raise ValueError("sparsity_grid must be non-empty")
        _check_levels("sparsity_grid", self.sparsity_grid, self.num_nodes + self.num_edges)
        if self.realizations < 1:
            raise ValueError("realizations must be positive")


# No study path calls sweep_dictionaries; the tests' dense oracle and perfbench do (ROADMAP item 0).
def sweep_dictionaries(d, k: np.ndarray) -> dict[str, np.ndarray]:
    """The four dense unit-column dictionaries that ``_plane_bases`` describes, at the shared coupling k (length r)."""
    phi, theta = dirac_eigenbasis(d)[0], super_laplacian_eigenbasis(d)[0]
    ddtl = build_mass_basis(d, k, k)
    return {"laplacian": theta, "dirac": phi, "frame": build_frame(phi, theta).matrix, "ddtl": ddtl}


def _plane_bases(k: np.ndarray) -> dict[str, np.ndarray]:
    """The four sweep dictionaries as orthonormal atom pairs per mode plane: (bases, r, 2, 2) each.

    Row j of a plane's 2 x 2 is atom j as (node, edge) coefficients: Laplacian
    ((1, 0), (0, 1)), Dirac ((c, -c), (c, c)) with c = 1/sqrt(2), learned
    ((k, -1), (1, k)) / sqrt(1 + k^2) at the shared coupling k (one basis per
    row of a fits x r array of couplings), and the frame
    [Dirac, Laplacian], each in its dense columns' order, so that a tie sent to
    the first atom listed goes where dense OMP sends it (the Laplacian and
    Dirac pairs: read-only views of one 2 x 2 each).
    """
    k = np.atleast_2d(np.asarray(k, dtype=float))  # one learned basis per row
    one = np.ones_like(k)
    ddtl = np.stack([k, -one, one, k], axis=-1).reshape(*k.shape, 2, 2) / np.sqrt(1.0 + k**2)[..., None, None]
    dirac = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)  # 1/sqrt(2) as in dirac_eigenbasis
    laplacian, dirac = (np.broadcast_to(pair, (1, k.shape[-1], 2, 2)) for pair in (np.eye(2), dirac))
    return {"laplacian": laplacian, "dirac": dirac, "frame": np.concatenate([dirac, laplacian]), "ddtl": ddtl}


def _at_most_rivals(curves: np.ndarray, method: int, rivals: list[int]) -> np.ndarray:
    """Per level of ``curves`` (..., methods, levels), whether curve ``method`` is at most the least of its
    ``rivals`` plus ``DOMINANCE_SLACK``: (..., levels).  The one rule of both studies' claim counts in run.json."""
    return curves[..., method, :] <= curves[..., rivals, :].min(axis=-2) + DOMINANCE_SLACK


def _plane_factor(support: np.ndarray, coefficients: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """z2 (n x min(T, 2)) of the batch whose support rows ``coefficients`` sit in the learned pairs at k.

    Plane i's T-wide block A_i^T c_i (A_i the pair of ``_plane_bases`` at k_i, c_i the plane's minus and plus
    rows) and its factor W_i = R_i A_i share their Gram, where R_i is zero for a plane with no supported column,
    ||c|| in the slot of a plane's one supported column, and the R-only QR triangle of c_i^T for a plane with both:
    one batched QR over those planes alone.  W_i goes into z2 as ``topology.reduce_planes`` places its triangles.
    """
    r, T = len(k), coefficients.shape[1]
    plane, plus = support % r, support >= r
    both = np.bincount(plane, minlength=r)[plane] == 2  # per support row: its plane holds two
    tri = np.zeros((r, min(T, 2), 2))
    tri[plane[~both], 0, plus[~both].astype(int)] = np.linalg.norm(coefficients[~both], axis=1)
    blocks = np.stack([coefficients[both & ~plus], coefficients[both & plus]], axis=-1)  # sorted support: planes align
    tri[plane[both & ~plus]] = np.linalg.qr(blocks, mode="r")
    factor = tri @ _plane_bases(k)["ddtl"][0]
    return np.concatenate([factor[..., 0], np.zeros((n - 2 * r, min(T, 2))), factor[..., 1]])


def run_sparsity_sweep(cfg: SweepConfig) -> Path:
    """Reconstruction error versus sparsity for the four dictionaries, in spectral coordinates.

    The curves depend on the graph only through what ``synth.draw_signals``
    reads: its rank r, which is V - 1 since ``random_graph`` is connected,
    and on ``mixture_of_dirac`` alone its singular values sigma.  So the
    three other classes draw no graph, and the mixture's sigma comes from
    the V x V node Laplacian (``topology.laplacian_singular_values``: no
    incidence, no SVD).  Per realization the batch is drawn and kept as its
    coefficient rows C.  Each mode plane's T-wide
    block is replaced by a 2 x 2 factor with the same Gram (``_plane_factor``,
    a QR only on planes holding both columns).  The coupling is learned in
    closed form on that z2 (``ddtl.fit_coupling``), the energies of z2's
    planes in all four dictionaries at once give every joint OMP curve
    (``plane_pursuit_curves``), and each is divided by ||C||_F^2, the batch's
    energy, since the synthesis basis is orthonormal.
    """
    r, n = cfg.num_nodes - 1, cfg.num_nodes + cfg.num_edges
    curves = []  # per realization, the NMSE curve of each of SWEEP_METHODS, the order of _plane_bases
    for real in range(cfg.realizations):
        sigma = None  # read by the mixture's couplings alone
        if cfg.signal_class == "mixture_of_dirac":
            graph = random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, real, "graph"))
            sigma = laplacian_singular_values(graph)
        spec = SignalClassSpec(cfg.signal_class, cfg.eta0, cfg.num_signals, sub_seed(cfg.seed, real, "signals"))
        truth = draw_signals(r, spec, sigma)
        z = _plane_factor(truth.support, truth.coefficients, truth.k_modes, n)
        bases = _plane_bases(fit_coupling(z, r))
        residuals = plane_pursuit_curves(z, r, list(bases.values()), cfg.sparsity_grid)
        curves.append(residuals / np.vdot(truth.coefficients, truth.coefficients))
    curves = np.array(curves)
    rows = [(method, level, real, value) for real, curve in enumerate(curves.tolist())
            for method, values in zip(SWEEP_METHODS, curve) for level, value in zip(cfg.sparsity_grid, values)]

    table = tsio.ResultTable(
        name="results",
        columns=("method", "sparsity", "realization", "nmse"),
        rows=tuple(rows),
    )
    fits = cfg.realizations
    metadata = {
        **_run_header("sparsity-sweep", cfg),
        "learner": {"fits": fits, "stop_reasons": {"exact": fits}, "iterations": 0},
        # Curves 0-3 are SWEEP_METHODS.  Both counts hold in every realization, a theorem for joint sparsity in
        # sample (ROADMAP item 4); the tests assert it.
        "dominance": {
            "realizations": fits,
            "ddtl_le_fixed_every_level": int(_at_most_rivals(curves, 3, [0, 1, 2]).all(axis=-1).sum()),
            "frame_le_bases_every_level": int(_at_most_rivals(curves, 2, [0, 1]).all(axis=-1).sum()),
        },
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
        _check_levels("bandwidth_grid", self.bandwidth_grid, None)
        if not all(snr > -np.inf for snr in self.snr_grid):  # false for nan too; +inf is the noiseless case
            raise ValueError(f"snr_grid levels must be numbers or inf, not nan or -inf: {self.snr_grid}")
        if len(set(self.snr_grid)) != len(self.snr_grid):  # 0 and -0 are one level
            raise ValueError(f"snr_grid repeats a level: {self.snr_grid}")
        if len({_noise_tag(snr) for snr in self.snr_grid}) != len(self.snr_grid):
            raise ValueError(f"snr_grid values that print alike with %g would share one noise draw: {self.snr_grid}")


def _noise_tag(snr: float) -> str:
    """Sub-seed tag of the noise at one SNR level; equal tags mean one shared noise draw."""
    return f"awgn@{snr:g}"


def _grams(z, rank) -> tuple[np.ndarray, np.ndarray]:
    """A projected batch's plane Grams (``ddtl.plane_grams``) and its harmonic rows' energies."""
    harmonic = z[rank : len(z) - rank]
    return plane_grams(z, rank), np.einsum("ht,ht->h", harmonic, harmonic)


def _row_energies(grams, harmonic, pairs) -> np.ndarray:
    """The energies of ``sparse.plane_energies(z, rank, pairs)``, per basis, from ``_grams`` of z.

    ``grams`` is (..., 3, r), ``harmonic`` (..., n - 2r) and ``pairs``
    (..., B, r, 2, 2); the result is (..., B, n), each basis's rows in the
    order [first atoms | second atoms | harmonic rows] of ``_with_harmonic``.
    Atom (c_u, c_v) of plane i has the energy
    c_u^2 ||z_u||^2 + 2 c_u c_v <z_u, z_v> + c_v^2 ||z_v||^2, a quadratic form
    accurate to about 1e-16 of the plane's energy, not to its own size as a
    sum of squares of the rotated row is.
    """
    c_u, c_v = np.moveaxis(pairs, -1, 0).swapaxes(-1, -2)  # (..., B, atom, plane)
    uu, cross, vv = np.moveaxis(grams[..., None, None, :, :], -2, 0)
    planes = c_u**2 * uu + 2.0 * c_u * c_v * cross + c_v**2 * vv
    return _with_harmonic(planes.reshape(*planes.shape[:-2], -1), harmonic)


def _with_harmonic(planes, harmonic) -> np.ndarray:
    """Per basis, the plane rows' energies (..., B, 2r) followed by the harmonic rows' (..., n - 2r)."""
    harmonic = np.broadcast_to(harmonic[..., None, :], (*planes.shape[:-1], harmonic.shape[-1]))
    return np.concatenate([planes, harmonic], axis=-1)


def run_denoise(cfg: DenoiseConfig) -> Path:
    """Denoising sweep: learned-basis truncation versus fixed-basis truncation.

    Clean data is read from ``dataset_dir`` when it is given (the surrogate
    settings are then ignored) and is otherwise a synthetic surrogate batch.
    A finite SNR level whose ratio 10^(snr/10) is no finite normal double, or
    whose expected noise energy ||S||^2 10^(-snr/10) is not finite, is refused.
    For each SNR and noise realization the noisy input error is recorded,
    and per bandwidth the clean signals are compared with hard truncation of
    the noisy ones in the learned, the Dirac and the Laplacian basis, which
    depends on a batch only through each mode plane's 2 x 2 Gram and the
    harmonic rows' energies (``_grams``).  Each noisy batch is projected once
    and reduced, with its error against the clean projection, to those; the
    couplings of all fits come from the noisy Grams in one call
    (``ddtl.coupling_from_grams``), and the noisy and error row energies are
    their quadratic forms (``_row_energies``).  The clean row energies are
    sums of squares, so never below 0: the clean batch is reduced once per
    run to its 2 x 2 triangles (``topology.reduce_planes``), whose energies
    in every basis of every fit come from one ``sparse.plane_energies`` call,
    and every truncation curve from one ``sparse.truncation_curves`` call.
    """
    if cfg.dataset_dir:
        graph, clean, _ = _load_dataset(cfg.dataset_dir)
    else:
        graph, clean = random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, 0, "graph")), None
    d = spectral_decompose(build_incidence(graph))
    _check_levels("bandwidth_grid", cfg.bandwidth_grid, d.dim)
    if clean is None:
        spec = SignalClassSpec(cfg.signal_class, cfg.gen_eta0, cfg.num_signals, sub_seed(cfg.seed, 0, "signals"))
        clean, _ = gen_signals(d, spec)
    clean_z, energy, r = project(clean, d), float(np.linalg.norm(clean) ** 2), d.rank
    with np.errstate(over="ignore", under="ignore", divide="ignore"):  # add_awgn's noise must be finite
        for snr, ratio in zip(cfg.snr_grid, 10.0 ** (np.array(cfg.snr_grid) / 10.0)):
            if snr < np.inf and not (np.finfo(float).tiny <= ratio < np.inf and energy / ratio < np.inf):
                raise ValueError(f"snr_grid level {snr:g} dB leaves the float range for this batch: 10^(snr/10) is "
                                 f"{ratio:.3g} and the expected noise energy ||S||^2 10^(-snr/10) {energy / ratio:.3g}")
    fits = [(real, snr) for real in range(cfg.realizations) for snr in cfg.snr_grid]
    inputs, noisy_grams, error_grams = [], [], []
    for real, snr in fits:
        noisy = add_awgn(clean, snr, sub_seed(cfg.seed, real, _noise_tag(snr)))
        noisy_z = project(noisy, d)
        inputs.append(nmse(clean, noisy))
        noisy_grams.append(_grams(noisy_z, r))
        error_grams.append(_grams(noisy_z - clean_z, r))
    noisy_grams, error_grams = [[np.stack(g) for g in zip(*grams)] for grams in (noisy_grams, error_grams)]

    # Per fit, in the rows' order, the learned, the Dirac and the Laplacian pairs.
    bases = _plane_bases(coupling_from_grams(noisy_grams[0]))
    pairs = np.stack(np.broadcast_arrays(bases["ddtl"], bases["dirac"], bases["laplacian"]), axis=1)
    z2 = reduce_planes(clean_z, r)
    clean_planes, clean_harmonic = plane_energies(z2, r, pairs.reshape(3 * len(fits), r, 2, 2))  # not -1: r may be 0
    clean_energies = _with_harmonic(clean_planes.reshape(len(fits), 3, 2 * r), clean_harmonic)
    curves = truncation_curves(  # fits x methods x bandwidths
        _row_energies(*noisy_grams, pairs), _row_energies(*error_grams, pairs), clean_energies, cfg.bandwidth_grid)
    curves /= energy

    rows = []
    methods = ("ddtl", "dirac_truncation", "laplacian_truncation")
    for (real, snr), noisy_input, curve in zip(fits, inputs, curves.tolist()):
        rows.append(("noisy_input", float(snr), None, real, noisy_input))
        for bw, values in zip(cfg.bandwidth_grid, zip(*curve)):
            rows.extend((method, float(snr), bw, real, value) for method, value in zip(methods, values))
    # The fits run realization-major, so the claim is (realization, snr, bandwidth) once reshaped.
    wins = _at_most_rivals(curves, 0, [1, 2]).reshape(cfg.realizations, len(cfg.snr_grid), -1).sum(axis=(0, 2))

    table = tsio.ResultTable(
        name="results",
        columns=("method", "snr_db", "bandwidth", "realization", "nmse"),
        rows=tuple(rows),
    )
    metadata = {
        **_run_header("denoise", cfg, graph),
        "learner": {"fits": len(fits), "stop_reasons": {"exact": len(fits)}, "iterations": 0},
        # Recorded, not asserted: a basis fitted to the noise has no dominance theorem (ROADMAP item 11).
        "ddtl_le_truncations": {
            "pairs_per_snr": cfg.realizations * len(cfg.bandwidth_grid),
            "by_snr": {f"{snr:g}": int(count) for snr, count in zip(cfg.snr_grid, wins)},
        },
        "seed_rule": "sub_seed = SeedSequence([master, realization, crc32(tag)]) first word",
    }
    return tsio.save_results(cfg.out, table, metadata)
