"""The three closed-loop workloads: one operation each, its output check, its quality values.

The first ``quality_ops`` operations of every run are a fixed reference set
(master seeds ``REFERENCE_SEED + i``, whatever the seed), so the NMSE metrics
are the same on every run and any change in quality shows at once.  Every
later operation ``i`` of a run with seed ``s`` uses master seed ``s + i``.  Every
call into the program goes through a module attribute (``experiments.run_*``,
``cli.main``) so that the traced run's rebinding reaches it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import topospinor.cli as cli
import topospinor.experiments as experiments
import topospinor.io as tsio
import topospinor.sparse as sparse
import topospinor.topology as topology
from topospinor.synth import SIGNAL_CLASSES

NMSE_FLOOR = 1e-12
REFERENCE_SEED = 0
SWEEP_LEVEL = 35
# A sweep NMSE may rise between sparsity levels by rounding only: this
# relative amount, or the NMSE floor in absolute terms.
MONOTONE_RTOL = 1e-9
FILE_FIT_NODES, FILE_FIT_EDGES, FILE_FIT_SIGNALS, FILE_FIT_ETA0 = 160, 320, 600, 35
FILE_FIT_MAX_ITER = 25


class CheckFailed(Exception):
    """An operation's output is wrong; the operation counts as failed."""


@dataclass(frozen=True)
class Quality:
    """NMSE values of one operation: learned transform, fixed dictionaries."""

    ddtl: tuple[float, ...]
    fixed: tuple[float, ...]


@dataclass(frozen=True)
class Workload:
    """``quality_ops``: every run starts with this many operations on the
    reference inputs and takes its NMSE metrics from exactly these, so the
    metrics depend neither on the seed nor on how fast the machine is."""

    name: str
    why: str
    op: Callable[[int, Path], Path]
    check: Callable[[Path], Quality]
    quality_ops: int


def master_seed(seed: int, i: int, quality_ops: int) -> int:
    """Master seed of operation ``i``: the reference set first, then ``seed + i``."""
    return REFERENCE_SEED + i if i < quality_ops else seed + i


def geomean(values) -> float:
    """Geometric mean with each value floored at NMSE_FLOOR."""
    values = [max(float(v), NMSE_FLOOR) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# sweep


def sweep_op(master: int, out: Path) -> Path:
    signal_class = SIGNAL_CLASSES[master % len(SIGNAL_CLASSES)]
    cfg = experiments.SweepConfig(out=str(out), signal_class=signal_class, realizations=1, seed=master)
    return experiments.run_sparsity_sweep(cfg)


def check_sweep(out: Path) -> Quality:
    curves: dict[str, dict[int, float]] = {}
    for row in _rows(out / "results.csv"):
        curves.setdefault(row["method"], {})[int(float(row["sparsity"]))] = float(row["nmse"])
    methods = tuple(experiments.SWEEP_METHODS)
    _require(tuple(sorted(curves)) == tuple(sorted(methods)), f"methods {sorted(curves)}, expected {methods}")
    for method, curve in curves.items():
        _require(len(curve) == 16, f"{method}: {len(curve)} sparsity levels, expected 16")
        values = [curve[level] for level in sorted(curve)]
        _require(all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values), f"{method}: NMSE outside [0, 1]")
        for a, b in zip(values, values[1:]):
            _require(b <= a * (1.0 + MONOTONE_RTOL) + NMSE_FLOOR, f"{method}: NMSE rises from {a!r} to {b!r}")
        _require(SWEEP_LEVEL in curve, f"{method}: no sparsity {SWEEP_LEVEL}")
    return Quality(
        ddtl=(curves["ddtl"][SWEEP_LEVEL],),
        fixed=tuple(curves[m][SWEEP_LEVEL] for m in ("laplacian", "dirac", "frame")),
    )


# ---------------------------------------------------------------------------
# denoise


def denoise_op(master: int, out: Path) -> Path:
    return experiments.run_denoise(experiments.DenoiseConfig(out=str(out), realizations=1, seed=master))


def check_denoise(out: Path) -> Quality:
    by_method: dict[str, list[float]] = {}
    for row in _rows(out / "results.csv"):
        snr, value = float(row["snr_db"]), float(row["nmse"])
        _require(math.isfinite(snr) and math.isfinite(value), f"non-finite row {row}")
        if row["method"] == "noisy_input":
            expected = 10.0 ** (-snr / 10.0)
            _require(abs(value - expected) <= 0.1 * expected, f"noisy input NMSE {value!r} at {snr} dB")
        by_method.setdefault(row["method"], []).append(value)
    for method in ("noisy_input", "ddtl", "dirac_truncation", "laplacian_truncation"):
        _require(bool(by_method.get(method)), f"no {method} rows")
    return Quality(
        ddtl=tuple(by_method["ddtl"]),
        fixed=tuple(by_method["dirac_truncation"] + by_method["laplacian_truncation"]),
    )


# ---------------------------------------------------------------------------
# file_fit


def _cli(argv: list[str]) -> None:
    """Run one CLI command in-process; its stdout (the output path) is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"topospinor {argv[0]} exited with {code}")


def file_fit_op(master: int, out: Path) -> Path:
    data, fit = out / "data", out / "fit"
    _cli(
        [
            "synth",
            "--num-nodes", str(FILE_FIT_NODES),
            "--num-edges", str(FILE_FIT_EDGES),
            "--signal-class", "mixture_of_dirac",
            "--seed", str(master),
            "--out", str(data),
        ]
    )
    _cli(["ddtl-fit", "--dataset", str(data), "--max-iter", str(FILE_FIT_MAX_ITER), "--seed", str(master), "--out", str(fit)])
    return out


def check_file_fit(out: Path) -> Quality:
    n, T = FILE_FIT_NODES + FILE_FIT_EDGES, FILE_FIT_SIGNALS
    omega = (out / "fit" / "omega_star.csv").read_text()
    rows = omega.splitlines()
    _require(len(rows) == n and omega.count(",") == n * (T - 1), f"omega_star.csv is not {n} x {T}")
    meta = json.loads((out / "fit" / "run.json").read_text())
    _require(meta["stop_reason"] in ("tolerance", "max_iter"), f"stop_reason {meta['stop_reason']!r}")
    nmse = float(meta["reconstruction_nmse"])
    _require(math.isfinite(nmse), f"reconstruction_nmse {nmse!r}")
    # Fixed-dictionary reference: Dirac and Laplacian truncation at the fit's
    # bandwidth, on the data exactly as the synth step wrote it.
    data = out / "data"
    graph = tsio.load_edge_list(data / "graph.txt")
    S = np.vstack([np.loadtxt(data / f"{part}_series.csv", delimiter=",", ndmin=2).T for part in ("node", "edge")])
    _require(S.shape == (n, T), f"dataset is {S.shape}, expected {(n, T)}")
    d = topology.spectral_decompose(topology.build_incidence(graph))
    phi, _ = topology.dirac_eigenbasis(d)
    theta, _ = topology.super_laplacian_eigenbasis(d)
    fixed = tuple(
        sparse.nmse(S, basis @ sparse.row_hard_threshold(basis.T @ S, FILE_FIT_ETA0)) for basis in (phi, theta)
    )
    return Quality(ddtl=(nmse,), fixed=fixed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            "one sparsity-sweep realization at study defaults, cycling the signal classes; "
            "joint OMP on four dictionaries is about 57% of it, the learner 42%",
            sweep_op,
            check_sweep,
            # One per signal class.
            quality_ops=4,
        ),
        Workload(
            "denoise",
            "one denoise realization at study defaults, 15 learner fits at n=63; "
            "learner is 99% of it and OMP never runs, the control for an OMP change",
            denoise_op,
            check_denoise,
            quality_ops=2,
        ),
        Workload(
            "file_fit",
            "CLI synth of 6 MB of CSV then ddtl-fit at n=480 read back from disk; "
            "io is about 46% of it and the learner's working set exceeds L2",
            file_fit_op,
            check_file_fit,
            quality_ops=2,
        ),
    )
}
