"""Coupling-transform learning by ADMM (DDTL).

Jointly estimates per-mode node-edge coupling factors k and spectral codes
Omega so that the coupling basis reproduces a batch of spinor signals,

    minimize ||S - Psi(k) Omega||_F^2
    subject to  -c2 <= k <= c1,  X row-sparse (eta0 rows),  P unit columns,
                P = Psi(k),  X = Omega,

where Psi(k) is the *unnormalized* coupling basis (branch columns are affine
in their own k, which keeps every k-subproblem an exact scalar quadratic).
The structural constraints are handled through the auxiliary variables P and
X with scaled dual matrices H and M, giving the six-step cycle
k -> Omega -> P -> X -> H -> M per iteration.

The data enter the cycle only in spectral coordinates.  With the orthonormal
frame Q = [(u; 0) | (u_H; 0) | (0; v_H) | (0; v)], the batch is projected
once per fit to z = Q^T S, whose rows follow the basis columns
[minus | node-harmonic | edge-harmonic | plus].  Q^T Psi(k) pairs row u_i
only with row v_i, so Psi(k)^T S, the reconstruction Psi(k) Omega and the
objective need no (V+E) x (V+E) product across the signals.

Psi, P and H are held in plane coordinates, as (2, 2r) arrays.  Coupled
column j of each lies in its mode plane span{(u_i; 0), (0; v_i)}: row 0 is
its coordinate along (u_i; 0), row 1 along (0; v_i), and the columns are
[minus | plus].  The minus column of Psi is (k-, -1), the plus column
(1, k+).  This is exact: from H = 0 the unit-column retraction and the dual
step never leave the planes, and the k-step reads only these coordinates.
The harmonic columns are left out, since there P equals Psi and H stays 0.
The dense basis is built once, at the end, for the reconstruction.

When T > V+E the batch is first written as S = L Q1^T, with L square and
Q1^T Q1 = I, by one reduced QR of S^T, and the cycle runs on L in place of S.
This is exact.  Every step is a left multiplication of the codes (the
projection, the analysis, the 2x2 code solve), a row mask chosen from row
norms (the hard threshold), or a sum over the signals of products of rows
(the k-step, the gaps, the objective); none of them changes when every
T-wide iterate is the compressed one times Q1^T.  The fit maps the codes
back once at the end.  After that one O((V+E)^2 T) QR, the signal-side work
of an iteration costs O((V+E) min(V+E, T)) rather than O((V+E) T).

Every fit starts from the Dirac coupling k = 1 (clipped to the box) and stops
once both relative primal gaps fall below ``PRIMAL_TOL``, or at ``max_iter``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sparse import column_normalize, row_hard_threshold
from .topology import SpectralDecomposition
from .transform import CouplingVector, MassBasis, build_mass_basis

__all__ = [
    "DdtlConfig",
    "DdtlState",
    "DdtlSolution",
    "IterationStats",
    "ConvergenceReport",
    "NumericalDivergenceError",
    "ddtl_fit",
    "initialize_state",
    "update_k",
    "update_omega",
    "update_p",
    "update_x",
    "update_duals",
    "convergence_report",
]

PRIMAL_TOL = 1e-4


class NumericalDivergenceError(RuntimeError):
    """Non-finite values appeared during the ADMM run."""

    def __init__(self, iteration: int, variable: str):
        self.iteration = iteration
        self.variable = variable
        super().__init__(f"non-finite values in '{variable}' at iteration {iteration}")


@dataclass(frozen=True)
class DdtlConfig:
    """Hyperparameters of the ADMM solver.

    eta0 is the target number of nonzero coefficient rows (the bandwidth) and
    max_iter the iteration budget: the two values the studies set.  c1/c2
    bound the coupling box [-c2, c1] and rho1/rho2 are the penalty weights of
    the basis and code splittings; no pipeline exposes them, and they stay
    here so the ADMM steps can be checked away from their defaults.  The
    start, the stopping tolerance and the closed-form steps have no settings.
    """

    eta0: int
    c1: float = 1.0
    c2: float = 1.0
    rho1: float = 10.0
    rho2: float = 10.0
    max_iter: int = 500

    def __post_init__(self):
        if not (0.0 <= self.c1 <= 1.0 and 0.0 <= self.c2 <= 1.0):
            raise ValueError(f"box bounds must lie in [0, 1], got c1={self.c1}, c2={self.c2}")
        if self.rho1 <= 0 or self.rho2 <= 0:
            raise ValueError("penalty parameters rho1, rho2 must be positive")
        if self.eta0 < 1:
            raise ValueError(f"eta0 must be positive, got {self.eta0}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    objective: float
    basis_gap: float
    code_gap: float


@dataclass(frozen=True)
class ConvergenceReport:
    stop_reason: str
    iterations: int
    initial_objective: float
    final_objective: float
    objective_curve: tuple[float, ...]
    basis_gap_curve: tuple[float, ...]
    code_gap_curve: tuple[float, ...]


@dataclass
class DdtlState:
    """Mutable ADMM iterate.

    ``z`` is the data in spectral coordinates (fixed for the fit; rows
    [u^T S_V; u_H^T S_V; v_H^T S_E; v^T S_E]).  ``psi`` caches the
    unnormalized basis at ``k``; it, ``p`` and ``h`` hold the (2, 2r) plane
    coordinates of the coupled columns (see the module notes).  ``row_basis``
    is Q1 of S = L Q1^T when the batch has more signals than rows, and None
    otherwise; with it, ``z``, ``omega``, ``x`` and ``m`` are those of L, each
    T-wide iterate times Q1.
    """

    z: np.ndarray
    k: np.ndarray
    omega: np.ndarray
    p: np.ndarray
    x: np.ndarray
    h: np.ndarray
    m: np.ndarray
    psi: np.ndarray
    row_basis: np.ndarray | None = None
    history: list[IterationStats] = field(default_factory=list)


@dataclass
class DdtlSolution:
    """Final iterate plus the normalized dictionary built at the learned coupling."""

    k_star: CouplingVector
    omega_star: np.ndarray
    x_star: np.ndarray
    s_hat: np.ndarray
    basis: MassBasis
    report: ConvergenceReport


def _blocks(d: SpectralDecomposition) -> tuple[slice, slice, slice]:
    """Row (and basis-column) slices of the minus, harmonic and plus blocks."""
    n, r = d.dim, d.rank
    return slice(0, r), slice(r, n - r), slice(n - r, n)


def _split_k(d: SpectralDecomposition, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return k[: d.rank, None], k[d.rank :, None]


def _build_psi(d: SpectralDecomposition, k: np.ndarray) -> np.ndarray:
    """Plane coordinates of the coupled columns of Psi(k): minus (k-, -1), plus (1, k+)."""
    ones = np.ones(d.rank)
    return np.vstack([np.concatenate([k[: d.rank], ones]), np.concatenate([-ones, k[d.rank :]])])


def _project(S: np.ndarray, d: SpectralDecomposition) -> np.ndarray:
    """Q^T S with rows [u^T S_V; u_H^T S_V; v_H^T S_E; v^T S_E]."""
    s_node, s_edge = S[: d.num_nodes], S[d.num_nodes :]
    return np.vstack([d.u.T @ s_node, d.u_harmonic.T @ s_node, d.v_harmonic.T @ s_edge, d.v.T @ s_edge])


def _analysis(z: np.ndarray, k: np.ndarray, d: SpectralDecomposition) -> np.ndarray:
    """Psi(k)^T S, from the projected data z."""
    minus, harm, plus = _blocks(d)
    km, kp = _split_k(d, k)
    return np.vstack([km * z[minus] - z[plus], z[harm], z[minus] + kp * z[plus]])


def _objective(state: DdtlState, d: SpectralDecomposition) -> float:
    """||S - Psi(k) Omega||_F^2, evaluated as ||z - Q^T Psi(k) Omega||_F^2."""
    minus, harm, plus = _blocks(d)
    km, kp = _split_k(d, state.k)
    om, op = state.omega[minus], state.omega[plus]
    model = np.vstack([km * om + op, state.omega[harm], kp * op - om])
    return float(np.linalg.norm(state.z - model) ** 2)


def initialize_state(S: np.ndarray, d: SpectralDecomposition, cfg: DdtlConfig) -> DdtlState:
    """Project the data and build the starting iterate at the Dirac coupling k = 1, clipped to the box.

    With more signals than rows the data are compressed first: S = L Q1^T.
    """
    k = np.clip(np.ones(2 * d.rank), -cfg.c2, cfg.c1)
    row_basis = None
    if S.shape[1] > d.dim:
        row_basis, r_factor = np.linalg.qr(S.T)
        S = r_factor.T
    z = _project(S, d)
    psi = _build_psi(d, k)
    omega = _analysis(z, k, d)
    return DdtlState(
        z=z,
        k=k,
        omega=omega,
        p=column_normalize(psi),
        x=row_hard_threshold(omega, cfg.eta0),
        h=np.zeros_like(psi),
        m=np.zeros_like(omega),
        psi=psi,
        row_basis=row_basis,
    )


def update_k(state: DdtlState, d: SpectralDecomposition, cfg: DdtlConfig) -> np.ndarray:
    """Exact box-constrained minimizer of the k-subproblem, in one closed-form pass.

    In spectral coordinates a minus coupling k_i scales only Omega_minus_i in
    row u_i of the reconstruction, and a plus coupling only Omega_plus_i in
    row v_i; its penalty direction (u_i; 0) or (0; v_i) is orthogonal to every
    other column's.  Each coordinate is therefore an independent scalar
    quadratic with curvature ||Omega_row||^2 + rho1/2 (at least rho1/2 > 0),
    minimized by clipping its vertex to the box.  Its penalty term reads the
    coordinate of P - H along that direction: row 0 of the minus columns,
    row 1 of the plus columns.
    """
    r = d.rank
    minus, _, plus = _blocks(d)
    ph = state.p - state.h
    c_minus, c_plus = ph[0, :r], ph[1, r:]
    om, op = state.omega[minus], state.omega[plus]
    g_minus = np.einsum("it,it->i", state.z[minus] - op, om)
    g_plus = np.einsum("it,it->i", state.z[plus] + om, op)
    w2 = np.einsum("it,it->i", state.omega, state.omega)
    half_rho1 = 0.5 * cfg.rho1
    g = np.concatenate([g_minus, g_plus]) + half_rho1 * np.concatenate([c_minus, c_plus])
    return np.clip(g / (np.concatenate([w2[minus], w2[plus]]) + half_rho1), -cfg.c2, cfg.c1)


def update_omega(state: DdtlState, d: SpectralDecomposition, cfg: DdtlConfig) -> np.ndarray:
    """Solve the ridge-regularized code subproblem at the current basis.

    The Gram of Psi(k) is block-diagonal with one 2x2 block per branch pair
    and ones on harmonic rows, so the solve is exact per mode.
    """
    rho2 = cfg.rho2
    minus, harm, plus = _blocks(d)
    rhs = _analysis(state.z, state.k, d) + rho2 * (state.x - state.m)
    km, kp = _split_k(d, state.k)

    omega = np.empty_like(rhs)
    omega[harm] = rhs[harm] / (1.0 + rho2)
    a = 1.0 + km**2 + rho2
    c = 1.0 + kp**2 + rho2
    b = km - kp
    det = a * c - b**2  # positive for rho2 > 0 since (1 + km kp)^2 >= 0
    rhs_m, rhs_p = rhs[minus], rhs[plus]
    omega[minus] = (c * rhs_m - b * rhs_p) / det
    omega[plus] = (a * rhs_p - b * rhs_m) / det
    return omega


def update_p(state: DdtlState) -> np.ndarray:
    """Retract H + Psi(k) onto the unit-column manifold."""
    return column_normalize(state.h + state.psi)


def update_x(state: DdtlState, cfg: DdtlConfig) -> np.ndarray:
    """Retract Omega + M onto the eta0-row-sparse set."""
    return row_hard_threshold(state.omega + state.m, cfg.eta0)


def update_duals(state: DdtlState) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dual ascent with unit step on both splitting constraints."""
    h = state.h + (state.psi - state.p)
    m = state.m + (state.omega - state.x)
    return h, m


def _check_finite(iteration: int, **arrays: np.ndarray) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise NumericalDivergenceError(iteration, name)


def ddtl_fit(S: np.ndarray, d: SpectralDecomposition, cfg: DdtlConfig) -> DdtlSolution:
    """Run the ADMM cycle until both relative primal gaps fall below ``PRIMAL_TOL``.

    The coupling applies only to the 2r non-harmonic columns; harmonic columns
    of the basis are fixed.  Stops at ``cfg.max_iter`` otherwise.  History
    records, per iteration, the data objective and both splitting gaps.  A
    wide batch is fitted on its square factor (see the module notes) and its
    codes are mapped back to T columns once, the row-sparse X by its kept
    rows only.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != d.dim:
        raise ValueError(f"signal matrix must be ({d.dim}, T), got {S.shape}")
    if not np.all(np.isfinite(S)):
        raise ValueError("signal matrix contains non-finite entries")
    if cfg.eta0 > d.dim:
        raise ValueError(f"eta0={cfg.eta0} exceeds basis size {d.dim}")

    state = initialize_state(S, d, cfg)
    initial_objective = _objective(state, d)
    p_norm = np.sqrt(d.dim)  # ||P||_F: n unit columns, the harmonic ones included

    stop_reason = "max_iter"
    for it in range(1, cfg.max_iter + 1):
        state.k = update_k(state, d, cfg)
        state.psi = _build_psi(d, state.k)
        state.omega = update_omega(state, d, cfg)
        state.p = update_p(state)
        state.x = update_x(state, cfg)
        state.h, state.m = update_duals(state)
        _check_finite(it, k=state.k, omega=state.omega, p=state.p, x=state.x, h=state.h, m=state.m)

        basis_gap = float(np.linalg.norm(state.psi - state.p))
        code_gap = float(np.linalg.norm(state.omega - state.x))
        x_norm = float(np.linalg.norm(state.x))
        rel_basis = basis_gap / p_norm
        rel_code = code_gap / x_norm if x_norm > 0 else code_gap
        state.history.append(IterationStats(it, _objective(state, d), basis_gap, code_gap))
        if rel_basis <= PRIMAL_TOL and rel_code <= PRIMAL_TOL:
            stop_reason = "tolerance"
            break

    report = convergence_report(state.history, initial_objective=initial_objective, stop_reason=stop_reason)
    k_star = CouplingVector.from_stacked(state.k, c1=cfg.c1, c2=cfg.c2)
    omega, x = state.omega, state.x
    if state.row_basis is not None:
        omega = omega @ state.row_basis.T
        kept = np.flatnonzero(np.any(x != 0.0, axis=1))
        x = np.zeros_like(omega)
        x[kept] = state.x[kept] @ state.row_basis.T
    # Psi(k) is the normalized basis with its coupled columns scaled back by sqrt(1 + k^2).
    basis = build_mass_basis(d, k_star)
    minus, _, plus = _blocks(d)
    scale = np.ones(d.dim)
    scale[minus] = np.sqrt(1.0 + k_star.k_minus**2)
    scale[plus] = np.sqrt(1.0 + k_star.k_plus**2)
    return DdtlSolution(
        k_star=k_star,
        omega_star=omega,
        x_star=x,
        s_hat=basis.psi_bar @ (scale[:, None] * omega),
        basis=basis,
        report=report,
    )


def convergence_report(
    history: list[IterationStats],
    initial_objective: float = float("nan"),
    stop_reason: str | None = None,
) -> ConvergenceReport:
    """Summarize a run: residual/objective curves, iteration count, stop reason."""
    if not history:
        return ConvergenceReport(
            stop_reason=stop_reason or "max_iter",
            iterations=0,
            initial_objective=initial_objective,
            final_objective=initial_objective,
            objective_curve=(),
            basis_gap_curve=(),
            code_gap_curve=(),
        )
    return ConvergenceReport(
        stop_reason=stop_reason or "unknown",
        iterations=history[-1].iteration,
        initial_objective=initial_objective,
        final_objective=history[-1].objective,
        objective_curve=tuple(rec.objective for rec in history),
        basis_gap_curve=tuple(rec.basis_gap for rec in history),
        code_gap_curve=tuple(rec.code_gap for rec in history),
    )
