"""Coupling-transform learning: the closed form of the studies and the ADMM of ``ddtl-fit`` (DDTL).

The closed form is the learner of the two studies: ``plane_grams`` reduces a
batch to its mode planes' 2 x 2 Grams and ``coupling_from_grams`` applies the
rule to Grams of any leading shape.  ``sparsity-sweep`` calls both through
``fit_coupling``; ``denoise`` applies the rule once to the stacked Grams of
all its noisy batches.  In the orthonormal frame Q of ``topology.project`` every
non-harmonic mode is a 2-D plane, and the shared-coupling basis puts its
plus column at (cos theta, sin theta) and its minus column at
(sin theta, -cos theta), theta = atan k, in the box k in [0, 1].  The best
reachable pair of columns is the plane's principal axis clipped to that box
(Eckart & Young, 1936, per 2 x 2 block): with
phi = atan2(2 <z_u, z_v>, ||z_u||^2 - ||z_v||^2) / 2 taken mod 90 degrees,
theta = phi up to 45 degrees, 45 degrees up to 67.5 and 0 beyond.  An axis
at exactly 67.5 or 157.5 degrees, a zero block and an isotropic block (equal
energies, zero cross term) get k = 1.  This basis is optimal for every
sparsity at once (ROADMAP item 1), costs one pass over the batch and has no
settings: the studies' former ADMM budget ``--ddtl-max-iter`` is gone.

``ddtl_fit``, the ADMM below, is what ``ddtl-fit`` runs until ROADMAP item 0
lets it move to the closed form.  It jointly estimates per-mode node-edge
coupling factors k and spectral codes Omega so that the coupling basis
reproduces a batch of spinor signals,

    minimize ||S - Psi(k) Omega||_F^2
    subject to  -1 <= k <= 1,  X row-sparse (eta0 rows),  P unit columns,
                P = Psi(k),  X = Omega,

where Psi(k) is the *unnormalized* coupling basis (branch columns are affine
in their own k, which keeps every k-subproblem an exact scalar quadratic).
The structural constraints are handled through the auxiliary variables P and
X with scaled dual matrices H and M, giving the six-step cycle
k -> Omega -> P -> X -> H -> M per iteration.

The data enter the cycle only in spectral coordinates.  With the orthonormal
frame Q = [(u; 0) | (u_H; 0) | (0; v_H) | (0; v)], the batch is projected
once per fit to z = Q^T S (``topology.project``), whose rows follow the
basis columns [minus | node-harmonic | edge-harmonic | plus].  Q^T Psi(k)
pairs row u_i only with row v_i, so Psi(k)^T S, the reconstruction
Psi(k) Omega and the objective need no (V+E) x (V+E) product across the
signals.

Psi, P and H are held in plane coordinates, as (2, 2r) arrays.  Coupled
column j of each lies in its mode plane span{(u_i; 0), (0; v_i)}: row 0 is
its coordinate along (u_i; 0), row 1 along (0; v_i), and the columns are
[minus | plus].  The minus column of Psi is (k-, -1), the plus column
(1, k+).  This is exact: from H = 0 the unit-column retraction and the dual
step never leave the planes, and the k-step reads only these coordinates.
The harmonic columns are left out, since there P equals Psi and H stays 0.
The dense basis is built once, at the end, for ``DdtlSolution.basis``; no
reconstruction is formed, as the objective gives its error.

The cycle runs on two columns.  Every step reads z only through rotations
within one mode plane (the analysis, the reconstruction, the 2x2 code
solve), row norms (the hard threshold) and within-plane sums over the
signals of products of rows (the k-step, the gaps, the objective), none of
which changes when plane i's block z_i (2 x T) becomes z_i Q for an
orthogonal Q.  So the fit runs on ``topology.reduce_planes`` of the
projection, each z_i replaced by its 2 x 2 triangle R_i, and an iteration
costs O(V+E).  Rounding picks the row of a tied pair at the hard threshold
(ROADMAP item 6).

Each iteration scans the six iterates, in step order k, Omega, P, X, H, M,
and names the first non-finite one; a finite iterate whose squared norm
overflows does not raise.  ``update_k`` and ``update_omega`` keep a ``cfg``
argument they do not read: the penalties are the constants ``RHO1``, ``RHO2``.

Every fit starts from the Dirac coupling k = 1 and stops once both relative
primal gaps fall below ``PRIMAL_TOL``, or at ``max_iter``.  The report keeps
the objective and both splitting gaps of every iteration.

The fit ends by polishing (Boyd et al., 2011, for ADMM under a nonconvex
constraint): the codes it returns are the least-squares codes of the batch
on the rows the final X keeps, at k*, so at most eta0 rows are nonzero.  X
itself carries the scaled dual M, and Omega keeps every row.  In plane i the
kept atoms of Psi(k*) among the minus column (k-, -1) and the plus column
(1, k+) get the minimum-norm least-squares fit, which is exact where both
are kept and not parallel (1 + k- k+ != 0); a kept harmonic row is its own
code.  This map gives the codes' error, the objective at them, from the
plane reduction and the T-wide codes from the projection: no code passes
through R_i^-1, singular on every plane a noiseless batch leaves empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse import column_normalize, row_hard_threshold
from .topology import SpectralDecomposition, project, reduce_planes
from .transform import build_mass_basis

__all__ = [
    "fit_coupling",
    "plane_grams",
    "coupling_from_grams",
    "DdtlConfig",
    "DdtlState",
    "DdtlSolution",
    "ConvergenceReport",
    "NumericalDivergenceError",
    "ddtl_fit",
    "initialize_state",
    "update_k",
    "update_omega",
    "update_p",
    "update_x",
    "update_duals",
]

PRIMAL_TOL = 1e-4
RHO1 = RHO2 = 10.0  # the penalty weights of the basis and code splittings


def fit_coupling(z: np.ndarray, rank: int) -> np.ndarray:
    """The coupling k in [0, 1] of each mode whose shared-coupling basis best codes the batch, in closed form.

    ``coupling_from_grams`` of ``plane_grams(z, rank)``.
    """
    return coupling_from_grams(plane_grams(z, rank))


def plane_grams(z: np.ndarray, rank: int) -> np.ndarray:
    """Each mode plane's Gram: (3, rank), the rows ||z_u||^2, <z_u, z_v> and ||z_v||^2.

    ``z`` is the projected batch (``topology.project``) or its plane reduction
    (``topology.reduce_planes``), n x T (or n): plane i is rows z_u = z[i] and
    z_v = z[n - rank + i].
    """
    z = np.asarray(z, dtype=float).reshape(len(z), -1)
    n, r = len(z), int(rank)
    z_u, z_v = z[:r], z[n - r :]
    return np.stack([np.einsum("it,it->i", z_u, z_u), np.einsum("it,it->i", z_u, z_v), np.einsum("it,it->i", z_v, z_v)])


def coupling_from_grams(grams: np.ndarray) -> np.ndarray:
    """The coupling k in [0, 1] of each mode from its plane's Gram: ``grams`` (..., 3, r) to k (..., r).

    The rule is the module notes' one, evaluated without angles: with
    x = ||z_u||^2 - ||z_v||^2 and y = 2 <z_u, z_v>, both negated when y < 0,
    the point (x, y) lies at twice the principal axis mod 90 degrees, in
    [0, 180].  Up to 90 (x >= 0) k is the half-angle tangent
    y / (x + hypot(x, y)); up to 135 (x + y >= 0, the ties included) k = 1;
    beyond, k = 0.  A zero or isotropic block has x = y = 0 and gets k = 1.
    Any leading shape is one fit per index.
    """
    uu, cross, vv = np.moveaxis(np.asarray(grams, dtype=float), -2, 0)
    diff = uu - vv
    x, y = np.where(cross < 0.0, -diff, diff), 2.0 * np.abs(cross)
    radius = np.hypot(x, y)
    k = (x + y >= 0.0).astype(float)
    below = (x >= 0.0) & (radius > 0.0)
    k[below] = y[below] / (x[below] + radius[below])
    return k


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
    max_iter the iteration budget: the two values ``ddtl-fit`` sets.  The
    penalties ``RHO1`` and ``RHO2``, the coupling box [-1, 1], the start, the
    stopping tolerance and the closed-form steps have no settings.
    """

    eta0: int
    max_iter: int = 500

    def __post_init__(self):
        if self.eta0 < 1:
            raise ValueError(f"eta0 must be positive, got {self.eta0}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


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

    ``projection`` is the data in spectral coordinates (fixed for the fit;
    rows [u^T S_V; u_H^T S_V; v_H^T S_E; v^T S_E]) and ``z`` its plane
    reduction, min(T, 2) columns as are ``omega``, ``x`` and ``m`` (see the
    module notes).  ``psi`` caches the unnormalized basis at ``k``; it, ``p``
    and ``h`` hold the (2, 2r) plane coordinates of the coupled columns.
    """

    z: np.ndarray
    k: np.ndarray
    omega: np.ndarray
    p: np.ndarray
    x: np.ndarray
    h: np.ndarray
    m: np.ndarray
    psi: np.ndarray
    projection: np.ndarray


@dataclass
class DdtlSolution:
    """The learned couplings, the polished codes and the unit-column basis built at k*.

    ``codes`` are the least-squares codes on the rows the final X keeps (see
    the module notes), every dropped row +0.0.  No reconstruction is formed:
    ``codes_error`` is ||S - Psi(k*) codes||_F^2 and ``report.final_objective``
    ||S - Psi(k*) Omega*||_F^2 for the final Omega, since Q and each plane's
    Q_i keep the norm of the residual.
    """

    k_star: np.ndarray  # the 2r couplings, minus branch first
    codes: np.ndarray
    codes_error: float
    basis: np.ndarray
    report: ConvergenceReport


def _sumsq(a: np.ndarray) -> float:
    """||a||_F^2 as one dot product of the ravelled array (the square of np.linalg.norm)."""
    v = a.ravel()
    return float(v.dot(v))


def _build_psi(d: SpectralDecomposition, k: np.ndarray) -> np.ndarray:
    """Plane coordinates of the coupled columns of Psi(k): minus (k-, -1), plus (1, k+)."""
    r = d.rank
    psi = np.ones((2, 2 * r))
    psi[1, :r] = -1.0
    psi[0, :r], psi[1, r:] = k[:r], k[r:]
    return psi


def _analysis(z: np.ndarray, k: np.ndarray, d: SpectralDecomposition) -> np.ndarray:
    """Psi(k)^T S, from the projected data z: rows k- z_minus - z_plus, z_harm, z_minus + k+ z_plus."""
    n, r = z.shape[0], d.rank
    z_m, z_p = z[:r], z[n - r :]
    return np.concatenate([z_m * k[:r, None] - z_p, z[r : n - r], z_p * k[r:, None] + z_m])


def _objective(state: DdtlState, d: SpectralDecomposition, omega: np.ndarray | None = None) -> float:
    """||S - Psi(k) Omega||_F^2, evaluated as ||z - Q^T Psi(k) Omega||_F^2, for the state's Omega unless one is given."""
    omega, k = state.omega if omega is None else omega, state.k
    n, r = omega.shape[0], d.rank
    om, op = omega[:r], omega[n - r :]
    res = state.z.copy()
    res[:r] -= k[:r, None] * om + op
    res[r : n - r] -= omega[r : n - r]
    res[n - r :] -= k[r:, None] * op - om
    return _sumsq(res)


def _codes(z: np.ndarray, k: np.ndarray, kept: np.ndarray, d: SpectralDecomposition) -> np.ndarray:
    """Least-squares codes of z on the atoms of Psi(k) whose rows are ``kept``, every other row 0.

    Plane i's 2 x 2 matrix A = [a | b], a = (k-, -1), b = (1, k+), with each
    dropped column zeroed, gets its Moore-Penrose inverse: adj(A) / det(A)
    where det(A) != 0, A^T / ||A||_F^2 where A has rank one (one atom kept,
    or two parallel ones: the minimum-norm codes), and 0 where A = 0.  A
    kept harmonic row is z's.  ``z`` is n x any width.
    """
    n, r = len(z), d.rank
    psi = _build_psi(d, k) * np.concatenate([kept[:r], kept[n - r :]])
    (au, bu), (av, bv) = psi[0].reshape(2, r), psi[1].reshape(2, r)
    det = au * bv - bu * av
    full = det != 0.0
    scale = np.where(full, det, au * au + av * av + bu * bu + bv * bv)
    scale[scale == 0.0] = 1.0  # A = 0: its inverse is 0
    inv = np.where(full, [[bv, -bu], [-av, au]], [[au, av], [bu, bv]]) / scale
    codes = np.where(kept[:, None], z, 0.0)
    z_u, z_v = z[:r], z[n - r :]
    codes[:r] = inv[0, 0, :, None] * z_u + inv[0, 1, :, None] * z_v
    codes[n - r :] = inv[1, 0, :, None] * z_u + inv[1, 1, :, None] * z_v
    codes[~kept] = 0.0  # 0 times a negative entry of z is -0.0
    return codes


def initialize_state(S: np.ndarray, d: SpectralDecomposition, cfg: DdtlConfig) -> DdtlState:
    """Project the data, reduce each mode plane to its triangle and start at the Dirac coupling k = 1."""
    k, projection = np.ones(2 * d.rank), project(S, d)
    z = reduce_planes(projection, d.rank)
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
        projection=projection,
    )


def update_k(state: DdtlState, d: SpectralDecomposition, cfg: DdtlConfig) -> np.ndarray:
    """Exact box-constrained minimizer of the k-subproblem, in one closed-form pass.

    In spectral coordinates a minus coupling k_i scales only Omega_minus_i in
    row u_i of the reconstruction, and a plus coupling only Omega_plus_i in
    row v_i; its penalty direction (u_i; 0) or (0; v_i) is orthogonal to every
    other column's.  Each coordinate is therefore an independent scalar
    quadratic with curvature ||Omega_row||^2 + RHO1/2 (at least RHO1/2 > 0),
    minimized by clipping its vertex to the box.  Its penalty term reads the
    coordinate of P - H along that direction: row 0 of the minus columns,
    row 1 of the plus columns.
    """
    z, omega = state.z, state.omega
    n, r = z.shape[0], d.rank
    om, op = omega[:r], omega[n - r :]
    penalty = 0.5 * RHO1 * (state.p - state.h)
    g = np.concatenate([np.einsum("it,it->i", z[:r] - op, om) + penalty[0, :r],
                        np.einsum("it,it->i", z[n - r :] + om, op) + penalty[1, r:]])
    w2 = np.concatenate([np.einsum("it,it->i", om, om), np.einsum("it,it->i", op, op)]) + 0.5 * RHO1
    return np.clip(g / w2, -1.0, 1.0)


def update_omega(state: DdtlState, d: SpectralDecomposition, cfg: DdtlConfig) -> np.ndarray:
    """Solve the ridge-regularized code subproblem at the current basis.

    The Gram of Psi(k) is block-diagonal with one 2x2 block per branch pair
    and ones on harmonic rows, so the solve is exact per mode, on the
    right-hand side Psi(k)^T S + RHO2 (X - M).
    """
    k = state.k
    n, r = state.z.shape[0], d.rank
    rhs = _analysis(state.z, k, d) + (state.x - state.m) * RHO2
    rhs_m, rhs_p = rhs[:r], rhs[n - r :]
    # Per-mode 2x2 blocks [[a, b], [b, c]] on length-r vectors: a, c = 1 + k^2 + RHO2, b = k- - k+.
    diag = 1.0 + k * k + RHO2
    a, c = diag[:r, None], diag[r:, None]
    b = k[:r, None] - k[r:, None]
    det = a * c - b * b  # positive for RHO2 > 0 since (1 + km kp)^2 >= 0
    return np.concatenate([(c * rhs_m - b * rhs_p) / det, rhs[r : n - r] / (1.0 + RHO2), (a * rhs_p - b * rhs_m) / det])


def update_p(state: DdtlState) -> np.ndarray:
    """Retract H + Psi(k) onto the unit-column manifold."""
    return column_normalize(state.h + state.psi)


def update_x(state: DdtlState, eta0: int) -> np.ndarray:
    """Retract Omega + M onto the eta0-row-sparse set."""
    return row_hard_threshold(state.omega + state.m, eta0)


def update_duals(state: DdtlState, basis_res: np.ndarray, code_res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dual ascent with unit step on both splitting constraints, given their residuals Psi - P and Omega - X."""
    return state.h + basis_res, state.m + code_res


def _check_finite(iteration: int, **arrays: np.ndarray) -> None:
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise NumericalDivergenceError(iteration, name)


def ddtl_fit(S: np.ndarray, d: SpectralDecomposition, cfg: DdtlConfig) -> DdtlSolution:
    """Run the ADMM cycle until both relative primal gaps fall below ``PRIMAL_TOL``.

    The coupling applies only to the 2r non-harmonic columns; harmonic columns
    of the basis are fixed.  Stops at ``cfg.max_iter`` otherwise.  The report
    records, per iteration, the data objective and both splitting gaps.  The
    fit runs on the plane-reduced batch (see the module notes); the
    least-squares codes on the rows the final X keeps are computed once, from
    the projection, each dropped row exact +0.0.
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
    p_norm = math.sqrt(d.dim)  # ||P||_F: n unit columns, the harmonic ones included

    stop_reason = "max_iter"
    objectives, basis_gaps, code_gaps = [], [], []
    for it in range(1, cfg.max_iter + 1):
        state.k = update_k(state, d, cfg)
        state.psi = _build_psi(d, state.k)
        state.omega = update_omega(state, d, cfg)
        state.p = update_p(state)
        state.x = update_x(state, cfg.eta0)
        basis_res, code_res = state.psi - state.p, state.omega - state.x
        state.h, state.m = update_duals(state, basis_res, code_res)

        _check_finite(it, k=state.k, omega=state.omega, p=state.p, x=state.x, h=state.h, m=state.m)
        basis_sq, code_sq, x_sq, objective = _sumsq(basis_res), _sumsq(code_res), _sumsq(state.x), _objective(state, d)
        basis_gap, code_gap, x_norm = math.sqrt(basis_sq), math.sqrt(code_sq), math.sqrt(x_sq)
        rel_basis = basis_gap / p_norm
        rel_code = code_gap / x_norm if x_norm > 0 else code_gap
        objectives.append(objective)
        basis_gaps.append(basis_gap)
        code_gaps.append(code_gap)
        if rel_basis <= PRIMAL_TOL and rel_code <= PRIMAL_TOL:
            stop_reason = "tolerance"
            break

    report = ConvergenceReport(
        stop_reason=stop_reason, iterations=len(objectives), initial_objective=initial_objective,
        final_objective=objectives[-1], objective_curve=tuple(objectives),
        basis_gap_curve=tuple(basis_gaps), code_gap_curve=tuple(code_gaps),
    )
    k, r = state.k, d.rank
    kept = np.any(state.x != 0.0, axis=1)
    codes_error = _objective(state, d, _codes(state.z, k, kept, d))
    codes = _codes(state.projection, k, kept, d)
    del state  # the projection goes before the dense basis is built
    return DdtlSolution(k_star=k, codes=codes, codes_error=codes_error,
                        basis=build_mass_basis(d, k[:r], k[r:]), report=report)
