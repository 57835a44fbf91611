"""Coupling-transform learning by ADMM (DDTL).

Jointly estimates per-mode node-edge coupling factors k and spectral codes
Omega so that the coupling basis reproduces a batch of spinor signals,

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
The dense basis is built once, at the end, for the reconstruction.

The cycle runs on two columns.  Every step reads z only through rotations
within one mode plane (the analysis, the reconstruction, the 2x2 code
solve), row norms (the hard threshold) and within-plane sums over the
signals of products of rows (the k-step, the gaps, the objective), none of
which changes when plane i's block z_i (2 x T) becomes z_i Q for an
orthogonal Q.  So the fit runs on ``topology.reduce_planes``, each z_i
replaced by its 2 x 2 QR triangle, and maps the codes back through the Q_i
once at the end (``topology.lift_planes``), never through R_i^-1, singular
on every plane a noiseless batch leaves empty.  After the O((V^2 + E^2) T)
reduction an iteration costs O(V+E).  The hard threshold's ties (ROADMAP
item 6) stay: rounding decides which row of a tied pair is kept.

An iteration reads and writes the n x 2 iterates (n = V+E) through their
row blocks [minus | harmonic | plus], never stacking them anew.  What is
left per iteration over those arrays: the k-step's four row-wise sums over
the coupled rows; the code step's right-hand side
Psi(k)^T z + rho2 (X - M) and its per-mode 2x2 solve, written back into that
right-hand side; the hard threshold's input Omega + M, its row norms and its
copy of the kept rows; the residual Omega - X, computed once for both the
dual step and the code gap; the dual step's M + (Omega - X); the
objective's residual; and one sum of squares each for the code gap, ||X||,
||Omega||, ||M|| and the objective.  Everything else is on the (2, 2r)
plane arrays or on length-r vectors.  Finiteness costs one scalar test per
fit: ||X||^2, which the stop rule needs anyway, plus ||k||^2, ||Omega||^2,
||P||^2, ||H||^2 and ||M||^2, each summed over all fits, is finite when
every iterate is.  Only when it is not are the six iterates scanned one by
one, to name the fit and its first non-finite iterate; a finite iterate
whose squared norm overflows does not raise.

One loop serves B fits.  ``ddtl_fit_many`` stacks the iterates of fits on
one graph and of one reduced width along a leading fit axis, and every step
indexes with ``...``, so one call of each step, and so each numpy call of
an iteration, serves all B fits: the per-iteration dispatch that dominates
at n ~ 100 is shared.  Each fit keeps its own eta0 (the hard threshold
takes one budget per fit), stop rule and report; a fit that stops is frozen
and leaves the stack.  Every per-fit sum is one BLAS dot over that fit's
slice (``np.vecdot`` on a stack), and every other operation acts row by row
within a fit, so a fit in a stack returns what it returns alone, bit for
bit.  A lone fit keeps no fit axis, and ``ddtl_fit`` is ``ddtl_fit_many``
on one batch.

Every fit starts from the Dirac coupling k = 1 and stops once both relative
primal gaps fall below ``PRIMAL_TOL``, or at ``max_iter``.  The report keeps
the objective and both splitting gaps of every iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse import column_normalize, row_hard_threshold
from .topology import SpectralDecomposition, lift_planes, reduce_planes
from .transform import CouplingVector, build_mass_basis

__all__ = [
    "DdtlConfig",
    "DdtlState",
    "DdtlSolution",
    "ConvergenceReport",
    "NumericalDivergenceError",
    "ddtl_fit",
    "ddtl_fit_many",
    "initialize_state",
    "update_k",
    "update_omega",
    "update_p",
    "update_x",
    "update_duals",
]

PRIMAL_TOL = 1e-4


class NumericalDivergenceError(RuntimeError):
    """Non-finite values appeared during the ADMM run."""

    def __init__(self, iteration: int, variable: str, fit: int = 0):
        self.iteration = iteration
        self.variable = variable
        self.fit = fit
        super().__init__(f"non-finite values in '{variable}' at iteration {iteration} of fit {fit}")


@dataclass(frozen=True)
class DdtlConfig:
    """Hyperparameters of the ADMM solver.

    eta0 is the target number of nonzero coefficient rows (the bandwidth) and
    max_iter the iteration budget: the two values the studies set.
    rho1/rho2 are the penalty weights of the basis and code splittings; no
    pipeline exposes them, and they stay here so the ADMM steps can be
    checked away from their defaults.  The coupling box [-1, 1], the start,
    the stopping tolerance and the closed-form steps have no settings.
    """

    eta0: int
    rho1: float = 10.0
    rho2: float = 10.0
    max_iter: int = 500

    def __post_init__(self):
        if self.rho1 <= 0 or self.rho2 <= 0:
            raise ValueError("penalty parameters rho1, rho2 must be positive")
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

    ``z`` is the data in spectral coordinates (fixed for the fit; rows
    [u^T S_V; u_H^T S_V; v_H^T S_E; v^T S_E]), each mode plane reduced to its
    2 x 2 triangle, min(T, 2) columns as are ``omega``, ``x`` and ``m``; the
    per-plane Q_i in ``plane_basis`` lift them to T columns (see the module
    notes).  ``psi`` caches the unnormalized basis at ``k``; it, ``p`` and
    ``h`` hold the (2, 2r) plane coordinates of the coupled columns.  A stack
    of fits adds a leading fit axis to every array and keeps no bases.
    """

    z: np.ndarray
    k: np.ndarray
    omega: np.ndarray
    p: np.ndarray
    x: np.ndarray
    h: np.ndarray
    m: np.ndarray
    psi: np.ndarray
    plane_basis: tuple


@dataclass
class DdtlSolution:
    """Final iterate plus the unit-column basis (V+E) x (V+E) built at the learned coupling."""

    k_star: CouplingVector
    omega_star: np.ndarray
    x_star: np.ndarray
    s_hat: np.ndarray
    basis: np.ndarray
    report: ConvergenceReport


def _sumsq(a: np.ndarray):
    """||a||_F^2 of a lone fit's array (a float), or of each fit of a stack: one dot product per fit.

    ``np.vecdot`` of a stack's rows equals each fit's ``ravel().dot()`` bit for bit
    (both call the BLAS dot); the lone fit skips the gufunc's overhead.
    """
    if a.ndim == 2:
        v = a.ravel()
        return float(v.dot(v))
    v = a.reshape(len(a), -1)
    return np.vecdot(v, v)


def _flat_sumsq(a: np.ndarray) -> float:
    """||a||_F^2 of a whole stack, one dot product of the ravelled array."""
    v = a.ravel()
    return float(v.dot(v))


def _build_psi(d: SpectralDecomposition, k: np.ndarray) -> np.ndarray:
    """Plane coordinates of the coupled columns of Psi(k): minus (k-, -1), plus (1, k+)."""
    r = d.rank
    psi = np.ones((*k.shape[:-1], 2, 2 * r))
    psi[..., 1, :r] = -1.0
    psi[..., 0, :r], psi[..., 1, r:] = k[..., :r], k[..., r:]
    return psi


def _analysis(z: np.ndarray, k: np.ndarray, d: SpectralDecomposition) -> np.ndarray:
    """Psi(k)^T S, from the projected data z: rows k- z_minus - z_plus, z_harm, z_minus + k+ z_plus."""
    n, r = z.shape[-2], d.rank
    out = z.copy()
    minus, plus = out[..., :r, :], out[..., n - r :, :]
    minus *= k[..., :r, None]
    minus -= z[..., n - r :, :]
    plus *= k[..., r:, None]
    plus += z[..., :r, :]
    return out


def _objective(state: DdtlState, d: SpectralDecomposition):
    """||S - Psi(k) Omega||_F^2 per fit, evaluated as ||z - Q^T Psi(k) Omega||_F^2."""
    omega, k = state.omega, state.k
    n, r = omega.shape[-2], d.rank
    om, op = omega[..., :r, :], omega[..., n - r :, :]
    res = state.z.copy()
    minus, harmonic, plus = res[..., :r, :], res[..., r : n - r, :], res[..., n - r :, :]
    minus -= k[..., :r, None] * om + op
    harmonic -= omega[..., r : n - r, :]
    plus -= k[..., r:, None] * op - om
    return _sumsq(res)


def initialize_state(S: np.ndarray, d: SpectralDecomposition, cfg: DdtlConfig) -> DdtlState:
    """Project the data, reduce each mode plane to its triangle and start at the Dirac coupling k = 1."""
    k = np.ones(2 * d.rank)
    z, plane_basis = reduce_planes(S, d)
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
        plane_basis=plane_basis,
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
    z, omega = state.z, state.omega
    n, r = z.shape[-2], d.rank
    om, op = omega[..., :r, :], omega[..., n - r :, :]
    half_rho1 = 0.5 * cfg.rho1
    rows = "it,it->i" if z.ndim == 2 else "bit,bit->bi"  # row-wise sums over the signals, per fit of a stack
    g, w2 = np.empty(state.k.shape), np.empty(state.k.shape)
    np.einsum(rows, z[..., :r, :] - op, om, out=g[..., :r])
    np.einsum(rows, z[..., n - r :, :] + om, op, out=g[..., r:])
    np.einsum(rows, om, om, out=w2[..., :r])
    np.einsum(rows, op, op, out=w2[..., r:])
    penalty = half_rho1 * (state.p - state.h)
    g[..., :r] += penalty[..., 0, :r]
    g[..., r:] += penalty[..., 1, r:]
    w2 += half_rho1
    g /= w2
    np.maximum(g, -1.0, out=g)  # the clip to the box, as np.clip does it
    return np.minimum(g, 1.0, out=g)


def update_omega(state: DdtlState, d: SpectralDecomposition, cfg: DdtlConfig) -> np.ndarray:
    """Solve the ridge-regularized code subproblem at the current basis.

    The Gram of Psi(k) is block-diagonal with one 2x2 block per branch pair
    and ones on harmonic rows, so the solve is exact per mode.  The right-hand
    side Psi(k)^T S + rho2 (X - M) is formed in one buffer and solved into it.
    """
    rho2, k = cfg.rho2, state.k
    n, r = state.z.shape[-2], d.rank
    omega = _analysis(state.z, k, d)
    ridge = state.x - state.m
    ridge *= rho2
    omega += ridge
    harmonic = omega[..., r : n - r, :]
    harmonic /= 1.0 + rho2
    # Per-mode 2x2 blocks [[a, b], [b, c]] on length-r vectors: a, c = 1 + k^2 + rho2, b = k- - k+.
    diag = 1.0 + k * k + rho2
    a, c = diag[..., :r, None], diag[..., r:, None]
    b = k[..., :r, None] - k[..., r:, None]
    det = a * c - b * b  # positive for rho2 > 0 since (1 + km kp)^2 >= 0
    rhs_m, rhs_p = omega[..., :r, :], omega[..., n - r :, :]
    new_m, new_p = c * rhs_m - b * rhs_p, a * rhs_p - b * rhs_m
    np.divide(new_m, det, out=rhs_m)
    np.divide(new_p, det, out=rhs_p)
    return omega


def update_p(state: DdtlState) -> np.ndarray:
    """Retract H + Psi(k) onto the unit-column manifold."""
    return column_normalize(state.h + state.psi)


def update_x(state: DdtlState, eta0) -> np.ndarray:
    """Retract Omega + M onto the eta0-row-sparse set (eta0 a scalar or one value per fit)."""
    return row_hard_threshold(state.omega + state.m, eta0)


def update_duals(state: DdtlState, basis_res: np.ndarray, code_res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dual ascent with unit step on both splitting constraints, given their residuals Psi - P and Omega - X."""
    return state.h + basis_res, state.m + code_res


def _check_finite(iteration: int, fit: int, **arrays: np.ndarray) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise NumericalDivergenceError(iteration, name, fit)


def _checked_batch(S: np.ndarray, d: SpectralDecomposition, cfg: DdtlConfig) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != d.dim:
        raise ValueError(f"signal matrix must be ({d.dim}, T), got {S.shape}")
    if not np.all(np.isfinite(S)):
        raise ValueError("signal matrix contains non-finite entries")
    if cfg.eta0 > d.dim:
        raise ValueError(f"eta0={cfg.eta0} exceeds basis size {d.dim}")
    return S


_STACKED = ("z", "k", "omega", "p", "x", "h", "m", "psi")


def _fit(state: DdtlState, j: int) -> DdtlState:
    """Fit j of a stack; a lone state, with no fit axis, is its own only fit."""
    if state.k.ndim == 1:
        return state
    return DdtlState(**{f: getattr(state, f)[j] for f in _STACKED}, plane_basis=())


def ddtl_fit(S: np.ndarray, d: SpectralDecomposition, cfg: DdtlConfig) -> DdtlSolution:
    """Run the ADMM cycle until both relative primal gaps fall below ``PRIMAL_TOL``.

    The coupling applies only to the 2r non-harmonic columns; harmonic columns
    of the basis are fixed.  Stops at ``cfg.max_iter`` otherwise.  The report
    records, per iteration, the data objective and both splitting gaps.  The
    fit runs on the plane-reduced batch (see the module notes) and its codes
    are mapped back to T columns once, a dropped row of X to exact zeros.
    This is ``ddtl_fit_many`` on one batch.
    """
    return ddtl_fit_many([S], d, [cfg])[0]


def ddtl_fit_many(batches, d: SpectralDecomposition, configs) -> list[DdtlSolution]:
    """``ddtl_fit`` of each batch with its config, all on graph ``d`` in one ADMM loop over a stack of fits.

    Every step works on the stack, so one iteration pays each numpy call once
    for all fits.  Each fit keeps its own eta0, stop rule and report: a fit
    that reaches the tolerance is frozen and leaves the stack, and its
    solution is the one ``ddtl_fit`` returns for it alone, bit for bit.  The
    configs must agree on rho1, rho2 and max_iter, and the batches must
    reduce to one width (min(T, 2)); ValueError otherwise.  A non-finite
    iterate raises ``NumericalDivergenceError`` naming the fit's index.
    """
    if len(batches) != len(configs) or not configs:
        raise ValueError(f"need one config per batch and at least one of each, got {len(batches)} and {len(configs)}")
    cfg = configs[0]
    if any((c.rho1, c.rho2, c.max_iter) != (cfg.rho1, cfg.rho2, cfg.max_iter) for c in configs):
        raise ValueError("the configs of one call must agree on rho1, rho2 and max_iter")
    batches = [_checked_batch(S, d, c) for S, c in zip(batches, configs)]
    states = [initialize_state(S, d, c) for S, c in zip(batches, configs)]
    if len({s.z.shape for s in states}) > 1:
        raise ValueError(f"the batches reduce to different widths: {[s.z.shape[1] for s in states]}")
    plane_bases = [s.plane_basis for s in states]
    # A lone fit keeps its state as it is, with no fit axis, so that ddtl_fit pays nothing for the stack.
    lone = len(states) == 1
    if lone:
        state, eta0 = states[0], cfg.eta0
    else:
        state = DdtlState(**{f: np.stack([getattr(s, f) for s in states]) for f in _STACKED}, plane_basis=())
        eta0 = np.array([c.eta0 for c in configs])
    del states
    initial_objectives = [_objective(state, d)] if lone else _objective(state, d).tolist()
    p_norm = math.sqrt(d.dim)  # ||P||_F: n unit columns, the harmonic ones included
    active = list(range(len(configs)))  # the call's index of each fit still running, in stack order
    curves = [([], [], []) for _ in configs]  # objective, basis gap, code gap
    finals: list = [None] * len(configs)  # (k, omega, x, stop reason) of each fit

    for it in range(1, cfg.max_iter + 1):
        state.k = update_k(state, d, cfg)
        state.psi = _build_psi(d, state.k)
        state.omega = update_omega(state, d, cfg)
        state.p = update_p(state)
        state.x = update_x(state, eta0)
        basis_res, code_res = state.psi - state.p, state.omega - state.x
        state.h, state.m = update_duals(state, basis_res, code_res)

        sums = (_sumsq(basis_res), _sumsq(code_res), _sumsq(state.x), _objective(state, d))
        # With a fit's ||X||^2, finite when every iterate of every fit is (see the module notes).
        rest = _flat_sumsq(state.k) + _flat_sumsq(state.omega) + _flat_sumsq(state.p)
        rest += _flat_sumsq(state.h) + _flat_sumsq(state.m)
        stopped = []
        per_fit = [sums] if lone else zip(*(s.tolist() for s in sums))
        for j, (basis_sq, code_sq, x_sq, objective) in enumerate(per_fit):
            if not math.isfinite(x_sq + rest):
                fit = _fit(state, j)
                _check_finite(it, active[j], k=fit.k, omega=fit.omega, p=fit.p, x=fit.x, h=fit.h, m=fit.m)
            basis_gap, code_gap, x_norm = math.sqrt(basis_sq), math.sqrt(code_sq), math.sqrt(x_sq)
            rel_basis = basis_gap / p_norm
            rel_code = code_gap / x_norm if x_norm > 0 else code_gap
            objectives, basis_gaps, code_gaps = curves[active[j]]
            objectives.append(objective)
            basis_gaps.append(basis_gap)
            code_gaps.append(code_gap)
            if rel_basis <= PRIMAL_TOL and rel_code <= PRIMAL_TOL:
                stopped.append(j)
        if stopped:
            for j in stopped:
                fit = _fit(state, j)
                finals[active[j]] = (fit.k, fit.omega, fit.x, "tolerance")
            keep = [j for j in range(len(active)) if j not in stopped]
            active = [active[j] for j in keep]
            if not active:
                break
            eta0 = eta0[keep]
            for f in _STACKED:
                setattr(state, f, getattr(state, f)[keep])
    for j, i in enumerate(active):
        fit = _fit(state, j)
        finals[i] = (fit.k, fit.omega, fit.x, "max_iter")
    del state, batches

    solutions = []
    for i, (k, omega, x, stop_reason) in enumerate(finals):
        objectives, basis_gaps, code_gaps = curves[i]
        report = ConvergenceReport(
            stop_reason=stop_reason, iterations=len(objectives), initial_objective=initial_objectives[i],
            final_objective=objectives[-1], objective_curve=tuple(objectives),
            basis_gap_curve=tuple(basis_gaps), code_gap_curve=tuple(code_gaps),
        )
        k_star = CouplingVector.from_stacked(k)
        omega, x = (lift_planes(a, plane_bases[i]) for a in (omega, x))
        plane_bases[i] = finals[i] = None  # the per-plane bases go before the dense basis and s_hat are built
        # Psi(k) is the normalized basis with its coupled columns scaled back by sqrt(1 + k^2).
        basis = build_mass_basis(d, k_star)
        scale, r = np.ones(d.dim), d.rank
        scale[:r] = np.sqrt(1.0 + k_star.k_minus**2)
        scale[d.dim - r :] = np.sqrt(1.0 + k_star.k_plus**2)
        solutions.append(
            DdtlSolution(
                k_star=k_star, omega_star=omega, x_star=x, s_hat=(basis * scale) @ omega, basis=basis, report=report
            )
        )
    return solutions
