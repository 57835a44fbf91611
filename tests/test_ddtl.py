import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import topospinor.ddtl as ddtl_module
import topospinor.transform as transform_module
from topospinor.ddtl import (
    PRIMAL_TOL,
    DdtlConfig,
    NumericalDivergenceError,
    ddtl_fit,
    fit_coupling,
    initialize_state,
    update_duals,
    update_k,
    update_omega,
    update_p,
    update_x,
)
from conftest import PATH_CYCLE_GRID, STRUCTURED_GRAPHS, nonharmonic_column_indices
from oracles import reconstruction
from topospinor.experiments import _plane_bases
from topospinor.sparse import DegenerateRetractionWarning, column_normalize, nmse, plane_pursuit_curves, row_hard_threshold
from topospinor.synth import SIGNAL_CLASSES, SignalClassSpec, gen_signals, random_graph
from topospinor.topology import (
    OrientedGraph,
    build_incidence,
    project,
    reduce_planes,
    spectral_decompose,
)
from topospinor.transform import unnormalized_basis_matrix


def small_problem(num_nodes=5, num_edges=7, seed=0):
    g = random_graph(num_nodes, num_edges, seed)
    d = spectral_decompose(build_incidence(g))
    return g, d


def plane_coordinates(d, M):
    """(2, 2r) coordinates of the coupled columns of a dense (V+E) x (V+E) matrix.

    Row 0 is the coordinate of each minus/plus column along (u_i; 0), row 1
    along (0; v_i); the off-plane part and the harmonic columns are dropped.
    """
    V = d.num_nodes
    cols = nonharmonic_column_indices(d)
    node = np.einsum("vj,vj->j", np.hstack([d.u, d.u]), M[:V, cols])
    edge = np.einsum("ej,ej->j", np.hstack([d.v, d.v]), M[V:, cols])
    return np.vstack([node, edge])


def off_plane(d, M):
    """Coupled columns of a dense matrix minus their projection onto the mode planes."""
    cols = nonharmonic_column_indices(d)
    c = plane_coordinates(d, M)
    in_plane = np.vstack([np.hstack([d.u, d.u]) * c[0], np.hstack([d.v, d.v]) * c[1]])
    return M[:, cols] - in_plane


def manual_state(d, S, cfg, k=None, omega=None, p=None, h=None, x=None, m=None):
    """A state with the given iterates; dense P and H enter as their plane coordinates.

    Its data and codes are T columns wide: the projection, the Dirac start's analysis of it, that
    analysis hard-thresholded and zeros, so that T-wide codes can be set; a fit runs the same steps
    on the plane-reduced ones, two columns wide.
    """
    state = initialize_state(S, d, cfg)
    state.z = state.projection
    state.omega = ddtl_module._analysis(state.z, state.k, d)
    state.x, state.m = row_hard_threshold(state.omega, cfg.eta0), np.zeros_like(state.omega)
    if k is not None:
        state.k = np.asarray(k, dtype=float)
        state.psi = plane_coordinates(d, dense_psi(d, state.k))
    if omega is not None:
        state.omega = np.asarray(omega, dtype=float)
    if p is not None:
        state.p = plane_coordinates(d, np.asarray(p, dtype=float))
    if h is not None:
        state.h = plane_coordinates(d, np.asarray(h, dtype=float))
    if x is not None:
        state.x = np.asarray(x, dtype=float)
    if m is not None:
        state.m = np.asarray(m, dtype=float)
    return state


def k_subproblem(state, d, k):
    """The k-step's objective at k, from the state's spectral data and plane coordinates (up to a constant)."""
    data = ddtl_module._objective(dataclasses.replace(state, k=k), d)
    return data + 0.5 * ddtl_module.RHO1 * np.sum((ddtl_module._build_psi(d, k) - state.p + state.h) ** 2)


def unclipped_vertices(state, d, k):
    """Per coordinate, the vertex of the k-step's objective along it at k; the objective is quadratic in each."""
    vertices = np.empty(k.size)
    for coord in range(k.size):
        f = []
        for t in (-1.0, 0.0, 1.0):
            probe = k.copy()
            probe[coord] = t
            f.append(k_subproblem(state, d, probe))
        vertices[coord] = (f[0] - f[2]) / (2.0 * (f[0] + f[2] - 2.0 * f[1]))
    return vertices


def k_objective(d, S, omega, p, h, k_stacked):
    """Direct evaluation of the k-subproblem objective with dense P and H; oracle helper."""
    psi = unnormalized_basis_matrix(d, k_stacked[: d.rank], k_stacked[d.rank :])
    data = np.linalg.norm(S - psi @ omega) ** 2
    penalty = 0.5 * ddtl_module.RHO1 * np.linalg.norm(psi - p + h) ** 2
    return data + penalty


# Dense oracle: the learner as it ran before the spectral projection.  Every
# step multiplies Psi(k) against the full batch S in signal coordinates.


def dense_psi(d, k):
    return unnormalized_basis_matrix(d, k[: d.rank], k[d.rank :])


def dense_update_k(d, S, k, omega, p, h):
    """Projected coordinate sweeps on the dense residual S - Psi(k) Omega."""
    V, r = d.num_nodes, d.rank
    cols = nonharmonic_column_indices(d)
    ph, half_rho1 = p - h, 0.5 * ddtl_module.RHO1
    c_lin = np.concatenate(
        [np.einsum("vi,vi->i", d.u, ph[:V, cols[:r]]), np.einsum("ei,ei->i", d.v, ph[V:, cols[r:]])]
    )
    rows = omega[cols]
    w2 = np.einsum("it,it->i", rows, rows)
    for _ in range(100):
        residual = S - dense_psi(d, k) @ omega
        g = np.concatenate(
            [
                np.einsum("it,it->i", d.u.T @ residual[:V], rows[:r]),
                np.einsum("it,it->i", d.v.T @ residual[V:], rows[r:]),
            ]
        )
        new_k = np.clip((g + k * w2 + half_rho1 * c_lin) / (w2 + half_rho1), -1.0, 1.0)
        change = float(np.max(np.abs(new_k - k))) if k.size else 0.0
        k = new_k
        if change < 1e-10:
            return k
    return k


def dense_update_omega(d, S, k, x, m):
    """Pair-block code solve with the right-hand side Psi(k)^T S + RHO2 (X - M)."""
    r = d.rank
    cols = nonharmonic_column_indices(d)
    rho2 = ddtl_module.RHO2
    rhs = dense_psi(d, k).T @ S + rho2 * (x - m)
    omega = rhs / (1.0 + rho2)
    km, kp = k[:r, None], k[r:, None]
    a, c, b = 1.0 + km**2 + rho2, 1.0 + kp**2 + rho2, km - kp
    det = a * c - b**2
    rhs_m, rhs_p = rhs[cols[:r]], rhs[cols[r:]]
    omega[cols[:r]] = (c * rhs_m - b * rhs_p) / det
    omega[cols[r:]] = (a * rhs_p - b * rhs_m) / det
    return omega


def dense_fit(S, d, cfg, iterates=None):
    """Dirac-initialized dense ADMM for cfg.max_iter iterations: (k, Omega, objective, basis gap, code gap).

    With a list ``iterates``, (Psi, P, H, Omega, X) of every iteration are appended to it.
    """
    k = np.ones(2 * d.rank)
    psi = dense_psi(d, k)
    omega = psi.T @ S
    x = row_hard_threshold(omega, cfg.eta0)
    p, h, m = column_normalize(psi), np.zeros_like(psi), np.zeros_like(omega)
    curves = ([], [], [])
    for _ in range(cfg.max_iter):
        k = dense_update_k(d, S, k, omega, p, h)
        psi = dense_psi(d, k)
        omega = dense_update_omega(d, S, k, x, m)
        p = column_normalize(h + psi)
        x = row_hard_threshold(omega + m, cfg.eta0)
        h, m = h + (psi - p), m + (omega - x)
        if iterates is not None:
            iterates.append((psi, p, h, omega, x))
        curves[0].append(float(np.linalg.norm(S - psi @ omega) ** 2))
        curves[1].append(float(np.linalg.norm(psi - p)))
        curves[2].append(float(np.linalg.norm(omega - x)))
    return (k, omega, *curves)


def assert_relative(actual, expected, bound=1e-10):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= bound * np.max(np.abs(expected))


def two_triangles():
    # Disconnected (two components, xi0 = 2) with one cycle each (xi1 = 2).
    return OrientedGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))


def path5():
    # A tree: no cycles, so xi1 = 0.
    return OrientedGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))


class TestUpdateK:
    def test_recovers_coupling_of_target_basis(self):
        # With no data term and no dual, the penalty is minimized at the
        # coupling that built the target matrix.
        g, d = small_problem()
        rng = np.random.default_rng(3)
        k0 = rng.uniform(-0.8, 0.8, size=2 * d.rank)
        target = unnormalized_basis_matrix(d, k0[: d.rank], k0[d.rank :])
        init = rng.normal(size=(d.dim, 4))
        cfg = DdtlConfig(eta0=3, max_iter=1)
        # Zero codes remove the data term, whatever data the state holds.
        state = manual_state(d, init, cfg, omega=np.zeros((d.dim, 4)), p=target, h=np.zeros_like(target))
        k = update_k(state, d, cfg)
        assert_allclose(k, k0, atol=1e-12)

    def test_box_clipping(self):
        # Target coupling 1.7 sits outside the box; minimizer clips to 1.
        g, d = small_problem()
        k0 = np.full(2 * d.rank, 1.7)
        target = unnormalized_basis_matrix(d, k0[: d.rank], k0[d.rank :])
        init = np.random.default_rng(0).normal(size=(d.dim, 2))
        cfg = DdtlConfig(eta0=3, max_iter=1)
        # Zero codes remove the data term, whatever data the state holds.
        state = manual_state(d, init, cfg, omega=np.zeros((d.dim, 2)), p=target, h=np.zeros_like(target))
        k = update_k(state, d, cfg)
        assert_allclose(k, 1.0, atol=1e-12)

    def test_scalar_minimizer_matches_grid_refinement(self, monkeypatch):
        # Single-mode instance (one edge), T = 1: compare each coordinate's
        # closed form against a 1-D oracle (grid refinement to bracket the
        # minimizer, then a dense quadratic fit for the exact vertex; the
        # coordinate objective is an exact quadratic).
        g, d = small_problem(num_nodes=2, num_edges=1, seed=1)
        assert d.rank == 1
        rng = np.random.default_rng(9)
        S = rng.normal(size=(d.dim, 1))
        monkeypatch.setattr(ddtl_module, "RHO1", 3.0)
        cfg = DdtlConfig(eta0=2, max_iter=1)
        k = rng.uniform(-0.5, 0.5, 2)
        omega = rng.normal(size=(d.dim, 1))
        # The oracle sees the whole dense P and H, the state only their plane part.
        p = rng.normal(size=(d.dim, d.dim))
        h = rng.normal(size=(d.dim, d.dim))
        state = manual_state(d, S, cfg, k=k, omega=omega, p=p, h=h)
        k_solved = update_k(state, d, cfg)

        unclipped = []
        for coord in range(2):
            probe = k_solved.copy()

            def value(val, probe=probe, coord=coord):
                probe[coord] = val
                return k_objective(d, S, omega, p, h, probe)

            lo, hi = -1.0, 1.0
            for _ in range(12):  # bracket the box minimizer to ~1e-6
                grid = np.linspace(lo, hi, 33)
                best = int(np.argmin([value(v) for v in grid]))
                lo = grid[max(best - 1, 0)]
                hi = grid[min(best + 1, len(grid) - 1)]
            bracketed = 0.5 * (lo + hi)

            # Dense quadratic fit: exact for a quadratic objective.  The box
            # minimizer is the vertex projected onto the interval.
            samples = np.linspace(-1.0, 1.0, 25)
            coeffs = np.polyfit(samples, [value(v) for v in samples], 2)
            unclipped.append(-coeffs[1] / (2.0 * coeffs[0]))
            vertex = float(np.clip(unclipped[-1], -1.0, 1.0))
            assert abs(vertex - bracketed) < 1e-5  # both oracles agree
            assert abs(vertex - k_solved[coord]) < 1e-10
        assert max(abs(v) for v in unclipped) > 1.0  # the vertex of one coordinate is clipped

    def test_result_always_inside_box(self):
        # A P far from unit columns puts the unclipped vertex of coordinates
        # on both sides outside [-1, 1]; each coordinate is its vertex clipped.
        g, d = small_problem()
        rng = np.random.default_rng(4)
        S = rng.normal(size=(d.dim, 6))
        cfg = DdtlConfig(eta0=4, max_iter=1)
        p = 4.0 * rng.normal(size=(d.dim, d.dim))
        state = manual_state(d, S, cfg, omega=rng.normal(size=(d.dim, 6)), p=p, h=np.zeros_like(p))
        k = update_k(state, d, cfg)
        vertices = unclipped_vertices(state, d, k)
        assert np.any(vertices > 1.0) and np.any(vertices < -1.0)
        assert np.all(np.abs(k) <= 1.0)
        assert_allclose(k, np.clip(vertices, -1.0, 1.0), atol=1e-10)


class TestUpdateOmega:
    def test_near_orthonormal_limit(self, monkeypatch):
        # At zero coupling the unnormalized basis is orthonormal, so with a
        # vanishing penalty the update approaches the plain analysis coefficients.
        g, d = small_problem()
        rng = np.random.default_rng(5)
        S = rng.normal(size=(d.dim, 3))
        monkeypatch.setattr(ddtl_module, "RHO2", 1e-10)
        cfg = DdtlConfig(eta0=3, max_iter=1)
        state = manual_state(d, S, cfg, k=np.zeros(2 * d.rank))
        state.x = np.zeros_like(state.omega)
        state.m = np.zeros_like(state.omega)
        omega = update_omega(state, d, cfg)
        assert np.max(np.abs(omega - dense_psi(d, state.k).T @ S)) < 1e-9

    def test_pair_block_matches_dense_solve(self):
        # 12-dimensional instance: V=5, E=7.
        g, d = small_problem(num_nodes=5, num_edges=7, seed=2)
        assert d.dim == 12
        rng = np.random.default_rng(7)
        S = rng.normal(size=(12, 9))
        cfg = DdtlConfig(eta0=4, max_iter=1)
        k = rng.uniform(-1, 1, 2 * d.rank)
        state = manual_state(d, S, cfg, k=k)
        state.x = rng.normal(size=state.omega.shape)
        state.m = rng.normal(size=state.omega.shape)
        omega = update_omega(state, d, cfg)
        # Oracle: dense linear solve of (Psi^T Psi + rho2 I) Omega = rhs.
        psi = dense_psi(d, k)
        rhs = psi.T @ S + ddtl_module.RHO2 * (state.x - state.m)
        dense = np.linalg.solve(psi.T @ psi + ddtl_module.RHO2 * np.eye(12), rhs)
        assert np.max(np.abs(omega - dense)) < 1e-10


class TestAuxiliaryUpdates:
    def test_p_identity_when_basis_normalized(self):
        g, d = small_problem()
        S = np.random.default_rng(1).normal(size=(d.dim, 3))
        cfg = DdtlConfig(eta0=3, max_iter=1)
        state = manual_state(d, S, cfg, k=np.zeros(2 * d.rank))  # zero coupling: unit columns
        assert_allclose(update_p(state), state.psi, atol=1e-14)

    def test_x_identity_when_already_sparse(self):
        g, d = small_problem()
        rng = np.random.default_rng(2)
        S = rng.normal(size=(d.dim, 3))
        cfg = DdtlConfig(eta0=2, max_iter=1)
        state = initialize_state(S, d, cfg)
        sparse = np.zeros((d.dim, 3))
        sparse[[1, 4]] = rng.normal(size=(2, 3))
        state.omega = sparse
        state.m = np.zeros_like(sparse)
        x = update_x(state, cfg.eta0)
        assert_allclose(x, sparse)
        state = manual_state(d, S, cfg, omega=sparse, x=x, m=np.zeros_like(sparse))
        _, m_new = update_duals(state, state.psi - state.p, state.omega - state.x)
        assert_allclose(m_new, 0.0)

    def test_dual_increment_is_exact(self):
        g, d = small_problem()
        rng = np.random.default_rng(3)
        S = rng.normal(size=(d.dim, 3))
        cfg = DdtlConfig(eta0=3, max_iter=1)
        state = initialize_state(S, d, cfg)
        state.h = rng.normal(size=state.h.shape)
        h_new, _ = update_duals(state, state.psi - state.p, state.omega - state.x)
        assert_allclose(h_new - state.h, state.psi - state.p, atol=1e-15)


class TestDdtlFit:
    def test_generate_and_fit_recovery(self, monkeypatch):
        # Oracle run on a 10-node graph: refit noiseless row-sparse data.
        g = random_graph(10, 18, 1)
        d = spectral_decompose(build_incidence(g))
        spec = SignalClassSpec("mixture_of_dirac", eta0=8, num_signals=60, seed=5)
        S, _ = gen_signals(d, spec)
        monkeypatch.setattr(ddtl_module, "RHO1", 1e-6)
        monkeypatch.setattr(ddtl_module, "RHO2", 1e-6)
        cfg = DdtlConfig(eta0=8, max_iter=100)
        sol = ddtl_fit(S, d, cfg)
        assert sol.report.final_objective < 1e-4 * np.linalg.norm(S) ** 2  # ||S - Psi(k*) Omega*||^2

    def test_fully_coupled_objective_collapses_immediately(self, monkeypatch):
        # Fully coupled data, Dirac init: the completed first cycle already
        # fits the batch essentially exactly when the penalties are small.
        g = random_graph(10, 18, 1)
        d = spectral_decompose(build_incidence(g))
        spec = SignalClassSpec("fully_coupled", eta0=8, num_signals=100, seed=3)
        S, _ = gen_signals(d, spec)
        energy = np.linalg.norm(S) ** 2
        monkeypatch.setattr(ddtl_module, "RHO1", 1e-8)
        monkeypatch.setattr(ddtl_module, "RHO2", 1e-8)
        cfg = DdtlConfig(eta0=8, max_iter=20)
        sol = ddtl_fit(S, d, cfg)
        assert sol.report.objective_curve[0] < 1e-10 * energy
        assert sol.report.final_objective < 1e-10 * energy

    def test_default_hyperparameters(self):
        assert ddtl_module.RHO1 == ddtl_module.RHO2 == 10.0
        assert [f.name for f in dataclasses.fields(DdtlConfig)] == ["eta0", "max_iter"]
        assert DdtlConfig(eta0=35).max_iter == 500

    def test_iterates_satisfy_constraints(self, monkeypatch):
        # Data synthesized at couplings +-1.7, outside the box: during the fit
        # the unclipped vertex leaves [-1, 1] on both sides, and every k-step
        # returns the clipped vertex.
        g, d = small_problem()
        rng = np.random.default_rng(0)
        k0 = np.where(rng.random(2 * d.rank) < 0.5, -1.7, 1.7)
        S = unnormalized_basis_matrix(d, k0[: d.rank], k0[d.rank :]) @ rng.normal(size=(d.dim, 10))
        monkeypatch.setattr(ddtl_module, "RHO1", 1.0)
        monkeypatch.setattr(ddtl_module, "RHO2", 1.0)
        cfg = DdtlConfig(eta0=4, max_iter=7)
        inner, vertices = ddtl_module.update_k, []

        def recorded(state, d, cfg):
            k = inner(state, d, cfg)
            vertices.append(unclipped_vertices(state, d, k))
            assert_allclose(k, np.clip(vertices[-1], -1.0, 1.0), atol=1e-10)
            return k

        monkeypatch.setattr(ddtl_module, "update_k", recorded)
        sol = ddtl_fit(S, d, cfg)
        assert len(vertices) == 7
        assert np.any(np.array(vertices) > 1.0) and np.any(np.array(vertices) < -1.0)
        assert sol.k_star.shape == (2 * d.rank,) and np.all(np.abs(sol.k_star) <= 1.0)
        row_norms = np.linalg.norm(sol.codes, axis=1)
        assert np.count_nonzero(row_norms) <= 4
        assert_allclose(np.linalg.norm(sol.basis, axis=0), 1.0, atol=1e-12)

    def test_final_objective_not_worse_than_initial(self):
        g, d = small_problem(num_nodes=8, num_edges=14, seed=3)
        spec = SignalClassSpec("mixture_of_dirac", eta0=6, num_signals=40, seed=9)
        S, _ = gen_signals(d, spec)
        sol = ddtl_fit(S, d, DdtlConfig(eta0=6, max_iter=60))
        assert sol.report.final_objective <= sol.report.initial_objective

    def test_determinism(self):
        g, d = small_problem()
        S = np.random.default_rng(11).normal(size=(d.dim, 8))
        cfg = DdtlConfig(eta0=4, max_iter=15)
        a, b = ddtl_fit(S, d, cfg), ddtl_fit(S, d, cfg)
        assert a.report.objective_curve == b.report.objective_curve
        assert a.report.basis_gap_curve == b.report.basis_gap_curve
        assert np.array_equal(a.k_star, b.k_star)

    def test_rejects_non_finite_input(self):
        g, d = small_problem()
        S = np.zeros((d.dim, 2))
        S[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            ddtl_fit(S, d, DdtlConfig(eta0=3))

    def test_divergence_error_reports_iteration_and_variable(self):
        err = NumericalDivergenceError(17, "omega")
        assert err.iteration == 17 and err.variable == "omega"
        assert "iteration 17" in str(err) and "omega" in str(err)


def _poison_after_duals(monkeypatch, at, poison):
    """Make ``ddtl_fit``'s dual step write ``poison[name]`` into entry 0 of each named iterate at iteration ``at``."""
    inner, calls = ddtl_module.update_duals, []

    def poisoned(state, basis_res, code_res):
        h, m = inner(state, basis_res, code_res)
        calls.append(None)
        if len(calls) == at:
            iterates = {"k": state.k, "omega": state.omega, "p": state.p, "x": state.x, "h": h, "m": m}
            for name, value in poison.items():
                iterates[name].flat[0] = value
        return h, m

    monkeypatch.setattr(ddtl_module, "update_duals", poisoned)


class TestDivergence:
    VARIABLES = ("k", "omega", "p", "x", "h", "m")

    @staticmethod
    def _fit(max_iter=8):
        g, d = small_problem()
        S = np.random.default_rng(17).normal(size=(d.dim, 3 * d.dim))
        return ddtl_fit(S, d, DdtlConfig(eta0=4, max_iter=max_iter))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("variable", VARIABLES)
    def test_non_finite_iterate_names_iteration_and_variable(self, monkeypatch, variable, value):
        _poison_after_duals(monkeypatch, 3, {variable: value})
        with pytest.raises(NumericalDivergenceError) as info:
            self._fit()
        assert (info.value.iteration, info.value.variable) == (3, variable)

    @pytest.mark.parametrize("first, later", list(itertools.combinations(VARIABLES, 2)))
    def test_first_non_finite_variable_in_step_order_is_named(self, monkeypatch, first, later):
        _poison_after_duals(monkeypatch, 2, {later: np.inf, first: np.nan})
        with pytest.raises(NumericalDivergenceError) as info:
            self._fit()
        assert (info.value.iteration, info.value.variable) == (2, first)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_iterate_whose_squared_norm_overflows_does_not_raise(self, monkeypatch):
        # ||m||^2 overflows to inf on the last iteration, but every entry is finite.
        _poison_after_duals(monkeypatch, 8, {"m": 1e200})
        sol = self._fit(max_iter=8)
        assert sol.report.stop_reason == "max_iter" and sol.report.iterations == 8
        assert np.all(np.isfinite(sol.codes)) and np.all(np.isfinite(sol.k_star))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_batch_diverges_at_the_first_k_step(self):
        # Products of 1e160-sized codes overflow in the k-step's sums.
        g, d = small_problem()
        S = 1e160 * np.random.default_rng(18).normal(size=(d.dim, 3 * d.dim))
        with pytest.raises(NumericalDivergenceError) as info:
            ddtl_fit(S, d, DdtlConfig(eta0=4, max_iter=8))
        assert (info.value.iteration, info.value.variable) == (1, "k")


class TestEdgeInputs:
    """Degenerate batches and eta0 at the ends of its range, at V=12, E=24, T=50."""

    @staticmethod
    def _problem():
        d = spectral_decompose(build_incidence(random_graph(12, 24, 0)))
        return d, np.random.default_rng(0).normal(size=(d.dim, 50))

    def test_zero_batch_stops_on_tolerance_with_zero_objective(self):
        d, S = self._problem()
        with pytest.warns(DegenerateRetractionWarning) as record:
            sol = ddtl_fit(np.zeros_like(S), d, DdtlConfig(eta0=8, max_iter=60))
        # One warning per retraction onto the row-sparse set: the start and each iteration.
        assert len(record) == 1 + sol.report.iterations
        assert sol.report.stop_reason == "tolerance" and sol.report.iterations == 22
        assert sol.report.initial_objective == sol.report.final_objective == 0.0
        assert not np.any(sol.codes) and not np.any(reconstruction(d, sol))

    @pytest.mark.parametrize("case", ["rank-1", "harmonic", "T=1", "T=n"])
    def test_degenerate_batch_fits_as_its_square_factor_does(self, case):
        # Every batch is fitted on its plane reduction, min(T, 2) columns wide, and so is its
        # square factor R^T (S^T = Q R).  None of them warns where the square factor does not.
        d, S = self._problem()
        rng = np.random.default_rng(1)
        batch = {
            "rank-1": np.outer(S[:, 0], rng.normal(size=50)),
            "harmonic": np.vstack([d.u_harmonic @ rng.normal(size=(d.xi0, 50)),
                                   d.v_harmonic @ rng.normal(size=(d.xi1, 50))]),
            "T=1": S[:, :1],
            "T=n": S[:, : d.dim],
        }[case]
        cfg = DdtlConfig(eta0=8, max_iter=60)
        assert initialize_state(batch, d, cfg).z.shape == (d.dim, min(batch.shape[1], 2))
        q, r = np.linalg.qr(batch.T)
        fits = []
        for fitted in (batch, r.T):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                fits.append((ddtl_fit(fitted, d, cfg), [w.category for w in record]))
        (sol, warned), (square, square_warned) = fits
        s_hat, square_s_hat = reconstruction(d, sol), reconstruction(d, square)
        assert warned == square_warned
        assert sol.codes.shape == s_hat.shape == batch.shape
        assert all(np.all(np.isfinite(a)) for a in (sol.k_star, sol.codes, s_hat))
        assert (sol.report.stop_reason, sol.report.iterations) == (square.report.stop_reason, square.report.iterations)
        assert nmse(square_s_hat @ q.T, s_hat) <= 1e-12

    def test_eta0_one_runs_to_max_iter_with_one_kept_row(self):
        d, S = self._problem()
        sol = ddtl_fit(S, d, DdtlConfig(eta0=1, max_iter=60))
        assert sol.report.stop_reason == "max_iter" and sol.report.iterations == 60
        assert np.count_nonzero(np.any(sol.codes != 0.0, axis=1)) == 1
        assert np.all(np.isfinite(sol.report.objective_curve))

    def test_eta0_full_runs_to_max_iter_with_an_inactive_code_split(self):
        # Keeping every row makes X = Omega + M with M = 0 throughout, so the code gap is exactly 0.
        d, S = self._problem()
        sol = ddtl_fit(S, d, DdtlConfig(eta0=d.dim, max_iter=60))
        assert sol.report.stop_reason == "max_iter" and sol.report.iterations == 60
        assert max(sol.report.code_gap_curve) == 0.0


class TestSpectralCoordinates:
    @pytest.mark.parametrize(
        "graph",
        [random_graph(5, 7, 0), random_graph(12, 24, 3), path5(), two_triangles()],
        ids=["random-5-7", "random-12-24", "tree", "disconnected"],
    )
    def test_fit_matches_dense_oracle_on_random_data(self, graph):
        d = spectral_decompose(build_incidence(graph))
        S = np.random.default_rng(graph.num_edges).normal(size=(d.dim, 40))
        self._check(S, d, DdtlConfig(eta0=min(4, d.dim), max_iter=30))

    def test_fit_matches_dense_oracle_on_mixture_data(self):
        d = spectral_decompose(build_incidence(random_graph(10, 18, 1)))
        spec = SignalClassSpec("mixture_of_dirac", eta0=8, num_signals=60, seed=5)
        S, _ = gen_signals(d, spec)
        self._check(S, d, DdtlConfig(eta0=8, max_iter=30))

    def test_fit_matches_dense_oracle_with_fewer_signals_than_rows(self):
        # T < V+E: the learner still runs on the two columns of the plane reduction.
        d = spectral_decompose(build_incidence(random_graph(12, 24, 3)))
        S = np.random.default_rng(5).normal(size=(d.dim, 20))
        assert initialize_state(S, d, DdtlConfig(eta0=6)).z.shape == (d.dim, 2)
        self._check(S, d, DdtlConfig(eta0=6, max_iter=30))

    @pytest.mark.parametrize("width", [1, 2, 3, 60], ids=["T=1", "T=2", "T=3", "T=60"])
    def test_batch_is_reduced_to_two_columns(self, width):
        # The state keeps the projection Q^T S, and z is its plane reduction.
        g, d = small_problem()
        S = np.random.default_rng(6).normal(size=(d.dim, width))
        state = initialize_state(S, d, DdtlConfig(eta0=4))
        assert state.z.shape == state.omega.shape == state.x.shape == state.m.shape == (d.dim, min(width, 2))
        z = project(S, d)
        assert np.array_equal(state.projection, z)
        assert np.array_equal(state.z, reduce_planes(z, d.rank))

    def test_fit_projects_once_and_forms_no_plane_basis(self, monkeypatch):
        # The fit keeps its one projection for the codes and reduces it with one R-only QR: no Q_i is formed.
        g, d = small_problem()
        S = np.random.default_rng(8).normal(size=(d.dim, 20))
        projected, modes = [], []
        project_, qr = ddtl_module.project, np.linalg.qr
        monkeypatch.setattr(ddtl_module, "project", lambda S, d: projected.append(S) or project_(S, d))
        monkeypatch.setattr(np.linalg, "qr", lambda a, mode="reduced": modes.append(mode) or qr(a, mode=mode))
        ddtl_fit(S, d, DdtlConfig(eta0=4, max_iter=5))
        assert len(projected) == 1 and np.array_equal(projected[0], S)
        assert modes == ["r"]

    @pytest.mark.parametrize("graph_seed, signal_class", [(31, c) for c in SIGNAL_CLASSES] + [(33, "fully_decoupled")])
    def test_fit_on_the_plane_reduction_matches_the_fit_on_the_square_factor(self, graph_seed, signal_class):
        # The square factor R^T of S^T = Q R is what the learner ran on before any reduction:
        # two exact factorizations of one batch, reduced to two columns each.
        d = spectral_decompose(build_incidence(random_graph(40, 80, graph_seed)))
        S, _ = gen_signals(d, SignalClassSpec(signal_class, eta0=35, num_signals=600, seed=graph_seed + 1))
        cfg = DdtlConfig(eta0=35, max_iter=30)
        q, r = np.linalg.qr(S.T)
        square, reduced = ddtl_fit(r.T, d, cfg), ddtl_fit(S, d, cfg)
        assert reduced.report.stop_reason == square.report.stop_reason
        assert reduced.report.iterations == square.report.iterations
        assert np.max(np.abs(reduced.k_star - square.k_star)) <= 1e-10
        assert nmse(reconstruction(d, square) @ q.T, reconstruction(d, reduced)) <= 1e-12

    @pytest.mark.parametrize(
        "graph_seed",
        [31, 33, 35, pytest.param(37, marks=pytest.mark.xfail(strict=True, reason=(
            "at the Dirac start a decoupled coefficient gives its plane's minus and plus rows equal norms; "
            "eta0 = 35 splits such a pair at the hard threshold's cutoff, and round-off picks the row")))],
    )
    def test_decoupled_fit_is_invariant_under_orthogonal_mixing_of_signals(self, graph_seed):
        # S O is S in another orthonormal frame of its T signals: the fit should learn the same k.
        d = spectral_decompose(build_incidence(random_graph(40, 80, graph_seed)))
        S, _ = gen_signals(d, SignalClassSpec("fully_decoupled", eta0=35, num_signals=600, seed=graph_seed + 1))
        mixing, _ = np.linalg.qr(np.random.default_rng(graph_seed).normal(size=(600, 600)))
        cfg = DdtlConfig(eta0=35, max_iter=30)
        plain, mixed = ddtl_fit(S, d, cfg), ddtl_fit(S @ mixing, d, cfg)
        assert np.max(np.abs(mixed.k_star - plain.k_star)) <= 1e-10

    @staticmethod
    def _check(S, d, cfg):
        sol = ddtl_fit(S, d, cfg)
        assert sol.report.iterations == cfg.max_iter
        k, omega, objective, basis_gap, code_gap = dense_fit(S, d, cfg)
        assert_relative(sol.k_star, k)
        assert_relative(sol.report.objective_curve, objective)
        assert_relative(sol.report.basis_gap_curve, basis_gap)
        assert_relative(sol.report.code_gap_curve, code_gap)

    def test_dense_oracle_keeps_p_and_h_in_the_mode_planes(self):
        # The premise of the plane-coordinate state: every coupled column of
        # the dense P and H stays in span{(u_i; 0), (0; v_i)}, and on the
        # harmonic columns P equals Psi while H stays 0.
        for graph in (random_graph(12, 24, 3), two_triangles()):
            d = spectral_decompose(build_incidence(graph))
            S = np.random.default_rng(graph.num_edges).normal(size=(d.dim, 40))
            iterates = []
            dense_fit(S, d, DdtlConfig(eta0=4, max_iter=30), iterates)
            harm = np.setdiff1d(np.arange(d.dim), nonharmonic_column_indices(d))
            assert harm.size > 0 and len(iterates) == 30
            for psi, p, h, _, _ in iterates:
                assert np.max(np.abs(off_plane(d, p))) <= 1e-12
                assert np.max(np.abs(off_plane(d, h))) <= 1e-12
                assert np.max(np.abs(p[:, harm] - psi[:, harm])) <= 1e-12
                assert np.max(np.abs(h[:, harm])) <= 1e-12

    def test_tolerance_stop_matches_dense_oracle(self):
        # The stop rule on the plane-coordinate state, where ||P||_F is the
        # constant sqrt(V+E), stops at the first iteration at which the dense
        # run's relative gaps both fall below the tolerance.
        d = spectral_decompose(build_incidence(random_graph(8, 12, 4)))
        S, _ = gen_signals(d, SignalClassSpec("fully_decoupled", eta0=5, num_signals=30, seed=2))
        sol = ddtl_fit(S, d, DdtlConfig(eta0=5, max_iter=500))
        assert sol.report.stop_reason == "tolerance"
        iterates = []
        dense_fit(S, d, DdtlConfig(eta0=5, max_iter=sol.report.iterations), iterates)
        rel = [
            max(np.linalg.norm(psi - p) / np.linalg.norm(p), np.linalg.norm(omega - x) / np.linalg.norm(x))
            for psi, p, _, omega, x in iterates
        ]
        assert rel[-1] <= PRIMAL_TOL < min(rel[:-1])

    def test_state_holds_plane_coordinates_with_the_retraction_sign_invariant(self, monkeypatch):
        # No state field is (V+E) x (V+E), and the column retraction never
        # sees a zero column: H + Psi has edge coordinate <= -1 on every
        # minus column and node coordinate >= 1 on every plus column.
        d = spectral_decompose(build_incidence(random_graph(10, 18, 1)))
        S, _ = gen_signals(d, SignalClassSpec("mixture_of_dirac", eta0=8, num_signals=60, seed=5))
        r, seen = d.rank, []
        update_p = ddtl_module.update_p

        def checked_update_p(state):
            assert state.psi.shape == state.p.shape == state.h.shape == (2, 2 * r)
            w = state.h + state.psi
            assert np.all(w[1, :r] <= -1.0) and np.all(w[0, r:] >= 1.0)
            seen.append(state.k.copy())
            return update_p(state)

        monkeypatch.setattr(ddtl_module, "update_p", checked_update_p)
        sol = ddtl_fit(S, d, DdtlConfig(eta0=8, max_iter=60))
        assert len(seen) == sol.report.iterations == 60

    def test_dense_basis_is_built_a_fixed_number_of_times(self, monkeypatch):
        # The iterations build no (V+E) x (V+E) basis; the end of the fit
        # builds the normalized one once, and no reconstruction from it.
        g, d = small_problem()
        S = np.random.default_rng(16).normal(size=(d.dim, 20))
        calls = []

        def counted(module, name):
            inner = getattr(transform_module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)

            # raising=False: a direct call from ddtl is counted too.
            monkeypatch.setattr(module, name, wrapper, raising=False)

        for module, name in (
            (ddtl_module, "unnormalized_basis_matrix"),
            (ddtl_module, "build_mass_basis"),
            (transform_module, "unnormalized_basis_matrix"),
        ):
            counted(module, name)
        for max_iter in (2, 20):
            calls.clear()
            sol = ddtl_fit(S, d, DdtlConfig(eta0=4, max_iter=max_iter))
            assert sol.report.iterations == max_iter
            assert calls == ["build_mass_basis", "unnormalized_basis_matrix"]

    def test_single_steps_match_dense_oracle(self, monkeypatch):
        g, d = small_problem(num_nodes=6, num_edges=9, seed=4)
        rng = np.random.default_rng(21)
        S = rng.normal(size=(d.dim, 7))
        monkeypatch.setattr(ddtl_module, "RHO1", 2.5)
        monkeypatch.setattr(ddtl_module, "RHO2", 0.7)
        cfg = DdtlConfig(eta0=4, max_iter=1)
        k = rng.uniform(-1, 1, 2 * d.rank)
        omega = rng.normal(size=(d.dim, 7))
        p = rng.normal(size=(d.dim, d.dim))
        h = rng.normal(size=(d.dim, d.dim))
        x = rng.normal(size=(d.dim, 7))
        m = rng.normal(size=(d.dim, 7))
        state = manual_state(d, S, cfg, k=k, omega=omega, p=p, h=h, x=x, m=m)
        # The oracle steps take the dense P and H, off-plane parts included.
        expected_k = dense_update_k(d, S, state.k, state.omega, p, h)
        assert_relative(update_k(state, d, cfg), expected_k)
        expected_omega = dense_update_omega(d, S, state.k, state.x, state.m)
        assert_relative(update_omega(state, d, cfg), expected_omega)


def _orthogonal_mixing_cases():
    d = spectral_decompose(build_incidence(random_graph(8, 12, 4)))
    S, _ = gen_signals(d, SignalClassSpec("fully_decoupled", eta0=5, num_signals=30, seed=2))
    yield "tolerance-stop-wide", d, S, DdtlConfig(eta0=5, max_iter=500)
    d = spectral_decompose(build_incidence(random_graph(10, 18, 1)))
    S, _ = gen_signals(d, SignalClassSpec("mixture_of_dirac", eta0=8, num_signals=60, seed=5))
    yield "max-iter-wide", d, S, DdtlConfig(eta0=8, max_iter=30)
    g, d = small_problem()
    yield "max-iter-narrow", d, np.random.default_rng(12).normal(size=(d.dim, 8)), DdtlConfig(eta0=4, max_iter=30)


@pytest.mark.parametrize(
    "d, S, cfg", [pytest.param(d, S, cfg, id=name) for name, d, S, cfg in _orthogonal_mixing_cases()]
)
def test_fit_is_equivariant_under_orthogonal_mixing_of_signals(d, S, cfg):
    # ddtl_fit(S W) runs the same iterations as ddtl_fit(S) for any orthogonal
    # W, and returns its codes and reconstruction times W, T wide.
    T = S.shape[1]
    W, _ = np.linalg.qr(np.random.default_rng(T).normal(size=(T, T)))
    plain, mixed = ddtl_fit(S, d, cfg), ddtl_fit(S @ W, d, cfg)
    assert mixed.report.stop_reason == plain.report.stop_reason
    assert mixed.report.iterations == plain.report.iterations
    assert np.max(np.abs(mixed.k_star - plain.k_star)) <= 1e-9
    energy = np.linalg.norm(S) ** 2
    assert_allclose(mixed.report.objective_curve, plain.report.objective_curve, rtol=0, atol=1e-10 * energy)
    assert_relative(mixed.codes, plain.codes @ W, bound=1e-9)
    assert_relative(reconstruction(d, mixed), reconstruction(d, plain) @ W, bound=1e-9)
    assert np.array_equal(np.any(mixed.codes != 0, axis=1), np.any(plain.codes != 0, axis=1))


@pytest.mark.parametrize(
    "d, S, cfg", [pytest.param(d, S, cfg, id=name) for name, d, S, cfg in _orthogonal_mixing_cases()]
)
def test_final_objective_is_the_error_of_the_dense_reconstruction(d, S, cfg):
    # Q and each plane's Q_i keep the norm of the residual, so the fit's last objective, which ddtl-fit records as
    # final_objective, is the dense ADMM's ||S - Psi(k*) Omega*||^2 after as many iterations.
    for batch in (S, S[:, :1]):
        sol = ddtl_fit(batch, d, cfg)
        objective = dense_fit(batch, d, dataclasses.replace(cfg, max_iter=sol.report.iterations))[2]
        assert sol.report.final_objective == pytest.approx(objective[-1], rel=1e-12)


def test_orthogonal_mixing_cases_cover_both_stops():
    reasons = {name: ddtl_fit(S, d, cfg).report.stop_reason for name, d, S, cfg in _orthogonal_mixing_cases()}
    assert reasons == {"tolerance-stop-wide": "tolerance", "max-iter-wide": "max_iter", "max-iter-narrow": "max_iter"}


def _codes_cases():
    for name, (graph, _, _) in STRUCTURED_GRAPHS.items():
        yield name, graph, 12, 3
    yield "random-12-24", random_graph(12, 24, 3), 30, 6
    yield "T=1", random_graph(8, 12, 4), 1, 4
    yield "isolated-node", OrientedGraph(5, ((0, 1), (1, 2), (2, 3), (3, 1))), 9, 3
    yield "eta0=1", random_graph(8, 12, 4), 20, 1
    yield "eta0=V+E", random_graph(8, 12, 4), 20, 20


class TestLeastSquaresCodes:
    @pytest.mark.parametrize(
        "graph, T, eta0", [pytest.param(g, T, eta0, id=name) for name, g, T, eta0 in _codes_cases()]
    )
    def test_codes_are_the_dense_least_squares_fit_on_the_kept_atoms(self, graph, T, eta0, monkeypatch):
        # The codes' nonzero rows are the eta0 rows the final X keeps; there they are lstsq of the kept columns of
        # Psi(k*) on S, and their error is that fit's residual.  Every other row is +0.0.
        d = spectral_decompose(build_incidence(graph))
        S = np.random.default_rng(T).normal(size=(d.dim, T))
        inner, xs = ddtl_module.update_x, []

        def recorded(state, eta0):
            xs.append(inner(state, eta0))
            return xs[-1]

        monkeypatch.setattr(ddtl_module, "update_x", recorded)
        sol = ddtl_fit(S, d, DdtlConfig(eta0=eta0, max_iter=30))
        kept = np.any(sol.codes != 0.0, axis=1)
        assert np.count_nonzero(kept) == eta0
        assert np.array_equal(kept, np.any(xs[-1] != 0.0, axis=1))
        psi = dense_psi(d, sol.k_star)[:, kept]
        fit = np.linalg.lstsq(psi, S, rcond=None)[0]
        expected = np.zeros_like(S)
        expected[kept] = fit
        assert_relative(sol.codes, expected, bound=1e-12)
        assert not np.any(np.signbit(sol.codes[~kept]))
        energy = np.linalg.norm(S) ** 2
        residual = np.linalg.norm(S - psi @ fit) ** 2
        assert sol.codes_error == pytest.approx(residual, rel=1e-12, abs=1e-12 * energy)

    @pytest.mark.parametrize("k_minus, k_plus", [(1.0, -1.0), (-1.0, 1.0)])
    def test_parallel_kept_atoms_get_the_minimum_norm_codes(self, k_minus, k_plus):
        # 1 + k- k+ = 0 puts plane 0's minus atom (k-, -1) on its plus atom (1, k+); lstsq's minimum-norm
        # solution splits the plane's projection onto that direction evenly between the two.
        d = spectral_decompose(build_incidence(PATH_CYCLE_GRID["path_p6"]))
        r = d.rank
        k = np.random.default_rng(2).uniform(-0.9, 0.9, 2 * r)
        k[0], k[r] = k_minus, k_plus
        S = np.random.default_rng(3).normal(size=(d.dim, 7))
        codes = ddtl_module._codes(project(S, d), k, np.ones(d.dim, dtype=bool), d)
        expected = np.linalg.lstsq(dense_psi(d, k), S, rcond=None)[0]
        assert_relative(codes, expected, bound=1e-12)
        assert_allclose(codes[0], k_minus * codes[d.dim - r], rtol=1e-12)


class TestConvergenceReport:
    def test_tolerance_stop(self):
        # Fully decoupled data from the Dirac start: the couplings reach the
        # decoupled fixed point of the splitting and both relative gaps fall
        # below the tolerance well inside the budget.
        g = random_graph(8, 12, 4)
        d = spectral_decompose(build_incidence(g))
        spec = SignalClassSpec("fully_decoupled", eta0=5, num_signals=30, seed=2)
        S, _ = gen_signals(d, spec)
        sol = ddtl_fit(S, d, DdtlConfig(eta0=5, max_iter=500))
        assert sol.report.stop_reason == "tolerance"
        assert sol.report.iterations < 500

    def test_max_iter_stop(self):
        g, d = small_problem()
        S = np.random.default_rng(14).normal(size=(d.dim, 5))
        sol = ddtl_fit(S, d, DdtlConfig(eta0=3, max_iter=4))
        assert sol.report.stop_reason == "max_iter"
        assert sol.report.iterations == 4

    def test_history_length_matches_iterations(self):
        g, d = small_problem()
        S = np.random.default_rng(15).normal(size=(d.dim, 5))
        sol = ddtl_fit(S, d, DdtlConfig(eta0=3, max_iter=6))
        assert len(sol.report.objective_curve) == sol.report.iterations == 6


def learned_curve(z, d, levels):
    """The residual energies of joint OMP in the basis ``fit_coupling`` learns from z, as the sweep reads them."""
    k = fit_coupling(z, d.rank)
    return plane_pursuit_curves(z, d.rank, [_plane_bases(k)["ddtl"]], levels)[0]


def brute_force_curve(z, d, angles):
    """Per level, the least residual energy of any basis with one grid angle per plane (theta in [0, 45] degrees).

    Plane i's basis puts its plus column at (cos theta, sin theta) and its minus column at
    (sin theta, -cos theta); an orthonormal basis codes m atoms by keeping its m largest row energies.
    Every combination of grid angles is tried.
    """
    n, r = len(z), d.rank
    z_u, z_v, z_h = z[:r], z[n - r :], z[r : n - r]
    c, s = np.cos(angles)[:, None, None], np.sin(angles)[:, None, None]
    top = np.sum((c * z_u + s * z_v) ** 2, axis=-1)  # (angles, planes)
    bottom = np.sum((s * z_u - c * z_v) ** 2, axis=-1)
    combos = np.array(list(itertools.product(range(len(angles)), repeat=r))).reshape(-1, r)
    planes = np.arange(r)
    energies = np.concatenate(
        [top[combos, planes], bottom[combos, planes], np.broadcast_to(np.sum(z_h**2, axis=-1), (len(combos), n - 2 * r))],
        axis=1,
    )
    smallest_first = np.cumsum(np.sort(energies, axis=1), axis=1)
    # Level m leaves the n - m smallest energies.
    return np.array([smallest_first[:, n - m - 1].min() if m < n else 0.0 for m in range(1, n + 1)])


def principal_axis_coupling(z_u, z_v):
    """The rule as stated in angles: phi mod 90 degrees, clipped to the box; k = tan theta."""
    phi = np.degrees(0.5 * np.arctan2(2.0 * z_u @ z_v, z_u @ z_u - z_v @ z_v)) % 90.0
    theta = phi if phi <= 45.0 else (45.0 if phi <= 67.5 else 0.0)
    return np.tan(np.radians(theta))


class TestFitCoupling:
    @pytest.mark.parametrize(
        "graph",
        [random_graph(4, 4, 1), random_graph(5, 7, 2), STRUCTURED_GRAPHS["star_k14"][0], STRUCTURED_GRAPHS["single_edge"][0]],
        ids=["V4-cycle", "V5-dense", "star_k14", "single_edge"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_curve_no_worse_than_a_brute_force_angle_grid(self, graph, seed):
        d = spectral_decompose(build_incidence(graph))
        assert d.num_nodes <= 5
        S = np.random.default_rng(seed).normal(size=(d.dim, 6))
        z = project(S, d)
        learned = learned_curve(z, d, range(1, d.dim + 1))
        brute = brute_force_curve(z, d, np.radians(np.linspace(0.0, 45.0, 19)))
        assert np.all(learned <= brute + 1e-12 * np.sum(S**2))

    @pytest.mark.parametrize("signal_class", SIGNAL_CLASSES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_recovers_every_noiseless_class_exactly(self, signal_class, seed):
        d = spectral_decompose(build_incidence(random_graph(12, 24, seed)))
        S, _ = gen_signals(d, SignalClassSpec(signal_class, eta0=10, num_signals=40, seed=seed))
        for z in (project(S, d), reduce_planes(project(S, d), d.rank)):
            (residual,) = learned_curve(z, d, [10])
            assert residual <= 1e-25 * np.sum(S**2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovers_the_coupling_of_single_column_modes(self, seed):
        d = spectral_decompose(build_incidence(random_graph(20, 40, seed)))
        S, truth = gen_signals(d, SignalClassSpec("mixture_of_dirac", eta0=16, num_signals=50, seed=seed))
        modes, counts = np.unique(truth.support % d.rank, return_counts=True)
        single = modes[counts == 1]
        assert single.size >= 3
        k = fit_coupling(project(S, d), d.rank)
        assert np.max(np.abs(k[single] - truth.k_modes[single])) <= 1e-12

    @pytest.mark.parametrize(
        "z_u, z_v",
        [
            ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),  # zero block
            ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),  # isotropic: equal energies, no cross term
            ([1.0, 0.0, 0.0], [2.0, 1.0, 0.0]),  # principal axis at exactly 67.5 degrees
            ([2.0, 1.0, 0.0], [-1.0, 0.0, 0.0]),  # at exactly 157.5 degrees
        ],
        ids=["zero", "isotropic", "axis-67.5", "axis-157.5"],
    )
    def test_ties_go_to_the_dirac_coupling(self, z_u, z_v):
        # One mode plane around one harmonic row: rows [z_u, harmonic, z_v].
        z = np.array([z_u, [3.0, -1.0, 2.0], z_v])
        assert fit_coupling(z, 1).tolist() == [1.0]

    @pytest.mark.parametrize("angle", [0, 10, 30, 44, 45, 46, 60, 67, 68, 80, 90, 100, 120, 135, 150, 157, 158, 170])
    def test_matches_the_rule_in_angles(self, angle):
        # A rank-2 block whose principal axis is at the given angle, with some energy across it.
        a = np.radians(angle)
        axis, across = np.array([np.cos(a), np.sin(a)]), np.array([-np.sin(a), np.cos(a)])
        signals = np.random.default_rng(angle).normal(size=(2, 30)) * [[3.0], [0.5]]
        z_u, z_v = np.outer(axis, signals[0]) + np.outer(across, signals[1])
        expected = principal_axis_coupling(z_u, z_v)
        (k,) = fit_coupling(np.array([z_u, z_v]), 1)
        assert 0.0 <= k <= 1.0
        assert abs(k - expected) <= 1e-14

    def test_projection_and_plane_reduction_give_the_same_coupling(self):
        d = spectral_decompose(build_incidence(random_graph(12, 24, 3)))
        S = np.random.default_rng(4).normal(size=(d.dim, 40))
        z = project(S, d)
        assert_allclose(fit_coupling(reduce_planes(z, d.rank), d.rank), fit_coupling(z, d.rank), rtol=0, atol=1e-12)
