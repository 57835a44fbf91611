import numpy as np
import pytest
from numpy.testing import assert_allclose

from topospinor.ddtl import (
    DdtlConfig,
    NumericalDivergenceError,
    convergence_report,
    ddtl_fit,
    initialize_state,
    update_duals,
    update_k,
    update_omega,
    update_p,
    update_x,
)
from topospinor.sparse import column_normalize, nmse, row_hard_threshold
from topospinor.synth import SignalClassSpec, gen_signals, random_graph
from topospinor.topology import OrientedGraph, build_incidence, spectral_decompose
from topospinor.transform import nonharmonic_column_indices, unnormalized_basis_matrix


def small_problem(num_nodes=5, num_edges=7, seed=0):
    g = random_graph(num_nodes, num_edges, seed)
    d = spectral_decompose(build_incidence(g))
    return g, d


def manual_state(d, S, cfg, k=None, omega=None, p=None, h=None, x=None, m=None):
    state = initialize_state(S, d, cfg)
    if k is not None:
        state.k = np.asarray(k, dtype=float)
        state.psi = unnormalized_basis_matrix(d, state.k[: d.rank], state.k[d.rank :])
    if omega is not None:
        state.omega = np.asarray(omega, dtype=float)
    if p is not None:
        state.p = np.asarray(p, dtype=float)
    if h is not None:
        state.h = np.asarray(h, dtype=float)
    if x is not None:
        state.x = np.asarray(x, dtype=float)
    if m is not None:
        state.m = np.asarray(m, dtype=float)
    return state


def k_objective(d, S, state, cfg, k_stacked):
    """Direct evaluation of the k-subproblem objective; oracle helper."""
    psi = unnormalized_basis_matrix(d, k_stacked[: d.rank], k_stacked[d.rank :])
    data = np.linalg.norm(S - psi @ state.omega) ** 2
    penalty = 0.5 * cfg.rho1 * np.linalg.norm(psi - state.p + state.h) ** 2
    return data + penalty


# Dense oracle: the learner as it ran before the spectral projection.  Every
# step multiplies Psi(k) against the full batch S in signal coordinates.


def dense_psi(d, k):
    return unnormalized_basis_matrix(d, k[: d.rank], k[d.rank :])


def dense_update_k(d, S, cfg, k, omega, p, h):
    """Projected coordinate sweeps on the dense residual S - Psi(k) Omega."""
    V, r = d.num_nodes, d.rank
    cols = nonharmonic_column_indices(d)
    ph = p - h
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
        new_k = np.clip((g + k * w2 + 0.5 * cfg.rho1 * c_lin) / (w2 + 0.5 * cfg.rho1), -cfg.c2, cfg.c1)
        change = float(np.max(np.abs(new_k - k))) if k.size else 0.0
        k = new_k
        if change < 1e-10:
            return k
    return k


def dense_update_omega(d, S, cfg, k, x, m):
    """Pair-block code solve with the right-hand side Psi(k)^T S + rho2 (X - M)."""
    r = d.rank
    cols = nonharmonic_column_indices(d)
    rhs = dense_psi(d, k).T @ S + cfg.rho2 * (x - m)
    omega = rhs / (1.0 + cfg.rho2)
    km, kp = k[:r, None], k[r:, None]
    a, c, b = 1.0 + km**2 + cfg.rho2, 1.0 + kp**2 + cfg.rho2, km - kp
    det = a * c - b**2
    rhs_m, rhs_p = rhs[cols[:r]], rhs[cols[r:]]
    omega[cols[:r]] = (c * rhs_m - b * rhs_p) / det
    omega[cols[r:]] = (a * rhs_p - b * rhs_m) / det
    return omega


def dense_fit(S, d, cfg):
    """Dirac-initialized dense ADMM for cfg.max_iter iterations: (k, Omega, objective, basis gap, code gap)."""
    k = np.ones(2 * d.rank)
    psi = dense_psi(d, k)
    omega = psi.T @ S
    x = row_hard_threshold(omega, cfg.eta0)
    p, h, m = column_normalize(psi), np.zeros_like(psi), np.zeros_like(omega)
    curves = ([], [], [])
    for _ in range(cfg.max_iter):
        k = dense_update_k(d, S, cfg, k, omega, p, h)
        psi = dense_psi(d, k)
        omega = dense_update_omega(d, S, cfg, k, x, m)
        p = column_normalize(h + psi)
        x = row_hard_threshold(omega + m, cfg.eta0)
        h, m = h + (psi - p), m + (omega - x)
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
        # Target coupling 1.7 sits outside the box; minimizer clips to c1 = 1.
        g, d = small_problem()
        k0 = np.full(2 * d.rank, 1.7)
        target = unnormalized_basis_matrix(d, k0[: d.rank], k0[d.rank :])
        init = np.random.default_rng(0).normal(size=(d.dim, 2))
        cfg = DdtlConfig(eta0=3, max_iter=1)
        # Zero codes remove the data term, whatever data the state holds.
        state = manual_state(d, init, cfg, omega=np.zeros((d.dim, 2)), p=target, h=np.zeros_like(target))
        k = update_k(state, d, cfg)
        assert_allclose(k, 1.0, atol=1e-12)

    def test_scalar_minimizer_matches_grid_refinement(self):
        # Single-mode instance (one edge), T = 1: compare each coordinate's
        # closed form against a 1-D oracle (grid refinement to bracket the
        # minimizer, then a dense quadratic fit for the exact vertex; the
        # coordinate objective is an exact quadratic).
        g, d = small_problem(num_nodes=2, num_edges=1, seed=1)
        assert d.rank == 1
        rng = np.random.default_rng(9)
        S = rng.normal(size=(d.dim, 1))
        cfg = DdtlConfig(eta0=2, rho1=3.0, max_iter=1)
        state = manual_state(
            d,
            S,
            cfg,
            k=rng.uniform(-0.5, 0.5, 2),
            omega=rng.normal(size=(d.dim, 1)),
            p=rng.normal(size=(d.dim, d.dim)),
            h=rng.normal(size=(d.dim, d.dim)),
        )
        k_solved = update_k(state, d, cfg)

        for coord in range(2):
            probe = k_solved.copy()

            def value(val, probe=probe, coord=coord):
                probe[coord] = val
                return k_objective(d, S, state, cfg, probe)

            lo, hi = -cfg.c2, cfg.c1
            for _ in range(12):  # bracket the box minimizer to ~1e-6
                grid = np.linspace(lo, hi, 33)
                best = int(np.argmin([value(v) for v in grid]))
                lo = grid[max(best - 1, 0)]
                hi = grid[min(best + 1, len(grid) - 1)]
            bracketed = 0.5 * (lo + hi)

            # Dense quadratic fit: exact for a quadratic objective.  The box
            # minimizer is the vertex projected onto the interval.
            samples = np.linspace(-cfg.c2, cfg.c1, 25)
            coeffs = np.polyfit(samples, [value(v) for v in samples], 2)
            vertex = float(np.clip(-coeffs[1] / (2.0 * coeffs[0]), -cfg.c2, cfg.c1))
            assert abs(vertex - bracketed) < 1e-5  # both oracles agree
            assert abs(vertex - k_solved[coord]) < 1e-10

    def test_result_always_inside_box(self):
        g, d = small_problem()
        rng = np.random.default_rng(4)
        S = rng.normal(size=(d.dim, 6))
        cfg = DdtlConfig(eta0=4, c1=0.6, c2=0.3, max_iter=1)
        state = initialize_state(S, d, cfg)
        k = update_k(state, d, cfg)
        assert np.all(k <= 0.6 + 1e-15) and np.all(k >= -0.3 - 1e-15)


class TestUpdateOmega:
    def test_near_orthonormal_limit(self):
        # At zero coupling the unnormalized basis is orthonormal, so with a
        # vanishing penalty the update approaches the plain analysis coefficients.
        g, d = small_problem()
        rng = np.random.default_rng(5)
        S = rng.normal(size=(d.dim, 3))
        cfg = DdtlConfig(eta0=3, rho2=1e-10, max_iter=1, init_mode="laplacian")
        state = initialize_state(S, d, cfg)
        state.x = np.zeros_like(state.omega)
        state.m = np.zeros_like(state.omega)
        omega = update_omega(state, d, cfg)
        assert np.max(np.abs(omega - state.psi.T @ S)) < 1e-9

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
        psi = state.psi
        rhs = psi.T @ S + cfg.rho2 * (state.x - state.m)
        dense = np.linalg.solve(psi.T @ psi + cfg.rho2 * np.eye(12), rhs)
        assert np.max(np.abs(omega - dense)) < 1e-10


class TestAuxiliaryUpdates:
    def test_p_identity_when_basis_normalized(self):
        g, d = small_problem()
        S = np.random.default_rng(1).normal(size=(d.dim, 3))
        cfg = DdtlConfig(eta0=3, init_mode="laplacian", max_iter=1)
        state = initialize_state(S, d, cfg)  # zero coupling: unit columns
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
        x = update_x(state, cfg)
        assert_allclose(x, sparse)
        _, m_new = update_duals(manual_state(d, S, cfg, omega=sparse, x=x, m=np.zeros_like(sparse)))
        assert_allclose(m_new, 0.0)

    def test_dual_increment_is_exact(self):
        g, d = small_problem()
        rng = np.random.default_rng(3)
        S = rng.normal(size=(d.dim, 3))
        cfg = DdtlConfig(eta0=3, max_iter=1)
        state = initialize_state(S, d, cfg)
        state.h = rng.normal(size=state.h.shape)
        h_new, _ = update_duals(state)
        assert_allclose(h_new - state.h, state.psi - state.p, atol=1e-15)


class TestDdtlFit:
    def test_generate_and_fit_recovery(self):
        # Oracle run on a 10-node graph: refit noiseless row-sparse data.
        g = random_graph(10, 18, 1)
        d = spectral_decompose(build_incidence(g))
        spec = SignalClassSpec("mixture_of_dirac", eta0=8, num_signals=60, seed=5)
        S, _ = gen_signals(d, spec)
        cfg = DdtlConfig(eta0=8, rho1=1e-6, rho2=1e-6, max_iter=100)
        sol = ddtl_fit(S, d, cfg)
        assert nmse(S, sol.s_hat) < 1e-4

    def test_fully_coupled_objective_collapses_immediately(self):
        # Fully coupled data, Dirac init: the completed first cycle already
        # fits the batch essentially exactly when the penalties are small.
        g = random_graph(10, 18, 1)
        d = spectral_decompose(build_incidence(g))
        spec = SignalClassSpec("fully_coupled", eta0=8, num_signals=100, seed=3)
        S, _ = gen_signals(d, spec)
        energy = np.linalg.norm(S) ** 2
        cfg = DdtlConfig(eta0=8, rho1=1e-8, rho2=1e-8, max_iter=20)
        sol = ddtl_fit(S, d, cfg)
        assert sol.report.objective_curve[0] < 1e-10 * energy
        assert sol.report.final_objective < 1e-10 * energy

    def test_default_hyperparameters(self):
        cfg = DdtlConfig(eta0=35)
        assert cfg.c1 == cfg.c2 == 1.0
        assert cfg.rho1 == cfg.rho2 == 10.0

    def test_iterates_satisfy_constraints(self):
        g, d = small_problem()
        rng = np.random.default_rng(8)
        S = rng.normal(size=(d.dim, 10))
        cfg = DdtlConfig(eta0=4, c1=0.9, c2=0.5, max_iter=7)
        sol = ddtl_fit(S, d, cfg)
        k = sol.k_star.stacked()
        assert np.all(k <= 0.9 + 1e-12) and np.all(k >= -0.5 - 1e-12)
        row_norms = np.linalg.norm(sol.x_star, axis=1)
        assert np.count_nonzero(row_norms) <= 4
        assert_allclose(np.linalg.norm(sol.basis.psi_bar, axis=0), 1.0, atol=1e-12)

    def test_final_objective_not_worse_than_initial(self):
        g, d = small_problem(num_nodes=8, num_edges=14, seed=3)
        spec = SignalClassSpec("mixture_of_dirac", eta0=6, num_signals=40, seed=9)
        S, _ = gen_signals(d, spec)
        sol = ddtl_fit(S, d, DdtlConfig(eta0=6, max_iter=60))
        assert sol.report.final_objective <= sol.report.initial_objective

    def test_determinism(self):
        g, d = small_problem()
        S = np.random.default_rng(11).normal(size=(d.dim, 8))
        cfg = DdtlConfig(eta0=4, max_iter=15, init_mode="random_uniform_box", init_seed=5)
        a, b = ddtl_fit(S, d, cfg), ddtl_fit(S, d, cfg)
        assert a.report.objective_curve == b.report.objective_curve
        assert a.report.basis_gap_curve == b.report.basis_gap_curve
        assert np.array_equal(a.k_star.stacked(), b.k_star.stacked())

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

    @staticmethod
    def _check(S, d, cfg):
        sol = ddtl_fit(S, d, cfg)
        assert sol.report.iterations == cfg.max_iter
        k, omega, objective, basis_gap, code_gap = dense_fit(S, d, cfg)
        assert_relative(sol.k_star.stacked(), k)
        assert_relative(sol.omega_star, omega)
        assert_relative(sol.report.objective_curve, objective)
        assert_relative(sol.report.basis_gap_curve, basis_gap)
        assert_relative(sol.report.code_gap_curve, code_gap)
        assert_relative(sol.s_hat, dense_psi(d, k) @ omega)

    def test_single_steps_match_dense_oracle(self):
        g, d = small_problem(num_nodes=6, num_edges=9, seed=4)
        rng = np.random.default_rng(21)
        S = rng.normal(size=(d.dim, 7))
        cfg = DdtlConfig(eta0=4, rho1=2.5, rho2=0.7, max_iter=1)
        state = manual_state(
            d,
            S,
            cfg,
            k=rng.uniform(-1, 1, 2 * d.rank),
            omega=rng.normal(size=(d.dim, 7)),
            p=rng.normal(size=(d.dim, d.dim)),
            h=rng.normal(size=(d.dim, d.dim)),
            x=rng.normal(size=(d.dim, 7)),
            m=rng.normal(size=(d.dim, 7)),
        )
        expected_k = dense_update_k(d, S, cfg, state.k, state.omega, state.p, state.h)
        assert_relative(update_k(state, d, cfg), expected_k)
        expected_omega = dense_update_omega(d, S, cfg, state.k, state.x, state.m)
        assert_relative(update_omega(state, d, cfg), expected_omega)


class TestConvergenceReport:
    def test_tolerance_stop(self):
        # Fully decoupled data with a Laplacian start is a genuine fixed
        # point of the splitting: both gaps vanish within one iteration.
        g = random_graph(8, 12, 4)
        d = spectral_decompose(build_incidence(g))
        spec = SignalClassSpec("fully_decoupled", eta0=5, num_signals=30, seed=2)
        S, _ = gen_signals(d, spec)
        sol = ddtl_fit(S, d, DdtlConfig(eta0=5, init_mode="laplacian", max_iter=50))
        assert sol.report.stop_reason == "tolerance"
        assert sol.report.iterations < 50

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

    def test_empty_history(self):
        rep = convergence_report([], initial_objective=2.5)
        assert rep.iterations == 0
        assert rep.final_objective == 2.5
