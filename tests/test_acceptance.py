"""Acceptance suite: one test per release criterion, each printing a verdict line.

The heavyweight artifacts (full-scale mixture-class learning runs, the denoising
sweep on the surrogate network) are computed once in module-scoped fixtures
and shared by the criteria that consume them.  Both learn as the studies do,
with the closed-form coupling (``ddtl.fit_coupling``); the solver-health
criterion audits the ADMM that ``ddtl-fit`` runs, on fits it makes itself.
"""

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

import topospinor.ddtl as ddtl_module
from topospinor.ddtl import DdtlConfig, ddtl_fit, fit_coupling, initialize_state, update_k, update_omega
from topospinor.experiments import sweep_dictionaries
from topospinor.frames import build_frame
from topospinor.sparse import nmse, omp, row_hard_threshold
from topospinor.synth import SignalClassSpec, add_awgn, gen_signals, random_graph
from topospinor.topology import (
    build_incidence,
    dirac_eigenbasis,
    project,
    spectral_decompose,
    super_laplacian_eigenbasis,
)
from topospinor.transform import build_mass_basis, unnormalized_basis_matrix

from conftest import nonharmonic_column_indices, shared_basis, unproject
from oracles import dirac_operator, super_laplacian


@contextmanager
def verdict(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


@dataclass
class LearnedRun:
    """One class-iv learning run plus pursuit errors of all dictionaries."""

    realization: int
    energy: float
    nmse_at_35: dict[str, float]
    reconstruction_nmse: float


def _class4_batch(real: int):
    """The decomposition and the full-scale mixture-coupling batch of one class-iv realization."""
    g = random_graph(40, 80, np.random.SeedSequence([101, real, 0]))
    d = spectral_decompose(build_incidence(g))
    S, _ = gen_signals(d, SignalClassSpec("mixture_of_dirac", eta0=35, num_signals=600, seed=1000 + real))
    return d, S


def _surrogate():
    """The decomposition and the clean batch of the synthetic surrogate of the 22-node network."""
    g = random_graph(22, 41, np.random.SeedSequence([202, 0, 0]))
    d = spectral_decompose(build_incidence(g))
    clean, _ = gen_signals(d, SignalClassSpec("mixture_of_dirac", eta0=30, num_signals=240, seed=77))
    return d, clean


def _surrogate_noise(clean, snr, real):
    return add_awgn(clean, snr, np.random.SeedSequence([203, real, int(snr)]))


@pytest.fixture(scope="module")
def class4_runs():
    """Ten full-scale mixture-coupling realizations, learned in closed form as the sweep learns them."""
    runs = []
    for real in range(10):
        d, S = _class4_batch(real)
        energy = float(np.linalg.norm(S) ** 2)
        dictionaries = sweep_dictionaries(d, fit_coupling(project(S, d), d.rank))
        at35 = {
            name: omp(D, S, sparsity=35).residual_norm ** 2 / energy
            for name, D in dictionaries.items()
        }
        # The learner's own sparse model: the 35 strongest rows of the code in the learned basis.
        basis = dictionaries["ddtl"]
        runs.append(
            LearnedRun(
                realization=real,
                energy=energy,
                nmse_at_35=at35,
                reconstruction_nmse=nmse(S, basis @ row_hard_threshold(basis.T @ S, 35)),
            )
        )
    return runs


@pytest.fixture(scope="module")
def denoise_runs():
    """Denoising study on the synthetic surrogate: hard truncation in the basis learned from the noisy batch."""
    start = time.time()
    d, clean = _surrogate()
    snr_grid = (0.0, 5.0, 10.0, 15.0, 20.0)
    bandwidths = (10, 30, 50)
    records = []
    for real in range(10):
        for snr in snr_grid:
            noisy = _surrogate_noise(clean, snr, real)
            noisy_nmse = nmse(clean, noisy)
            k = fit_coupling(project(noisy, d), d.rank)  # one basis serves every bandwidth
            basis = build_mass_basis(d, k, k)
            code = basis.T @ noisy
            for bw in bandwidths:
                records.append(
                    {
                        "snr": snr,
                        "bandwidth": bw,
                        "realization": real,
                        "noisy": noisy_nmse,
                        "ddtl": nmse(clean, basis @ row_hard_threshold(code, bw)),
                    }
                )
    return {"records": records, "snr_grid": snr_grid, "bandwidths": bandwidths, "runtime": time.time() - start}


def test_criterion_1_structural_identities():
    with verdict(1, "structural identities on 20 random connected graphs"):
        rng = np.random.default_rng(55)
        for trial in range(20):
            v = int(rng.integers(3, 41))
            max_extra = v * (v - 1) // 2 - (v - 1)
            e = v - 1 + int(rng.integers(0, min(max_extra, v) + 1))
            g = random_graph(v, e, int(rng.integers(0, 2**31)))
            B = build_incidence(g)
            d = spectral_decompose(B)
            n = g.dim
            D = dirac_operator(B)
            assert np.max(np.abs(D @ D - super_laplacian(B))) < 1e-10
            phi, _ = dirac_eigenbasis(d)
            theta, _ = super_laplacian_eigenbasis(d)
            assert np.max(np.abs(phi @ phi.T - np.eye(n))) < 1e-8
            assert np.max(np.abs(theta @ theta.T - np.eye(n))) < 1e-8
            frame = build_frame(phi, theta)
            F = frame.matrix
            assert np.max(np.abs(F @ F.T - 2.0 * np.eye(n))) < 1e-8
            s = rng.normal(size=n)
            rec = F @ (F.T @ s) / 2
            assert np.linalg.norm(rec - s) / np.linalg.norm(s) < 1e-10


def test_criterion_2_limit_regimes():
    with verdict(2, "coupling limits match Dirac/Laplacian projectors; shared-k basis orthonormal"):
        rng = np.random.default_rng(66)
        for seed in (0, 1, 2):
            g = random_graph(12, 20, seed)
            d = spectral_decompose(build_incidence(g))
            phi, _ = dirac_eigenbasis(d)
            theta, _ = super_laplacian_eigenbasis(d)
            for value, reference in ((1.0, phi), (0.0, theta)):
                basis = shared_basis(d, value)
                for col in basis.T:
                    proj = np.outer(col, col)
                    match = min(
                        np.max(np.abs(proj - np.outer(ref, ref))) for ref in reference.T
                    )
                    assert match < 1e-8
            shared = shared_basis(d, 0.42)
            assert np.max(np.abs(shared.T @ shared - np.eye(g.dim))) < 1e-12
            s = rng.normal(size=(g.dim, 8))
            back = shared @ (shared.T @ s)
            assert np.max(np.abs(back - s)) / np.max(np.abs(s)) < 1e-10


def _plane_coordinates(d, M):
    """Coordinates of M's coupled columns along (u_i; 0) (row 0) and (0; v_i) (row 1)."""
    cols = nonharmonic_column_indices(d)
    node = np.einsum("vj,vj->j", np.hstack([d.u, d.u]), M[: d.num_nodes, cols])
    edge = np.einsum("ej,ej->j", np.hstack([d.v, d.v]), M[d.num_nodes :, cols])
    return np.vstack([node, edge])


def test_criterion_3_oracle_equivalence(monkeypatch):
    with verdict(3, "closed-form updates match brute-force oracles"):
        rng = np.random.default_rng(77)

        # (a) code update: exact pair-block solve vs dense linear solve, dim 12.
        g = random_graph(5, 7, 3)
        d = spectral_decompose(build_incidence(g))
        assert d.dim == 12
        S = rng.normal(size=(12, 9))
        cfg = DdtlConfig(eta0=4)
        state = initialize_state(S, d, cfg)
        state.k = rng.uniform(-1, 1, 2 * d.rank)
        psi = unnormalized_basis_matrix(d, state.k[: d.rank], state.k[d.rank:])
        state.x = rng.normal(size=state.omega.shape)
        state.m = rng.normal(size=state.omega.shape)
        omega = update_omega(state, d, cfg)
        # The state holds the plane reduction of S, two columns; unproject gives it in signal coordinates.
        rhs = psi.T @ unproject(state.z, d) + ddtl_module.RHO2 * (state.x - state.m)
        dense = np.linalg.solve(psi.T @ psi + ddtl_module.RHO2 * np.eye(12), rhs)
        assert np.max(np.abs(omega - dense)) < 1e-10

        # (b) row threshold vs exhaustive subset search, N <= 8; exact match.
        for n_rows, eta0 in itertools.product((4, 6, 8), (1, 2, 3)):
            M = rng.normal(size=(n_rows, 3))
            best, best_cost = None, np.inf
            for subset in itertools.combinations(range(n_rows), eta0):
                out = np.zeros_like(M)
                out[list(subset)] = M[list(subset)]
                cost = float(np.linalg.norm(M - out) ** 2)
                if cost < best_cost - 1e-15:
                    best, best_cost = out, cost
            assert np.array_equal(row_hard_threshold(M, eta0), best)
        # tie at the cutoff: exhaustive lexicographic-first equals lowest-index rule
        tie = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        expected = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        assert np.array_equal(row_hard_threshold(tie, 2), expected)

        # (c) coupling update: scalar closed form vs grid-refined quadratic fit.
        g1 = random_graph(2, 1, 1)
        d1 = spectral_decompose(build_incidence(g1))
        S1 = rng.normal(size=(d1.dim, 1))
        monkeypatch.setattr(ddtl_module, "RHO1", 3.0)
        cfg1 = DdtlConfig(eta0=2)
        state1 = initialize_state(S1, d1, cfg1)
        state1.omega = rng.normal(size=(d1.dim, 1))
        p1 = rng.normal(size=(d1.dim, d1.dim))
        h1 = rng.normal(size=(d1.dim, d1.dim))
        # The oracle sees the dense P and H; the state holds their plane
        # coordinates, since the off-plane part does not move the minimizer.
        state1.p, state1.h = _plane_coordinates(d1, p1), _plane_coordinates(d1, h1)
        solved = update_k(state1, d1, cfg1)

        def objective(k_stacked):
            psi = unnormalized_basis_matrix(d1, k_stacked[:1], k_stacked[1:])
            return float(
                np.linalg.norm(S1 - psi @ state1.omega) ** 2
                + 0.5 * ddtl_module.RHO1 * np.linalg.norm(psi - p1 + h1) ** 2
            )

        for coord in range(2):
            probe = solved.copy()

            def value(v):
                probe[coord] = v
                return objective(probe)

            lo, hi = -1.0, 1.0
            for _ in range(12):
                grid = np.linspace(lo, hi, 33)
                best_idx = int(np.argmin([value(x) for x in grid]))
                lo, hi = grid[max(best_idx - 1, 0)], grid[min(best_idx + 1, 32)]
            samples = np.linspace(-1.0, 1.0, 25)
            quad = np.polyfit(samples, [value(x) for x in samples], 2)
            oracle = float(np.clip(-quad[1] / (2 * quad[0]), -1.0, 1.0))
            assert abs(oracle - 0.5 * (lo + hi)) < 1e-5
            assert abs(oracle - solved[coord]) < 1e-10


def _sweep_nmse(d, S, dictionaries, levels):
    energy = float(np.linalg.norm(S) ** 2)
    out = {}
    for name, D in dictionaries.items():
        code = omp(D, S, sparsity=max(levels))
        hist = np.asarray(code.residual_history)
        out[name] = {lv: float(hist[lv - 1] ** 2 / energy) for lv in levels}
    return out


def _fixed_dictionaries(d):
    phi, _ = dirac_eigenbasis(d)
    theta, _ = super_laplacian_eigenbasis(d)
    return {"dirac": phi, "laplacian": theta, "frame": build_frame(phi, theta).matrix}


def test_criterion_4_factor_of_two_bandwidth():
    with verdict(4, "factor-of-two bandwidth between coupled/decoupled regimes"):
        g = random_graph(40, 80, np.random.SeedSequence([404, 0, 0]))
        d = spectral_decompose(build_incidence(g))
        for klass, tight, loose in (
            ("fully_coupled", "dirac", "laplacian"),
            ("fully_decoupled", "laplacian", "dirac"),
        ):
            start = time.time()
            spec = SignalClassSpec(klass, eta0=35, num_signals=600, seed=404)
            S, _ = gen_signals(d, spec)
            res = _sweep_nmse(d, S, _fixed_dictionaries(d), (35, 70))
            assert res[tight][35] < 1e-6
            assert res[loose][35] > 0.05
            assert res[loose][70] < 1e-6
            assert time.time() - start < 120.0


def test_criterion_5_frame_dominance():
    with verdict(5, "frame at least matches the better basis in classes i-iii"):
        g = random_graph(40, 80, np.random.SeedSequence([505, 0, 0]))
        d = spectral_decompose(build_incidence(g))
        grid = tuple(range(5, 85, 5))
        for klass in ("fully_coupled", "fully_decoupled", "partially_coupled"):
            spec = SignalClassSpec(klass, eta0=35, num_signals=600, seed=505)
            S, _ = gen_signals(d, spec)
            res = _sweep_nmse(d, S, _fixed_dictionaries(d), grid)
            for lv in grid:
                assert res["frame"][lv] <= min(res["dirac"][lv], res["laplacian"][lv]) + 1e-6


def test_criterion_6_learned_transform_gain(class4_runs):
    with verdict(6, "learned transform beats all fixed dictionaries on mixture signals"):
        averages = {
            name: float(np.mean([run.nmse_at_35[name] for run in class4_runs]))
            for name in ("dirac", "laplacian", "frame", "ddtl")
        }
        assert averages["ddtl"] < averages["dirac"]
        assert averages["ddtl"] < averages["laplacian"]
        assert averages["ddtl"] < averages["frame"]
        for run in class4_runs:
            assert run.reconstruction_nmse < 1e-3


def test_criterion_7_admm_health():
    with verdict(7, "health of the ADMM that ddtl-fit runs"):
        # Class-iv batches at ddtl-fit's default budget, and the noisy surrogate at every bandwidth.
        reports = [ddtl_fit(S, d, DdtlConfig(eta0=35, max_iter=500)).report for d, S in map(_class4_batch, range(2))]
        d, clean = _surrogate()
        for snr in (0.0, 20.0):
            noisy = _surrogate_noise(clean, snr, 0)
            reports += [ddtl_fit(noisy, d, DdtlConfig(eta0=bw, max_iter=150)).report for bw in (10, 30, 50)]
        for report in reports:
            if report.stop_reason != "max_iter":
                assert report.stop_reason == "tolerance"
            assert report.final_objective <= report.initial_objective

        # Determinism: same seed, same config, bit-identical history.
        d, S = _class4_batch(0)
        cfg = DdtlConfig(eta0=35, max_iter=60)
        a, b = ddtl_fit(S, d, cfg), ddtl_fit(S, d, cfg)
        assert a.report.objective_curve == b.report.objective_curve
        assert a.report.basis_gap_curve == b.report.basis_gap_curve
        assert a.report.code_gap_curve == b.report.code_gap_curve
        assert np.array_equal(a.k_star, b.k_star)


def test_criterion_8_denoising_on_surrogate(denoise_runs):
    with verdict(8, "learned filtering beats the noisy input across the SNR grid"):
        records = denoise_runs["records"]
        best_per_snr = {}
        noisy_per_snr = {}
        for snr in denoise_runs["snr_grid"]:
            noisy_per_snr[snr] = float(
                np.mean([r["noisy"] for r in records if r["snr"] == snr and r["bandwidth"] == 10])
            )
            per_bw = {
                bw: float(np.mean([r["ddtl"] for r in records if r["snr"] == snr and r["bandwidth"] == bw]))
                for bw in denoise_runs["bandwidths"]
            }
            best_per_snr[snr] = min(per_bw.values())
        for snr in denoise_runs["snr_grid"]:
            assert best_per_snr[snr] < noisy_per_snr[snr]
        ordered = [best_per_snr[snr] for snr in sorted(denoise_runs["snr_grid"])]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))  # non-increasing in SNR
        assert denoise_runs["runtime"] < 600.0
