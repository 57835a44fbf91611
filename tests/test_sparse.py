import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from conftest import STRUCTURED_GRAPHS, unproject
from topospinor.experiments import SWEEP_METHODS, _plane_bases, sweep_dictionaries
from topospinor.frames import build_frame
from topospinor.sparse import (
    DegenerateRetractionWarning,
    column_normalize,
    nmse,
    omp,
    plane_energies,
    plane_pursuit_curves,
    row_hard_threshold,
    truncation_curves,
)
from topospinor.synth import SIGNAL_CLASSES, SignalClassSpec, add_awgn, gen_signals, random_graph
from topospinor.topology import (
    OrientedGraph,
    build_incidence,
    dirac_eigenbasis,
    project,
    reduce_planes,
    spectral_decompose,
    super_laplacian_eigenbasis,
)


def brute_force_row_projection(M: np.ndarray, eta0: int) -> np.ndarray:
    """Oracle: exhaustive search over all row subsets of size eta0."""
    best_subset, best_cost = None, np.inf
    for subset in itertools.combinations(range(M.shape[0]), eta0):
        out = np.zeros_like(M)
        out[list(subset)] = M[list(subset)]
        cost = np.linalg.norm(M - out) ** 2
        if cost < best_cost - 1e-15:
            best_cost, best_subset = cost, subset
    out = np.zeros_like(M)
    out[list(best_subset)] = M[list(best_subset)]
    return out


class TestOmp:
    def test_orthonormal_single_atom(self, rng):
        D = np.eye(10)
        s = 3.0 * D[:, 7]
        code = omp(D, s, sparsity=1)
        assert code.support == (7,)
        assert_allclose(code.coefficients, [[3.0]], atol=1e-12)
        assert code.residual_norm < 1e-12

    def test_exact_recovery_orthonormal(self, rng):
        # eta-sparse signal in an orthonormal dictionary: exact at sparsity eta.
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        support = [1, 4, 9]
        coeffs = rng.normal(size=(3, 5))
        S = q[:, support] @ coeffs
        code = omp(q, S, sparsity=3)
        assert sorted(code.support) == support
        assert nmse(S, code.reconstruct(q)) < 1e-20

    def test_frame_column_recovery(self, p3):
        d = spectral_decompose(build_incidence(p3))
        phi, _ = dirac_eigenbasis(d)
        theta, _ = super_laplacian_eigenbasis(d)
        F = build_frame(phi, theta).matrix
        code = omp(F, F[:, 1], sparsity=1)
        assert code.support == (1,)
        assert code.residual_norm < 1e-10

    def test_rejects_unnormalized_dictionary(self):
        D = np.eye(4)
        D[0, 0] = 2.0
        with pytest.raises(ValueError, match="unit norm"):
            omp(D, np.ones(4), sparsity=1)

    def test_sparsity_bounds(self):
        with pytest.raises(ValueError):
            omp(np.eye(3), np.ones(3), sparsity=4)

    def test_residual_history_non_increasing(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(15, 15)))
        S = rng.normal(size=(15, 6))
        code = omp(q, S, sparsity=10)
        hist = np.array(code.residual_history)
        assert np.all(np.diff(hist) <= 1e-10)
        assert len(hist) == 10

    def test_ridge_flag_on_duplicate_atoms(self):
        e = np.zeros((4, 3))
        e[0, 0] = e[0, 1] = 1.0  # identical atoms 0 and 1
        e[1, 2] = 1.0
        code = omp(e, e[:, 0], sparsity=2)
        assert code.ridge_regularized
        assert code.residual_norm < 1e-6

def lstsq_pursuit(dictionary: np.ndarray, signals: np.ndarray, sparsity: int):
    """Oracle: joint OMP with a fresh least-squares refit after every selection.

    Returns the support, coefficients, residual history and ridge flag, plus
    one flag per step marking the selection as ambiguous: the residual was
    already at round-off (NMSE below 1e-20) or the top two scores were within
    1e-12 relative, so rounding alone may decide between atoms.
    """
    energy = float(np.linalg.norm(signals) ** 2)
    support: list[int] = []
    taken = np.zeros(dictionary.shape[1], dtype=bool)
    residual = signals.copy()
    history, ambiguous = [], []
    ridge_used = False
    for _ in range(sparsity):
        corr = dictionary.T @ residual
        scores = np.einsum("nt,nt->n", corr, corr)
        scores[taken] = -1.0
        second, first = np.sort(scores)[-2:]
        ambiguous.append(
            float(np.linalg.norm(residual) ** 2) < 1e-20 * energy or first - second <= 1e-12 * first
        )
        best = int(np.argmax(scores))
        support.append(best)
        taken[best] = True
        sub = dictionary[:, support]
        coef, _, rank, _ = np.linalg.lstsq(sub, signals, rcond=None)
        if rank < len(support):
            coef = np.linalg.solve(sub.T @ sub + 1e-12 * np.eye(len(support)), sub.T @ signals)
            ridge_used = True
        residual = signals - sub @ coef
        history.append(float(np.linalg.norm(residual)))
    return support, coef, history, ridge_used, ambiguous


def _unit_columns(rng, n, num_atoms):
    D = rng.normal(size=(n, num_atoms))
    return D / np.linalg.norm(D, axis=0)


def _frame_case(seed, sparse_signal, num_signals=6):
    rng = np.random.default_rng(seed)
    d = spectral_decompose(build_incidence(random_graph(8, 14, seed)))
    phi, _ = dirac_eigenbasis(d)
    theta, _ = super_laplacian_eigenbasis(d)
    F = build_frame(phi, theta).matrix
    if sparse_signal:
        # A harmonic atom (duplicated in the frame) among the generating atoms.
        harmonic = int(np.flatnonzero(np.abs(phi.T @ theta).max(axis=1) > 1 - 1e-12)[0])
        S = F[:, [harmonic, 3, 30, 41]] @ rng.normal(size=(4, num_signals))
    else:
        S = rng.normal(size=(F.shape[0], num_signals))
    return F, S


def _pursuit_cases():
    rng = np.random.default_rng(2024)
    for trial in range(3):
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        yield f"orthonormal-{trial}", q, rng.normal(size=(12, 5)), 12
    for trial in range(3):
        D = _unit_columns(rng, 16, 40)
        yield f"overcomplete-{trial}", D, rng.normal(size=(16, 6)), 16
    D = _unit_columns(rng, 16, 40)
    yield "overcomplete-sparse", D, D[:, [4, 17, 33]] @ rng.normal(size=(3, 6)), 10
    for seed in range(2):
        F, S = _frame_case(seed, sparse_signal=False)
        yield f"frame-dense-{seed}", F, S, F.shape[0] + 4
        F, S = _frame_case(seed, sparse_signal=True)
        yield f"frame-sparse-{seed}", F, S, 12
    # More signals than rows: the pursuit runs on the rank factor of the batch.
    rng = np.random.default_rng(2025)
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    yield "wide-orthonormal", q, rng.normal(size=(12, 40)), 12
    D = _unit_columns(rng, 16, 40)
    yield "wide-overcomplete", D, rng.normal(size=(16, 50)), 16
    yield "wide-overcomplete-sparse", D, D[:, [4, 17, 33]] @ rng.normal(size=(3, 50)), 10
    for seed in range(2):
        F, S = _frame_case(seed, sparse_signal=False, num_signals=60)
        yield f"wide-frame-dense-{seed}", F, S, F.shape[0] + 4
        F, S = _frame_case(seed, sparse_signal=True, num_signals=60)
        yield f"wide-frame-sparse-{seed}", F, S, 12


@pytest.mark.parametrize(
    "dictionary, signals, sparsity",
    [pytest.param(D, S, k, id=name) for name, D, S, k in _pursuit_cases()],
)
def test_omp_matches_lstsq_pursuit(dictionary, signals, sparsity):
    support, coef, history, ridge_used, ambiguous = lstsq_pursuit(dictionary, signals, sparsity)
    code = omp(dictionary, signals, sparsity)
    scale = 1e-10 * np.linalg.norm(signals)
    differs = [j for j, (a, b) in enumerate(zip(code.support, support)) if a != b]
    if differs:
        assert ambiguous[differs[0]], f"supports part at step {differs[0]} without a tie or round-off residual"
    assert_allclose(code.residual_history, history, rtol=0, atol=scale)
    # Exact representations stay visible at round-off, as the sweep's
    # fully_coupled curves need (NMSE near 1e-30).
    floor = 1e-14 * np.linalg.norm(signals)
    assert np.all(np.asarray(code.residual_history)[np.asarray(history) < floor] < floor)
    oracle_reconstruction = dictionary[:, support] @ coef
    assert_allclose(code.reconstruct(dictionary), oracle_reconstruction, rtol=0, atol=scale)
    assert code.ridge_regularized == ridge_used


def test_nearly_dependent_atom_completes_the_span():
    # Atom 2 lies within 1e-9 of the span of atoms 0 and 1; a single
    # Gram-Schmidt pass would leave a residual near 1e-7 after the last atom.
    rng = np.random.default_rng(7)
    B = np.eye(6)
    B[:, 2] = B[:, 0] + B[:, 1] + 1e-9 * B[:, 2]
    U, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    D = U @ (B / np.linalg.norm(B, axis=0))
    S = rng.normal(size=(6, 4))
    code = omp(D, S, sparsity=6)
    assert not code.ridge_regularized
    assert code.residual_norm < 1e-14 * np.linalg.norm(S)


def test_pursuit_cases_cover_the_ridge_path():
    flags = {name: lstsq_pursuit(D, S, k)[3] for name, D, S, k in _pursuit_cases()}
    assert flags["frame-dense-0"] and not flags["orthonormal-0"]
    assert flags["wide-frame-dense-0"] and not flags["wide-orthonormal"]


def test_pursuit_cases_cover_both_batch_widths():
    wide = {name: S.shape[1] > D.shape[0] for name, D, S, _ in _pursuit_cases()}
    assert all(wide[name] == name.startswith("wide-") for name in wide)


def _random_orthogonal(rng, size):
    w, _ = np.linalg.qr(rng.normal(size=(size, size)))
    return w


@pytest.mark.parametrize("num_signals", [5, 60])
def test_omp_is_equivariant_under_orthogonal_mixing_of_signals(num_signals):
    # omp(D, S W) equals omp(D, S) with its coefficients times W, for any
    # orthogonal W: with T > n both runs go through the rank factor of
    # their own batch, and the coefficients must come back T wide.
    rng = np.random.default_rng(num_signals)
    F, S = _frame_case(1, sparse_signal=False, num_signals=num_signals)
    # Three atoms that span half the space plus a copy of the first: the
    # fourth pick is the copy while the residual is far from round-off,
    # which takes the ridge path.
    U = _random_orthogonal(rng, 6)
    partial = U[:, [0, 1, 2, 0]]
    cases = [(F, S, 12, False), (partial, rng.normal(size=(6, num_signals)), 4, True)]
    W = _random_orthogonal(rng, num_signals)
    for D, signals, sparsity, ridge in cases:
        plain, mixed = omp(D, signals, sparsity), omp(D, signals @ W, sparsity)
        assert plain.ridge_regularized == mixed.ridge_regularized == ridge
        assert mixed.support == plain.support
        scale = 1e-10 * np.linalg.norm(signals)
        assert_allclose(mixed.residual_history, plain.residual_history, rtol=0, atol=scale)
        assert mixed.coefficients.shape == (sparsity, num_signals)
        tol = 1e-9 * np.abs(plain.coefficients).max()
        assert_allclose(mixed.coefficients, plain.coefficients @ W, rtol=0, atol=tol)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=8),
    extra=st.integers(min_value=0, max_value=8),
    copies=st.integers(min_value=0, max_value=4),
    num_signals=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_residual_history_never_rises(seed, n, extra, copies, num_signals, data):
    rng = np.random.default_rng(seed)
    D = _unit_columns(rng, n, n + extra)
    # Duplicated columns reach the ridge path once both copies are selected.
    D = np.hstack([D, D[:, rng.integers(0, D.shape[1], size=copies)]])
    sparsity = data.draw(st.integers(min_value=1, max_value=D.shape[1]))
    code = omp(D, rng.normal(size=(n, num_signals)), sparsity)
    hist = np.asarray(code.residual_history)
    assert len(hist) == sparsity
    # Subtracting a vanishing projection may round up by a few ulps.
    assert np.all(hist[1:] <= hist[:-1] * (1 + 8 * np.finfo(float).eps))


@given(
    tied=arrays(np.float64, 3, elements=st.floats(1, 10)),
    rest=arrays(np.float64, (6, 3), elements=st.floats(-0.5, 0.5)),
    rows=st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=2, unique=True),
    flip=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_exact_tie_selects_lower_index_first(tied, rest, rows, flip):
    S = rest.copy()
    S[rows[0]] = tied
    S[rows[1]] = -tied if flip else tied
    code = omp(np.eye(6), S, sparsity=2)
    assert code.support == tuple(sorted(rows))


# A triangle and a path: two node harmonics, each twice in the frame, and one cycle.
TWO_COMPONENTS = OrientedGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5)))


def _sweep_dictionaries_at(d, k):
    """The four sweep dictionaries at the shared coupling k: dense (the oracle's input) and as plane pairs."""
    return sweep_dictionaries(d, k), _plane_bases(k)


def _random_coupling(rng, r):
    """One shared coupling per mode plane, in the box [-1, 1]."""
    return rng.uniform(-1, 1, r)


def _plane_coordinate_dictionary(n, r, pairs):
    """The dense dictionary of plane pairs when Q = I: plane i is coordinates i and n - r + i."""
    atoms = []
    for b, j in itertools.product(range(len(pairs)), range(2)):
        atom = np.zeros((n, r))
        atom[np.arange(r), np.arange(r)] = pairs[b, :, j, 0]
        atom[n - r + np.arange(r), np.arange(r)] = pairs[b, :, j, 1]
        atoms.append(atom)
    return np.hstack(atoms + [np.eye(n)[:, r : n - r]])


@pytest.mark.parametrize("name", ["star_k14", "complete_k5", "two_components"])
def test_plane_bases_lift_to_the_dense_columns(name):
    # Every pair atom, lifted through Q, is one column of the dense dictionary, and with one identity
    # atom per harmonic row they cover its columns: each harmonic atom is two columns of the frame.
    g = TWO_COMPONENTS if name == "two_components" else STRUCTURED_GRAPHS[name][0]
    d = spectral_decompose(build_incidence(g))
    n, r = d.dim, d.rank
    q = np.zeros((n, n))  # the columns of Q, in the row order of project
    q[: d.num_nodes, : r + d.xi0] = np.hstack([d.u, d.u_harmonic])
    q[d.num_nodes :, r + d.xi0 :] = np.hstack([d.v_harmonic, d.v])
    dense, planes = _sweep_dictionaries_at(d, _random_coupling(np.random.default_rng(3), r))
    for method, pairs in planes.items():
        assert pairs.shape[1:] == (r, 2, 2), method  # per plane, the fixed bases as views broadcast to r
        lifted = [q[:, :r] * pairs[b, :, j, 0] + q[:, n - r :] * pairs[b, :, j, 1]
                  for b, j in itertools.product(range(len(pairs)), range(2))]
        lifted = np.hstack(lifted + [q[:, r : n - r]])
        match = np.abs(dense[method][:, :, None] - lifted[:, None, :]).max(axis=0) <= 1e-15
        assert np.all(match.sum(axis=1) == 1), method  # every dense column is one lifted atom
        copies = np.ones(lifted.shape[1], dtype=int)
        copies[4 * r if method == "frame" else 2 * r :] = 2 if method == "frame" else 1
        assert np.array_equal(match.sum(axis=0), copies), method


def _curve_cases():
    rng = np.random.default_rng(2026)
    d = spectral_decompose(build_incidence(random_graph(8, 14, 3)))
    for trial in range(2):
        yield f"random-{trial}", "ddtl", d, rng.normal(size=(d.dim, 5)), _random_coupling(rng, d.rank)
    yield "random-wide", "ddtl", d, rng.normal(size=(d.dim, 40)), _random_coupling(rng, d.rank)
    for i, signal_class in enumerate(SIGNAL_CLASSES):
        S, _ = gen_signals(d, SignalClassSpec(signal_class, eta0=6, num_signals=30, seed=40 + i))
        for method in SWEEP_METHODS:
            yield f"{method}-{signal_class}", method, d, S, _random_coupling(rng, d.rank)


@pytest.mark.parametrize(
    "method, d, signals, k",
    [pytest.param(m, d, S, k, id=name) for name, m, d, S, k in _curve_cases()],
)
def test_row_energy_curve_matches_omp(method, d, signals, k):
    # The per-plane curve against the dense pursuit, at every level.
    n = d.dim
    dense, planes = _sweep_dictionaries_at(d, k)
    residual = plane_pursuit_curves(project(signals, d), d.rank, [planes[method]], range(1, n + 1))[0]
    history = np.asarray(omp(dense[method], signals, n).residual_history)
    energy = np.linalg.norm(signals) ** 2
    assert_allclose(residual / energy, history**2 / energy, rtol=0, atol=1e-12)


def test_row_energy_curve_keeps_exact_residuals_at_round_off():
    # Summing sums of squares of rotated rows keeps about 1e-30; ||S||^2 minus the
    # captured energy, or a plane's energy minus s1, would leave a cancellation error near +-1e-16, or 0.
    d = spectral_decompose(build_incidence(random_graph(40, 80, 11)))
    S, _ = gen_signals(d, SignalClassSpec("fully_coupled", eta0=35, num_signals=600, seed=12))
    energy = np.linalg.norm(S) ** 2
    planes = _plane_bases(np.ones(d.rank))
    for z in (project(S, d), reduce_planes(project(S, d), d.rank)):
        for method in ("dirac", "frame", "ddtl"):
            residual = plane_pursuit_curves(z, d.rank, [planes[method]], [34, 35])[0]
            assert residual[0] > 1e-6 * energy, method
            assert 0.0 < residual[1] <= 1e-28 * energy, method


def _plane_grams(z, rank):
    """Each mode plane's 2 x 2 Gram z_i z_i^T, z_i its rows i and n - rank + i: (rank, 2, 2)."""
    planes = np.stack([z[:rank], z[len(z) - rank :]], axis=1)
    return planes @ planes.transpose(0, 2, 1)


class TestReducePlanes:
    @staticmethod
    def check(S, d):
        """The reduction keeps every plane's Gram and every harmonic norm, in a triangle per plane."""
        z = project(S, d)
        z2 = reduce_planes(z, d.rank)
        n, r, T = d.dim, d.rank, S.shape[1]
        assert z2.shape == (n, min(T, 2))
        gram, gram2 = _plane_grams(z, r), _plane_grams(z2, r)
        assert np.all(np.abs(gram2 - gram).max(axis=(1, 2)) <= 1e-12 * np.trace(gram, axis1=1, axis2=2))
        assert not np.any(z2[:r, 1:]) and not np.any(z2[r : n - r, 1:])  # R_i is upper triangular
        assert_allclose(z2[r : n - r, 0], np.linalg.norm(z[r : n - r], axis=1), rtol=1e-14, atol=0)
        return z2

    @pytest.mark.parametrize("num_nodes, num_edges", [(40, 80), (160, 320)])
    def test_noiseless_classes(self, num_nodes, num_edges):
        # T = 600 signals on one support of 35 atoms leave most planes empty: their triangles are round-off.
        d = spectral_decompose(build_incidence(random_graph(num_nodes, num_edges, 21)))
        for signal_class in SIGNAL_CLASSES:
            S, _ = gen_signals(d, SignalClassSpec(signal_class, eta0=35, num_signals=600, seed=22))
            self.check(S, d)

    def test_gaussian_batch_on_a_disconnected_graph(self):
        d = spectral_decompose(build_incidence(OrientedGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))))
        assert d.xi0 == d.xi1 == 2
        self.check(np.random.default_rng(23).normal(size=(d.dim, 90)), d)

    @pytest.mark.parametrize("case", ["zero", "T=1", "rank-1", "harmonic", "T=n"])
    def test_degenerate_batches(self, case):
        d = spectral_decompose(build_incidence(random_graph(12, 24, 0)))
        rng = np.random.default_rng(25)
        S = {
            "zero": np.zeros((d.dim, 50)),
            "T=1": rng.normal(size=(d.dim, 1)),
            "rank-1": np.outer(rng.normal(size=d.dim), rng.normal(size=50)),
            "harmonic": np.vstack([d.u_harmonic @ rng.normal(size=(d.xi0, 50)),
                                   d.v_harmonic @ rng.normal(size=(d.xi1, 50))]),
            "T=n": rng.normal(size=(d.dim, d.dim)),
        }[case]
        z2 = self.check(S, d)
        planes = np.vstack([z2[: d.rank], z2[d.dim - d.rank :]])
        if case == "zero":
            assert not np.any(z2)
        if case == "harmonic":
            assert np.abs(planes).max() <= 1e-14 * np.abs(z2).max()
        if case == "rank-1":
            # One direction per plane: R_i[1, 1] is round-off.
            assert np.abs(z2[d.dim - d.rank :, 1]).max() <= 1e-14 * np.abs(z2).max()

    def test_unproject_inverts_project(self):
        d = spectral_decompose(build_incidence(random_graph(12, 24, 0)))
        S = np.random.default_rng(26).normal(size=(d.dim, 7))
        assert_allclose(unproject(project(S, d), d), S, rtol=0, atol=1e-13 * np.abs(S).max())


class TestRowEnergyCurveRejects:
    # Two mode planes and two harmonic rows: z has rows [u0, u1, h0, h1, v0, v1].
    PAIRS = np.repeat(np.eye(2)[None, None], 2, axis=1)

    def test_non_orthonormal(self, rng):
        with pytest.raises(ValueError, match="orthonormal"):
            plane_energies(rng.normal(size=(6, 3)), 2, self.PAIRS + 0.5)

    def test_orthogonal_but_not_unit(self, rng):
        pairs = np.concatenate([self.PAIRS, self.PAIRS])
        pairs[1, 0, 1] *= 1 + 1e-5
        with pytest.raises(ValueError, match=r"orthonormal \(max deviation 2\.000e-05\)"):
            plane_energies(rng.normal(size=(6, 3)), 2, pairs)

    def test_unit_but_not_orthogonal(self, rng):
        # Two unit atoms 1e-4 radians short of a right angle, in one plane of two.
        pairs = self.PAIRS.copy()
        pairs[0, 1, 1] = [-np.sin(1e-4), np.cos(1e-4)]
        with pytest.raises(ValueError, match=r"max deviation 1\.000e-04"):
            plane_energies(rng.normal(size=(6, 3)), 2, pairs)

    def test_deviation_within_the_tolerance_is_accepted(self, rng):
        z = rng.normal(size=(6, 3))
        for got, expected in zip(plane_energies(z, 2, self.PAIRS * (1 + 4e-7)), plane_energies(z, 2, self.PAIRS)):
            assert_allclose(got, expected, rtol=2e-6)

    def test_non_square(self, rng):
        z = rng.normal(size=(6, 3))
        for pairs in (self.PAIRS[..., :1], self.PAIRS[0], np.repeat(self.PAIRS, 3, axis=1), self.PAIRS[:0]):
            with pytest.raises(ValueError, match="shapes"):
                plane_energies(z, 2, pairs)
        with pytest.raises(ValueError, match="shapes"):
            plane_energies(z, 4, np.repeat(self.PAIRS, 2, axis=1))  # four planes need eight rows

    @pytest.mark.parametrize("rank", [2, 3])
    def test_shared_pairs_are_refused(self, rng, rank):
        # Pairs are per plane: one 2 x 2 shared by every plane is a shape mismatch once there are two planes.
        shared = np.stack([np.eye(2), np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)])[:, None]
        with pytest.raises(ValueError, match=r"shapes do not match: .*pairs \(2, 1, 2, 2\)"):
            plane_energies(rng.normal(size=(8, 3)), rank, shared)
        with pytest.raises(ValueError, match="shapes"):
            plane_pursuit_curves(rng.normal(size=(8, 3)), rank, [shared], [2])
        planes, harmonic = plane_energies(rng.normal(size=(8, 3)), 1, shared)  # one plane: per-plane pairs
        assert planes.shape == (2, 2, 1) and harmonic.shape == (6,)

    @pytest.mark.parametrize("level", [0, 7, 2.7, True])
    def test_level_out_of_range(self, rng, level):
        with pytest.raises(ValueError, match="levels"):
            plane_pursuit_curves(rng.normal(size=(6, 3)), 2, [self.PAIRS], [3, level])



def sorted_gain_curves(gains, levels):
    """The sweep's former ranking: all but the L largest gains, summed as a cumulative sum of the sorted gains."""
    smallest = np.concatenate([np.zeros((*gains.shape[:-1], 1)), np.cumsum(np.sort(gains, axis=-1), axis=-1)], axis=-1)
    return smallest[..., gains.shape[-1] - np.array(levels)]


def prefix_suffix_curves(noisy, error, clean, levels):
    """Denoise's former ranking: a stable sort of the noisy energies, then a prefix sum of the kept rows' error
    energy plus a suffix sum of the dropped rows' clean energy."""
    order = np.argsort(-noisy, axis=-1, kind="stable")
    zero = np.zeros((*order.shape[:-1], 1))
    kept = np.cumsum(np.concatenate([zero, np.take_along_axis(error, order, -1)], -1), -1)
    dropped = np.cumsum(np.concatenate([zero, np.take_along_axis(clean, order, -1)[..., ::-1]], -1), -1)[..., ::-1]
    return kept[..., levels] + dropped[..., levels]


def test_truncation_keeps_the_lower_of_tied_rows():
    # Rows 1 and 2 tie at the top.  Keeping row 1 at level 1 leaves 20 + (1 + 3 + 4); keeping row 2 would leave 37.
    rank_by, kept, dropped = np.array([1.0, 3.0, 3.0, 2.0]), np.array([10.0, 20.0, 30.0, 40.0]), np.arange(1.0, 5.0)
    assert truncation_curves(rank_by, kept, dropped, [1, 2, 3, 4]).tolist() == [28.0, 55.0, 91.0, 100.0]
    # Every row tied, along a leading axis: level b keeps the first b rows of each.
    kept, dropped = np.stack([kept, -kept]), np.stack([dropped, 2 * dropped])
    expected = [[kept[i, :b].sum() + dropped[i, b:].sum() for b in range(1, 5)] for i in range(2)]
    assert truncation_curves(np.ones((2, 4)), kept, dropped, range(1, 5)).tolist() == expected


@pytest.mark.parametrize("n", [1, 2, 7, 63])
@pytest.mark.parametrize("seed", range(4))
def test_truncation_matches_the_two_formulations_it_replaces_bit_for_bit(seed, n):
    # Random energies over (fits x methods x rows), with forced ties: a few rounded values, and copied rows.
    rng = np.random.default_rng(seed)

    def energies():
        values = rng.exponential(size=(5, 3, n)) * 10.0 ** rng.integers(-8, 3, size=(5, 3, 1))
        values[..., ::3] = np.round(values[..., ::3], 1)
        values[..., n // 2 :: 4] = values[..., :1]
        return values

    gains, noisy, error, clean = energies(), energies(), energies(), energies()
    levels = [1, n, *rng.integers(1, n + 1, size=5).tolist()]
    assert np.array_equal(truncation_curves(gains, 0.0, gains, levels), sorted_gain_curves(gains, levels))
    expected = prefix_suffix_curves(noisy, error, clean, levels)
    assert np.array_equal(truncation_curves(noisy, error, clean, levels), expected)

@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=8),
    num_signals=st.integers(min_value=1, max_value=4),
    flip=st.booleans(),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_row_energy_curve_never_rises_and_does_not_depend_on_ties(seed, n, num_signals, flip, data):
    rng = np.random.default_rng(seed)
    r = data.draw(st.integers(0, n // 2))
    levels = list(range(1, n + 1))
    z = rng.normal(size=(n, num_signals))
    for method, pairs in _plane_bases(_random_coupling(rng, r)).items():
        residual = plane_pursuit_curves(z, r, [pairs], levels)[0]
        assert np.all(residual >= 0) and np.all(residual[1:] <= residual[:-1]), method
        assert residual[-1] == 0.0, method  # every atom in: the pairs span every plane
        history = np.asarray(omp(_plane_coordinate_dictionary(n, r, pairs), z, n).residual_history)
        assert_allclose(residual, history**2, rtol=0, atol=1e-12 * np.sum(z**2), err_msg=method)
    # Two rows of equal energy above every other row.  With the Laplacian atoms, and the
    # learned ones at k = 0, a row's energy is computed exactly, so the tie is exact; either
    # pick leaves the same residuals, so swapping the tied rows changes no bit of the curve.
    rows = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    S = rng.uniform(-0.5, 0.5, size=(n, num_signals))
    tied = rng.uniform(1, 10, size=num_signals)
    S[rows[0]] = -tied if flip else tied
    S[rows[1]] = tied
    swapped = S.copy()
    swapped[rows] = S[rows[::-1]]
    for method in ("laplacian", "ddtl"):
        pairs = _plane_bases(np.zeros(r))[method]
        residual = plane_pursuit_curves(S, r, [pairs], levels)[0]
        assert np.array_equal(plane_pursuit_curves(swapped, r, [pairs], levels)[0], residual), method
        energy = np.sum(S**2)
        assert residual[0] == pytest.approx(energy - np.sum(tied**2), rel=1e-12), method
        assert residual[1] == pytest.approx(energy - 2 * np.sum(tied**2), rel=1e-12, abs=1e-12 * energy), method


def _oracle_cases():
    rng = np.random.default_rng(77)
    d = spectral_decompose(build_incidence(random_graph(10, 18, 5)))
    for i, signal_class in enumerate(SIGNAL_CLASSES):
        S, _ = gen_signals(d, SignalClassSpec(signal_class, eta0=6, num_signals=40, seed=60 + i))
        yield f"{signal_class}-noiseless", d, S
        yield f"{signal_class}-10dB", d, add_awgn(S, 10.0, 70 + i)
    yield "gaussian", d, rng.normal(size=(d.dim, 6))
    yield "gaussian-wide", d, rng.normal(size=(d.dim, 60))
    yield "single-signal", d, rng.normal(size=(d.dim, 1))
    graphs = {name: g for name, (g, *_) in STRUCTURED_GRAPHS.items()}
    graphs["two_components"] = TWO_COMPONENTS
    for name, g in graphs.items():
        dg = spectral_decompose(build_incidence(g))
        yield name, dg, rng.normal(size=(dg.dim, 9))


ORACLE_CASES = [pytest.param(d, S, id=name) for name, d, S in _oracle_cases()]


def _shared_coupling(kind, r, seed):
    """k drawn in the box [-1, 1], or at its edges and centre {-1, 0, 1}, where Dirac or Laplacian atoms recur."""
    rng = np.random.default_rng(seed)
    return _random_coupling(rng, r) if kind == "random-k" else rng.choice([-1.0, 0.0, 1.0], size=r)


@pytest.mark.parametrize("d, signals", ORACLE_CASES)
@pytest.mark.parametrize("kind", ["random-k", "box-k"])
def test_plane_pursuit_curve_matches_dense_omp_at_every_level(d, signals, kind):
    n, energy = d.dim, np.linalg.norm(signals) ** 2
    dense, planes = _sweep_dictionaries_at(d, _shared_coupling(kind, d.rank, n))
    for method in SWEEP_METHODS:
        residual = plane_pursuit_curves(project(signals, d), d.rank, [planes[method]], range(1, n + 1))[0]
        history = np.asarray(omp(dense[method], signals, n).residual_history)
        assert_allclose(residual / energy, history**2 / energy, rtol=0, atol=1e-12, err_msg=method)


@pytest.mark.parametrize("d, signals", ORACLE_CASES)
@pytest.mark.parametrize("reduced", [False, True], ids=["projected", "reduced"])
def test_one_rotation_gives_each_dictionary_its_own_curve_bit_for_bit(d, signals, reduced):
    # The sweep's four dictionaries (shared Dirac and Laplacian pairs, per-plane learned ones, and the frame's two
    # bases) rotated at once: every curve equals a call on its dictionary alone, to the last bit.
    n, r = d.dim, d.rank
    z = reduce_planes(project(signals, d), d.rank) if reduced else project(signals, d)
    planes, levels = _plane_bases(_random_coupling(np.random.default_rng(n), r)), range(1, n + 1)
    curves = plane_pursuit_curves(z, r, list(planes.values()), levels)
    assert curves.shape == (len(planes), n)
    for curve, pairs in zip(curves, planes.values()):
        assert np.array_equal(curve, plane_pursuit_curves(z, r, [pairs], levels)[0])


@pytest.mark.parametrize("d, signals", ORACLE_CASES)
def test_curve_does_not_depend_on_the_order_of_bases_or_planes(d, signals):
    # The frame's bases swapped (its ties then go to the Laplacian atom), or the mode planes
    # listed in reverse: the same gains, so the same residuals.
    n, r = d.dim, d.rank
    z, levels, energy = project(signals, d), range(1, n + 1), np.linalg.norm(signals) ** 2
    planes = _plane_bases(_random_coupling(np.random.default_rng(n), r))
    frame, swapped = plane_pursuit_curves(z, r, [planes["frame"], planes["frame"][::-1]], levels)
    assert_allclose(swapped, frame, rtol=0, atol=1e-15 * energy)
    reverse = np.concatenate([np.arange(r)[::-1], np.arange(r, n - r), np.arange(n - r, n)[::-1]])
    for method, pairs in planes.items():
        residual = plane_pursuit_curves(z, r, [pairs], levels)[0]
        reversed_curve = plane_pursuit_curves(z[reverse], r, [pairs[:, ::-1]], levels)[0]
        assert_allclose(reversed_curve, residual, rtol=0, atol=1e-15 * energy, err_msg=method)


class TestNmse:
    def test_perfect(self, rng):
        S = rng.normal(size=(4, 3))
        assert nmse(S, S) == 0.0

    def test_zero_estimate(self, rng):
        S = rng.normal(size=(4, 3))
        assert nmse(S, np.zeros_like(S)) == pytest.approx(1.0)

    def test_unit_column_example(self):
        assert nmse(np.array([[1.0], [0.0]]), np.zeros((2, 1))) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.zeros((2, 2)), np.ones((2, 2)))


class TestRowHardThreshold:
    def test_keeps_top_rows(self):
        M = np.diag([3.0, 1.0, 2.0])
        out = row_hard_threshold(M, 2)
        assert_allclose(out, np.diag([3.0, 0.0, 2.0]))

    def test_identity_at_full_size(self, rng):
        M = rng.normal(size=(5, 4))
        assert_allclose(row_hard_threshold(M, 5), M)

    def test_tie_prefers_lower_index(self):
        M = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        out = row_hard_threshold(M, 2)  # rows 0 and 1 tie at norm 1
        assert_allclose(out, [[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]])

    def test_eta0_out_of_range(self):
        with pytest.raises(ValueError):
            row_hard_threshold(np.ones((3, 2)), 4)

    def test_degenerate_flag(self):
        M = np.zeros((4, 2))
        M[0, 0] = 1.0
        with pytest.warns(DegenerateRetractionWarning):
            out = row_hard_threshold(M, 2)
        assert np.count_nonzero(np.linalg.norm(out, axis=1)) == 1

    def test_idempotent(self, rng):
        M = rng.normal(size=(7, 3))
        once = row_hard_threshold(M, 3)
        assert_allclose(row_hard_threshold(once, 3), once)

    @given(
        arrays(np.float64, (6, 3), elements=st.floats(-10, 10)),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60)
    def test_matches_brute_force_projection(self, M, eta0):
        expected = brute_force_row_projection(M, eta0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRetractionWarning)
            out = row_hard_threshold(M, eta0)
        # Equal projection distance always; equal matrices rules out wrong subsets.
        assert np.linalg.norm(M - out) ** 2 == pytest.approx(np.linalg.norm(M - expected) ** 2, abs=1e-12)

    def test_wide_matrix_keeps_the_first_rows_of_the_stable_order(self, rng):
        # On n x T coefficients, as a dense truncation calls it, the kept rows are copied exactly.
        M = rng.normal(size=(30, 200))
        M[[4, 9]] = 0.0
        norms = np.sqrt(np.add.reduce(M * M, axis=1))
        kept = np.argsort(-norms, kind="stable")[:12]
        expected = np.zeros_like(M)
        expected[kept] = M[kept]
        assert row_hard_threshold(M, 12).tobytes() == expected.tobytes()


class TestColumnNormalize:
    def test_example(self):
        out = column_normalize(np.array([[3.0], [4.0], [0.0]]))
        assert_allclose(out, [[0.6], [0.8], [0.0]])

    def test_already_normalized(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert_allclose(column_normalize(q), q)

    def test_zero_column_becomes_basis_vector(self):
        M = np.zeros((3, 3))
        M[:, 0] = [1.0, 2.0, 2.0]
        with pytest.warns(DegenerateRetractionWarning):
            out = column_normalize(M)
        assert_allclose(out[:, 1], [0.0, 1.0, 0.0])
        assert_allclose(out[:, 2], [0.0, 0.0, 1.0])

    def test_idempotent(self, rng):
        M = rng.normal(size=(6, 4))
        once = column_normalize(M)
        assert_allclose(column_normalize(once), once, atol=1e-15)
