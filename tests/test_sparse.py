import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from conftest import STRUCTURED_GRAPHS
from topospinor.experiments import SWEEP_METHODS, _plane_dictionaries, sweep_dictionaries
from topospinor.frames import build_frame
from topospinor.sparse import (
    DegenerateRetractionWarning,
    column_normalize,
    nmse,
    omp,
    plane_pursuit_curve,
    row_hard_threshold,
    square_factor,
)
from topospinor.synth import SIGNAL_CLASSES, SignalClassSpec, add_awgn, gen_signals, random_graph
from topospinor.topology import (
    OrientedGraph,
    build_incidence,
    dirac_eigenbasis,
    project,
    spectral_decompose,
    super_laplacian_eigenbasis,
)
from topospinor.transform import CouplingVector, build_mass_basis


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
    # More signals than rows: the pursuit runs on the triangular factor of the batch.
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
    # orthogonal W: with T > n both runs go through the triangular factor of
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
    """The four sweep dictionaries at coupling k: dense (the oracle's input) and per mode plane."""
    dense = sweep_dictionaries(d, SimpleNamespace(basis=build_mass_basis(d, k)))
    return dense, _plane_dictionaries(d, k)


def _random_coupling(rng, r, parallel=False):
    """Couplings in the box; with ``parallel``, plane 0 at k- = 1, k+ = -1 and plane 1 at k- = -1, k+ = 1."""
    k_minus, k_plus = rng.uniform(-1, 1, r), rng.uniform(-1, 1, r)
    if parallel:
        k_minus[:2], k_plus[:2] = [1.0, -1.0][:r], [-1.0, 1.0][:r]
    return CouplingVector(k_minus, k_plus)


def _plane_coordinate_dictionary(n, r, atoms, atom_index, harmonic_index):
    """The dense dictionary of a per-plane description when Q = I: plane i is coordinates i and n - r + i."""
    atoms = np.broadcast_to(atoms, (len(atoms), r, 2))
    D = np.zeros((n, atom_index.size + len(harmonic_index)))
    for a in range(len(atoms)):
        D[np.arange(r), atom_index[a]] = atoms[a, :, 0]
        D[n - r + np.arange(r), atom_index[a]] = atoms[a, :, 1]
    D[r + np.arange(n - 2 * r), harmonic_index] = 1.0
    return D


@pytest.mark.parametrize("name", ["star_k14", "complete_k5", "two_components"])
def test_plane_dictionaries_name_the_dense_columns(name):
    # Every described atom is its dense column, and a harmonic row names its lowest copy.
    g = TWO_COMPONENTS if name == "two_components" else STRUCTURED_GRAPHS[name][0]
    d = spectral_decompose(build_incidence(g))
    n, r = d.dim, d.rank
    q = np.zeros((n, n))  # the columns of Q, in the row order of project
    q[: d.num_nodes, : r + d.xi0] = np.hstack([d.u, d.u_harmonic])
    q[d.num_nodes :, r + d.xi0 :] = np.hstack([d.v_harmonic, d.v])
    dense, planes = _sweep_dictionaries_at(d, _random_coupling(np.random.default_rng(3), r, parallel=True))
    for method, (atoms, atom_index, harmonic_index) in planes.items():
        atoms = np.broadcast_to(atoms, (len(atoms), r, 2))
        for a in range(len(atoms)):
            expected = q[:, :r] * atoms[a, :, 0] + q[:, n - r :] * atoms[a, :, 1]
            assert_allclose(dense[method][:, atom_index[a]], expected, rtol=0, atol=1e-15, err_msg=method)
        for h, column in enumerate(harmonic_index):
            copies = np.flatnonzero(np.all(dense[method] == q[:, [r + h]], axis=0))
            assert column == copies[0] and len(copies) == (2 if method == "frame" else 1), method
        described = set(atom_index.ravel()) | set(harmonic_index)
        copies_left_out = len(harmonic_index) if method == "frame" else 0
        assert len(described) + copies_left_out == dense[method].shape[1], method


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
    # The per-plane curve against the dense pursuit: same picks until a tie or round-off, same residuals.
    n = d.dim
    dense, planes = _sweep_dictionaries_at(d, k)
    support, residual = plane_pursuit_curve(project(signals, d), d.rank, *planes[method], range(1, n + 1))
    code = omp(dense[method], signals, n)
    ambiguous = lstsq_pursuit(dense[method], signals, n)[4]
    differs = [j for j, (a, b) in enumerate(zip(support, code.support)) if a != b]
    if differs:
        assert ambiguous[differs[0]], f"supports part at step {differs[0]} without a tie or round-off residual"
    energy = np.linalg.norm(signals) ** 2
    history = np.asarray(code.residual_history)
    assert_allclose(residual / energy, history**2 / energy, rtol=0, atol=1e-12)


def test_row_energy_curve_keeps_exact_residuals_at_round_off():
    # Summing sums of squares of rotated rows keeps about 1e-30; ||S||^2 minus the
    # captured energy, or a plane's energy minus s1, would leave a cancellation error near +-1e-16, or 0.
    d = spectral_decompose(build_incidence(random_graph(40, 80, 11)))
    S, _ = gen_signals(d, SignalClassSpec("fully_coupled", eta0=35, num_signals=600, seed=12))
    energy = np.linalg.norm(S) ** 2
    planes = _plane_dictionaries(d, CouplingVector(np.ones(d.rank), np.ones(d.rank)))
    for batch in (S, square_factor(S)):
        for method in ("dirac", "frame", "ddtl"):
            _, residual = plane_pursuit_curve(project(batch, d), d.rank, *planes[method], [34, 35])
            assert residual[0] > 1e-6 * energy, method
            assert 0.0 < residual[1] <= 1e-28 * energy, method


class TestRowEnergyCurveRejects:
    # Two mode planes and two harmonic rows: z has rows [u0, u1, h0, h1, v0, v1].
    ATOMS = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    INDEX = np.array([[2, 3], [4, 5]])
    HARMONIC = np.array([0, 1])

    def test_non_orthonormal(self, rng):
        with pytest.raises(ValueError, match="unit norm"):
            plane_pursuit_curve(rng.normal(size=(6, 3)), 2, self.ATOMS + 0.5, self.INDEX, self.HARMONIC, [2])

    def test_orthogonal_but_not_unit(self, rng):
        atoms = self.ATOMS.copy()
        atoms[1] *= 1 + 1e-5
        with pytest.raises(ValueError, match="unit norm"):
            plane_pursuit_curve(rng.normal(size=(6, 3)), 2, atoms, self.INDEX, self.HARMONIC, [2])

    def test_non_square(self, rng):
        with pytest.raises(ValueError, match="shapes"):
            plane_pursuit_curve(rng.normal(size=(7, 3)), 2, self.ATOMS, self.INDEX, self.HARMONIC, [2])
        with pytest.raises(ValueError, match="shapes"):
            plane_pursuit_curve(rng.normal(size=(6, 3)), 2, self.ATOMS, self.INDEX[:, :1], self.HARMONIC, [2])

    @pytest.mark.parametrize("level", [0, 7])
    def test_level_out_of_range(self, rng, level):
        with pytest.raises(ValueError, match="levels"):
            plane_pursuit_curve(rng.normal(size=(6, 3)), 2, self.ATOMS, self.INDEX, self.HARMONIC, [3, level])


def _layout(n, r, xi0):
    """The sizes that ``_plane_dictionaries`` reads from a decomposition."""
    return SimpleNamespace(rank=r, xi0=xi0, xi1=n - 2 * r - xi0, dim=n)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=8),
    num_signals=st.integers(min_value=1, max_value=4),
    flip=st.booleans(),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_row_energy_curve_never_rises_and_ties_select_the_lower_index(seed, n, num_signals, flip, data):
    rng = np.random.default_rng(seed)
    r = data.draw(st.integers(0, n // 2))
    xi0 = data.draw(st.integers(0, n - 2 * r))
    parallel = data.draw(st.booleans())
    layout, levels = _layout(n, r, xi0), list(range(1, n + 1))
    z = rng.normal(size=(n, num_signals))
    for method, planes in _plane_dictionaries(layout, _random_coupling(rng, r, parallel)).items():
        support, residual = plane_pursuit_curve(z, r, *planes, levels)
        assert len(set(support)) == n, method
        if method != "frame":  # the square dictionaries: every atom, once
            assert sorted(support) == list(range(n)), method
        assert np.all(residual >= 0) and np.all(residual[1:] <= residual[:-1]), method
        # Only parallel atoms leave a residual once every atom is in.
        assert (residual[-1] > 0) == (method == "ddtl" and parallel and r > 0), method
    # Two rows of equal energy above every other row.  With the Laplacian atoms, and the
    # learned ones at k = 0, a row's energy is computed exactly, so the tie is exact.
    rows = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    S = rng.uniform(-0.5, 0.5, size=(n, num_signals))
    tied = rng.uniform(1, 10, size=num_signals)
    S[rows[0]] = -tied if flip else tied
    S[rows[1]] = tied
    zero = CouplingVector(np.zeros(r), np.zeros(r))
    for method in ("laplacian", "ddtl"):
        planes = _plane_dictionaries(layout, zero)[method]
        dense = _plane_coordinate_dictionary(n, r, *planes)
        column = {int(np.flatnonzero(np.abs(dense[row]) == 1.0)[0]) for row in rows}
        support, _ = plane_pursuit_curve(S, r, *planes, [1, 2])
        assert support == tuple(sorted(column)), method


def test_second_event_that_outscores_the_first_follows_it_at_once():
    # Plane 0 holds the learned atoms at k- = -1, k+ = 0: minus (-1, -1)/sqrt(2) and plus (1, 0).
    # Its data (-1, 2) give s1 = 1 (plus) and rem = 4 along (0, 1), where minus scores 2 > s1.
    # A harmonic row of energy 0.81 and plane 1, of energy 0.25, compete with both events.
    layout = _layout(5, 2, 1)
    planes = _plane_dictionaries(layout, CouplingVector([-1.0, 0.3], [0.0, 0.3]))["ddtl"]
    z = np.array([-1.0, 0.3, 0.9, 2.0, 0.4])  # rows [u0, u1, h0, v0, v1]
    support, residual = plane_pursuit_curve(z, 2, *planes, range(1, 6))
    code = omp(_plane_coordinate_dictionary(5, 2, *planes), z, 5)
    assert support[:3] == code.support[:3] == (3, 0, 2)  # plus 0, minus 0, the harmonic row
    assert_allclose(residual[:3], [5.06, 1.06, 0.25], rtol=1e-14)
    assert_allclose(residual, np.asarray(code.residual_history) ** 2, rtol=0, atol=1e-14)


@pytest.mark.parametrize("k_minus, k_plus", [(1.0, -1.0), (-1.0, 1.0)])
def test_parallel_atoms_leave_their_plane_s_remainder(k_minus, k_plus):
    # Both learned atoms of plane 0 lie on one line, so OMP's rank rule keeps the part of the
    # plane off that line in every residual, after the second atom of the plane too.
    layout = _layout(5, 2, 1)
    planes = _plane_dictionaries(layout, CouplingVector([k_minus, 0.4], [k_plus, -0.2]))["ddtl"]
    z = np.array([[1.0, -0.5], [0.2, 0.1], [0.3, -0.7], [0.6, 0.8], [-0.4, 0.2]])
    support, residual = plane_pursuit_curve(z, 2, *planes, range(1, 6))
    code = omp(_plane_coordinate_dictionary(5, 2, *planes), z, 5)
    assert code.ridge_regularized and sorted(support) == sorted(code.support) == list(range(5))
    line = np.array([k_minus, -1.0]) / np.sqrt(2.0)  # the minus atom
    off_line = np.array([line[1], -line[0]])
    remainder = np.sum((off_line[0] * z[0] + off_line[1] * z[3]) ** 2)
    assert residual[-1] == pytest.approx(remainder, rel=1e-14) and remainder > 0.1
    assert_allclose(residual, np.asarray(code.residual_history) ** 2, rtol=0, atol=1e-14)


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


@pytest.mark.parametrize("d, signals", [pytest.param(d, S, id=name) for name, d, S in _oracle_cases()])
@pytest.mark.parametrize("parallel", [False, True], ids=["random-k", "parallel-k"])
def test_plane_pursuit_curve_matches_dense_omp_at_every_level(d, signals, parallel):
    n, energy = d.dim, np.linalg.norm(signals) ** 2
    k = _random_coupling(np.random.default_rng(n), d.rank, parallel)
    dense, planes = _sweep_dictionaries_at(d, k)
    for method in SWEEP_METHODS:
        _, residual = plane_pursuit_curve(project(signals, d), d.rank, *planes[method], range(1, n + 1))
        history = np.asarray(omp(dense[method], signals, n).residual_history)
        assert_allclose(residual / energy, history**2 / energy, rtol=0, atol=1e-12, err_msg=method)


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
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRetractionWarning)
            out = row_hard_threshold(M, eta0)
        # Equal projection distance always; equal matrices rules out wrong subsets.
        assert np.linalg.norm(M - out) ** 2 == pytest.approx(np.linalg.norm(M - expected) ** 2, abs=1e-12)


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
