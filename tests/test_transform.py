import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from topospinor.planes import coupling_to_mass, mass_to_coupling
from topospinor.topology import (
    build_incidence,
    dirac_eigenbasis,
    spectral_decompose,
    super_laplacian_eigenbasis,
)
from topospinor.transform import build_mass_basis, unnormalized_basis_matrix

from conftest import connected_graphs, nonharmonic_column_indices, shared_basis

SQRT3 = np.sqrt(3.0)


class TestMassCouplingConversion:
    def test_zero_mass_gives_unit_coupling(self):
        for lam in (0.3, 1.0, SQRT3, 11.0):
            assert mass_to_coupling(lam, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_huge_mass_kills_coupling(self):
        assert mass_to_coupling(1.0, 1e12) < 1e-11

    def test_reference_point(self):
        # sqrt(lam^2 + m^2) = 2 at (sqrt(3), 1), so k = sqrt(3)/3.
        assert mass_to_coupling(SQRT3, 1.0) == pytest.approx(SQRT3 / 3.0, abs=1e-14)

    def test_unit_coupling_gives_zero_mass(self):
        assert coupling_to_mass(2.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_inverse_reference_point(self):
        assert coupling_to_mass(SQRT3, SQRT3 / 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mass_to_coupling(0.0, 1.0)
        with pytest.raises(ValueError):
            mass_to_coupling(1.0, -0.5)
        with pytest.raises(ValueError):
            coupling_to_mass(1.0, 0.0)
        with pytest.raises(ValueError):
            coupling_to_mass(1.0, 1.5)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e3),
    )
    @settings(max_examples=100)
    def test_round_trip(self, lam, m):
        k = mass_to_coupling(lam, m)
        m_back = coupling_to_mass(lam, k)
        assert abs(m_back - m) <= 1e-12 * max(1.0, m)

    @given(st.floats(min_value=1e-2, max_value=1e2))
    def test_strictly_decreasing_in_mass(self, lam):
        masses = np.linspace(0.0, 50.0, 200)
        ks = mass_to_coupling(lam, masses)
        assert np.all(np.diff(ks) < 0)
        assert ks[0] == pytest.approx(1.0, abs=1e-15)


def decomposition_for(graph):
    return spectral_decompose(build_incidence(graph))


class TestMassBasisLimits:
    def test_unit_coupling_matches_dirac(self, p3):
        d = decomposition_for(p3)
        basis = shared_basis(d, 1.0)
        phi, _ = dirac_eigenbasis(d)
        cols = nonharmonic_column_indices(d)
        # Non-harmonic columns occupy identical index positions in both layouts.
        assert np.max(np.abs(basis[:, cols] - phi[:, cols])) < 1e-12

    def test_zero_coupling_matches_laplacian_up_to_sign(self, p3):
        d = decomposition_for(p3)
        basis = shared_basis(d, 0.0)
        r = d.rank
        theta, _ = super_laplacian_eigenbasis(d)
        # Minus columns are (0; -v); plus columns are (u; 0).
        edge_modes = theta[:, d.xi0 + d.xi1 + r :]
        node_modes = theta[:, d.xi0 + d.xi1 : d.xi0 + d.xi1 + r]
        assert np.max(np.abs(basis[:, :r] + edge_modes)) < 1e-12
        plus0 = r + d.xi0 + d.xi1
        assert np.max(np.abs(basis[:, plus0:] - node_modes)) < 1e-12

    @given(connected_graphs())
    @settings(max_examples=25)
    def test_limit_subspace_projectors(self, g):
        d = decomposition_for(g)
        phi, _ = dirac_eigenbasis(d)
        theta, _ = super_laplacian_eigenbasis(d)
        for value, reference in ((1.0, phi), (0.0, theta)):
            basis = shared_basis(d, value)
            # Column-by-column projector comparison avoids sign/order choices.
            proj_basis = [np.outer(c, c) for c in basis.T]
            matched = 0
            for pb in proj_basis:
                matched += any(np.max(np.abs(pb - np.outer(c, c))) < 1e-8 for c in reference.T)
            assert matched == g.dim

    @given(connected_graphs())
    @settings(max_examples=25)
    def test_harmonic_columns_invariant(self, g):
        d = decomposition_for(g)
        rand = np.random.default_rng(0)
        harm = slice(d.rank, d.rank + d.xi0 + d.xi1)
        reference = None
        for _ in range(3):
            k = rand.uniform(-1.0, 1.0, size=d.rank)
            basis = build_mass_basis(d, k, rand.uniform(-1, 1, d.rank))
            block = basis[:, harm]
            if reference is None:
                reference = block
            assert_allclose(block, reference, atol=0)


class TestMassBasisStructure:
    def test_shared_coupling_is_orthonormal(self, p3):
        d = decomposition_for(p3)
        basis = shared_basis(d, 0.5)
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(p3.dim))) < 1e-10

    @given(connected_graphs())
    @settings(max_examples=25)
    def test_gram_is_pairwise_block(self, g):
        d = decomposition_for(g)
        rand = np.random.default_rng(7)
        km = rand.uniform(-1, 1, d.rank)
        kp = rand.uniform(-1, 1, d.rank)
        basis = build_mass_basis(d, km, kp)
        gram = basis.T @ basis
        r, xi = d.rank, d.xi0 + d.xi1
        off = gram - np.eye(g.dim)
        for i in range(r):
            off[i, r + xi + i] = 0.0
            off[r + xi + i, i] = 0.0
        # Everything outside the per-pair couplings and the unit diagonal vanishes.
        assert np.max(np.abs(off)) < 1e-12

    def test_pair_gram_entry_value(self, p3):
        d = decomposition_for(p3)
        km = np.array([0.0, 0.5])
        kp = np.array([1.0, 0.5])
        basis = build_mass_basis(d, km, kp)
        gram = basis.T @ basis
        r, xi = d.rank, d.xi0 + d.xi1
        zeta_m = 1.0 / np.sqrt(1.0 + km[0] ** 2)
        zeta_p = 1.0 / np.sqrt(1.0 + kp[0] ** 2)
        expected = zeta_m * zeta_p * (km[0] - kp[0])
        assert gram[0, r + xi] == pytest.approx(expected, abs=1e-12)
        assert abs(expected) > 0.1

    def test_length_mismatch(self, p3):
        d = decomposition_for(p3)
        k = np.full(d.rank + 1, 0.5)
        with pytest.raises(ValueError, match=r"\(3,\) and \(3,\) .* rank 2"):
            build_mass_basis(d, k, k)

    def test_unnormalized_columns(self, p3):
        d = decomposition_for(p3)
        ones = np.ones(d.rank)
        cols = np.linalg.norm(unnormalized_basis_matrix(d, ones, ones), axis=0)
        expected = np.ones(p3.dim)
        expected[:d.rank] = np.sqrt(2.0)
        expected[d.rank + d.xi0 + d.xi1 :] = np.sqrt(2.0)
        assert_allclose(cols, expected, atol=1e-12)

    def test_affine_column_decomposition(self, triangle):
        # Branch columns decompose as (fixed offset) + k * (fixed direction):
        # minus column i is (0; -v_i) + k (u_i; 0), plus column i is
        # (u_i; 0) + k (0; v_i), and the 2r directions are orthonormal.
        d = decomposition_for(triangle)
        V, r = d.num_nodes, d.rank
        rng = np.random.default_rng(2)
        km = rng.uniform(-1, 1, r)
        kp = rng.uniform(-1, 1, r)
        psi = unnormalized_basis_matrix(d, km, kp)
        offset = unnormalized_basis_matrix(d, np.zeros(r), np.zeros(r))
        slope = unnormalized_basis_matrix(d, np.ones(r), np.ones(r)) - offset
        assert_allclose(psi[:, :r], offset[:, :r] + slope[:, :r] * km, atol=1e-14)
        plus0 = r + d.xi0 + d.xi1
        assert_allclose(psi[:, plus0:], offset[:, plus0:] + slope[:, plus0:] * kp, atol=1e-14)
        assert_allclose(offset[:V, :r], 0.0)
        assert_allclose(offset[V:, :r], -d.v)
        assert_allclose(offset[:V, plus0:], d.u)
        assert_allclose(offset[V:, plus0:], 0.0)
        directions = np.hstack([slope[:, :r], slope[:, plus0:]])
        expected = np.zeros_like(directions)
        expected[:V, :r] = d.u
        expected[V:, r:] = d.v
        assert_allclose(directions, expected, atol=1e-14)
        assert_allclose(directions.T @ directions, np.eye(2 * r), atol=1e-12)


class TestTransforms:
    def test_shared_coupling_round_trip(self, p3, rng):
        # Analysis by the transpose, then synthesis, gives back any batch.
        d = decomposition_for(p3)
        basis = shared_basis(d, 0.37)
        assert np.max(np.abs(basis.T @ basis - np.eye(p3.dim))) < 1e-12
        s = rng.normal(size=(p3.dim, 4))
        back = basis @ (basis.T @ s)
        assert np.max(np.abs(back - s)) / np.max(np.abs(s)) < 1e-10

    def test_harmonic_column_maps_to_unit_vector(self, triangle):
        d = decomposition_for(triangle)
        basis = shared_basis(d, 0.8)
        j = d.rank  # first harmonic column
        coeffs = basis.T @ basis[:, j]
        expected = np.zeros(triangle.dim)
        expected[j] = 1.0
        assert_allclose(coeffs, expected, atol=1e-12)

    def test_dimension_mismatch(self, p3):
        # Branches of unequal length are refused before any basis is built.
        d = decomposition_for(p3)
        with pytest.raises(ValueError, match=r"\(2,\) and \(3,\)"):
            build_mass_basis(d, np.full(d.rank, 0.5), np.full(d.rank + 1, 0.5))
