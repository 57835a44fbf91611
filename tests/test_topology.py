import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from topospinor.topology import (
    GraphError,
    OrientedGraph,
    build_incidence,
    decomposition_residuals,
    dirac_eigenbasis,
    dirac_operator,
    harmonic_columns,
    singular_values,
    spectral_decompose,
    super_laplacian,
    super_laplacian_eigenbasis,
)

from conftest import STRUCTURED_GRAPHS, connected_graphs, shared_basis

SQRT3 = np.sqrt(3.0)


def count_components(graph: OrientedGraph) -> int:
    """Union-find oracle for the number of connected components."""
    parent = list(range(graph.num_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for tail, head in graph.edges:
        ra, rb = find(tail), find(head)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(graph.num_nodes)})


class TestOrientedGraph:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match=r"edge 1 = \(2, 2\)") as exc:
            OrientedGraph(3, ((0, 1), (2, 2)))
        assert exc.value.edge == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="edge 0") as exc:
            OrientedGraph(2, ((0, 5),))
        assert exc.value.edge == 0

    def test_duplicate_undirected_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicates") as exc:
            OrientedGraph(3, ((0, 1), (1, 0)))
        assert exc.value.edge == 1

    def test_dim(self, triangle):
        assert triangle.dim == 6


class TestIncidence:
    def test_path(self, p3):
        assert_allclose(build_incidence(p3), [[-1, 0], [1, -1], [0, 1]])

    def test_single_edge(self):
        g = OrientedGraph(2, ((0, 1),))
        assert_allclose(build_incidence(g), [[-1], [1]])

    def test_triangle(self, triangle):
        B = build_incidence(triangle)
        assert_allclose(B[:, 0], [-1, 1, 0])
        assert_allclose(B[:, 1], [0, -1, 1])
        assert_allclose(B[:, 2], [1, 0, -1])

    @given(connected_graphs())
    def test_columns_sum_to_zero(self, g):
        B = build_incidence(g)
        assert_allclose(B.sum(axis=0), 0.0)
        assert np.all(np.isin(B, (-1.0, 0.0, 1.0)))


class TestGradientDivergence:
    def test_gradient_path(self, p3):
        assert_allclose(build_incidence(p3).T @ [1.0, 2.0, 3.0], [1.0, 1.0])

    def test_gradient_triangle(self, triangle):
        assert_allclose(build_incidence(triangle).T @ [1.0, 0.0, 0.0], [-1.0, 0.0, 1.0])

    @given(connected_graphs())
    def test_gradient_of_constant_is_zero(self, g):
        B = build_incidence(g)
        assert_allclose(B.T @ np.full(g.num_nodes, 3.7), 0.0, atol=1e-12)

    def test_divergence_path(self, p3):
        assert_allclose(build_incidence(p3) @ [1.0, 1.0], [-1.0, 0.0, 1.0])

    def test_divergence_cycle_flow(self, triangle):
        assert_allclose(build_incidence(triangle) @ [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])

    def test_divergence_single_edge(self):
        B = build_incidence(OrientedGraph(2, ((0, 1),)))
        assert_allclose(B @ [1.0], [-1.0, 1.0])

    def test_dimension_mismatch(self, p3):
        B = build_incidence(p3)
        with pytest.raises(ValueError):
            B.T @ np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            B @ np.array([1.0, 2.0, 3.0])


class TestLaplacians:
    def test_path_graph_laplacian(self, p3):
        B = build_incidence(p3)
        L0 = B @ B.T
        assert_allclose(L0, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_path_laplacian_eigenvalues(self, p3):
        # Oracle: dense eigensolve of the explicit 3x3 matrix.
        B = build_incidence(p3)
        evals = np.linalg.eigvalsh(B @ B.T)
        assert_allclose(np.sort(evals), [0.0, 1.0, 3.0], atol=1e-12)

    def test_triangle_edge_laplacian_eigenvalues(self, triangle):
        B = build_incidence(triangle)
        L1 = B.T @ B
        assert_allclose(np.diag(L1), 2.0)
        assert_allclose(np.sort(np.linalg.eigvalsh(L1)), [0.0, 3.0, 3.0], atol=1e-12)

    @given(connected_graphs())
    def test_laplacians_are_psd(self, g):
        B = build_incidence(g)
        assert np.min(np.linalg.eigvalsh(B @ B.T)) > -1e-10
        assert np.min(np.linalg.eigvalsh(B.T @ B)) > -1e-10


class TestSpectralDecompose:
    def test_path(self, p3):
        d = spectral_decompose(build_incidence(p3))
        assert_allclose(d.sigma, [SQRT3, 1.0], atol=1e-12)
        assert (d.xi0, d.xi1) == (1, 0)

    def test_triangle(self, triangle):
        d = spectral_decompose(build_incidence(triangle))
        assert_allclose(d.sigma, [SQRT3, SQRT3], atol=1e-12)
        assert (d.xi0, d.xi1) == (1, 1)

    def test_disconnected_components_match_union_find(self):
        # Two disjoint triangles: xi0 must equal the component count.
        edges = ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))
        g = OrientedGraph(6, edges)
        d = spectral_decompose(build_incidence(g))
        assert d.xi0 == count_components(g) == 2

    @given(connected_graphs())
    @settings(max_examples=40)
    def test_connected_graph_harmonics(self, g):
        d = spectral_decompose(build_incidence(g))
        assert d.xi0 == count_components(g) == 1
        assert d.xi1 == g.num_edges - g.num_nodes + 1
        assert d.rank + d.xi0 == g.num_nodes
        assert d.rank + d.xi1 == g.num_edges

    @given(connected_graphs())
    @settings(max_examples=40)
    def test_svd_identities(self, g):
        B = build_incidence(g)
        d = spectral_decompose(B)
        assert np.max(np.abs(B - d.u @ np.diag(d.sigma) @ d.v.T)) < 1e-10
        assert np.max(np.abs(B @ d.v - d.u * d.sigma)) < 1e-10
        assert np.max(np.abs(B.T @ d.u - d.v * d.sigma)) < 1e-10
        if d.xi0:
            assert np.max(np.abs(B.T @ d.u_harmonic)) < 1e-10
        if d.xi1:
            assert np.max(np.abs(B @ d.v_harmonic)) < 1e-10
        assert np.all(d.sigma > 1e-8 * np.linalg.norm(B, 2))

    def test_sign_convention_is_deterministic(self, p3):
        B = build_incidence(p3)
        d1, d2 = spectral_decompose(B), spectral_decompose(B)
        assert_allclose(d1.u, d2.u)
        for i in range(d1.rank):
            j = np.argmax(np.abs(d1.u[:, i]))
            assert d1.u[j, i] > 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            spectral_decompose(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
    def test_rank_cutoff_is_1e8_below_the_largest_singular_value(self, scale):
        # Any real matrix is accepted: singular values 1, 2e-8 and 5e-9 (times
        # the scale) straddle the fixed cutoff 1e-8 sigma_max.
        d = spectral_decompose(scale * np.diag([1.0, 2e-8, 5e-9]))
        assert d.rank == 2 and d.xi0 == d.xi1 == 1
        assert len(singular_values(scale * np.diag([1.0, 2e-8, 5e-9]))) == 2  # the same rule without vectors


@pytest.mark.parametrize("name", STRUCTURED_GRAPHS)
def test_structured_graph_decomposition(name):
    g, sigma, xi1 = STRUCTURED_GRAPHS[name]
    B = build_incidence(g)
    d = spectral_decompose(B)
    residuals = decomposition_residuals(d, B)
    assert max(residuals.values()) <= 1e-12, residuals
    assert d.xi0 == count_components(g)
    assert d.xi1 == xi1 == g.num_edges - g.num_nodes + d.xi0
    if sigma is not None:
        assert_allclose(d.sigma, sigma, atol=1e-12)
    assert_allclose(singular_values(B), d.sigma, rtol=1e-13)
    basis = shared_basis(d, 0.37)
    assert np.max(np.abs(basis.T @ basis - np.eye(g.dim))) <= 1e-12


class TestHarmonicColumns:
    def test_padding_and_order_in_each_basis(self):
        # Two disjoint triangles: two components (xi0 = 2) and two cycles (xi1 = 2).
        g = OrientedGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
        d = spectral_decompose(build_incidence(g))
        node_harm, edge_harm = harmonic_columns(d)
        assert node_harm.shape == (g.dim, 2) and edge_harm.shape == (g.dim, 2)
        assert np.array_equal(node_harm[:6], d.u_harmonic) and not np.any(node_harm[6:])
        assert np.array_equal(edge_harm[6:], d.v_harmonic) and not np.any(edge_harm[:6])
        r = d.rank
        phi, _ = dirac_eigenbasis(d)
        assert np.array_equal(phi[:, r : r + 4], np.hstack([edge_harm, node_harm]))
        theta, _ = super_laplacian_eigenbasis(d)
        assert np.array_equal(theta[:, :4], np.hstack([node_harm, edge_harm]))


class TestDiracEigenbasis:
    def test_path_eigenvalues(self, p3):
        d = spectral_decompose(build_incidence(p3))
        _, gamma = dirac_eigenbasis(d)
        assert_allclose(np.sort(gamma), [-SQRT3, -1.0, 0.0, 1.0, SQRT3], atol=1e-12)

    def test_triangle_eigenvalues(self, triangle):
        d = spectral_decompose(build_incidence(triangle))
        _, gamma = dirac_eigenbasis(d)
        assert_allclose(np.sort(gamma), [-SQRT3, -SQRT3, 0.0, 0.0, SQRT3, SQRT3], atol=1e-12)

    def test_matches_dense_eigensolve(self, p3):
        # Oracle: eigenvalues of the explicit 5x5 operator.
        B = build_incidence(p3)
        d = spectral_decompose(B)
        _, gamma = dirac_eigenbasis(d)
        assert_allclose(np.sort(gamma), np.sort(np.linalg.eigvalsh(dirac_operator(B))), atol=1e-10)

    @given(connected_graphs())
    @settings(max_examples=30)
    def test_orthonormal_and_reconstructs(self, g):
        B = build_incidence(g)
        d = spectral_decompose(B)
        phi, gamma = dirac_eigenbasis(d)
        n = g.dim
        assert np.max(np.abs(phi @ phi.T - np.eye(n))) < 1e-10
        assert np.max(np.abs(phi @ np.diag(gamma) @ phi.T - dirac_operator(B))) < 1e-10

    @given(connected_graphs())
    @settings(max_examples=30)
    def test_eigenvalue_pairing(self, g):
        d = spectral_decompose(build_incidence(g))
        _, gamma = dirac_eigenbasis(d)
        _, lam = super_laplacian_eigenbasis(d)
        nonzero = np.sort(gamma[np.abs(gamma) > 1e-10])
        assert_allclose(nonzero, -nonzero[::-1], atol=1e-10)  # symmetric about 0
        assert_allclose(np.sort(nonzero**2), np.sort(lam[lam > 1e-10]), atol=1e-10)


class TestSuperLaplacianEigenbasis:
    def test_path_eigenvalues(self, p3):
        d = spectral_decompose(build_incidence(p3))
        _, lam = super_laplacian_eigenbasis(d)
        assert_allclose(np.sort(lam), [0.0, 1.0, 1.0, 3.0, 3.0], atol=1e-12)

    @given(connected_graphs())
    @settings(max_examples=30)
    def test_block_support_structure(self, g):
        # Every column lives entirely on the node block or the edge block.
        d = spectral_decompose(build_incidence(g))
        theta, _ = super_laplacian_eigenbasis(d)
        V = g.num_nodes
        node_energy = np.linalg.norm(theta[:V], axis=0)
        edge_energy = np.linalg.norm(theta[V:], axis=0)
        assert np.all((node_energy < 1e-12) | (edge_energy < 1e-12))

    @given(connected_graphs())
    @settings(max_examples=30)
    def test_orthonormal_and_reconstructs(self, g):
        B = build_incidence(g)
        d = spectral_decompose(B)
        theta, lam = super_laplacian_eigenbasis(d)
        n = g.dim
        assert np.max(np.abs(theta @ theta.T - np.eye(n))) < 1e-10
        assert np.max(np.abs(theta @ np.diag(lam) @ theta.T - super_laplacian(B))) < 1e-10


@given(connected_graphs())
@settings(max_examples=40)
def test_dirac_squared_equals_super_laplacian(g):
    B = build_incidence(g)
    D = dirac_operator(B)
    assert np.max(np.abs(D @ D - super_laplacian(B))) < 1e-10
