import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose, assert_array_equal

from topospinor import topology
from topospinor.synth import random_graph
from topospinor.topology import (
    GraphError,
    OrientedGraph,
    build_incidence,
    decomposition_residuals,
    dirac_eigenbasis,
    harmonic_columns,
    laplacian_singular_values,
    spectral_decompose,
    super_laplacian_eigenbasis,
)

from conftest import PATH_CYCLE_GRID, STRUCTURED_GRAPHS, connected_graphs, shared_basis
from oracles import dirac_operator, fix_signs, super_laplacian

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
        assert_allclose(d.sigma, scale * np.array([1.0, 2e-8]), rtol=1e-15)  # the kept values, not only their count


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
    assert_allclose(laplacian_singular_values(g), d.sigma, rtol=1e-13)
    basis = shared_basis(d, 0.37)
    assert np.max(np.abs(basis.T @ basis - np.eye(g.dim))) <= 1e-12


LAPLACIAN_SIGMA_GRAPHS = {
    **{name: g for name, (g, *_) in STRUCTURED_GRAPHS.items()},
    **PATH_CYCLE_GRID,
    "random_tree_12": random_graph(12, 11, 5),
    "random_40_80": random_graph(40, 80, 0),
    "two_components": OrientedGraph(7, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (3, 5))),
    "isolated_node": OrientedGraph(5, ((0, 1), (1, 2), (2, 3), (3, 0))),
    "single_node": OrientedGraph(1, ()),
}


@pytest.mark.parametrize("name", LAPLACIAN_SIGMA_GRAPHS)
def test_laplacian_singular_values_are_the_incidence_svd_at_rank_v_minus_c(name):
    # sqrt(eigvalsh(D - A)) against the SVD of the incidence, with the rank V - c from the components, not from a
    # cutoff; the SVD's remaining values are the zero ones.
    g = LAPLACIAN_SIGMA_GRAPHS[name]
    sigma, svd = laplacian_singular_values(g), np.linalg.svd(build_incidence(g), compute_uv=False)
    r = g.num_nodes - count_components(g)
    assert sigma.shape == (r,)
    assert_allclose(sigma, svd[:r], rtol=1e-13)
    assert np.all(svd[r:] <= 1e-12)


SIGN_FIX_GRAPHS = {
    **{name: g for name, (g, *_) in STRUCTURED_GRAPHS.items()},
    "no_edges": OrientedGraph(3, ()),  # the edge blocks are 0 x 0
    # Paths whose u has entries of equal magnitude and opposite sign in exact arithmetic: (-1, 1)/sqrt(2) on two
    # nodes, whose computed entries differ in the last bits, and a 4-node path whose tie the SVD may keep exactly.
    "two_node_path": OrientedGraph(2, ((1, 0),)),
    "path_p4": OrientedGraph(4, ((2, 0), (3, 1), (3, 2))),
    "random_40_80": random_graph(40, 80, 0),
}


@pytest.mark.parametrize("name", SIGN_FIX_GRAPHS)
def test_signs_are_fixed_as_the_column_loop_fixes_them(name, monkeypatch):
    B = build_incidence(SIGN_FIX_GRAPHS[name])
    d = spectral_decompose(B)
    monkeypatch.setattr(topology, "_fix_signs", fix_signs)
    expected = spectral_decompose(B)
    for field in ("u", "v", "sigma", "u_harmonic", "v_harmonic"):
        got, want = getattr(d, field), getattr(expected, field)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), field


def test_sign_ties_go_to_the_first_largest_entry():
    cols = np.array([[0.5, -0.5, 0.0, 0.0], [-0.5, 0.5, -0.75, 0.0], [0.0, 0.0, 0.75, -1.0]])
    companion = np.arange(8.0).reshape(2, 4) + 1.0
    loop_cols, loop_companion = cols.copy(), companion.copy()
    topology._fix_signs(cols, companion)
    fix_signs(loop_cols, loop_companion)
    assert cols.tobytes() == loop_cols.tobytes() and companion.tobytes() == loop_companion.tobytes()
    assert_array_equal(cols, [[0.5, 0.5, 0.0, 0.0], [-0.5, -0.5, 0.75, 0.0], [0.0, 0.0, -0.75, 1.0]])
    assert_array_equal(companion, [[1.0, -2.0, -3.0, -4.0], [5.0, -6.0, -7.0, -8.0]])


RESIDUAL_KEYS = ("svd_roundtrip", "node_orthonormality", "edge_orthonormality", "pairing", "harmonic")


def dense_residuals(d, B) -> dict[str, float]:
    """The six identities the residuals once checked on the (V+E) x (V+E) operators and eigenbases."""
    phi, gamma = dirac_eigenbasis(d)
    theta, lam = super_laplacian_eigenbasis(d)
    D, L, eye = dirac_operator(B), super_laplacian(B), np.eye(d.dim)
    return {
        "svd_roundtrip": np.max(np.abs(B - d.u @ np.diag(d.sigma) @ d.v.T), initial=0.0),
        "dirac_squared_vs_super_laplacian": np.max(np.abs(D @ D - L)),
        "dirac_orthonormality": np.max(np.abs(phi @ phi.T - eye)),
        "super_laplacian_orthonormality": np.max(np.abs(theta @ theta.T - eye)),
        "dirac_reconstruction": np.max(np.abs(phi @ np.diag(gamma) @ phi.T - D)),
        "super_laplacian_reconstruction": np.max(np.abs(theta @ np.diag(lam) @ theta.T - L)),
    }


@pytest.mark.parametrize("name", STRUCTURED_GRAPHS)
def test_svd_relations_bound_the_dense_identities(name):
    g = STRUCTURED_GRAPHS[name][0]
    B = build_incidence(g)
    d = spectral_decompose(B)
    residuals = decomposition_residuals(d, B)
    assert tuple(residuals) == RESIDUAL_KEYS and max(residuals.values()) <= 1e-12, residuals
    assert max(dense_residuals(d, B).values()) < 1e-10


def _swap_harmonic(d):
    # v_0 and the first edge-harmonic vector trade places: both bases stay orthonormal, but v_0 is not in ker(B).
    v, v_h = d.v.copy(), d.v_harmonic.copy()
    v[:, 0], v_h[:, 0] = d.v_harmonic[:, 0], d.v[:, 0]
    return dataclasses.replace(d, v=v, v_harmonic=v_h)


def _flip_v(d):
    v = d.v.copy()
    v[:, 1] *= -1.0
    return dataclasses.replace(d, v=v)


@pytest.mark.parametrize(
    "corrupt, tripped",
    [
        (lambda d: dataclasses.replace(d, sigma=d.sigma + np.eye(d.rank)[2] * 1e-6), {"svd_roundtrip", "pairing"}),
        (_flip_v, {"svd_roundtrip", "pairing"}),
        (_swap_harmonic, {"svd_roundtrip", "pairing", "harmonic"}),
    ],
    ids=["sigma-off-by-1e-6", "v-sign-flipped", "harmonic-not-in-kernel"],
)
def test_each_corruption_trips_its_residuals(corrupt, tripped):
    # K_5 has six independent cycles, so an edge-harmonic vector to swap.
    B = build_incidence(STRUCTURED_GRAPHS["complete_k5"][0])
    d = spectral_decompose(B)
    assert max(decomposition_residuals(d, B).values()) <= 1e-12
    residuals = decomposition_residuals(corrupt(d), B)
    assert {key for key, value in residuals.items() if value > 1e-7} == tripped, residuals
    assert all(residuals[key] <= 1e-12 for key in set(RESIDUAL_KEYS) - tripped), residuals


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
