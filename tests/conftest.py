import numpy as np
import pytest
from hypothesis import strategies as st

from topospinor.synth import random_graph
from topospinor.topology import OrientedGraph, SpectralDecomposition
from topospinor.transform import build_mass_basis


@pytest.fixture
def p3() -> OrientedGraph:
    """Path on three nodes: 0 -> 1 -> 2."""
    return OrientedGraph(3, ((0, 1), (1, 2)))


@pytest.fixture
def triangle() -> OrientedGraph:
    """Oriented 3-cycle: 0 -> 1 -> 2 -> 0."""
    return OrientedGraph(3, ((0, 1), (1, 2), (2, 0)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@st.composite
def connected_graphs(draw, max_nodes: int = 12) -> OrientedGraph:
    """Random connected simple graphs of modest size."""
    v = draw(st.integers(min_value=2, max_value=max_nodes))
    max_extra = v * (v - 1) // 2 - (v - 1)
    extra = draw(st.integers(min_value=0, max_value=min(max_extra, 2 * v)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_graph(v, v - 1 + extra, seed)


def unproject(z: np.ndarray, d: SpectralDecomposition) -> np.ndarray:
    """Q z, the inverse of ``topology.project``: the signals whose spectral coordinates are z."""
    n, r, xi0 = d.dim, d.rank, d.xi0
    node = d.u @ z[:r] + d.u_harmonic @ z[r : r + xi0]
    edge = d.v_harmonic @ z[r + xi0 : n - r] + d.v @ z[n - r :]
    return np.vstack([node, edge])


def nonharmonic_column_indices(d: SpectralDecomposition) -> np.ndarray:
    """Full-basis column indices of the 2r coupled columns (minus block, then plus)."""
    r, xi = d.rank, d.xi0 + d.xi1
    return np.concatenate([np.arange(r), np.arange(r + xi, 2 * r + xi)])


def shared_basis(d: SpectralDecomposition, value: float) -> np.ndarray:
    """The unit-column basis with both branches of every mode at the coupling ``value``."""
    k = np.full(d.rank, float(value))
    return build_mass_basis(d, k, k)


# Graphs with known invariants: name -> (graph, sigma in decreasing order or None, xi1).
STRUCTURED_GRAPHS = {
    # Star K_{1,4}: Laplacian eigenvalues 5, 1, 1, 1, 0, so sigma = sqrt(5) once and 1 three times.
    "star_k14": (OrientedGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4))), [np.sqrt(5.0), 1.0, 1.0, 1.0], 0),
    # Complete graph K_5: Laplacian eigenvalues 5 (four times) and 0.
    "complete_k5": (OrientedGraph(5, tuple((a, b) for a in range(5) for b in range(a + 1, 5))), [np.sqrt(5.0)] * 4, 6),
    # A tree that is not a path: nodes 1 and 3 have degree 3.
    "branching_tree": (OrientedGraph(6, ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5))), None, 0),
    "single_edge": (OrientedGraph(2, ((0, 1),)), [np.sqrt(2.0)], 0),
}

# The signal classes whose model reads the graph's rank alone, never its singular values.
SIGMA_FREE_CLASSES = ("fully_coupled", "fully_decoupled", "partially_coupled")

# The path, cycle and grid of ROADMAP item 6; the cycle and the grid repeat sigma.
PATH_CYCLE_GRID = {
    "path_p6": OrientedGraph(6, tuple((i, i + 1) for i in range(5))),
    "cycle_c6": OrientedGraph(6, tuple((i, (i + 1) % 6) for i in range(6))),
    "grid_3x3": OrientedGraph(9, tuple((3 * i + j, 3 * i + j + 1) for i in range(3) for j in range(2))
                              + tuple((3 * i + j, 3 * i + j + 3) for i in range(2) for j in range(3))),
}
