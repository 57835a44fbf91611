import numpy as np
import pytest
from hypothesis import strategies as st

from topospinor.synth import random_graph
from topospinor.topology import OrientedGraph, SpectralDecomposition
from topospinor.transform import CouplingVector, build_mass_basis


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


def shared_basis(d: SpectralDecomposition, value: float) -> np.ndarray:
    """The unit-column basis with both branches of every mode at the coupling ``value``."""
    k = np.full(d.rank, float(value))
    return build_mass_basis(d, CouplingVector(k, k.copy()))
