"""Oracles the tests compare the package against: dense operators no command builds, and loop forms of array code."""

import heapq

import numpy as np

from topospinor.topology import OrientedGraph
from topospinor.transform import unnormalized_basis_matrix


def dirac_operator(B: np.ndarray) -> np.ndarray:
    """(V+E) x (V+E) block operator [[0, B], [B^T, 0]] acting on spinors."""
    V, E = B.shape
    return np.block([[np.zeros((V, V)), B], [B.T, np.zeros((E, E))]])


def super_laplacian(B: np.ndarray) -> np.ndarray:
    """Block-diagonal (B B^T, B^T B), node then edge Laplacian: the square of the Dirac operator."""
    V, E = B.shape
    return np.block([[B @ B.T, np.zeros((V, E))], [np.zeros((E, V)), B.T @ B]])


def reconstruction(d, solution) -> np.ndarray:
    """Psi(k*) codes of a ``ddtl_fit`` solution: the unnormalized coupling basis, formed densely, times the codes."""
    k = solution.k_star
    return unnormalized_basis_matrix(d, k[: d.rank], k[d.rank :]) @ solution.codes


def random_graph(num_nodes: int, num_edges: int, seed) -> OrientedGraph:
    """``synth.random_graph`` with the extra edges picked from a Python list of every non-tree node pair.

    The same three draws, in the same order; ``synth.random_graph`` maps the picked indices to pairs arithmetically.
    """
    V, E = int(num_nodes), int(num_edges)
    rng = np.random.default_rng(seed)
    tree_edges: list[tuple[int, int]] = []
    if V >= 2:
        if V == 2:
            tree_edges = [(0, 1)]
        else:
            pruefer = rng.integers(0, V, size=V - 2)
            degree = np.ones(V, dtype=int)
            for x in pruefer:
                degree[x] += 1
            leaves = [i for i in range(V) if degree[i] == 1]
            heapq.heapify(leaves)
            for x in pruefer:
                leaf = heapq.heappop(leaves)
                tree_edges.append((leaf, int(x)))
                degree[x] -= 1
                if degree[x] == 1:
                    heapq.heappush(leaves, int(x))
            tree_edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    tree_set = {frozenset(e) for e in tree_edges}
    candidates = [(a, b) for a in range(V) for b in range(a + 1, V) if frozenset((a, b)) not in tree_set]
    extra = E - len(tree_edges)
    chosen = rng.choice(len(candidates), size=extra, replace=False) if extra else []
    all_edges = tree_edges + [candidates[int(i)] for i in sorted(chosen)]
    flips = rng.integers(0, 2, size=len(all_edges))
    return OrientedGraph(V, tuple((b, a) if flip else (a, b) for (a, b), flip in zip(all_edges, flips)))


def fix_signs(cols: np.ndarray, companion: np.ndarray | None = None) -> None:
    """``topology._fix_signs`` one column at a time: each column's first largest-magnitude entry made positive."""
    for i in range(cols.shape[1]):
        j = int(np.argmax(np.abs(cols[:, i])))
        if cols[j, i] < 0:
            cols[:, i] *= -1.0
            if companion is not None:
                companion[:, i] *= -1.0
