"""Oriented graphs, the incidence matrix B and its SVD, from which every spectral basis is read.

Signals live on nodes (length V), on edges (length E), or jointly as a
"topological spinor": the stacked vector (node block first, edge block second)
of length V + E.  The SVD of B diagonalises the Dirac operator [[0, B], [B^T, 0]]
and its square, the block-diagonal Laplacian (B B^T, B^T B), so neither is
formed.  Where only the singular values are read, they come from the node
Laplacian B B^T with a combinatorial rank (``laplacian_singular_values``).
Everything in this module is a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GraphError",
    "OrientedGraph",
    "SpectralDecomposition",
    "build_incidence",
    "spectral_decompose",
    "laplacian_singular_values",
    "harmonic_columns",
    "dirac_eigenbasis",
    "super_laplacian_eigenbasis",
    "project",
    "reduce_planes",
    "decomposition_residuals",
]


class GraphError(ValueError):
    """Raised for structurally invalid graphs (self-loops, bad indices, duplicates).

    ``edge`` is the index of the offending edge, or None for a bad node count.
    """

    def __init__(self, message: str, edge: int | None = None):
        self.edge = edge
        super().__init__(message)


@dataclass(frozen=True)
class OrientedGraph:
    """Simple graph with a fixed, ordered list of oriented edges.

    Parameters
    ----------
    num_nodes : int
        Number of nodes V (nodes are 0..V-1).
    edges : tuple of (tail, head) pairs
        Oriented edges; the list order defines the edge indexing (and hence
        the column order of the incidence matrix).

    Raises
    ------
    GraphError
        On self-loops, out-of-range node indices, or duplicate undirected
        edges; the message names the offending edge and ``edge`` holds its
        index.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_nodes < 1:
            raise GraphError(f"num_nodes must be positive, got {self.num_nodes}")
        object.__setattr__(self, "edges", tuple((int(t), int(h)) for t, h in self.edges))
        seen: set[frozenset[int]] = set()
        for e, (tail, head) in enumerate(self.edges):
            if not (0 <= tail < self.num_nodes and 0 <= head < self.num_nodes):
                raise GraphError(
                    f"edge {e} = ({tail}, {head}) has node index outside [0, {self.num_nodes})", e
                )
            if tail == head:
                raise GraphError(f"edge {e} = ({tail}, {head}) is a self-loop", e)
            key = frozenset((tail, head))
            if key in seen:
                raise GraphError(f"edge {e} = ({tail}, {head}) duplicates an earlier edge", e)
            seen.add(key)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def dim(self) -> int:
        """Dimension V + E of the joint node-edge signal space."""
        return self.num_nodes + self.num_edges


def build_incidence(g: OrientedGraph) -> np.ndarray:
    """Dense V x E incidence matrix: +1 at each edge's head, -1 at its tail."""
    B = np.zeros((g.num_nodes, g.num_edges))
    for e, (tail, head) in enumerate(g.edges):
        B[tail, e] = -1.0
        B[head, e] = 1.0
    return B


@dataclass(frozen=True)
class SpectralDecomposition:
    """SVD of the incidence matrix split into non-harmonic and harmonic parts.

    ``u`` / ``v`` hold the left/right singular vectors with singular value
    above 1e-8 sigma_max (columns ordered by descending sigma); ``u_harmonic``
    spans ker(B^T) (one vector per connected component) and ``v_harmonic``
    spans ker(B) (the cycle space).
    """

    num_nodes: int
    num_edges: int
    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    u_harmonic: np.ndarray
    v_harmonic: np.ndarray

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]

    @property
    def xi0(self) -> int:
        """Node-harmonic count dim ker(B^T) (= number of connected components)."""
        return self.u_harmonic.shape[1]

    @property
    def xi1(self) -> int:
        """Edge-harmonic count dim ker(B) (= independent cycles)."""
        return self.v_harmonic.shape[1]

    @property
    def dim(self) -> int:
        return self.num_nodes + self.num_edges


def _fix_signs(cols: np.ndarray, companion: np.ndarray | None = None) -> None:
    # Deterministic orientation: each column's first largest-magnitude entry positive (argmax needs a row).
    if cols.size:
        flip = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])] < 0
        cols[:, flip] *= -1.0
        if companion is not None:
            companion[:, flip] *= -1.0


def spectral_decompose(B: np.ndarray) -> SpectralDecomposition:
    """Split the SVD of B into singular triplets and harmonic null spaces.

    Parameters
    ----------
    B : ndarray, shape (V, E)
        Incidence matrix (any real matrix is accepted).  The rank cutoff is
        fixed: a singular value counts as zero unless it is above 1e-8 times
        the largest one.

    Raises
    ------
    ValueError
        If B contains non-finite entries.
    """
    B = np.asarray(B, dtype=float)
    if not np.all(np.isfinite(B)):
        raise ValueError("incidence matrix contains non-finite entries")
    V, E = B.shape
    U, s, Vt = np.linalg.svd(B, full_matrices=True)
    r = int(np.sum(s > 1e-8 * (s[0] if s.size else 1.0)))

    u = U[:, :r].copy()
    vmat = Vt[:r, :].T.copy()
    _fix_signs(u, vmat)
    u_harm = U[:, r:].copy()
    v_harm = Vt[r:, :].T.copy()
    _fix_signs(u_harm)
    _fix_signs(v_harm)

    return SpectralDecomposition(
        num_nodes=V,
        num_edges=E,
        u=u,
        v=vmat,
        sigma=s[:r].copy(),
        u_harmonic=u_harm,
        v_harmonic=v_harm,
    )


def _num_components(g: OrientedGraph) -> int:
    """The number c of connected components of g, from a depth-first traversal of its edge list."""
    neighbours: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for tail, head in g.edges:
        neighbours[tail].append(head)
        neighbours[head].append(tail)
    seen, c = [False] * g.num_nodes, 0
    for start in range(g.num_nodes):
        if not seen[start]:
            c, seen[start], stack = c + 1, True, [start]
            while stack:
                for node in neighbours[stack.pop()]:
                    if not seen[node]:
                        seen[node] = True
                        stack.append(node)
    return c


def laplacian_singular_values(g: OrientedGraph) -> np.ndarray:
    """The r = V - c nonzero singular values of B (descending), from ``eigvalsh`` of L0 = B B^T = D - A.

    L0 is built from the edge list (degrees minus adjacency), so neither the
    V x E incidence nor an SVD is formed.  The rank is combinatorial, V minus
    the number of components (``_num_components``), never a cutoff on the
    square roots: L0's null eigenvalues come out near 1e-14, whose roots sit
    above ``spectral_decompose``'s 1e-8 sigma_max cutoff.
    """
    V, edges = g.num_nodes, np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    laplacian = np.zeros((V, V))
    laplacian[edges[:, 0], edges[:, 1]] = laplacian[edges[:, 1], edges[:, 0]] = -1.0
    laplacian[np.diag_indices(V)] = np.bincount(edges.ravel(), minlength=V)
    r = V - _num_components(g)
    return np.sqrt(np.linalg.eigvalsh(laplacian)[::-1][:r])


def harmonic_columns(d: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded harmonic spinor columns: ``(node_harm, edge_harm)``.

    ``node_harm`` holds (u_H; 0), one column per connected component, and
    ``edge_harm`` holds (0; v_H), one column per independent cycle.  Each
    basis chooses its own order of the two blocks.
    """
    node_harm = np.vstack([d.u_harmonic, np.zeros((d.num_edges, d.xi0))])
    edge_harm = np.vstack([np.zeros((d.num_nodes, d.xi1)), d.v_harmonic])
    return node_harm, edge_harm


def dirac_eigenbasis(d: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenbasis of the Dirac operator.

    Returns ``(Phi, gamma)`` where the columns of Phi come in blocks
    [negative branch | edge-harmonic | node-harmonic | positive branch] and
    ``gamma`` holds the matching eigenvalues (-sigma, 0, ..., 0, +sigma).
    Branch columns are (u_i; -v_i)/sqrt(2) and (u_i; v_i)/sqrt(2); the 1/sqrt(2)
    makes the mixed columns unit norm.
    """
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    minus = np.vstack([d.u, -d.v]) * inv_sqrt2
    plus = np.vstack([d.u, d.v]) * inv_sqrt2
    node_harm, edge_harm = harmonic_columns(d)
    phi = np.hstack([minus, edge_harm, node_harm, plus])
    gamma = np.concatenate([-d.sigma, np.zeros(d.xi1 + d.xi0), d.sigma])
    return phi, gamma


def super_laplacian_eigenbasis(d: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenbasis of the block-diagonal (node, edge) Laplacian.

    Returns ``(Theta, lam)`` with column blocks
    [node-harmonic | edge-harmonic | (u_i; 0) | (0; v_i)] and eigenvalues
    (0, ..., 0, sigma^2, sigma^2).  Every column is supported entirely on one
    of the node/edge blocks.
    """
    V, E = d.num_nodes, d.num_edges
    node_harm, edge_harm = harmonic_columns(d)
    node_modes = np.vstack([d.u, np.zeros((E, d.rank))])
    edge_modes = np.vstack([np.zeros((V, d.rank)), d.v])
    theta = np.hstack([node_harm, edge_harm, node_modes, edge_modes])
    lam = np.concatenate([np.zeros(d.xi0 + d.xi1), d.sigma**2, d.sigma**2])
    return theta, lam


def project(S: np.ndarray, d: SpectralDecomposition) -> np.ndarray:
    """Q^T S, Q = [(u; 0) | (u_H; 0) | (0; v_H) | (0; v)] orthonormal: mode plane i is rows i and n - rank + i."""
    s_node, s_edge = S[: d.num_nodes], S[d.num_nodes :]
    return np.vstack([d.u.T @ s_node, d.u_harmonic.T @ s_node, d.v_harmonic.T @ s_edge, d.v.T @ s_edge])


def reduce_planes(z: np.ndarray, rank: int) -> np.ndarray:
    """z2 (n x min(T, 2)) of a projected batch z (``project``): each mode plane's 2 x T block as its 2 x 2 triangle.

    One batched R-only QR writes z_i^T = Q_i R_i, z_i the plane's rows i and
    n - rank + i; z2 holds R_i[:, 0] in row i, R_i[:, 1] in row n - rank + i
    and each harmonic row's norm in column 0.  Rotations within a plane, row
    energies and within-plane sums over the signals of products of rows read
    the same on z2 as on z, since none changes when z_i becomes z_i Q for an
    orthogonal Q.
    """
    (n, T), r = z.shape, int(rank)
    harmonic = z[r : n - r]
    tri = np.linalg.qr(np.stack([z[:r], z[n - r :]], axis=-1), mode="r")
    z2 = np.zeros((n, min(T, 2)))
    z2[:r], z2[n - r :] = tri[..., 0], tri[..., 1]
    z2[r : n - r, 0] = np.sqrt(np.einsum("ht,ht->h", harmonic, harmonic))
    return z2


def decomposition_residuals(d: SpectralDecomposition, B: np.ndarray) -> dict[str, float]:
    """Max-abs residuals of the SVD relations, each 0 when its array is empty (as with no edges); for diagnostics.

    ``svd_roundtrip``: B - U diag(sigma) V^T; ``node_orthonormality`` and
    ``edge_orthonormality``: [U | U_H]^T [U | U_H] - I and the same for V;
    ``pairing``: B V - U diag(sigma) and B^T U - V diag(sigma); ``harmonic``:
    B^T U_H and B V_H.  The two eigenbases are orthonormal and diagonalise the
    Dirac operator and its square exactly when all five vanish, so neither
    operator is built: nothing here is larger than max(V, E)^2.
    """

    def worst(*residuals: np.ndarray) -> float:
        return float(max(np.max(np.abs(a), initial=0.0) for a in residuals))

    node, edge = np.hstack([d.u, d.u_harmonic]), np.hstack([d.v, d.v_harmonic])
    return {
        "svd_roundtrip": worst(B - (d.u * d.sigma) @ d.v.T),
        "node_orthonormality": worst(node.T @ node - np.eye(d.num_nodes)),
        "edge_orthonormality": worst(edge.T @ edge - np.eye(d.num_edges)),
        "pairing": worst(B @ d.v - d.u * d.sigma, B.T @ d.u - d.v * d.sigma),
        "harmonic": worst(B.T @ d.u_harmonic, B @ d.v_harmonic),
    }
