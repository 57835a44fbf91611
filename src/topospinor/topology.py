"""Oriented graphs, the incidence matrix, the network Dirac operator and its square.

Signals live on nodes (length V), on edges (length E), or jointly as a
"topological spinor": the stacked vector (node block first, edge block second)
of length V + E.  Everything in this module is a pure function of immutable
inputs; dense numpy arrays are used throughout since the intended graph sizes
are small (V + E up to a few thousand).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GraphError",
    "OrientedGraph",
    "SpectralDecomposition",
    "build_incidence",
    "dirac_operator",
    "super_laplacian",
    "spectral_decompose",
    "singular_values",
    "harmonic_columns",
    "dirac_eigenbasis",
    "super_laplacian_eigenbasis",
    "project",
    "reduce_planes",
    "reduce_blocks",
    "lift_planes",
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


def dirac_operator(B: np.ndarray) -> np.ndarray:
    """(V+E) x (V+E) block operator [[0, B], [B^T, 0]] acting on spinors."""
    V, E = B.shape
    return np.block([[np.zeros((V, V)), B], [B.T, np.zeros((E, E))]])


def super_laplacian(B: np.ndarray) -> np.ndarray:
    """Block-diagonal (BB^T, B^T B), node then edge Laplacian: the square of the Dirac operator."""
    V, E = B.shape
    top = np.hstack([B @ B.T, np.zeros((V, E))])
    bottom = np.hstack([np.zeros((E, V)), B.T @ B])
    return np.vstack([top, bottom])


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
    # Deterministic orientation: largest-magnitude entry of each column positive.
    for i in range(cols.shape[1]):
        j = int(np.argmax(np.abs(cols[:, i])))
        if cols[j, i] < 0:
            cols[:, i] *= -1.0
            if companion is not None:
                companion[:, i] *= -1.0


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
    r = _rank(s)

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


def _rank(s: np.ndarray) -> int:
    """The number of singular values ``s`` (descending) above 1e-8 times the largest."""
    return int(np.sum(s > 1e-8 * (s[0] if s.size else 1.0)))


def singular_values(B: np.ndarray) -> np.ndarray:
    """``spectral_decompose(B).sigma`` to rounding, from an SVD without singular vectors (same rank rule)."""
    s = np.linalg.svd(B, compute_uv=False)
    return s[: _rank(s)]


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


def reduce_planes(S: np.ndarray, d: SpectralDecomposition, basis: bool = True) -> tuple[np.ndarray, tuple | None]:
    """``project(S, d)`` with every mode plane's 2 x T block replaced by its 2 x 2 QR triangle: (z2, the bases).

    ``reduce_blocks`` of the projection's plane blocks and harmonic rows'
    norms; with ``basis``, the Q_i and the harmonic rows over their norms (0
    for a zero row) are kept for ``lift_planes``.  z is never formed.
    """
    s_node, s_edge = S[: d.num_nodes], S[d.num_nodes :]
    r, T = d.rank, S.shape[1]
    harmonic = np.vstack([d.u_harmonic.T @ s_node, d.v_harmonic.T @ s_edge])
    norms = np.sqrt(np.einsum("ht,ht->h", harmonic, harmonic))
    unit = harmonic / np.where(norms == 0.0, 1.0, norms)[:, None] if basis else None
    del harmonic  # so that the peak is S, the blocks and the QR's copy of them
    planes = np.empty((r, 2, T))  # z_i, filled in place
    np.matmul(d.u.T, s_node, out=planes[:, 0])
    np.matmul(d.v.T, s_edge, out=planes[:, 1])
    z2, q = reduce_blocks(planes, norms, basis)
    return z2, (q, unit) if basis else None


def reduce_blocks(planes: np.ndarray, norms: np.ndarray, basis: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """z2 from the mode planes' blocks z_i (r x 2 x T) and the harmonic rows' norms, and the Q_i with ``basis``.

    One batched QR writes z_i^T = Q_i R_i (R only without ``basis``); z2
    (n x min(T, 2)) holds R_i[:, 0] in row i, R_i[:, 1] in row n - r + i and
    each harmonic norm in column 0.  Rotations within a plane, row energies
    and within-plane sums over the signals of products of rows read the same
    on z2 as on the blocks, since none changes when z_i becomes z_i Q for an
    orthogonal Q.
    """
    (r, _, T), n = planes.shape, 2 * len(planes) + len(norms)
    blocks = planes.transpose(0, 2, 1)
    q, tri = np.linalg.qr(blocks) if basis else (None, np.linalg.qr(blocks, mode="r"))
    z2 = np.zeros((n, min(T, 2)))
    z2[:r], z2[r : n - r, :1], z2[n - r :] = tri[..., 0], norms[:, None], tri[..., 1]
    return z2, q


def lift_planes(x2: np.ndarray, bases: tuple) -> np.ndarray:
    """Each row of x2 times its basis from ``reduce_planes``, transposed: n x T, and z for x2 = z2.

    Whatever is computed from z2 by maps within each plane and within each
    harmonic row lifts to the same computed from z.
    """
    q, unit = bases
    n, r = len(x2), q.shape[0]
    minus, plus = np.einsum("iw,itw->it", x2[:r], q), np.einsum("iw,itw->it", x2[n - r :], q)
    return np.concatenate([minus, x2[r : n - r, :1] * unit, plus])


def decomposition_residuals(d: SpectralDecomposition, B: np.ndarray) -> dict[str, float]:
    """Max-abs residuals of the structural identities (0 for an empty one, as with no edges); for diagnostics."""
    phi, gamma = dirac_eigenbasis(d)
    theta, lam = super_laplacian_eigenbasis(d)
    D = dirac_operator(B)
    LG = super_laplacian(B)
    n = d.dim
    eye = np.eye(n)
    return {
        "svd_roundtrip": float(np.max(np.abs(B - d.u @ np.diag(d.sigma) @ d.v.T), initial=0.0)),
        "dirac_squared_vs_super_laplacian": float(np.max(np.abs(D @ D - LG))),
        "dirac_orthonormality": float(np.max(np.abs(phi @ phi.T - eye))),
        "super_laplacian_orthonormality": float(np.max(np.abs(theta @ theta.T - eye))),
        "dirac_reconstruction": float(np.max(np.abs(phi @ np.diag(gamma) @ phi.T - D))),
        "super_laplacian_reconstruction": float(np.max(np.abs(theta @ np.diag(lam) @ theta.T - LG))),
    }
