"""Random connected graphs, synthetic spinor signal classes, and noise injection.

Signal batches follow the generative model: pick a shared support of
non-harmonic basis columns, draw Gaussian coefficients (``draw_signals``, from
the rank r, plus the singular values for the mixture class) and synthesize
through the unit-norm coupling basis at a class-specific coupling profile
(``gen_signals``).  The sparsity sweep's curves depend on the graph only
through what the draw reads, so it writes the draw straight into the mode
planes and never synthesizes; on the three classes that read r alone it draws
no graph (``random_graph`` is connected, so r = V - 1).  The four
classes differ only in the per-mode coupling: all-ones (fully coupled),
all-zeros (fully decoupled), half of the touched mode pairs (rounded) coupled
and the rest decoupled (partially coupled), or a Cauchy-profile decay in
frequency at scale gamma = the median singular value (mixture of couplings).
Coefficients have unit variance.  The batches are noiseless: ``add_awgn`` is
the one source of noise, at a target SNR.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .topology import OrientedGraph, SpectralDecomposition

__all__ = [
    "SignalClassSpec",
    "GroundTruth",
    "SIGNAL_CLASSES",
    "check_graph_size",
    "random_graph",
    "draw_signals",
    "gen_signals",
    "add_awgn",
]

SIGNAL_CLASSES = ("fully_coupled", "fully_decoupled", "partially_coupled", "mixture_of_dirac")


@dataclass(frozen=True)
class SignalClassSpec:
    """Parameters of one synthetic signal batch."""

    signal_class: str
    eta0: int
    num_signals: int
    seed: int = 0

    def __post_init__(self):
        if self.signal_class not in SIGNAL_CLASSES:
            raise ValueError(f"signal_class must be one of {SIGNAL_CLASSES}, got {self.signal_class!r}")
        if self.eta0 < 1 or self.num_signals < 1:
            raise ValueError("eta0 and num_signals must be positive")


@dataclass(frozen=True)
class GroundTruth:
    """Everything needed to reproduce a generated batch exactly."""

    support: np.ndarray            # indices into the 2r non-harmonic columns (minus block first)
    support_columns: np.ndarray    # same support as full-basis column indices
    coefficients: np.ndarray       # (eta0, T)
    k_modes: np.ndarray            # shared per-pair coupling, length r
    signal_class: str


def check_graph_size(num_nodes: int, num_edges: int) -> None:
    """Refuse a size no connected simple graph has: V < 1, or E outside V - 1 <= E <= V(V - 1)/2."""
    V, E = int(num_nodes), int(num_edges)
    if V < 1:
        raise ValueError(f"num_nodes must be positive, got {V}")
    max_edges = V * (V - 1) // 2
    if not (V - 1 <= E <= max_edges):
        raise ValueError(
            f"edge count {E} infeasible for a connected simple graph on {V} nodes "
            f"(needs {V - 1} <= E <= {max_edges})"
        )


def random_graph(num_nodes: int, num_edges: int, seed) -> OrientedGraph:
    """Connected simple graph with exactly the requested edge count.

    A uniform random labeled spanning tree, decoded from a random Prüfer
    sequence (Prüfer, 1918), plus the remaining edges drawn uniformly without
    replacement from the non-tree pairs; a fair coin orients each edge.
    Requires V >= 1 and V - 1 <= E <= V(V - 1)/2 (``check_graph_size``).  A
    seed fixes three draws, in order: the sequence,
    ``integers(0, V, size=V - 2)``; the sorted
    ``choice(#pairs, size=E - (V - 1), replace=False)`` over the non-tree
    pairs (a < b, in lexicographic order), skipped when E = V - 1; and the
    coins, ``integers(0, 2, size=E)``, tree edges first, a 1 reversing its edge.
    """
    check_graph_size(num_nodes, num_edges)
    V, E = int(num_nodes), int(num_edges)
    rng = np.random.default_rng(seed)

    tree_edges: list[tuple[int, int]] = []
    if V >= 2:
        pruefer = rng.integers(0, V, size=V - 2)
        degree = (np.bincount(pruefer, minlength=V) + 1).tolist()
        leaves = [i for i in range(V) if degree[i] == 1]
        heapq.heapify(leaves)
        for x in pruefer.tolist():
            tree_edges.append((heapq.heappop(leaves), x))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        tree_edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))

    edges = np.array(tree_edges, dtype=np.intp).reshape(-1, 2)
    extra = E - len(edges)
    if extra:
        # A pair a < b has lexicographic rank starts[a] + b - a - 1.  Free (non-tree) pair j has rank
        # j + #{i : t_i - i <= j}, t the sorted tree ranks, so no list of all V(V - 1)/2 pairs is built.
        rows = np.arange(V)
        starts = rows * V - rows * (rows + 1) // 2
        low, high = edges.min(axis=1), edges.max(axis=1)
        t = np.sort(starts[low] + high - low - 1)
        chosen = np.sort(rng.choice(V * (V - 1) // 2 - len(t), size=extra, replace=False))
        rank = chosen + np.searchsorted(t - np.arange(len(t)), chosen, side="right")
        a = np.searchsorted(starts, rank, side="right") - 1
        edges = np.concatenate([edges, np.column_stack([a, rank - starts[a] + a + 1])])
    flip = rng.integers(0, 2, size=E) == 1
    edges[flip] = edges[flip, ::-1]
    return OrientedGraph(V, edges.tolist())


def _mode_couplings(r: int, sigma: np.ndarray | None, spec: SignalClassSpec, support: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    if spec.signal_class == "fully_coupled":
        return np.ones(r)
    if spec.signal_class == "fully_decoupled":
        return np.zeros(r)
    if spec.signal_class == "partially_coupled":
        k = np.zeros(r)
        touched = np.unique(support % r)  # the mode of each supported column
        n_coupled = int(round(0.5 * touched.size))
        coupled = rng.permutation(touched)[:n_coupled]
        k[coupled] = 1.0
        return k
    if sigma is None:
        raise ValueError("the mixture_of_dirac couplings need the singular values sigma")
    gamma = float(np.median(sigma))
    return 1.0 / (1.0 + (sigma / gamma) ** 2)


def draw_signals(rank: int, dim: int, spec: SignalClassSpec, sigma: np.ndarray | None = None) -> GroundTruth:
    """The ground truth of one batch, drawn from the rank r alone, and on ``mixture_of_dirac`` from its couplings'
    r nonzero singular values ``sigma`` (which no other class reads).

    One support of size eta0 is drawn uniformly over the 2r non-harmonic
    column indices and shared by all T signals, the class's couplings are
    set, and the coefficients are i.i.d. standard Gaussian.  ``dim`` = V + E
    only places the support among the full-basis columns.
    """
    rng, r = np.random.default_rng(spec.seed), int(rank)
    if spec.eta0 > 2 * r:
        raise ValueError(f"eta0={spec.eta0} exceeds the {2 * r} available columns")
    support = np.sort(rng.choice(2 * r, size=spec.eta0, replace=False))
    k_modes = _mode_couplings(r, sigma, spec, support, rng)
    return GroundTruth(
        support=support,
        support_columns=support + np.where(support < r, 0, dim - 2 * r),  # the harmonic columns sit between
        coefficients=rng.normal(size=(spec.eta0, spec.num_signals)),
        k_modes=k_modes,
        signal_class=spec.signal_class,
    )


def gen_signals(d: SpectralDecomposition, spec: SignalClassSpec) -> tuple[np.ndarray, GroundTruth]:
    """Draw a signal batch (V+E) x T for one class (``draw_signals``) and synthesize it.

    The synthesis basis is the unit-norm coupling basis at the class
    coupling profile (shared per mode pair, so it is orthonormal); only the
    support's columns are built, (k u; -v) for a minus index s < r and
    (u; k v) for a plus index, over sqrt(1 + k^2).
    """
    truth = draw_signals(d.rank, d.dim, spec, d.sigma)
    modes, minus = truth.support % d.rank, truth.support < d.rank
    u, v, k = d.u[:, modes], d.v[:, modes], truth.k_modes[modes]
    columns = np.vstack([np.where(minus, u * k, u), np.where(minus, -v, v * k)]) / np.sqrt(1.0 + k**2)
    return columns @ truth.coefficients, truth


def add_awgn(S: np.ndarray, snr_db: float, seed) -> np.ndarray:
    """Add white Gaussian noise at a target SNR in dB.

    The noise standard deviation is set so the *expected* noise energy
    sigma^2 * (rows * cols) sits snr_db decibels below ||S||_F^2.
    """
    S = np.asarray(S, dtype=float)
    rng = np.random.default_rng(seed)
    signal_energy = float(np.linalg.norm(S) ** 2)
    sigma = np.sqrt(signal_energy / (S.size * 10.0 ** (snr_db / 10.0)))
    return S + rng.normal(0.0, sigma, size=S.shape)
