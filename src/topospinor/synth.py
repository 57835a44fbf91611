"""Random connected graphs, synthetic spinor signal classes, and noise injection.

Signal batches follow the generative model: pick a shared support of
non-harmonic basis columns, draw Gaussian coefficients (``draw_signals``, from
the singular values alone) and synthesize through the unit-norm coupling basis
at a class-specific coupling profile (``gen_signals``).  The sparsity sweep's
curves depend on the graph only through r and sigma, so it writes the draw
straight into the mode planes and never synthesizes.  The four
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


def random_graph(num_nodes: int, num_edges: int, seed) -> OrientedGraph:
    """Connected simple graph with exactly the requested edge count.

    A uniform random labeled spanning tree comes first (random parent
    sequence), then the remaining edges are drawn uniformly without
    replacement from the non-tree pairs; every edge is oriented by a fair
    coin.  Requires num_nodes - 1 <= num_edges <= num_nodes(num_nodes - 1)/2.
    """
    V, E = int(num_nodes), int(num_edges)
    max_edges = V * (V - 1) // 2
    if not (V - 1 <= E <= max_edges):
        raise ValueError(
            f"edge count {E} infeasible for a connected simple graph on {V} nodes "
            f"(needs {V - 1} <= E <= {max_edges})"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    tree_edges: list[tuple[int, int]] = []
    if V >= 2:
        # Uniform labeled tree via a random Pruefer sequence.
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
            u = heapq.heappop(leaves)
            w = heapq.heappop(leaves)
            tree_edges.append((u, w))

    tree_set = {frozenset(e) for e in tree_edges}
    candidates = [
        (a, b) for a in range(V) for b in range(a + 1, V) if frozenset((a, b)) not in tree_set
    ]
    extra = E - len(tree_edges)
    chosen = rng.choice(len(candidates), size=extra, replace=False) if extra else []
    all_edges = tree_edges + [candidates[int(i)] for i in sorted(chosen)]

    oriented = []
    flips = rng.integers(0, 2, size=len(all_edges))
    for (a, b), flip in zip(all_edges, flips):
        oriented.append((b, a) if flip else (a, b))
    return OrientedGraph(V, tuple(oriented))


def _mode_couplings(sigma: np.ndarray, spec: SignalClassSpec, support: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    r = len(sigma)
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
    gamma = float(np.median(sigma))
    return 1.0 / (1.0 + (sigma / gamma) ** 2)


def draw_signals(sigma: np.ndarray, dim: int, spec: SignalClassSpec) -> GroundTruth:
    """The ground truth of one batch, drawn from the r nonzero singular values ``sigma`` alone.

    One support of size eta0 is drawn uniformly over the 2r non-harmonic
    column indices and shared by all T signals, the class's couplings are
    set, and the coefficients are i.i.d. standard Gaussian.  ``dim`` = V + E
    only places the support among the full-basis columns.
    """
    rng = np.random.default_rng(spec.seed)
    r = len(sigma)
    if spec.eta0 > 2 * r:
        raise ValueError(f"eta0={spec.eta0} exceeds the {2 * r} available columns")
    support = np.sort(rng.choice(2 * r, size=spec.eta0, replace=False))
    k_modes = _mode_couplings(sigma, spec, support, rng)
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
    truth = draw_signals(d.sigma, d.dim, spec)
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
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    signal_energy = float(np.linalg.norm(S) ** 2)
    sigma = np.sqrt(signal_energy / (S.size * 10.0 ** (snr_db / 10.0)))
    return S + rng.normal(0.0, sigma, size=S.shape)
