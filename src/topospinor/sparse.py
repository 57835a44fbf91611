"""Greedy sparse coding and the two retractions used by the transform learner.

``omp`` implements joint orthogonal matching pursuit (one support shared by
all signal columns) by progressive orthogonalization of the selected atoms,
on the n x n triangular factor of a batch with more signals than rows, with
the coefficients solved once at the end.

``plane_pursuit_curves`` is the same pursuit for dictionaries of orthonormal
atom pairs per mode plane span{(u_i; 0), (0; v_i)} and one identity atom per
harmonic coefficient, as every sweep dictionary is.  With the selection rule of
Tropp, Gilbert & Strauss (2006) it is "take each plane's atom energies in every
dictionary at once (``plane_energies``), truncate each dictionary's gains" with
``truncation_curves``, which states the tie and the precision rule.

``row_hard_threshold`` and ``column_normalize`` are the Euclidean
projections onto row-sparse matrices and onto the unit-column (oblique)
manifold, respectively.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SparseCode",
    "DegenerateRetractionWarning",
    "omp",
    "plane_energies",
    "plane_pursuit_curves",
    "truncation_curves",
    "nmse",
    "row_hard_threshold",
    "column_normalize",
]

_UNIT_NORM_TOL = 1e-6
_EYE2 = np.eye(2)
_RIDGE = 1e-12


class DegenerateRetractionWarning(UserWarning):
    """A retraction hit a degenerate input (zero column, or too few nonzero rows)."""


@dataclass(frozen=True)
class SparseCode:
    """Result of a pursuit: selected atoms, fitted coefficients, residual norms.

    ``support`` lists atom indices in selection order.  ``residual_history[j]``
    is the Frobenius norm of the least-squares residual after j+1 atoms, so
    prefix sparsity levels of a single run can be read off without re-running
    the pursuit.  ``ridge_regularized`` marks a rank-deficient support (see
    ``omp``'s rank rule).
    """

    support: tuple[int, ...]
    coefficients: np.ndarray
    residual_norm: float
    residual_history: tuple[float, ...] = field(default=())
    ridge_regularized: bool = False

    def reconstruct(self, dictionary: np.ndarray) -> np.ndarray:
        return dictionary[:, list(self.support)] @ self.coefficients


# No study path calls omp; the tests' dense oracle and perfbench do (ROADMAP item 0).
def omp(dictionary: np.ndarray, signals: np.ndarray, sparsity: int) -> SparseCode:
    """Joint orthogonal matching pursuit against a unit-column dictionary.

    One support is shared by every signal column.  At each step the atom
    with the largest summed squared correlation with the residual is
    selected; exact ties in the computed scores resolve to the lowest atom
    index.  The atom is then orthogonalized against the atoms already
    selected (Gram-Schmidt with one re-orthogonalization), and the residual
    and the correlations are updated by the new direction alone.  The
    least-squares coefficients are solved once, after the last step.

    When T > n the loop runs on the n x n factor L = R^T of one R-only QR
    S^T = Q R, so S = L Q^T with Q^T Q = I.  This is exact, since every step
    is a left multiplication of the residual or a sum over T of products of
    its rows (the scores, the residual norms).

    Rank rule: an atom whose orthogonalized part has norm at most
    ``eps * max(n, sparsity)`` (the default ``lstsq`` cutoff) is kept in the
    support but adds no direction, so the residual is unchanged.  The
    coefficients then come from a ridge solve (ridge 1e-12) on the whole
    support, and the result is flagged ``ridge_regularized``.

    ``dictionary`` (n, N) must have unit columns within 1e-6, and ``signals``
    is (n, T), or (n,) for T = 1.  Raises ValueError on a non-normalized
    dictionary, a sparsity outside [1, N] or a shape mismatch; a
    rank-deficient support does not raise (see the rank rule).
    """
    dictionary = np.asarray(dictionary, dtype=float)
    signals = np.asarray(signals, dtype=float)
    if signals.ndim == 1:
        signals = signals[:, None]
    if dictionary.ndim != 2 or signals.shape[0] != dictionary.shape[0]:
        raise ValueError(
            f"dictionary {dictionary.shape} and signals {signals.shape} have incompatible shapes"
        )
    norms = np.linalg.norm(dictionary, axis=0)
    worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
    if worst > _UNIT_NORM_TOL:
        raise ValueError(f"dictionary columns must have unit norm (max deviation {worst:.3e})")
    if not (1 <= sparsity <= dictionary.shape[1]):
        raise ValueError(f"sparsity must lie in [1, {dictionary.shape[1]}], got {sparsity}")

    # Invariants after each step: residual = B - Q Q^T B and corr = D^T residual,
    # where B is the batch (S, or its factor L when T > n), Q (n x rank) is an
    # orthonormal basis of the independent selected atoms, and those atoms
    # equal Q @ tri.
    n, num_atoms = dictionary.shape
    rank_tol = np.finfo(float).eps * max(n, sparsity)
    q_basis = np.zeros((n, sparsity))
    tri = np.zeros((sparsity, sparsity))
    support: list[int] = []
    rank = 0
    taken = np.zeros(num_atoms, dtype=bool)
    residual = (np.linalg.qr(signals.T, mode="r").T if signals.shape[1] > n else signals).copy(order="K")
    corr = dictionary.T @ residual
    history: list[float] = []
    for _ in range(sparsity):
        scores = np.einsum("nt,nt->n", corr, corr)
        scores[taken] = -1.0
        best = int(np.argmax(scores))  # ties resolve to the lowest index
        support.append(best)
        taken[best] = True
        q = dictionary[:, best].copy()
        coords = np.zeros(rank)
        for _ in range(2):  # Gram-Schmidt with one re-orthogonalization
            step = q_basis[:, :rank].T @ q
            q -= q_basis[:, :rank] @ step
            coords += step
        length = float(np.linalg.norm(q))
        if length > rank_tol:
            q /= length
            q_basis[:, rank] = q
            tri[:rank, rank] = coords
            tri[rank, rank] = length
            proj = q @ residual
            residual -= np.outer(q, proj)
            corr -= np.outer(dictionary.T @ q, proj)
            rank += 1
        history.append(float(np.linalg.norm(residual)))
    ridge_used = rank < sparsity
    if ridge_used:
        sub = dictionary[:, support]
        gram = sub.T @ sub + _RIDGE * np.eye(len(support))
        coef = np.linalg.solve(gram, sub.T @ signals)
    else:
        coef = np.linalg.solve(tri, q_basis.T @ signals)
    return SparseCode(
        support=tuple(support),
        coefficients=coef,
        residual_norm=history[-1],
        residual_history=tuple(history),
        ridge_regularized=ridge_used,
    )


def plane_energies(z, rank, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The energies of a projected batch's rows rotated into orthonormal atom pairs per mode plane.

    ``z`` (n x T, or n) is ``topology.project`` or ``topology.reduce_planes``:
    plane i is rows z_u = z[i] and z_v = z[n - rank + i], the rows between are
    harmonic.  Row j of pairs[b, i] (pairs is (B, rank, 2, 2)) holds atom j of
    basis b in plane i as (z_u, z_v) coefficients.  Returns the energies of the
    rotated rows c_u z_u + c_v z_v, (B, 2, rank) per basis, atom and plane, and
    those of the harmonic rows, (n - 2 rank,).  Precision rule: each is a sum of
    squares of a row, so never below 0, and accurate to its own size.  Raises
    ValueError on mismatched shapes (shared (B, 1, 2, 2) pairs included, at
    rank 2 or more), or naming the largest deviation, on pairs not orthonormal
    to 1e-6.
    """
    z = np.asarray(z, dtype=float).reshape(len(z), -1)
    n, r, pairs = len(z), int(rank), np.asarray(pairs, dtype=float)
    if pairs.ndim != 4 or not len(pairs) or pairs.shape[1:] != (r, 2, 2) or not 0 <= 2 * r <= n:
        raise ValueError(f"shapes do not match: z {z.shape}, rank {r}, pairs {pairs.shape}")
    worst = float(np.abs(pairs @ pairs.swapaxes(2, 3) - _EYE2).max(initial=0.0))
    if worst > _UNIT_NORM_TOL:
        raise ValueError(f"atom pairs must be orthonormal (max deviation {worst:.3e})")
    atoms = pairs.transpose(0, 2, 3, 1)  # basis, atom, coefficient, plane
    rows, harmonic = atoms[:, :, 0, :, None] * z[:r] + atoms[:, :, 1, :, None] * z[n - r :], z[r : n - r]
    return np.einsum("bjit,bjit->bji", rows, rows), np.einsum("ht,ht->h", harmonic, harmonic)


def plane_pursuit_curves(z, rank, dictionaries, levels) -> np.ndarray:
    """Joint OMP's squared residual norm at each level in [1, n], per dictionary: (len(dictionaries), len(levels)).

    ``z``, ``rank`` and each dictionary's pairs are as in ``plane_energies``;
    each dictionary is its pairs plus one identity atom per harmonic row (a
    frame's copies add nothing).  One ``plane_energies`` call takes every
    dictionary's atom energies: they are elementwise, so each curve is
    bit-identical to a call on its dictionary alone.  The planes are mutually
    orthogonal, so OMP's residual splits by plane.  A plane's gains are its
    best atom's energy (exact ties to the first atom listed), then its
    partner's, which spans the rest of the plane; a harmonic row's gain is its
    energy.  Every event's OMP score equals its gain, and a plane's second gain
    is at most its first, so the residual at level L sums all but the L largest
    gains, whichever of two equal gains is taken first:
    ``truncation_curves(gains, 0.0, gains, levels)`` (see it for ties and precision).
    """
    r, sizes = int(rank), [len(p) for p in dictionaries]
    planes, harmonic = plane_energies(z, r, np.concatenate(dictionaries))
    gains, plane = [], np.arange(r)
    for atoms in np.split(planes.reshape(2 * len(planes), r), 2 * np.cumsum(sizes)[:-1]):
        first = np.argmax(atoms, axis=0)  # exact ties go to the first atom listed
        gains.append(np.concatenate([atoms[first, plane], atoms[first ^ 1, plane], harmonic]))
    return truncation_curves(gains, 0.0, gains, levels)


def truncation_curves(rank_by, kept, dropped, levels) -> np.ndarray:
    """Per level b, the ``kept`` energy of the b rows largest in ``rank_by`` plus the others' ``dropped`` energy.

    ``kept`` and ``dropped`` broadcast to ``rank_by``, (..., n) with the rows
    last; the result is (..., len(levels)).  Tie rule: a stable sort ranks the
    rows, so of equal ``rank_by`` values the lower row is kept.  Precision
    rule: the dropped energies are summed from the lowest-ranked row up, never
    as a total minus the kept part (a cancellation error near 1e-16 of the
    total).  Raises ValueError naming each level not an integer in [1, n]; a
    bool is not one.
    """
    n, levels = np.shape(rank_by)[-1], list(levels)
    if bad := [lv for lv in levels if isinstance(lv, bool) or not (isinstance(lv, (int, np.integer)) and 1 <= lv <= n)]:
        raise ValueError(f"levels must be integers in [1, {n}], not {', '.join(map(str, bad))}")
    order = np.argsort(np.negative(rank_by, dtype=float), axis=-1, kind="stable")
    kept, dropped = (np.take_along_axis(np.broadcast_to(e, order.shape), order, -1) for e in (kept, dropped))
    zero = np.zeros((*order.shape[:-1], 1))
    head, tail = (np.cumsum(np.concatenate([zero, e], -1), -1) for e in (kept, dropped[..., ::-1]))
    return head[..., levels] + tail[..., n - np.array(levels, dtype=int)]


def nmse(S: np.ndarray, S_hat: np.ndarray) -> float:
    """Normalized mean squared error ||S - S_hat||_F^2 / ||S||_F^2."""
    S = np.asarray(S, dtype=float)
    S_hat = np.asarray(S_hat, dtype=float)
    denom = float(np.linalg.norm(S) ** 2)
    if denom == 0.0:
        raise ValueError("reference signal has zero norm")
    return float(np.linalg.norm(S - S_hat) ** 2) / denom


def row_hard_threshold(M: np.ndarray, eta0: int) -> np.ndarray:
    """Keep the eta0 rows with largest l2 norm, zeroing the rest.

    This is the Euclidean projection onto matrices with at most eta0 nonzero
    rows; norm ties at the cutoff are resolved toward lower row indices.  If
    the input has fewer than eta0 nonzero rows the output has fewer as well
    and a DegenerateRetractionWarning is issued.
    """
    M = np.asarray(M, dtype=float)
    num_rows = M.shape[0]
    if not (0 < eta0 <= num_rows):
        raise ValueError(f"eta0 must lie in [1, {num_rows}], got {eta0}")
    norms = np.sqrt(np.add.reduce(M * M, axis=1))  # np.linalg.norm(M, axis=1), without its overhead
    keep = np.argsort(-norms, kind="stable")[:eta0]
    if np.count_nonzero(norms) < eta0:
        warnings.warn(
            f"input has only {int(np.count_nonzero(norms))} nonzero rows; "
            f"fewer than eta0={eta0} rows remain nonzero",
            DegenerateRetractionWarning,
            stacklevel=2,
        )
    out = np.zeros(M.shape)
    out[keep] = M[keep]
    return out


def column_normalize(P: np.ndarray) -> np.ndarray:
    """Scale each column to unit l2 norm (projection onto the oblique manifold).

    Zero columns have no direction to keep; column j is replaced by the
    canonical basis vector e_j and a DegenerateRetractionWarning is issued.
    """
    P = np.asarray(P, dtype=float)
    norms = np.sqrt(np.add.reduce(P * P, axis=0))  # np.linalg.norm(P, axis=0), without its overhead
    if norms.all():
        return P / norms
    zero_cols = np.flatnonzero(norms == 0.0)
    out = P / np.where(norms == 0.0, 1.0, norms)
    warnings.warn(
        f"zero columns at indices {zero_cols.tolist()} replaced by canonical basis vectors",
        DegenerateRetractionWarning,
        stacklevel=2,
    )
    out[zero_cols % P.shape[0], zero_cols] = 1.0
    return out
