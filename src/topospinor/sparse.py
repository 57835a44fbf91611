"""Greedy sparse coding and the two retractions used by the transform learner.

``omp`` implements joint orthogonal matching pursuit (one support shared by
all signal columns) by progressive orthogonalization of the selected atoms,
on the n x n triangular factor of a batch with more signals than rows, with
the coefficients solved once at the end.

``planes.plane_pursuit_curves`` is the same pursuit for the sweep's
dictionaries, one mode plane at a time.

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
    "nmse",
    "row_hard_threshold",
    "column_normalize",
]

_UNIT_NORM_TOL = 1e-6
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
