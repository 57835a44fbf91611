"""Greedy sparse coding and the two retractions used by the transform learner.

``omp`` implements joint orthogonal matching pursuit (one support shared by
all signal columns) by progressive orthogonalization of the selected atoms,
on the square triangular factor of a batch with more signals than rows
(``square_factor``), with the coefficients solved once at the end.

``row_energy_curve`` is the same pursuit for a square orthonormal
dictionary, where it reduces to sorting the rows of D^T S by energy
(Tropp, Gilbert & Strauss, 2006).  Its precision rule: the residual energy
at a level is the sum of the energies of the unselected rows, added smallest
first, never ||S||^2 minus the captured energy, so an exact representation
reports a residual near 1e-30 rather than a cancellation error near 1e-16.

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
    "row_energy_curve",
    "square_factor",
    "nmse",
    "row_hard_threshold",
    "column_normalize",
]

_UNIT_NORM_TOL = 1e-6
_ORTHONORMALITY_TOL = 1e-8
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


def omp(dictionary: np.ndarray, signals: np.ndarray, sparsity: int) -> SparseCode:
    """Joint orthogonal matching pursuit against a unit-column dictionary.

    One support is shared by every signal column.  At each step the atom
    with the largest summed squared correlation with the residual is
    selected; exact ties in the computed scores resolve to the lowest atom
    index.  The atom is then orthogonalized against the atoms already
    selected (Gram-Schmidt with one re-orthogonalization), and the residual
    and the correlations are updated by the new direction alone.  The
    least-squares coefficients are solved once, after the last step.

    When T > n the loop runs on the n x n triangular factor L of one reduced
    QR, S = L Q1^T with Q1^T Q1 = I.  This is exact: every step is a left
    multiplication of the residual or a sum over T of products of its rows
    (the scores, the residual norms), and both are unchanged by the right
    factor Q1^T, so the supports and residual norms are those of S itself.
    A step then costs O((N + n) min(n, T) + N n) rather than a fresh
    least-squares fit.

    Rank rule: an atom whose orthogonalized part has norm at most
    ``eps * max(n, sparsity)`` (the default ``lstsq`` cutoff) is kept in the
    support but adds no direction, so the residual is unchanged.  The
    coefficients then come from a ridge solve (ridge 1e-12) on the whole
    support, and the result is flagged ``ridge_regularized``.

    Parameters
    ----------
    dictionary : ndarray, shape (n, N)
        Atoms in columns; column norms must equal 1 within 1e-6.
    signals : ndarray, shape (n, T) or (n,)
        Signals to code (a single vector is treated as T = 1).
    sparsity : int
        Number of atoms to select.

    Raises
    ------
    ValueError
        On non-normalized dictionaries, sparsity out of range, or shape
        mismatch.  Rank-deficient supports do not raise (see the rank rule).
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
    residual = square_factor(signals).copy(order="K")
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


def square_factor(signals: np.ndarray) -> np.ndarray:
    """The n x n factor L of S = L Q1^T (Q1^T Q1 = I) when S has more columns than rows, else S.

    L is the transposed R of one reduced QR of S^T, so it is lower
    triangular.  Anything computed from S by left multiplications and sums
    over its columns of products of its rows (row energies, Gram matrices,
    residual norms) is the same computed from L.
    """
    return np.linalg.qr(signals.T, mode="r").T if signals.shape[1] > signals.shape[0] else signals


def row_energy_curve(
    dictionary: np.ndarray, signals: np.ndarray, levels
) -> tuple[tuple[int, ...], np.ndarray]:
    """Joint sparse coding in a square orthonormal dictionary, by row energies.

    For orthonormal D the joint OMP support after j steps is the j rows of
    D^T S with the largest energies (summed over the signals), and the
    residual is the part of S on the other rows.  Exact energy ties go to
    the lowest atom index, as in ``omp``.

    Precision rule: the residual energy at a level is the sum of the
    energies of the unselected rows, added smallest first.  It is never
    ||S||^2 minus the captured energy, which would leave a cancellation
    error near 1e-16 ||S||^2 where the representation is exact.

    Parameters
    ----------
    dictionary : ndarray, shape (n, n)
        Orthonormal atoms in columns: ``D^T D`` within 1e-8 of the identity.
    signals : ndarray, shape (n, T) or (n,)
        Signals to code (a single vector is treated as T = 1).
    levels : iterable of int
        Sparsity levels, each in [1, n].

    Returns
    -------
    support : tuple of int
        Atom indices in selection order, up to the largest level.
    residual : ndarray, shape (len(levels),)
        Squared Frobenius norm of the residual at each level.

    Raises
    ------
    ValueError
        On a dictionary that is not square and orthonormal, a shape
        mismatch, or a level outside [1, n].
    """
    dictionary = np.asarray(dictionary, dtype=float)
    signals = np.asarray(signals, dtype=float)
    if signals.ndim == 1:
        signals = signals[:, None]
    if dictionary.ndim != 2 or dictionary.shape[0] != dictionary.shape[1]:
        raise ValueError(f"dictionary must be square, got shape {dictionary.shape}")
    n = dictionary.shape[0]
    if signals.shape[0] != n:
        raise ValueError(f"dictionary {dictionary.shape} and signals {signals.shape} have incompatible shapes")
    deviation = float(np.max(np.abs(dictionary.T @ dictionary - np.eye(n)))) if n else 0.0
    if deviation > _ORTHONORMALITY_TOL:
        raise ValueError(f"dictionary must be orthonormal (Gram deviation {deviation:.3e})")
    levels = [int(lv) for lv in levels]
    bad = [lv for lv in levels if not 1 <= lv <= n]
    if bad:
        raise ValueError(f"levels must lie in [1, {n}], got {bad}")

    coeffs = dictionary.T @ signals
    energies = np.einsum("nt,nt->n", coeffs, coeffs)
    order = np.argsort(-energies, kind="stable")  # ties resolve to the lowest index
    # tail[j] is the energy of the rows order[j:], accumulated from the smallest.
    tail = np.append(np.cumsum(energies[order[::-1]])[::-1], 0.0)
    support = tuple(int(i) for i in order[: max(levels, default=0)])
    return support, tail[levels]


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
    norms = np.linalg.norm(M, axis=1)
    keep = np.argsort(-norms, kind="stable")[:eta0]
    if np.count_nonzero(norms) < eta0:
        warnings.warn(
            f"input has only {int(np.count_nonzero(norms))} nonzero rows; "
            f"fewer than eta0={eta0} rows remain nonzero",
            DegenerateRetractionWarning,
            stacklevel=2,
        )
    out = np.zeros_like(M)
    out[keep] = M[keep]
    return out


def column_normalize(P: np.ndarray) -> np.ndarray:
    """Scale each column to unit l2 norm (projection onto the oblique manifold).

    Zero columns have no direction to keep; column j is replaced by the
    canonical basis vector e_j and a DegenerateRetractionWarning is issued.
    """
    P = np.asarray(P, dtype=float)
    norms = np.linalg.norm(P, axis=0)
    zero_cols = np.flatnonzero(norms == 0.0)
    safe = np.where(norms == 0.0, 1.0, norms)
    out = P / safe
    if zero_cols.size:
        warnings.warn(
            f"zero columns at indices {zero_cols.tolist()} replaced by canonical basis vectors",
            DegenerateRetractionWarning,
            stacklevel=2,
        )
        for j in zero_cols:
            out[j % P.shape[0], j] = 1.0
    return out
