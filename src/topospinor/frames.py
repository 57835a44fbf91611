"""Overcomplete frame obtained by concatenating the Dirac and Laplacian eigenbases.

Stacking two orthonormal bases side by side gives a tight frame with frame
bound 2: F F^T = 2 I, so F (F^T s) / 2 reproduces any input s exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DiracLaplacianFrame", "build_frame"]

_ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class DiracLaplacianFrame:
    """Tight frame matrix of shape (V+E) x 2(V+E) with frame bound 2."""

    matrix: np.ndarray


def _orthonormality_defect(basis: np.ndarray) -> float:
    return float(np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))))


def build_frame(phi: np.ndarray, theta: np.ndarray) -> DiracLaplacianFrame:
    """Concatenate two orthonormal bases of the same space into a tight frame.

    Raises ValueError if the inputs have mismatched row counts or fail the
    orthonormality check (tolerance 1e-8).
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if phi.shape != theta.shape or phi.shape[0] != phi.shape[1]:
        raise ValueError(f"expected two square bases of equal shape, got {phi.shape} and {theta.shape}")
    for name, basis in (("first", phi), ("second", theta)):
        defect = _orthonormality_defect(basis)
        if defect > _ORTHONORMALITY_TOL:
            raise ValueError(f"{name} basis is not orthonormal (max Gram deviation {defect:.3e})")
    return DiracLaplacianFrame(np.hstack([phi, theta]))
