"""Coupling-parameterized spectral basis interpolating Dirac and Laplacian modes.

Each non-harmonic singular triplet (sigma_i, u_i, v_i) contributes a pair of
basis columns whose node/edge mixing is controlled by a scalar coupling factor
k: the "minus" column (k u_i; -v_i) and the "plus" column (u_i; k v_i), both
scaled to unit norm by 1/sqrt(1+k^2) in the basis.  k = 1 reproduces the Dirac
eigenvectors, k = 0 the (sign-flipped) Laplacian ones, and intermediate values
continuously trade node energy against edge energy per mode.  The coupling is
the monotone reparameterization k = lambda / (sqrt(lambda^2 + m^2) + m) of a
nonnegative per-mode mass m; harmonic columns carry no coupling and are
identical for every k.
"""

from __future__ import annotations

import numpy as np

from .topology import SpectralDecomposition, harmonic_columns

__all__ = [
    "mass_to_coupling",
    "coupling_to_mass",
    "unnormalized_basis_matrix",
    "build_mass_basis",
]


def mass_to_coupling(lam, m):
    """Coupling factor k = lam / (sqrt(lam^2 + m^2) + m) in (0, 1].

    Strictly decreasing in the mass m, equal to 1 at m = 0 (Dirac regime) and
    tending to 0 as m grows (Laplacian regime).  Accepts scalars or arrays.
    """
    lam = np.asarray(lam, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("frequency lambda must be positive")
    if np.any(m < 0):
        raise ValueError("mass must be nonnegative")
    out = lam / (np.hypot(lam, m) + m)
    return float(out) if out.ndim == 0 else out


def coupling_to_mass(lam, k):
    """Inverse of mass_to_coupling: m = lam (1 - k^2) / (2 k) for k in (0, 1]."""
    lam = np.asarray(lam, dtype=float)
    k = np.asarray(k, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("frequency lambda must be positive")
    if np.any(k <= 0) or np.any(k > 1):
        raise ValueError("coupling must lie in (0, 1]; negative couplings have no mass interpretation")
    out = lam * (1.0 - k**2) / (2.0 * k)
    return float(out) if out.ndim == 0 else out


def unnormalized_basis_matrix(d: SpectralDecomposition, k_minus: np.ndarray, k_plus: np.ndarray) -> np.ndarray:
    """Assemble [(k- u; -v) | harmonic | (u; k+ v)] without column scaling."""
    V, E, r = d.num_nodes, d.num_edges, d.rank
    n = V + E
    psi = np.zeros((n, n))
    psi[:V, :r] = d.u * k_minus
    psi[V:, :r] = -d.v
    psi[:, r : r + d.xi0 + d.xi1] = np.hstack(harmonic_columns(d))
    plus0 = r + d.xi0 + d.xi1
    psi[:V, plus0 : plus0 + r] = d.u
    psi[V:, plus0 : plus0 + r] = d.v * k_plus
    return psi


def build_mass_basis(d: SpectralDecomposition, k_minus: np.ndarray, k_plus: np.ndarray) -> np.ndarray:
    """The unit-column coupling-parameterized basis, columns [minus | harmonic | plus].

    The branch columns are scaled by 1/sqrt(1 + k^2) so every column has unit
    norm; the basis is then orthonormal exactly when the two branches share
    the same coupling per mode.
    """
    if k_minus.shape != (d.rank,) or k_plus.shape != (d.rank,):
        raise ValueError(f"couplings of shapes {k_minus.shape} and {k_plus.shape} for a decomposition of rank {d.rank}")
    psi = unnormalized_basis_matrix(d, k_minus, k_plus)
    r, xi = d.rank, d.xi0 + d.xi1
    psi[:, :r] /= np.sqrt(1.0 + k_minus**2)
    psi[:, r + xi :] /= np.sqrt(1.0 + k_plus**2)
    return psi
