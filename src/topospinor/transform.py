"""The dense (V+E) x (V+E) coupling-parameterized basis, which the plane model of ``planes`` never forms.

Each non-harmonic singular triplet (sigma_i, u_i, v_i) contributes the
"minus" column (k u_i; -v_i) and the "plus" column (u_i; k v_i), scaled to
unit norm by 1/sqrt(1+k^2) in the basis; the harmonic columns carry no
coupling.  k = 1 reproduces the Dirac eigenvectors and k = 0 the
(sign-flipped) Laplacian ones.  No study builds it: the tests' dense oracles
and ``ddtl-fit``'s solution do.
"""

from __future__ import annotations

import numpy as np

from .topology import SpectralDecomposition, harmonic_columns

__all__ = ["unnormalized_basis_matrix", "build_mass_basis"]


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
