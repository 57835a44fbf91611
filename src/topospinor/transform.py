"""Coupling-parameterized spectral basis interpolating Dirac and Laplacian modes.

Each non-harmonic singular triplet (sigma_i, u_i, v_i) contributes a pair of
basis columns whose node/edge mixing is controlled by a scalar coupling factor
k: the "minus" column (k u_i; -v_i) and the "plus" column (u_i; k v_i), both
optionally scaled to unit norm by 1/sqrt(1+k^2).  k = 1 reproduces the Dirac
eigenvectors, k = 0 the (sign-flipped) Laplacian ones, and intermediate values
continuously trade node energy against edge energy per mode.  The coupling is
the monotone reparameterization k = lambda / (sqrt(lambda^2 + m^2) + m) of a
nonnegative per-mode mass m; harmonic columns carry no coupling and are
identical for every k.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .topology import SpectralDecomposition, harmonic_columns

__all__ = [
    "CouplingVector",
    "MassBasis",
    "NonOrthonormalBasisWarning",
    "mass_to_coupling",
    "coupling_to_mass",
    "coupling_bases",
    "unnormalized_basis_matrix",
    "build_mass_basis",
    "forward_transform",
    "inverse_transform",
]

_GRAM_WARN_TOL = 1e-6


class NonOrthonormalBasisWarning(UserWarning):
    """Forward/inverse transform used with a basis whose Gram deviates from I."""


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


@dataclass(frozen=True)
class CouplingVector:
    """Per-mode coupling factors for both branches, box-constrained to [-c2, c1]."""

    k_minus: np.ndarray
    k_plus: np.ndarray
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        km = np.atleast_1d(np.asarray(self.k_minus, dtype=float))
        kp = np.atleast_1d(np.asarray(self.k_plus, dtype=float))
        if km.shape != kp.shape or km.ndim != 1:
            raise ValueError(f"branch couplings must be 1-D of equal length, got {km.shape}, {kp.shape}")
        if not (0.0 <= self.c1 <= 1.0 and 0.0 <= self.c2 <= 1.0):
            raise ValueError(f"box bounds must lie in [0, 1], got c1={self.c1}, c2={self.c2}")
        slack = 1e-12
        for name, arr in (("k_minus", km), ("k_plus", kp)):
            if np.any(arr > self.c1 + slack) or np.any(arr < -self.c2 - slack):
                raise ValueError(f"{name} violates the box [-{self.c2}, {self.c1}]")
        object.__setattr__(self, "k_minus", km)
        object.__setattr__(self, "k_plus", kp)

    @property
    def num_modes(self) -> int:
        return self.k_minus.shape[0]

    @classmethod
    def shared(cls, value: float, num_modes: int, c1: float = 1.0, c2: float = 1.0) -> "CouplingVector":
        k = np.full(num_modes, float(value))
        return cls(k, k.copy(), c1, c2)

    @classmethod
    def from_stacked(cls, stacked: np.ndarray, c1: float = 1.0, c2: float = 1.0) -> "CouplingVector":
        """Split a length-2r vector (minus block first) into the two branches."""
        stacked = np.asarray(stacked, dtype=float)
        if stacked.ndim != 1 or stacked.shape[0] % 2 != 0:
            raise ValueError(f"stacked coupling must be 1-D of even length, got shape {stacked.shape}")
        r = stacked.shape[0] // 2
        return cls(stacked[:r].copy(), stacked[r:].copy(), c1, c2)

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.k_minus, self.k_plus])


def coupling_bases(d: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fixed (offset, direction) column parts for the two branches.

    Minus column i is ``a_minus[:, i] + k * b_minus[:, i]`` and similarly for
    the plus branch; the direction parts are mutually orthonormal, which is
    what makes least-squares problems in k separable per coordinate.
    """
    V, E, r = d.num_nodes, d.num_edges, d.rank
    a_minus = np.vstack([np.zeros((V, r)), -d.v])
    b_minus = np.vstack([d.u, np.zeros((E, r))])
    a_plus = np.vstack([d.u, np.zeros((E, r))])
    b_plus = np.vstack([np.zeros((V, r)), d.v])
    return a_minus, b_minus, a_plus, b_plus


def nonharmonic_column_indices(d: SpectralDecomposition) -> np.ndarray:
    """Full-basis column indices of the 2r coupled columns (minus block, then plus)."""
    r, xi = d.rank, d.xi0 + d.xi1
    return np.concatenate([np.arange(r), np.arange(r + xi, 2 * r + xi)])


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


@dataclass
class MassBasis:
    """Coupling-parameterized dictionary with column order [minus | harmonic | plus]."""

    psi_bar: np.ndarray
    k: CouplingVector
    normalized: bool

    @property
    def dim(self) -> int:
        return self.psi_bar.shape[0]

    @cached_property
    def gram_deviation(self) -> float:
        """Max-abs deviation of psi_bar^T psi_bar from the identity."""
        g = self.psi_bar.T @ self.psi_bar
        return float(np.max(np.abs(g - np.eye(g.shape[0]))))


def build_mass_basis(d: SpectralDecomposition, k: CouplingVector, normalized: bool = True) -> MassBasis:
    """Build the coupling-parameterized basis for a spectral decomposition.

    With ``normalized`` the branch columns are scaled by 1/sqrt(1 + k^2) so
    every column has unit norm; the basis is then orthonormal exactly when the
    two branches share the same coupling per mode.
    """
    if k.num_modes != d.rank:
        raise ValueError(f"coupling has {k.num_modes} modes but decomposition has rank {d.rank}")
    psi = unnormalized_basis_matrix(d, k.k_minus, k.k_plus)
    if normalized:
        r, xi = d.rank, d.xi0 + d.xi1
        psi[:, :r] /= np.sqrt(1.0 + k.k_minus**2)
        psi[:, r + xi :] /= np.sqrt(1.0 + k.k_plus**2)
    return MassBasis(psi_bar=psi, k=k, normalized=normalized)


def _warn_if_not_orthonormal(basis: MassBasis) -> None:
    if basis.gram_deviation > _GRAM_WARN_TOL:
        warnings.warn(
            f"basis Gram deviates from identity by {basis.gram_deviation:.3e}; "
            "forward/inverse transforms are not mutually inverse",
            NonOrthonormalBasisWarning,
            stacklevel=3,
        )


def forward_transform(basis: MassBasis, s: np.ndarray) -> np.ndarray:
    """Spectral coefficients psi_bar^T s (vector or batch)."""
    s = np.asarray(s, dtype=float)
    if s.shape[0] != basis.dim:
        raise ValueError(f"signal has leading dimension {s.shape[0]}, expected {basis.dim}")
    _warn_if_not_orthonormal(basis)
    return basis.psi_bar.T @ s


def inverse_transform(basis: MassBasis, s_hat: np.ndarray) -> np.ndarray:
    """Signal psi_bar @ s_hat; inverts forward_transform only for shared couplings."""
    s_hat = np.asarray(s_hat, dtype=float)
    if s_hat.shape[0] != basis.dim:
        raise ValueError(f"coefficients have leading dimension {s_hat.shape[0]}, expected {basis.dim}")
    _warn_if_not_orthonormal(basis)
    return basis.psi_bar @ s_hat
