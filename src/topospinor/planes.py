"""The plane model: in spectral coordinates every non-harmonic mode is one 2-D plane, every harmonic mode one row.

Row layout.  A batch S of n = V + E rows is read as z = Q^T S, in the
orthonormal frame Q = [(u; 0) | (u_H; 0) | (0; v_H) | (0; v)] of
``topology.project``.  Mode plane i of the r = rank planes,
span{(u_i; 0), (0; v_i)}, is the rows z_u = z[i] and z_v = z[n - r + i];
the n - 2r rows between are harmonic.  Every function here takes z (n x T,
or n) or its plane reduction (``reduce_planes``), which keeps each plane's
Gram and each harmonic row's norm: rotations within a plane, row energies
and within-plane sums over the signals of products of rows read the same on
both, since none changes when a plane's 2 x T block z_i becomes z_i Q for an
orthogonal Q.

Atom pairs.  A basis is one orthonormal pair of atoms per plane, (B, r, 2, 2)
with row j of a plane's 2 x 2 holding atom j's (z_u, z_v) coefficients, and
one identity atom per harmonic row.  The sweep's four (``_plane_bases``), each
in its dense columns' order: Laplacian ((1, 0), (0, 1)), Dirac
((c, -c), (c, c)) with c = 1/sqrt(2), learned ((k, -1), (1, k)) / sqrt(1 + k^2)
and the frame [Dirac, Laplacian].

The box.  The learned pair's plus atom is (cos theta, sin theta) and its minus
atom (sin theta, -cos theta), theta = atan k, for one coupling k in [0, 1] per
mode: the paper's mass m >= 0 (``mass_to_coupling``), k = 1 the Dirac pair and
k = 0 the Laplacian one.  The learned k takes the plane's principal axis,
phi = atan2(2 <z_u, z_v>, ||z_u||^2 - ||z_v||^2) / 2 mod 90 degrees, clipped
to the box (Eckart & Young, 1936, per 2 x 2 block): theta = phi up to 45
degrees, 45 up to 67.5 and 0 beyond.  That pair is optimal for every sparsity
at once, costs one pass over the batch and has no settings.

Tie rules.  An axis at exactly 67.5 or 157.5 degrees, a zero block and an
isotropic block (equal energies, zero cross term) get k = 1.  In the pursuit
an exact tie for a plane's best atom goes to the first atom listed, as in
dense OMP.  A truncation ranks the rows by a stable sort, so of equal values
the lower row is kept.

Precision rules.  Clean energies are sums of squares of rotated rows
(``plane_energies``), so never below 0 and accurate to their own size; noisy
and error energies are quadratic forms of the plane Grams (``_row_energies``),
accurate to about 1e-16 of their plane's energy.  A truncation sums the
dropped energies from the lowest-ranked row up, never as a total minus the
kept part (a cancellation error near 1e-16 of the total).

A level (a sparsity or a bandwidth) is an integer, not a bool, in [1, n]
(``check_levels``).  The underscored helpers are the studies' own, for
``experiments``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mass_to_coupling",
    "coupling_to_mass",
    "check_levels",
    "reduce_planes",
    "plane_grams",
    "coupling_from_grams",
    "fit_coupling",
    "plane_energies",
    "plane_pursuit_curves",
    "truncation_curves",
]

_UNIT_NORM_TOL = 1e-6


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


def check_levels(name: str, levels, n: int | None) -> None:
    """The level rule: refuse, by ``name``, a level that is not an integer (a bool is not one), then one outside
    [1, n], n = V + E.  With n None the range is left to a later call."""
    if bad := [lv for lv in levels if isinstance(lv, bool) or not isinstance(lv, (int, np.integer))]:
        raise ValueError(f"{name} must be integers, not {', '.join(map(repr, bad))}")
    if n is not None and not all(1 <= lv <= n for lv in levels):
        raise ValueError(f"{name} must lie in [1, V + E = {n}], got {levels}")


def reduce_planes(z: np.ndarray, rank: int) -> np.ndarray:
    """z2 (n x min(T, 2)) of a projected batch z: each mode plane's 2 x T block as its 2 x 2 triangle.

    One batched R-only QR writes z_i^T = Q_i R_i; z2 holds R_i[:, 0] in row i,
    R_i[:, 1] in row n - rank + i and each harmonic row's norm in column 0.
    """
    (n, T), r = z.shape, int(rank)
    harmonic = z[r : n - r]
    tri = np.linalg.qr(np.stack([z[:r], z[n - r :]], axis=-1), mode="r")
    z2 = np.zeros((n, min(T, 2)))
    z2[:r], z2[n - r :] = tri[..., 0], tri[..., 1]
    z2[r : n - r, 0] = np.sqrt(np.einsum("ht,ht->h", harmonic, harmonic))
    return z2


def plane_grams(z: np.ndarray, rank: int) -> np.ndarray:
    """Each mode plane's Gram: (3, rank), the rows ||z_u||^2, <z_u, z_v> and ||z_v||^2."""
    z = np.asarray(z, dtype=float).reshape(len(z), -1)
    n, r = len(z), int(rank)
    z_u, z_v = z[:r], z[n - r :]
    return np.stack([np.einsum("it,it->i", z_u, z_u), np.einsum("it,it->i", z_u, z_v), np.einsum("it,it->i", z_v, z_v)])


def coupling_from_grams(grams: np.ndarray) -> np.ndarray:
    """The coupling k in [0, 1] of each mode from its plane's Gram: ``grams`` (..., 3, r) to k (..., r).

    The rule of the module notes, evaluated without angles: with
    x = ||z_u||^2 - ||z_v||^2 and y = 2 <z_u, z_v>, both negated when y < 0,
    the point (x, y) lies at twice the principal axis mod 90 degrees, in
    [0, 180].  Up to 90 (x >= 0) k is the half-angle tangent
    y / (x + hypot(x, y)); up to 135 (x + y >= 0, the ties included) k = 1;
    beyond, k = 0.  A zero or isotropic block has x = y = 0 and gets k = 1.
    Any leading shape is one fit per index.
    """
    uu, cross, vv = np.moveaxis(np.asarray(grams, dtype=float), -2, 0)
    diff = uu - vv
    x, y = np.where(cross < 0.0, -diff, diff), 2.0 * np.abs(cross)
    radius = np.hypot(x, y)
    k = (x + y >= 0.0).astype(float)
    below = (x >= 0.0) & (radius > 0.0)
    k[below] = y[below] / (x[below] + radius[below])
    return k


def fit_coupling(z: np.ndarray, rank: int) -> np.ndarray:
    """The coupling k in [0, 1] of each mode whose learned pairs best code the batch: ``coupling_from_grams`` of
    ``plane_grams(z, rank)``."""
    return coupling_from_grams(plane_grams(z, rank))


def _plane_bases(k: np.ndarray) -> dict[str, np.ndarray]:
    """The four sweep dictionaries' atom pairs (module notes): (bases, r, 2, 2) each, learned at the shared coupling
    k, one basis per row of a fits x r array of couplings; the Laplacian and Dirac pairs are read-only views of one
    2 x 2 each."""
    k = np.atleast_2d(np.asarray(k, dtype=float))  # one learned basis per row
    one = np.ones_like(k)
    ddtl = np.stack([k, -one, one, k], axis=-1).reshape(*k.shape, 2, 2) / np.sqrt(1.0 + k**2)[..., None, None]
    dirac = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)  # 1/sqrt(2) as in dirac_eigenbasis
    laplacian, dirac = (np.broadcast_to(pair, (1, k.shape[-1], 2, 2)) for pair in (np.eye(2), dirac))
    return {"laplacian": laplacian, "dirac": dirac, "frame": np.concatenate([dirac, laplacian]), "ddtl": ddtl}


def _plane_factor(support: np.ndarray, coefficients: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """z2 (n x min(T, 2)) of the batch whose support rows ``coefficients`` sit in the learned pairs at k.

    Plane i's T-wide block A_i^T c_i (A_i the pair of ``_plane_bases`` at k_i, c_i the plane's minus and plus
    rows) and its factor W_i = R_i A_i share their Gram, where R_i is zero for a plane with no supported column,
    ||c|| in the slot of a plane's one supported column, and the R-only QR triangle of c_i^T for a plane with both:
    one batched QR over those planes alone.  W_i goes into z2 as ``reduce_planes`` places its triangles.
    """
    r, T = len(k), coefficients.shape[1]
    plane, plus = support % r, support >= r
    both = np.bincount(plane, minlength=r)[plane] == 2  # per support row: its plane holds two
    tri = np.zeros((r, min(T, 2), 2))
    tri[plane[~both], 0, plus[~both].astype(int)] = np.linalg.norm(coefficients[~both], axis=1)
    blocks = np.stack([coefficients[both & ~plus], coefficients[both & plus]], axis=-1)  # sorted support: planes align
    tri[plane[both & ~plus]] = np.linalg.qr(blocks, mode="r")
    factor = tri @ _plane_bases(k)["ddtl"][0]
    return np.concatenate([factor[..., 0], np.zeros((n - 2 * r, min(T, 2))), factor[..., 1]])


def plane_energies(z, rank, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The energies of z's rows rotated into atom pairs (B, rank, 2, 2), as sums of squares (module notes).

    Returns the energies of the rotated rows c_u z_u + c_v z_v, (B, 2, rank)
    per basis, atom and plane, and those of the harmonic rows, (n - 2 rank,).
    Raises ValueError on mismatched shapes (shared (B, 1, 2, 2) pairs
    included, at rank 2 or more), or naming the largest deviation, on pairs
    not orthonormal to 1e-6.
    """
    z = np.asarray(z, dtype=float).reshape(len(z), -1)
    n, r, pairs = len(z), int(rank), np.asarray(pairs, dtype=float)
    if pairs.ndim != 4 or not len(pairs) or pairs.shape[1:] != (r, 2, 2) or not 0 <= 2 * r <= n:
        raise ValueError(f"shapes do not match: z {z.shape}, rank {r}, pairs {pairs.shape}")
    worst = float(np.abs(pairs @ pairs.swapaxes(2, 3) - np.eye(2)).max(initial=0.0))
    if worst > _UNIT_NORM_TOL:
        raise ValueError(f"atom pairs must be orthonormal (max deviation {worst:.3e})")
    atoms = pairs.transpose(0, 2, 3, 1)  # basis, atom, coefficient, plane
    rows, harmonic = atoms[:, :, 0, :, None] * z[:r] + atoms[:, :, 1, :, None] * z[n - r :], z[r : n - r]
    return np.einsum("bjit,bjit->bji", rows, rows), np.einsum("ht,ht->h", harmonic, harmonic)


def _grams(z, rank) -> tuple[np.ndarray, np.ndarray]:
    """A projected batch's plane Grams (``plane_grams``) and its harmonic rows' energies."""
    harmonic = z[rank : len(z) - rank]
    return plane_grams(z, rank), np.einsum("ht,ht->h", harmonic, harmonic)


def _row_energies(grams, harmonic, pairs) -> np.ndarray:
    """The energies of ``plane_energies(z, rank, pairs)``, per basis, as quadratic forms of ``_grams`` of z.

    ``grams`` is (..., 3, r), ``harmonic`` (..., n - 2r) and ``pairs``
    (..., B, r, 2, 2); the result is (..., B, n), in ``_with_harmonic``'s row
    order.  Atom (c_u, c_v) of plane i has the energy
    c_u^2 ||z_u||^2 + 2 c_u c_v <z_u, z_v> + c_v^2 ||z_v||^2.
    """
    c_u, c_v = np.moveaxis(pairs, -1, 0).swapaxes(-1, -2)  # (..., B, atom, plane)
    uu, cross, vv = np.moveaxis(grams[..., None, None, :, :], -2, 0)
    planes = c_u**2 * uu + 2.0 * c_u * c_v * cross + c_v**2 * vv
    return _with_harmonic(planes.reshape(*planes.shape[:-2], -1), harmonic)


def _with_harmonic(planes, harmonic) -> np.ndarray:
    """Per basis, the plane rows' energies (..., B, 2r) followed by the harmonic rows' (..., n - 2r): the rows
    [first atoms | second atoms | harmonic rows] that every truncation ranks."""
    harmonic = np.broadcast_to(harmonic[..., None, :], (*planes.shape[:-1], harmonic.shape[-1]))
    return np.concatenate([planes, harmonic], axis=-1)


def plane_pursuit_curves(z, rank, dictionaries, levels) -> np.ndarray:
    """Joint OMP's squared residual norm at each level, per dictionary of atom pairs: (len(dictionaries), len(levels)).

    One ``plane_energies`` call takes every dictionary's atom energies: they
    are elementwise, so each curve is bit-identical to a call on its
    dictionary alone.  The planes are mutually orthogonal, so OMP's residual
    splits by plane (Tropp, Gilbert & Strauss, 2006).  A plane's gains are its
    best atom's energy, then its partner's, which spans the rest of the plane;
    a harmonic row's gain is its energy (a frame's copy adds nothing).  Every
    event's OMP score equals its gain, and a plane's second gain is at most
    its first, so the residual at level L sums all but the L largest gains,
    whichever of two equal gains is taken first:
    ``truncation_curves(gains, 0.0, gains, levels)``.
    """
    r, sizes = int(rank), [len(p) for p in dictionaries]
    planes, harmonic = plane_energies(z, r, np.concatenate(dictionaries))
    gains, plane = [], np.arange(r)
    for atoms in np.split(planes.reshape(2 * len(planes), r), 2 * np.cumsum(sizes)[:-1]):
        first = np.argmax(atoms, axis=0)  # exact ties go to the first atom listed
        gains.append(np.concatenate([atoms[first, plane], atoms[first ^ 1, plane]]))
    gains = _with_harmonic(np.array(gains), harmonic)
    return truncation_curves(gains, 0.0, gains, levels)


def truncation_curves(rank_by, kept, dropped, levels) -> np.ndarray:
    """Per level b, the ``kept`` energy of the b rows largest in ``rank_by`` plus the others' ``dropped`` energy.

    ``kept`` and ``dropped`` broadcast to ``rank_by``, (..., n) with the rows
    last; the result is (..., len(levels)), under the truncation tie rule and
    the summation precision rule of the module notes.  Raises ValueError on a level that
    breaks the level rule.
    """
    n, levels = np.shape(rank_by)[-1], list(levels)
    check_levels("levels", levels, n)
    order = np.argsort(np.negative(rank_by, dtype=float), axis=-1, kind="stable")
    zero = np.zeros((*order.shape[:-1], 1))
    dropped = np.take_along_axis(np.broadcast_to(dropped, order.shape), order, -1)
    curves = np.cumsum(np.concatenate([zero, dropped[..., ::-1]], -1), -1)[..., n - np.array(levels, dtype=int)]
    if np.any(kept):  # an all-zero kept, as in the pursuit, would add 0.0 at every level
        kept = np.take_along_axis(np.broadcast_to(kept, order.shape), order, -1)
        curves = np.cumsum(np.concatenate([zero, kept], -1), -1)[..., levels] + curves
    return curves
