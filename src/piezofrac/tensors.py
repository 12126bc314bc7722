"""Voigt-notation tensor algebra and closed-form orientation averaging.

Rank-2 symmetric tensors travel as length-6 vectors and rank-4 tensors
with minor symmetries as 6x6 matrices.  Strain-like vectors carry
engineering (doubled) shear components, stress-like vectors do not, and
the 6x6 conventions below keep matrix products meaningful for both
stiffness-like maps (strain -> stress) and concentration-like maps
(strain -> strain).

Voigt ordering: 11, 22, 33, 23, 13, 12.

The four Voigt <-> full conversions are each one fancy-index gather
(and, for strain maps, one multiply) through read-only module tables
built at import: the slot of each index pair, the pair of each slot,
and the shear-row factors of the strain-map convention.

The uniform orientation average of a rank-4 tensor is computed in
closed form, as its isotropic projection (`isotropic_projection`).  For
a tensor that is transversely isotropic about the fiber axis, spinning
it about that axis or flipping the axis leaves it unchanged, so the
average over uniformly distributed fiber axes equals the average over
all rotations, which is exactly that projection.
"""

from __future__ import annotations

import numpy as np

# index pairs for the six Voigt slots
VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))

_SQRT2 = np.sqrt(2.0)

# isotropic projectors J = d_ij d_kl / 3 and K = I_sym - J
_DELTA = np.eye(3)
_J = np.einsum("ij,kl->ijkl", _DELTA, _DELTA) / 3.0
_K = 0.5 * (np.einsum("ik,jl->ijkl", _DELTA, _DELTA)
            + np.einsum("il,jk->ijkl", _DELTA, _DELTA)) - _J


def _voigt_tables():
    """Fancy indices and row factors of the Voigt <-> full conversions.

    slot[i, j] is the Voigt slot of the index pair (i, j) in either
    order, and (pair_i[I], pair_j[I]) the pair of slot I.  Returns the
    index that gathers a 6x6 matrix into the 3x3x3x3 tensor, the index
    that picks the matrix back out of the tensor, and the shear-row
    factors of the strain-map conversions: 1/2 toward the tensor (over
    the output pair (i, j)) and 2 toward the matrix.  All arrays are
    read-only.
    """
    slot = np.empty((3, 3), dtype=np.intp)
    for I, (i, j) in enumerate(VOIGT_PAIRS):
        slot[i, j] = slot[j, i] = I
    pair_i, pair_j = (np.array(t, dtype=np.intp) for t in zip(*VOIGT_PAIRS))
    normal = np.arange(6) < 3
    to_full = (slot[:, :, None, None], slot)
    from_full = (pair_i[:, None], pair_j[:, None], pair_i, pair_j)
    half = np.where(normal, 1.0, 0.5)[slot][:, :, None, None]
    double = np.where(normal, 1.0, 2.0)[:, None]
    for a in to_full + from_full + (half, double):
        a.flags.writeable = False
    return to_full, from_full, half, double


_TO_FULL, _FROM_FULL, _HALF_SHEAR_IJ, _DOUBLE_SHEAR_ROWS = _voigt_tables()


def stiffness_to_full(C):
    """6x6 stiffness -> full C_ijkl (both minor symmetries restored)."""
    return np.asarray(C, dtype=float)[_TO_FULL]


def full_to_stiffness(T):
    return np.asarray(T, dtype=float)[_FROM_FULL]


def strain_map_to_full(A):
    """6x6 strain->strain map (engineering convention) -> full A_ijkl.

    Rows 4..6 of the Voigt form hold doubled output shears, so the full
    tensor entry is half the stored value there; columns already absorb
    the input's engineering factor.
    """
    return _HALF_SHEAR_IJ * np.asarray(A, dtype=float)[_TO_FULL]


def full_to_strain_map(T):
    return _DOUBLE_SHEAR_ROWS * np.asarray(T, dtype=float)[_FROM_FULL]


def isotropic_stiffness(E, nu):
    """6x6 isotropic stiffness from Young's modulus and Poisson ratio."""
    if E <= 0.0:
        raise ValueError(f"Young's modulus must be positive, got {E}")
    if not -1.0 < nu < 0.5:
        raise ValueError(f"Poisson ratio outside (-1, 0.5): {nu}")
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    C = np.zeros((6, 6))
    C[:3, :3] = lam
    C[np.arange(3), np.arange(3)] += 2.0 * mu
    C[np.arange(3, 6), np.arange(3, 6)] = mu
    return C


def isotropic_projection(T):
    """Uniform orientation average of a minor-symmetric rank-4 tensor T.

    Returns the full isotropic tensor 3 alpha J + beta K with
    alpha = T_iijj / 9 and beta = (T_ijij - 3 alpha) / 5 (Walpole, Adv.
    Appl. Mech. 21, 1981).  T_iijj and T_ijij are the only rotation
    invariants linear in T, so this is the exact average of T over all
    rotations; T needs no major symmetry.
    """
    T = np.asarray(T, dtype=float)
    alpha = np.einsum("iijj->", T) / 9.0
    beta = (np.einsum("ijij->", T) - 3.0 * alpha) / 5.0
    return 3.0 * alpha * _J + beta * _K


def isotropic_part(C):
    """Closest isotropic stiffness to C plus a relative anisotropy measure.

    Returns (C_iso, E, nu, aniso) where aniso = ||C - C_iso||_F / ||C||_F.
    """
    C_iso = full_to_stiffness(isotropic_projection(stiffness_to_full(C)))
    lam, mu = C_iso[0, 1], C_iso[3, 3]
    E = mu * (3.0 * lam + 2.0 * mu) / (lam + mu)
    nu = lam / (2.0 * (lam + mu))
    # frame-invariant (Kelvin) norm: weight shear rows/columns by sqrt(2)
    k = np.array([1.0, 1.0, 1.0, _SQRT2, _SQRT2, _SQRT2])
    w = np.outer(k, k)
    nrm = np.linalg.norm(C * w)
    aniso = np.linalg.norm((C - C_iso) * w) / nrm if nrm > 0.0 else 0.0
    return C_iso, E, nu, aniso
