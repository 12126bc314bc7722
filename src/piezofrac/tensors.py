"""Voigt-notation tensor algebra and closed-form orientation averaging.

Rank-2 symmetric tensors travel as length-6 vectors and rank-4 tensors
with minor symmetries as 6x6 matrices.  Strain-like vectors carry
engineering (doubled) shear components, stress-like vectors do not, and
the 6x6 conventions below keep matrix products meaningful for both
stiffness-like maps (strain -> stress) and concentration-like maps
(strain -> strain).  A stiffness holds the tensor entries T_ijkl as
they are; a strain map holds its three shear rows doubled.

Voigt ordering: 11, 22, 33, 23, 13, 12.

The uniform orientation average of a rank-4 tensor is computed in
closed form, as its isotropic projection (`isotropic_projection`),
which reads the tensor's two linear invariants off the 6x6 matrix.  For
a tensor that is transversely isotropic about the fiber axis, spinning
it about that axis or flipping the axis leaves it unchanged, so the
average over uniformly distributed fiber axes equals the average over
all rotations, which is exactly that projection.
"""

from __future__ import annotations

import numpy as np

# index pairs for the six Voigt slots
VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


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


def isotropic_projection(M, shear_rows):
    """Uniform orientation average of a minor-symmetric rank-4 tensor.

    M is its 6x6 Voigt matrix and shear_rows the factor r on the shear
    rows of M's convention: 1 for a stiffness, 2 for an engineering
    strain map.  The average is 3 alpha J + beta K with alpha = T_iijj / 9
    and beta = (T_ijij - 3 alpha) / 5 (Walpole, Adv. Appl. Mech. 21,
    1981), where T_iijj is the sum of M's normal block and T_ijij its
    normal trace plus 2/r times its shear trace.  These are the only
    rotation invariants linear in T, so this is the exact average of T
    over all rotations; T needs no major symmetry.  Returns the 6x6 of
    that average in M's convention: alpha - beta/3 + beta delta_IJ on
    the normal block and r beta / 2 on the shear diagonal.
    """
    M = np.asarray(M, dtype=float)
    alpha = float(M[:3, :3].sum()) / 9.0
    d = M.diagonal().tolist()
    beta = (sum(d[:3]) + (2.0 / shear_rows) * sum(d[3:]) - 3.0 * alpha) / 5.0
    out = np.diag([beta] * 3 + [0.5 * shear_rows * beta] * 3)
    out[:3, :3] += alpha - beta / 3.0
    return out
