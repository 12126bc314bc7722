"""Mean-field elastic homogenization and crack-bridging fracture energy.

A three-phase composite (polymer matrix, stiff fibers, soft coating
layer around each fiber) is homogenized with a dilute-concentration
scheme normalized over all phases.  Fibers are prolate spheroids with a
common aspect ratio, oriented with a uniform density.  That orientation
average is computed in closed form: each phase's concentration tensors
are transversely isotropic about the fiber axis, so their uniform
average is exactly their isotropic projection, read off the 6x6 Voigt
matrices.  The fracture-energy model adds the work of fiber pull-out and
rupture across a bridged crack to the matrix toughness.

What does not depend on the filler fraction is memoized, read-only, so
the cards of a filler-fraction sweep share it: each phase's isotropic
stiffness on (E, nu) (`_stiffness`), its no-contrast test against the
matrix (`_contrast_free`), its orientation-averaged concentration
tensors on (kappa, E_m, nu_m, E_phase, nu_phase) (`_phase_averages`),
and the break points of the bridging integral, where a fiber's strength
changes sign and where pull-out gives way to rupture, on (D, L, tau,
sigma_ult, A, mu) (`_break_points`).  The bridging integral itself is
not memoized: its absolute tolerance scales with the filler fraction.
`effective_stiffness` hands out a fresh array on every path.

All inputs are SI.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize

from . import tensors


class PhaseContrastError(ValueError):
    """Raised when a phase pair has no usable stiffness contrast."""


def sphericity(kappa):
    """Sphericity of a prolate spheroid with aspect ratio kappa >= 1.

    Ratio of the surface area of the volume-equivalent sphere to the
    spheroid's own surface area; 1 for a sphere, decreasing toward 0
    for slender fibers.
    """
    if kappa < 1.0:
        raise ValueError(f"aspect ratio must be >= 1, got {kappa}")
    if kappa == 1.0:
        return 1.0
    x = math.acos(1.0 / kappa)
    t = math.tan(x)
    return 2.0 * kappa ** (2.0 / 3.0) * t / (t + kappa ** 2 * x)


def interphase_volume_fraction(f_p, kappa, t, D):
    """Volume fraction of coating layers of thickness t around fibers.

    Accounts for layer overlap at finite filler content, so the result
    saturates instead of growing without bound.
    """
    if not 0.0 <= f_p < 1.0:
        raise ValueError(f"filler fraction outside [0, 1): {f_p}")
    if t < 0.0 or D <= 0.0:
        raise ValueError(f"bad layer thickness {t} or diameter {D}")
    if f_p == 0.0 or t == 0.0:
        return 0.0
    n = sphericity(kappa)
    D_eq = D * kappa ** (1.0 / 3.0)
    eta = t / D_eq
    c = f_p / (1.0 - f_p)
    poly = (eta / n
            + (2.0 + 3.0 * c / n ** 2) * eta ** 2
            + (4.0 / 3.0) * (1.0 + 3.0 * c / n) * eta ** 3)
    return (1.0 - f_p) * (1.0 - math.exp(-6.0 * c * poly))


def eshelby_prolate(kappa, nu_m):
    """Interior Eshelby tensor of a prolate spheroid in an isotropic matrix.

    The spheroid's symmetry axis is local x3.  Returned as a 6x6
    strain->strain map in engineering Voigt convention.  kappa = 1 uses
    the exact sphere expressions.
    """
    if kappa < 1.0:
        raise ValueError(f"aspect ratio must be >= 1, got {kappa}")
    if not -1.0 < nu_m < 0.5:
        raise ValueError(f"matrix Poisson ratio outside (-1, 0.5): {nu_m}")
    nu = nu_m
    # V[I, J] is the tensor component S_ijkl of the Voigt slots I = (i, j)
    # and J = (k, l); the strain-map convention doubles the shear rows
    V = np.zeros((6, 6))
    if kappa == 1.0:
        V[:3, :3] = (5.0 * nu - 1.0) / (15.0 * (1.0 - nu))
        V[[0, 1, 2], [0, 1, 2]] = (7.0 - 5.0 * nu) / (15.0 * (1.0 - nu))
        V[[3, 4, 5], [3, 4, 5]] = (4.0 - 5.0 * nu) / (15.0 * (1.0 - nu))
    else:
        # unit transverse semi-axes, long axis kappa along x3
        k2 = kappa * kappa
        e = k2 - 1.0
        I1 = (2.0 * np.pi * kappa / e ** 1.5
              * (kappa * math.sqrt(e) - math.acosh(kappa)))
        I3 = 4.0 * np.pi - 2.0 * I1
        I13 = (I1 - I3) / e
        I11 = np.pi - 0.25 * I13
        I12 = I11
        I33 = (4.0 * np.pi / k2 - 2.0 * I13) / 3.0

        q = 1.0 / (8.0 * np.pi * (1.0 - nu))
        m = (1.0 - 2.0 * nu)

        V[0, 0] = V[1, 1] = q * (3.0 * I11 + m * I1)
        V[2, 2] = q * (3.0 * k2 * I33 + m * I3)
        V[0, 1] = V[1, 0] = q * (I12 - m * I1)
        V[0, 2] = V[1, 2] = q * (k2 * I13 - m * I1)
        V[2, 0] = V[2, 1] = q * (I13 - m * I3)
        V[5, 5] = q * (I12 + m * I1)
        V[3, 3] = V[4, 4] = 0.5 * q * ((1.0 + k2) * I13 + m * (I1 + I3))
    V[3:] *= 2.0
    return V


def dilute_concentration(C_incl, C_m, S):
    """Dilute strain concentration of one inclusion phase.

    A = I + S T with T = -(S + M)^{-1} and M = (C_incl - C_m)^{-1} C_m.
    All arguments and the result are 6x6 engineering-Voigt matrices.
    """
    dC = np.asarray(C_incl, dtype=float) - np.asarray(C_m, dtype=float)
    if np.linalg.cond(dC) > 1e12:
        raise PhaseContrastError(
            "inclusion and matrix stiffness are (numerically) identical; "
            "no dilute concentration exists")
    M = np.linalg.solve(dC, np.asarray(C_m, dtype=float))
    T = -np.linalg.inv(S + M)
    return np.eye(6) + S @ T


def _phases_match(C_a, C_b):
    """np.allclose(C_a, C_b, rtol=1e-12, atol=1e-12 ||C_b||), written out.

    |a - b| <= atol + rtol |b| entrywise; a non-finite entry in either
    matrix never matches.
    """
    atol = 1e-12 * np.linalg.norm(C_b)
    return bool(math.isfinite(atol) and np.all(
        np.abs(C_a - C_b) <= atol + 1e-12 * np.abs(C_b)))


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


_EYE6 = _read_only(np.eye(6))[0]


@lru_cache(maxsize=256)
def _stiffness(E, nu):
    """Read-only `tensors.isotropic_stiffness(E, nu)`, shared by every
    caller with the same phase."""
    return _read_only(tensors.isotropic_stiffness(E, nu))[0]


@lru_cache(maxsize=256)
def _contrast_free(E_m, nu_m, E, nu):
    """Whether the phase (E, nu) matches the matrix (E_m, nu_m)."""
    return _phases_match(_stiffness(E, nu), _stiffness(E_m, nu_m))


@lru_cache(maxsize=256)
def _phase_averages(kappa, E_m, nu_m, E, nu):
    """Orientation averages of A and C A for one phase of a fiber composite.

    The phase (E, nu) sits in the matrix (E_m, nu_m) with the Eshelby
    tensor of a prolate spheroid of aspect ratio kappa, and A is its
    dilute strain concentration; a phase with no contrast concentrates
    strain 1:1.  The pair is read-only, since every caller with the
    same key shares it.
    """
    C_m = _stiffness(E_m, nu_m)
    if _contrast_free(E_m, nu_m, E, nu):
        return _EYE6, C_m
    C_phase = _stiffness(E, nu)
    A = dilute_concentration(C_phase, C_m, eshelby_prolate(kappa, nu_m))
    return _read_only(tensors.isotropic_projection(A, 2),
                      tensors.isotropic_projection(C_phase @ A, 1))


def effective_stiffness(spec):
    """Effective 6x6 stiffness of the three-phase fiber composite.

    Dilute concentration tensors A of fiber and coating (both with the
    fiber-shaped Eshelby tensor) and the products C A are averaged over
    the uniform orientation density and normalized over all phases.
    The average is computed in closed form, as the isotropic projection
    `tensors.isotropic_projection` of each 6x6 (shear-row factor 2 for
    the strain map A, 1 for the stiffness-like C A).  It is exact
    because isotropic phases and a spheroidal shape make A and C A
    transversely isotropic about the fiber axis, so the spin about the
    axis and the sign of the axis drop out of the uniform average.
    Returns the matrix stiffness outright when the filler content is
    zero or when no phase has any contrast with the matrix.
    """
    C_m = _stiffness(spec.E_m, spec.nu_m)
    if spec.f_p0 == 0.0:
        return C_m.copy()
    # coating takes the matrix Poisson ratio; fiber material is isotropic
    coating = (spec.E_i, spec.nu_m)
    fiber = (spec.E_cnt, spec.nu_cnt)
    if all(_contrast_free(spec.E_m, spec.nu_m, *phase)
           for phase in (coating, fiber)):
        return C_m.copy()

    f_p = spec.f_p0
    f_i = interphase_volume_fraction(f_p, spec.kappa, spec.t_i, spec.D_cnt)
    f_m = 1.0 - f_p - f_i
    if f_m <= 0.0:
        raise ValueError(
            f"matrix fraction not positive (f_p={f_p}, f_i={f_i:.4f})")

    def averages(phase, weight):
        # a phase with no volume concentrates strain 1:1
        if weight == 0.0:
            return _EYE6, C_m
        return _phase_averages(spec.kappa, spec.E_m, spec.nu_m, *phase)

    A_i_avg, CA_i_avg = averages(coating, f_i)
    A_p_avg, CA_p_avg = averages(fiber, f_p)

    N = f_m * _EYE6 + f_i * A_i_avg + f_p * A_p_avg
    C = (f_m * C_m + f_i * CA_i_avg + f_p * CA_p_avg) @ np.linalg.inv(N)
    return 0.5 * (C + C.T)


def effective_engineering_constants(spec):
    """(E, nu) of the isotropic part of the effective stiffness, from
    its Lame constants lambda = C_12 and mu = C_44."""
    C_iso = tensors.isotropic_projection(effective_stiffness(spec), 1)
    lam, mu = C_iso[0, 1], C_iso[3, 3]
    return mu * (3.0 * lam + 2.0 * mu) / (lam + mu), lam / (2.0 * (lam + mu))


# strength loss per unit tan(inclination) of a fiber pulled out obliquely
_A_SNUB = 0.083


@lru_cache(maxsize=256)
def _break_points(D, L, tau, sig_u, A, mu):
    """Interior break points of the bridging integral over inclination.

    The strength sign change atan(1/A) and the pull-out/rupture switch,
    where the critical length of `fracture_energy`'s integrand reaches
    L, as a sorted tuple.
    """
    pts = []
    th_hi = math.atan(1.0 / A) if A > 0.0 else math.inf
    if 0.0 < th_hi < 0.5 * np.pi:
        pts.append(th_hi)

    def lc_gap(th):
        return sig_u * (1.0 - A * math.tan(th)) * D / (
            2.0 * tau * math.exp(mu * th)) - L

    lo = 0.0
    hi = min(0.5 * np.pi, th_hi * (1.0 - 1e-12))
    if lo < hi and lc_gap(lo) * lc_gap(hi) < 0.0:
        pts.append(optimize.brentq(lc_gap, lo, hi))
    return tuple(sorted(pts))


def fracture_energy(spec):
    """Critical energy release rate including fiber bridging.

    G_c = G_0 + G_br, where G_br integrates the per-fiber bridging work
    over embedded length (analytically, split at the pull-out/rupture
    transition) and over the uniform inclination density on [0, pi/2]
    (adaptively).
    """
    if spec.f_p0 == 0.0:
        return spec.G0
    D, L = spec.D_cnt, spec.L_cnt
    tau, sig_u, E_f = spec.tau_int, spec.sigma_ult, spec.E_cnt
    A, mu = _A_SNUB, spec.mu_snub
    g = 1.0 / (0.5 * np.pi)
    A_cnt = np.pi * D ** 2 / 4.0
    W_rup = np.pi * D ** 2 * sig_u ** 2 * L / (8.0 * E_f)
    # factors of the integrand, grouped as its products evaluate them
    half_pi, half_L, two_tau = 0.5 * np.pi, 0.5 * L, 2.0 * tau
    pull_coef = 0.5 * tau * np.pi * D
    exp, tan, cos = math.exp, math.tan, math.cos

    def integrand(th):
        # lc: the fiber length below which a fiber inclined at th pulls
        # out instead of rupturing, not positive where its strength is
        # not; the work is integrated exactly over embedded length and
        # weighted by the inclination density and the crack-plane
        # projection
        e = exp(mu * th)
        lc = (sig_u * (1.0 - A * tan(th)) * D / (two_tau * e)
              if th < half_pi else -math.inf)
        lc = min(max(0.5 * lc, 0.0), half_L)
        pull = pull_coef * e * lc ** 3 / 3.0
        return (pull + (half_L - lc) * W_rup) * g * cos(th)

    pref = 2.0 * spec.f_p0 / (A_cnt * L)
    tol = 1e-4 * spec.G0 / pref if spec.G0 > 0.0 else 1.49e-10
    pts = _break_points(D, L, tau, sig_u, A, mu)
    val, _ = integrate.quad(integrand, 0.0, half_pi, points=pts or None,
                            epsabs=tol, epsrel=1e-9, limit=200)
    return spec.G0 + pref * val
