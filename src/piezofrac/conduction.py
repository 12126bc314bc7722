"""Electrical homogenization of fiber-filled polymers and piezoresistivity.

Conductivity combines three transport mechanisms: the insulating
matrix, tunneling between non-percolating fibers (each fiber dressed
with a thin tunneling layer and replaced by an equivalent solid
cylinder), and the percolating network (same dressing, with the layer
thinning as the network densifies).  Mechanical strain enters through
the filler volume change, fiber reorientation, and the shift of the
percolation onset; differentiating the resulting resistivity yields
the linearized piezoresistive coefficients used by the field solver.

The orientation moment and the percolation-onset pair integral use
fixed Gauss-Legendre rules.  Their nodes, weights and fixed trigonometric
factors (for the moment rule, the sines and cosines of both node grids)
are built once, at import, as read-only module arrays; an evaluation
only computes the strained density on them, with `strained_odf`'s own
expression.

All inputs are SI except where an eV argument is named as such.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.constants import e as _E_CHARGE, h as _H_PLANCK, m_e as _M_ELECTRON

# Gauss-Legendre orders of the strained orientation moment and of the
# percolation-onset pair integral, and the strain step of the
# piezoresistive finite differences
_MOMENT_ORDER = 32
_ONSET_ORDER = 48
_FD_STEP = 1e-5


def percolated_fraction(f_p, f_c):
    """Fraction of filler participating in the percolating network."""
    if not 0.0 < f_c < 1.0:
        raise ValueError(f"percolation onset outside (0, 1): {f_c}")
    if not 0.0 <= f_p <= 1.0:
        raise ValueError(f"filler fraction outside [0, 1]: {f_p}")
    if f_p <= f_c:
        return 0.0
    c = f_c ** (1.0 / 3.0)
    return (f_p ** (1.0 / 3.0) - c) / (1.0 - c)


def eshelby_electrical(s):
    """Transverse depolarization factor of a prolate conductor.

    Returns S11; the axial factor is S33 = 1 - 2*S11.  s = inf gives
    exactly 1/2 (infinite fiber), s = 1 gives the sphere value 1/3.
    """
    if s < 1.0:
        raise ValueError(f"aspect ratio must be >= 1, got {s}")
    if s == 1.0:
        return 1.0 / 3.0
    if math.isinf(s):
        return 0.5
    e = s * s - 1.0
    return s / (2.0 * e ** 1.5) * (s * math.sqrt(e) - math.acosh(s))


def tunneling_resistance(d, barrier_eV, area):
    """Low-bias tunneling resistance of a thin insulating gap.

    d is the gap width, barrier_eV the barrier height in eV, area the
    junction cross-section.
    """
    if d <= 0.0:
        raise ValueError(f"gap width must be positive, got {d}")
    if barrier_eV <= 0.0:
        raise ValueError(f"barrier height must be positive, got {barrier_eV}")
    if area <= 0.0:
        raise ValueError(f"junction area must be positive, got {area}")
    lam = barrier_eV * _E_CHARGE
    k = math.sqrt(2.0 * _M_ELECTRON * lam)
    return (d * _H_PLANCK ** 2 / (area * _E_CHARGE ** 2 * k)
            * math.exp(4.0 * np.pi * d * k / _H_PLANCK))


class TunnelLayer(NamedTuple):
    t: float          # dressed-layer thickness (half the tunneling distance), m
    sigma_int: float  # layer conductivity, S/m


def interphase_layer(spec, channel, f_p=None, f_c=None):
    """Tunneling layer dressing a fiber for one transport channel.

    channel "EH" (hopping between isolated fibers) uses the cutoff
    distance outright; channel "CN" (percolating network) shrinks it
    with the filler excess over the onset and therefore requires
    f_p > f_c.  The junction cross-section is the fiber's, pi D^2 / 4.
    """
    if channel == "EH":
        d_a = spec.d_c
    elif channel == "CN":
        if f_p is None or f_c is None:
            raise ValueError("CN channel needs f_p and f_c")
        if f_p <= f_c:
            raise ValueError(
                f"no percolating network below onset (f_p={f_p}, f_c={f_c})")
        d_a = spec.d_c * (f_c / f_p) ** (1.0 / 3.0)
    else:
        raise ValueError(f"unknown transport channel {channel!r}")
    area = math.pi * spec.D_cnt ** 2 / 4.0
    R = tunneling_resistance(d_a, spec.lambda_eV, area)
    return TunnelLayer(0.5 * d_a, d_a / (area * R))


def equivalent_cylinder(sigma_L, sigma_T, r, L, t, sigma_int):
    """Conductivities of a coated cylinder replaced by a solid one.

    A cylinder (core conductivities sigma_L along, sigma_T across) of
    radius r and length L wearing a coaxial layer of thickness t and
    conductivity sigma_int maps onto a solid cylinder of radius r + t
    and length L + 2t.  Returns (sigma_L_eq, sigma_T_eq, vol_mult)
    where vol_mult scales the filler volume fraction to the dressed
    size.
    """
    if min(sigma_L, sigma_T, sigma_int) <= 0.0 or r <= 0.0 or L <= 0.0:
        raise ValueError("cylinder dressing needs positive dimensions and conductivities")
    if t < 0.0:
        raise ValueError(f"layer thickness must be >= 0, got {t}")
    if t == 0.0:
        return sigma_L, sigma_T, 1.0
    ann = 2.0 * r * t + t * t
    num = (L + 2.0 * t) * sigma_int * (sigma_L * r * r + sigma_int * ann)
    den = (2.0 * sigma_L * r * r * t + 2.0 * sigma_int * ann * t
           + sigma_int * L * (r + t) ** 2)
    sL = num / den
    core = (L * (2.0 * r * r * sigma_T + (sigma_T + sigma_int) * ann)
            / (2.0 * r * r * sigma_int + (sigma_T + sigma_int) * ann))
    sT = sigma_int / (L + 2.0 * t) * (core + 2.0 * t)
    mult = (r + t) ** 2 * (L + 2.0 * t) / (r * r * L)
    return sL, sT, mult


def strained_odf(stretches):
    """Fiber orientation density after affine reorientation.

    stretches are the principal stretches along the (principal) axes;
    the returned callable w(gamma1, gamma2) is relative to the uniform
    density and reduces to 1 for the undeformed state.
    """
    l1, l2, l3 = _checked_stretches(stretches)

    def w(g1, g2):
        return _strained_density(l1, l2, l3, np.sin(g1), np.cos(g1),
                                 np.sin(g2), np.cos(g2))

    return w


def _checked_stretches(stretches):
    l1, l2, l3 = (float(v) for v in stretches)
    if min(l1, l2, l3) <= 0.0:
        raise ValueError(f"stretches must be positive: {(l1, l2, l3)}")
    return l1, l2, l3


def _strained_density(l1, l2, l3, s1, c1, s2, c2):
    """`strained_odf`'s density from the sines and cosines of its angles."""
    num = (l1 * l2 * l3) ** 2
    den = (l1 * l1 * l2 * l2 * c2 * c2
           + l3 * l3 * (l1 * l1 * s1 * s1 + l2 * l2 * c1 * c1) * s2 * s2)
    return num / den ** 1.5


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _onset_rule():
    """Nodes over [0, pi] and the fixed factors of the pair integral.

    Returns g, the (g1, g2) node grids, sin(g), the product
    cc[b, 0, d] = cos(g_b) cos(g_d), and the quadrature weights times
    sin(g2).
    """
    x, wq = np.polynomial.legendre.leggauss(_ONSET_ORDER)
    g = 0.5 * np.pi * (x + 1.0)
    w = 0.5 * np.pi * wq
    G1, G2 = np.meshgrid(g, g, indexing="ij")
    c, s = np.cos(g), np.sin(g)
    cc = c[:, None, None] * c[None, None, :]
    return _read_only(g, G1, G2, s, cc, np.outer(w, w * s))


def _moment_rule():
    """Node trigonometry, sin-weighted weights and fiber axes of the
    moment rule.

    The azimuth a1 runs over [0, 2pi] and the inclination a2 over
    [0, pi/2]; the first four arrays are sin and cos of the (a1, a2)
    node grids, and m[:, i, j] is the unit fiber axis at (a1_i, a2_j).
    """
    g1, w1 = np.polynomial.legendre.leggauss(_MOMENT_ORDER)
    a1 = np.pi * (g1 + 1.0)
    w1 = np.pi * w1
    g2, w2 = np.polynomial.legendre.leggauss(_MOMENT_ORDER)
    a2 = 0.25 * np.pi * (g2 + 1.0)
    w2 = 0.25 * np.pi * w2
    A1, A2 = np.meshgrid(a1, a2, indexing="ij")
    s1, c1, s2, c2 = np.sin(A1), np.cos(A1), np.sin(A2), np.cos(A2)
    m = np.stack([c1 * s2, s1 * s2, c2])
    return _read_only(s1, c1, s2, c2, np.outer(w1, w2 * np.sin(a2)), m)


_ONSET_G, _ONSET_G1, _ONSET_G2, _ONSET_SIN, _ONSET_CC, _ONSET_AREA = \
    _onset_rule()
(_MOMENT_SIN1, _MOMENT_COS1, _MOMENT_SIN2, _MOMENT_COS2, _MOMENT_WEIGHT,
 _MOMENT_AXES) = _moment_rule()


@lru_cache(maxsize=256)
def _pair_integral(stretches):
    """Average sine of the angle between fiber pairs under the given ODF.

    Both orientations run over [0, pi]^2 with the sin(gamma2) area
    weight; the density is normalized over that domain.
    """
    g, s, cc = _ONSET_G, _ONSET_SIN, _ONSET_CC
    dens = strained_odf(stretches)(_ONSET_G1, _ONSET_G2)  # over (g1, g2)
    norm = float(np.sum(dens * _ONSET_AREA))
    wh = dens * _ONSET_AREA / norm          # normalized point masses

    # cos of angle between (g1,g2) and (g1',g2') depends on g1 - g1';
    # one g1 row at a time keeps the work array at _ONSET_ORDER**3
    J = np.empty((g.size, g.size))
    for a in range(g.size):
        cosang = (cc + np.cos(g[a] - g)[None, :, None]
                  * s[:, None, None] * s[None, None, :])
        sintau = np.sqrt(np.clip(1.0 - cosang * cosang, 0.0, None))
        J[a] = np.einsum("bcd,cd->b", sintau, wh)
    return float(np.sum(J * wh))


def percolation_threshold(s, stretches=(1.0, 1.0, 1.0)):
    """Filler fraction at the onset of network percolation.

    Based on excluded-volume scaling of slender rods; deformation skews
    the orientation density and shifts the onset.
    """
    if s <= 1.0:
        raise ValueError(f"aspect ratio must exceed 1, got {s}")
    I = _pair_integral(tuple(float(v) for v in stretches))
    return np.pi / (5.77 * s * I)


def _second_moment(stretches):
    """<m x m> of the fiber axis under the normalized strained density."""
    wt = _MOMENT_WEIGHT * _strained_density(
        *_checked_stretches(stretches),
        _MOMENT_SIN1, _MOMENT_COS1, _MOMENT_SIN2, _MOMENT_COS2)
    wt = wt / np.sum(wt)
    return np.einsum("iab,jab,ab->ij", _MOMENT_AXES, _MOMENT_AXES, wt)


def _channel_tensor(sig_L, sig_T, S11, S33, f_eff, sigma_m, M2):
    """Orientation-averaged contribution f_eff (sigma - sigma_m I) A."""
    aT = 1.0 / (1.0 + S11 * (sig_T - sigma_m) / sigma_m)
    aL = 1.0 / (1.0 + S33 * (sig_L - sigma_m) / sigma_m)
    AT = aT / ((1.0 - f_eff) + f_eff * aT)
    AL = aL / ((1.0 - f_eff) + f_eff * aL)
    xT = f_eff * (sig_T - sigma_m) * AT
    xL = f_eff * (sig_L - sigma_m) * AL
    return xT * np.eye(3) + (xL - xT) * M2


def effective_conductivity(spec, strain=None):
    """Effective 3x3 conductivity of the composite at a given strain.

    strain is a 3x3 small-strain tensor (None for the virgin state).
    The result is symmetric positive definite; for the virgin state it
    is isotropic.
    """
    if strain is None:
        lam = np.ones(3)
        V = np.eye(3)
    else:
        strain = np.asarray(strain, dtype=float)
        if strain.shape != (3, 3):
            raise ValueError(f"expected a 3x3 strain, got shape {strain.shape}")
        ev, V = np.linalg.eigh(strain)
        lam = 1.0 + ev
        if np.min(lam) <= 0.0:
            raise ValueError("deformation inverts the volume")

    sigma_m = spec.sigma_m
    f_p = spec.f_p0 / float(np.prod(lam))
    if not 0.0 <= f_p < 1.0:
        raise ValueError(f"strained filler fraction outside [0, 1): {f_p}")
    if f_p == 0.0:
        return sigma_m * np.eye(3)

    s = spec.kappa
    f_c = percolation_threshold(s, tuple(lam))
    xi = percolated_fraction(f_p, f_c)

    deformed = strain is not None and bool(np.any(np.abs(lam - 1.0) > 1e-14))
    M2 = _second_moment(lam) if deformed else np.eye(3) / 3.0

    r_fib = 0.5 * spec.D_cnt
    L = spec.L_cnt

    # hopping between isolated fibers
    eh = interphase_layer(spec, "EH")
    sL, sT, mult = equivalent_cylinder(
        spec.sigma_cnt, spec.sigma_cnt, r_fib, L, eh.t, eh.sigma_int)
    f_eff = mult * f_p
    if f_eff >= 1.0:
        raise ValueError(f"dressed filler fraction reaches {f_eff:.3f}")
    S11 = eshelby_electrical(s)
    out = (1.0 - xi) * _channel_tensor(
        sL, sT, S11, 1.0 - 2.0 * S11, f_eff, sigma_m, M2)

    # percolating network
    if xi > 0.0:
        cn = interphase_layer(spec, "CN", f_p=f_p, f_c=f_c)
        sL, sT, mult = equivalent_cylinder(
            spec.sigma_cnt, spec.sigma_cnt, r_fib, L, cn.t, cn.sigma_int)
        f_eff = mult * f_p
        if f_eff >= 1.0:
            raise ValueError(f"dressed filler fraction reaches {f_eff:.3f}")
        out = out + xi * _channel_tensor(sL, sT, 0.5, 0.0, f_eff, sigma_m, M2)

    out = out + sigma_m * np.eye(3)
    out = V @ out @ V.T
    out = 0.5 * (out + out.T)
    if np.min(np.linalg.eigvalsh(out)) <= 0.0:
        raise ValueError("effective conductivity lost positive definiteness")
    return out


def _uniaxial(axis, delta):
    e = np.zeros((3, 3))
    e[axis, axis] = delta
    return e


def piezoresistivity_coeffs(spec):
    """Linearized resistivity sensitivities to normal strain.

    Central finite differences of the effective resistivity under a
    small uniaxial strain give (rho0, lam11, lam12): the relative
    change of the axial and transverse resistivities per unit strain.
    The step is verified by halving it; a shift beyond 1% raises.
    """
    sig0 = effective_conductivity(spec)
    dev = np.abs(sig0 - sig0[0, 0] * np.eye(3)).max() / abs(sig0[0, 0])
    if dev > 1e-6:
        raise ValueError(f"virgin conductivity not isotropic (dev {dev:.2e})")
    rho0 = 1.0 / (np.trace(sig0) / 3.0)

    def coeffs(step):
        rp = np.linalg.inv(effective_conductivity(spec, _uniaxial(0, +step)))
        rm = np.linalg.inv(effective_conductivity(spec, _uniaxial(0, -step)))
        l11 = (rp[0, 0] - rm[0, 0]) / (2.0 * step * rho0)
        l12 = (rp[1, 1] - rm[1, 1] + rp[2, 2] - rm[2, 2]) / (4.0 * step * rho0)
        return l11, l12

    l11, l12 = coeffs(_FD_STEP)
    l11_h, l12_h = coeffs(0.5 * _FD_STEP)
    scale = max(abs(l11), 1.0)
    if abs(l11_h - l11) > 0.01 * scale or abs(l12_h - l12) > 0.01 * scale:
        raise ValueError(
            "piezoresistive sensitivities not converged in the step size: "
            f"l11 {l11:.6g} -> {l11_h:.6g}, l12 {l12:.6g} -> {l12_h:.6g}")
    return rho0, l11, l12
