"""Electrical homogenization of fiber-filled polymers and piezoresistivity.

Conductivity combines three transport mechanisms: the insulating
matrix, tunneling between non-percolating fibers (each fiber dressed
with a thin tunneling layer and replaced by an equivalent solid
cylinder), and the percolating network (same dressing, with the layer
thinning as the network densifies).  Mechanical strain enters through
the filler volume change, fiber reorientation, and the shift of the
percolation onset; differentiating the resulting resistivity yields
the linearized piezoresistive coefficients used by the field solver.

A state is a triple of principal stretches along x, y and z: the field
solver's law reads the response only through lam11 and lam12 (lam44 =
(lam11 - lam12) / 2), and these are central differences under a
uniaxial stretch along x.  A card evaluates the virgin state and four
such stretches (`_FD_STATES`) in one `effective_conductivity` call: the
scalar work and its checks run state by state, the tensor work once
over the stack.

The orientation moment and the percolation-onset pair integral use
fixed Gauss-Legendre rules, built once, at import, as read-only module
arrays (nodes, weights, and the sines and cosines of both node grids);
an evaluation only computes the strained density `_strained_density`
on them.  The rules are not symmetric in their three axes, so their
quadrature error depends on which rule axis carries which stretch:
both see the stretches in ascending order, and the moment is permuted
back to x, y and z.

What a material card shares with its neighbours is memoized, and the
memoized arrays are read-only.  Every card strains the same four
states, so only the first card evaluates, for each of them, the
orientation moment (`_second_moment`, keyed on the stretches along the
axes) and the onset pair integral (`_pair_integral`, keyed on the
ascending stretches).  The hopping channel's dressed cylinder and its
depolarization factor (`_hopping_channel`) depend on the fiber's D, L,
conductivity and barrier and on the cutoff distance alone, so every
filler fraction of one fiber shares them; the network channel's gap
moves with the filler fraction and is dressed per call.

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


def interphase_layer(spec, d_a):
    """Tunneling layer of gap d_a dressing a fiber.

    The layer is half the gap thick, and its conductivity is that of a
    tunneling junction of gap d_a through the fiber's cross-section,
    pi D^2 / 4.
    """
    area = math.pi * spec.D_cnt ** 2 / 4.0
    R = tunneling_resistance(d_a, spec.lambda_eV, area)
    return TunnelLayer(0.5 * d_a, d_a / (area * R))


class _Fiber(NamedTuple):
    """The card fields a dressed fiber reads, standing in for the card in
    `interphase_layer`; hashable, so it keys the hopping-channel memo."""
    D_cnt: float
    L_cnt: float
    sigma_cnt: float
    lambda_eV: float


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


def _dressed_cylinder(fiber, gap):
    """(sigma_L, sigma_T, vol_mult) of a fiber dressed with the tunneling
    layer of the given gap, as a solid cylinder."""
    layer = interphase_layer(fiber, gap)
    return equivalent_cylinder(fiber.sigma_cnt, fiber.sigma_cnt,
                               0.5 * fiber.D_cnt, fiber.L_cnt, layer.t,
                               layer.sigma_int)


@lru_cache(maxsize=256)
def _hopping_channel(fiber, d_c):
    """The dressed cylinder of the hopping channel (gap d_c) and its
    transverse depolarization factor."""
    return (*_dressed_cylinder(fiber, d_c),
            eshelby_electrical(fiber.L_cnt / fiber.D_cnt))


def _checked_stretches(stretches):
    """The three stretches as Python floats; each must be positive."""
    l1, l2, l3 = (float(v) for v in stretches)
    if min(l1, l2, l3) <= 0.0:
        raise ValueError("deformation inverts the volume")
    return l1, l2, l3


def _strained_density(l1, l2, l3, s1, c1, s2, c2):
    """Fiber orientation density after affine reorientation.

    l1, l2, l3 are the principal stretches along the (principal) axes,
    and the density is evaluated at the angles (gamma1, gamma2) given
    by their sines and cosines.  It is relative to the uniform density
    and reduces to 1 for the undeformed state.
    """
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

    Returns g, sin(g), the product cc[b, 0, d] = cos(g_b) cos(g_d),
    the quadrature weights times sin(g2), and sin and cos of the
    (g1, g2) node grids.
    """
    x, wq = np.polynomial.legendre.leggauss(_ONSET_ORDER)
    g = 0.5 * np.pi * (x + 1.0)
    w = 0.5 * np.pi * wq
    G1, G2 = np.meshgrid(g, g, indexing="ij")
    c, s = np.cos(g), np.sin(g)
    cc = c[:, None, None] * c[None, None, :]
    return _read_only(g, s, cc, np.outer(w, w * s), np.sin(G1), np.cos(G1),
                      np.sin(G2), np.cos(G2))


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


(_ONSET_G, _ONSET_SIN, _ONSET_CC, _ONSET_AREA, _ONSET_SIN1, _ONSET_COS1,
 _ONSET_SIN2, _ONSET_COS2) = _onset_rule()
(_MOMENT_SIN1, _MOMENT_COS1, _MOMENT_SIN2, _MOMENT_COS2, _MOMENT_WEIGHT,
 _MOMENT_AXES) = _moment_rule()
# the identity, and the orientation moment of the uniform density
_EYE3, _ISOTROPIC_MOMENT = _read_only(np.eye(3), np.eye(3) / 3.0)
# the states of the piezoresistive finite differences: the virgin state,
# then the uniaxial stretches 1 +- step and 1 +- step/2 along x
_FD_STATES = ((1.0, 1.0, 1.0), *(
    (1.0 + delta, 1.0, 1.0)
    for delta in (_FD_STEP, -_FD_STEP, 0.5 * _FD_STEP, -0.5 * _FD_STEP)))


@lru_cache(maxsize=256)
def _pair_integral(stretches):
    """Average sine of the angle between fiber pairs under the given ODF.

    Both orientations run over [0, pi]^2 with the sin(gamma2) area
    weight; the density is normalized over that domain.
    """
    g, s, cc = _ONSET_G, _ONSET_SIN, _ONSET_CC
    dens = _strained_density(*_checked_stretches(stretches), _ONSET_SIN1,
                             _ONSET_COS1, _ONSET_SIN2, _ONSET_COS2)
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


@lru_cache(maxsize=256)
def _second_moment(stretches):
    """<m x m> of the fiber axis under the normalized strained density
    at positive stretches along x, y and z; read-only, as every caller
    with the same stretches shares it.  Uniform within 1e-14 of unit
    stretch; otherwise the rule runs at the ascending stretches and its
    result is permuted back to x, y and z."""
    if all(abs(v - 1.0) <= 1e-14 for v in stretches):
        return _ISOTROPIC_MOMENT
    order = sorted(range(3), key=stretches.__getitem__)
    wt = _MOMENT_WEIGHT * _strained_density(
        *(stretches[k] for k in order),
        _MOMENT_SIN1, _MOMENT_COS1, _MOMENT_SIN2, _MOMENT_COS2)
    wt = wt / np.sum(wt)
    M2 = np.einsum("iab,jab,ab->ij", _MOMENT_AXES, _MOMENT_AXES, wt)
    back = np.argsort(order)
    return _read_only(M2[np.ix_(back, back)])[0]


def _channel_coeffs(sig_L, sig_T, S11, f_eff, sigma_m):
    """(xT, xL) of the orientation-averaged channel contribution
    f_eff (sigma - sigma_m I) A = xT I + (xL - xT) <m x m>.

    S11 is the transverse depolarization factor; the axial one is
    1 - 2 S11.
    """
    aT = 1.0 / (1.0 + S11 * (sig_T - sigma_m) / sigma_m)
    aL = 1.0 / (1.0 + (1.0 - 2.0 * S11) * (sig_L - sigma_m) / sigma_m)
    AT = aT / ((1.0 - f_eff) + f_eff * aT)
    AL = aL / ((1.0 - f_eff) + f_eff * aL)
    return f_eff * (sig_T - sigma_m) * AT, f_eff * (sig_L - sigma_m) * AL


# a state's channel coefficients: per channel (hopping, network) its
# weight, xT and xL - xT; an absent channel contributes exactly zero
_NO_CHANNELS = (0.0,) * 6


def effective_conductivity(spec, states):
    """Effective 3x3 conductivities of the composite at a sequence of
    states.

    Each state is a triple of principal stretches along x, y and z;
    (1, 1, 1) is the virgin state.  Returns their (n, 3, 3) stack, each
    symmetric positive definite; the virgin state's is isotropic.  The
    scalar work and its checks run state by state, in order; the
    channel tensors are then assembled and checked for positive
    definiteness once, over the whole stack.
    """
    sigma_m = spec.sigma_m
    fiber = _Fiber(spec.D_cnt, spec.L_cnt, spec.sigma_cnt, spec.lambda_eV)
    moments, coeffs = [], []
    for state in states:
        # Python floats: they key the onset and moment caches, and a
        # 3-vector is cheaper to test without numpy; the volume ratio and
        # the onset take them in ascending order, so a permuted state is
        # the permuted conductivity bit for bit
        lam = _checked_stretches(state)
        asc = sorted(lam)
        f_p = spec.f_p0 / (asc[0] * asc[1] * asc[2])
        if not 0.0 <= f_p < 1.0:
            raise ValueError(f"strained filler fraction outside [0, 1): {f_p}")
        if f_p == 0.0:
            # the matrix alone
            moments.append(_ISOTROPIC_MOMENT)
            coeffs.append(_NO_CHANNELS)
            continue
        moments.append(_second_moment(lam))

        f_c = percolation_threshold(spec.kappa, asc)
        xi = percolated_fraction(f_p, f_c)

        # hopping between isolated fibers at the cutoff distance, and the
        # percolating network, whose gap shrinks with the filler excess
        # over the onset; each dressed fiber is replaced by a solid
        # cylinder
        channels = [(1.0 - xi, _hopping_channel(fiber, spec.d_c))]
        if xi > 0.0:
            gap = spec.d_c * (f_c / f_p) ** (1.0 / 3.0)
            channels.append((xi, (*_dressed_cylinder(fiber, gap), 0.5)))
        c = []
        for weight, (sL, sT, mult, S11) in channels:
            f_eff = mult * f_p
            if f_eff >= 1.0:
                raise ValueError(
                    f"dressed filler fraction reaches {f_eff:.3f}")
            xT, xL = _channel_coeffs(sL, sT, S11, f_eff, sigma_m)
            c += (weight, xT, xL - xT)
        coeffs.append((*c, *_NO_CHANNELS[len(c):]))

    # weights and coefficients, each (n, 2, 1, 1), against the (n, 1, 3, 3)
    # moments: element by element, the arithmetic of one state
    w, xT, dx = np.array(coeffs).reshape(-1, 2, 3, 1, 1).transpose(
        2, 0, 1, 3, 4)
    terms = w * (xT * _EYE3 + dx * np.array(moments)[:, None])
    out = terms[:, 0] + terms[:, 1] + sigma_m * _EYE3
    if np.linalg.eigvalsh(out).min() <= 0.0:
        raise ValueError("effective conductivity lost positive definiteness")
    return out


def piezoresistivity_coeffs(spec):
    """Linearized resistivity sensitivities to normal strain.

    Central finite differences of the effective resistivity under a
    small uniaxial stretch give (rho0, lam11, lam12): the relative
    change of the axial and transverse resistivities per unit strain.
    The step is verified by halving it; a shift beyond 1% raises.  The
    virgin state and the four strained ones (`_FD_STATES`) are one
    stacked `effective_conductivity` call, and the four strained
    conductivities are inverted together.
    """
    sig = effective_conductivity(spec, _FD_STATES)
    sig0 = sig[0]
    dev = np.abs(sig0 - sig0[0, 0] * _EYE3).max() / abs(sig0[0, 0])
    if dev > 1e-6:
        raise ValueError(f"virgin conductivity not isotropic (dev {dev:.2e})")
    rho0 = 1.0 / (sig0.trace() / 3.0)
    rho = np.linalg.inv(sig[1:])
    steps = (_FD_STEP, 0.5 * _FD_STEP)

    def coeffs(step, rp, rm):
        l11 = (rp[0, 0] - rm[0, 0]) / (2.0 * step * rho0)
        l12 = (rp[1, 1] - rm[1, 1] + rp[2, 2] - rm[2, 2]) / (4.0 * step * rho0)
        return l11, l12

    l11, l12 = coeffs(steps[0], rho[0], rho[1])
    l11_h, l12_h = coeffs(steps[1], rho[2], rho[3])
    scale = max(abs(l11), 1.0)
    if abs(l11_h - l11) > 0.01 * scale or abs(l12_h - l12) > 0.01 * scale:
        raise ValueError(
            "piezoresistive sensitivities not converged in the step size: "
            f"l11 {l11:.6g} -> {l11_h:.6g}, l12 {l12:.6g} -> {l12_h:.6g}")
    return rho0, l11, l12
