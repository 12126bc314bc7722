"""Tests of the Voigt toolbox and the closed-form orientation average.

The package keeps rank-4 tensors as 6x6 matrices.  The tests carry them
to full fourth-order tensors through loop conversions written here, and
check the engineering-shear bookkeeping through invariants.  Rotations
act on the full tensors by index gymnastics, and the isotropic
projection is checked against a quadrature over fiber directions and
against the full-tensor projector formula, both written here.
"""

import numpy as np
import pytest

from conftest import anisotropy
from piezofrac import elastic, materials, tensors


# a symmetric strain and its Voigt vector, shears doubled (engineering)
_EPS = np.array([[1.0, 0.3, -0.2],
                 [0.3, -0.5, 0.7],
                 [-0.2, 0.7, 0.4]])
_EPS_VOIGT = np.array([1.0, -0.5, 0.4, 1.4, -0.4, 0.6])

# fancy index picking the six Voigt slots (11, 22, 33, 23, 13, 12)
_SLOTS = tuple(np.array(tensors.VOIGT_PAIRS).T)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_rotation(rng):
    Q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(r))
    return Q if np.linalg.det(Q) > 0.0 else -Q


def _rotate(T, R):
    """Full rank-4 tensor T rotated by R."""
    return np.einsum("ip,jq,kr,ls,pqrs->ijkl", R, R, R, R, T)


def _axis_rotation(axis, angle):
    """Right-handed rotation by angle about coordinate axis 0, 1 or 2."""
    c, s = np.cos(angle), np.sin(angle)
    i, j = (axis + 1) % 3, (axis + 2) % 3
    R = np.eye(3)
    R[i, i], R[i, j], R[j, i], R[j, j] = c, -s, s, c
    return R


def _random_stiffness(rng):
    # symmetric positive definite 6x6 -> full tensor has both symmetries
    B = rng.normal(size=(6, 6))
    return B @ B.T + 6.0 * np.eye(6)


def _random_strain_map(rng):
    # minor-symmetric in both index pairs, no major symmetry
    T = rng.normal(size=(3, 3, 3, 3))
    T = 0.25 * (T + T.transpose(1, 0, 2, 3)
                + T.transpose(0, 1, 3, 2) + T.transpose(1, 0, 3, 2))
    return _loop_from_full(T, 2.0)


def test_voigt_pairs_ordering():
    assert tensors.VOIGT_PAIRS == ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


def _loop_to_full(M, shear_factor):
    """6x6 -> 3x3x3x3 by a double loop over the Voigt slots; the rows of
    the three shear slots are scaled by shear_factor."""
    out = np.empty((3, 3, 3, 3))
    for I, (i, j) in enumerate(tensors.VOIGT_PAIRS):
        rf = 1.0 if I < 3 else shear_factor
        for J, (k, l) in enumerate(tensors.VOIGT_PAIRS):
            v = rf * M[I, J]
            out[i, j, k, l] = v
            out[j, i, k, l] = v
            out[i, j, l, k] = v
            out[j, i, l, k] = v
    return out


def _loop_from_full(T, shear_factor):
    """3x3x3x3 -> 6x6 by a double loop; shear rows scaled by
    shear_factor."""
    out = np.empty((6, 6))
    for I, (i, j) in enumerate(tensors.VOIGT_PAIRS):
        rf = 1.0 if I < 3 else shear_factor
        for J, (k, l) in enumerate(tensors.VOIGT_PAIRS):
            out[I, J] = rf * T[i, j, k, l]
    return out


def test_energy_consistency_of_voigt_convention():
    """eps : C : eps must equal the Voigt quadratic form with engineering
    shears."""
    C = _random_stiffness(_rng(3))
    T = _loop_to_full(C, 1.0)
    assert np.isclose(np.einsum("ij,ijkl,kl->", _EPS, T, _EPS),
                      _EPS_VOIGT @ C @ _EPS_VOIGT)


def test_stiffness_full_tensor_contraction_matches_voigt():
    C = _random_stiffness(_rng(5))
    T = _loop_to_full(C, 1.0)
    sig_full = np.einsum("ijkl,kl->ij", T, _EPS)
    # stress-like Voigt slots carry no factor on the shears
    assert np.allclose(sig_full[_SLOTS], C @ _EPS_VOIGT)


def test_strain_map_acts_on_engineering_strain():
    """A maps macro strain to local strain consistently in both pictures."""
    A = _random_strain_map(_rng(7))
    T = _loop_to_full(A, 0.5)
    local_full = np.einsum("ijkl,kl->ij", T, _EPS)
    engineering = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    assert np.allclose(engineering * local_full[_SLOTS], A @ _EPS_VOIGT)


def test_isotropic_stiffness_layout():
    E, nu = 2.5e9, 0.28
    C = tensors.isotropic_stiffness(E, nu)
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    assert np.isclose(C[0, 0], lam + 2.0 * mu)
    assert np.isclose(C[0, 1], lam)
    assert np.isclose(C[3, 3], mu)
    assert np.allclose(C, C.T)
    # rotation invariance
    T = _loop_to_full(C, 1.0)
    R = _random_rotation(_rng(14))
    assert np.allclose(_rotate(T, R), T, atol=1e-6 * E)


def test_isotropic_stiffness_rejects_bad_moduli():
    with pytest.raises(ValueError):
        tensors.isotropic_stiffness(-1.0, 0.3)
    with pytest.raises(ValueError):
        tensors.isotropic_stiffness(1e9, 0.5)
    with pytest.raises(ValueError):
        tensors.isotropic_stiffness(1e9, -1.0)


def test_isotropic_part_recovers_exact_isotropic_input():
    E, nu = 3.1e9, 0.22
    C = tensors.isotropic_stiffness(E, nu)
    C_iso = tensors.isotropic_projection(C, 1)
    assert np.allclose(C_iso, C, rtol=1e-12)
    assert anisotropy(C) < 1e-12


def test_isotropic_part_invariant_under_rotation():
    """The h1 = C_iijj and h2 = C_ijij contractions are frame invariants."""
    rng = _rng(13)
    C = _random_stiffness(rng)
    C0, a0 = tensors.isotropic_projection(C, 1), anisotropy(C)
    for _ in range(5):
        R = _random_rotation(rng)
        C_rot = _loop_from_full(_rotate(_loop_to_full(C, 1.0), R), 1.0)
        assert np.allclose(tensors.isotropic_projection(C_rot, 1), C0,
                           rtol=1e-9)
        assert np.isclose(anisotropy(C_rot), a0, rtol=1e-6, atol=1e-12)


def _fiber_average(T, n=32):
    """Average of T carried along fiber axes uniform on the half sphere.

    The local x3 axis goes to (cos g1 sin g2, sin g1 sin g2, cos g2);
    g1 in [0, 2pi) and g2 in [0, pi/2] use a product Gauss-Legendre
    rule with the sin(g2) area weight.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    acc = np.zeros((3, 3, 3, 3))
    for g1, w1 in zip(np.pi * (x + 1.0), np.pi * w):
        for g2, w2 in zip(0.25 * np.pi * (x + 1.0), 0.25 * np.pi * w):
            R = _axis_rotation(2, g1) @ _axis_rotation(1, g2)
            acc += w1 * w2 * np.sin(g2) * _rotate(T, R)
    return acc / (2.0 * np.pi)


def _transversely_isotropic(rng):
    """Random minor-symmetric tensor, no major symmetry, with the
    symmetry of a fiber about x3: averaged over the dihedral group of
    eight spins about x3 and the half turn that flips x3."""
    T = _loop_to_full(_random_strain_map(rng), 0.5)
    flip = _axis_rotation(0, np.pi)
    group = [_axis_rotation(2, 0.25 * np.pi * k) @ f
             for k in range(8) for f in (np.eye(3), flip)]
    return sum(_rotate(T, R) for R in group) / len(group)


def _mwcnt_phase_tensors():
    spec = materials.preset("mwcnt_epoxy", f_p0=0.02)
    C_m = tensors.isotropic_stiffness(spec.E_m, spec.nu_m)
    C_p = tensors.isotropic_stiffness(spec.E_cnt, spec.nu_cnt)
    S = elastic.eshelby_prolate(spec.kappa, spec.nu_m)
    A = elastic.dilute_concentration(C_p, C_m, S)
    return {"A_p": A, "CA_p": C_p @ A}


@pytest.mark.parametrize("name, r", [("A_p", 2), ("CA_p", 1), ("random", 2)],
                         ids=["A_p", "CA_p", "random"])
def test_isotropic_projection_is_uniform_fiber_average(name, r):
    """The closed form equals the quadrature over fiber directions for
    tensors transversely isotropic about the fiber axis; r is the
    shear-row factor of the 6x6 (2 for a strain map, 1 for a
    stiffness)."""
    if name == "random":
        T = _transversely_isotropic(_rng(15))
        assert not np.allclose(T, T.transpose(2, 3, 0, 1))
        M = _loop_from_full(T, r)
    else:
        M = _mwcnt_phase_tensors()[name]
        T = _loop_to_full(M, 1.0 / r)
    want = _fiber_average(T)
    got = _loop_to_full(tensors.isotropic_projection(M, r), 1.0 / r)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# isotropic projectors J = d_ij d_kl / 3 and K = I_sym - J
_DELTA = np.eye(3)
_J = np.einsum("ij,kl->ijkl", _DELTA, _DELTA) / 3.0
_K = 0.5 * (np.einsum("ik,jl->ijkl", _DELTA, _DELTA)
            + np.einsum("il,jk->ijkl", _DELTA, _DELTA)) - _J


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_isotropic_projection_equals_projector_formula(seed):
    """The two invariants read off the 6x6 give the full-tensor
    projection 3 alpha J + beta K, alpha = T_iijj / 9 and
    beta = (T_ijij - 3 alpha) / 5, on a stiffness and on a strain map
    without major symmetry."""
    rng = _rng(200 + seed)
    A = _random_strain_map(rng)
    assert not np.allclose(A, A.T)
    for M, r in ((_random_stiffness(rng), 1), (A, 2)):
        T = _loop_to_full(M, 1.0 / r)
        alpha = np.einsum("iijj->", T) / 9.0
        beta = (np.einsum("ijij->", T) - 3.0 * alpha) / 5.0
        want = _loop_from_full(3.0 * alpha * _J + beta * _K, r)
        got = tensors.isotropic_projection(M, r)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
