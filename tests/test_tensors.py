"""Tests of the Voigt toolbox and the closed-form orientation average.

The engineering-shear bookkeeping is exercised through round trips and
invariants.  Rotations act on full fourth-order tensors by index
gymnastics, and the isotropic projection is checked against a
quadrature over fiber directions written here.
"""

import numpy as np
import pytest

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
    return tensors.full_to_strain_map(T)


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conversions_equal_loop_reference(seed):
    """The index-table gathers reproduce the loop conversions bit for
    bit, on a stiffness, a non-symmetric strain map, an arbitrary 6x6
    matrix and an arbitrary (no symmetry at all) 3x3x3x3 array."""
    rng = _rng(100 + seed)
    A = _random_strain_map(rng)
    assert not np.allclose(A, A.T)
    mats = [_random_stiffness(rng), A,
            rng.normal(size=(6, 6)) * 10.0 ** rng.integers(-200, 200, (6, 6))]
    for M in mats:
        assert np.array_equal(tensors.stiffness_to_full(M),
                              _loop_to_full(M, 1.0))
        assert np.array_equal(tensors.strain_map_to_full(M),
                              _loop_to_full(M, 0.5))
    for T in (rng.normal(size=(3, 3, 3, 3)), tensors.strain_map_to_full(A)):
        assert np.array_equal(tensors.full_to_stiffness(T),
                              _loop_from_full(T, 1.0))
        assert np.array_equal(tensors.full_to_strain_map(T),
                              _loop_from_full(T, 2.0))


def test_conversions_accept_lists_and_keep_nonfinite_entries():
    M = np.arange(36.0).reshape(6, 6)
    M[0, 1], M[3, 4], M[5, 5] = np.nan, np.inf, 5e-324
    assert np.array_equal(tensors.stiffness_to_full(M.tolist()),
                          _loop_to_full(M, 1.0), equal_nan=True)
    assert np.array_equal(tensors.strain_map_to_full(M),
                          _loop_to_full(M, 0.5), equal_nan=True)
    T = tensors.stiffness_to_full(M)
    assert np.array_equal(tensors.full_to_strain_map(T),
                          _loop_from_full(T, 2.0), equal_nan=True)


def test_voigt_index_tables_are_read_only():
    tables = [*tensors._TO_FULL, *tensors._FROM_FULL,
              tensors._HALF_SHEAR_IJ, tensors._DOUBLE_SHEAR_ROWS]
    for arr in tables:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


def test_energy_consistency_of_voigt_convention():
    """eps : C : eps must equal the Voigt quadratic form with engineering
    shears."""
    C = _random_stiffness(_rng(3))
    T = tensors.stiffness_to_full(C)
    assert np.isclose(np.einsum("ij,ijkl,kl->", _EPS, T, _EPS),
                      _EPS_VOIGT @ C @ _EPS_VOIGT)


def test_stiffness_full_round_trip():
    rng = _rng(4)
    C = _random_stiffness(rng)
    T = tensors.stiffness_to_full(C)
    # minor symmetries of the full tensor
    assert np.allclose(T, T.transpose(1, 0, 2, 3))
    assert np.allclose(T, T.transpose(0, 1, 3, 2))
    assert np.allclose(tensors.full_to_stiffness(T), C, atol=1e-12)


def test_stiffness_full_tensor_contraction_matches_voigt():
    C = _random_stiffness(_rng(5))
    T = tensors.stiffness_to_full(C)
    sig_full = np.einsum("ijkl,kl->ij", T, _EPS)
    # stress-like Voigt slots carry no factor on the shears
    assert np.allclose(sig_full[_SLOTS], C @ _EPS_VOIGT)


def test_strain_map_full_round_trip():
    rng = _rng(6)
    A = _random_strain_map(rng)
    T = tensors.strain_map_to_full(A)
    assert np.allclose(T, T.transpose(1, 0, 2, 3))
    assert np.allclose(T, T.transpose(0, 1, 3, 2))
    assert np.allclose(tensors.full_to_strain_map(T), A, atol=1e-12)


def test_strain_map_acts_on_engineering_strain():
    """A maps macro strain to local strain consistently in both pictures."""
    A = _random_strain_map(_rng(7))
    T = tensors.strain_map_to_full(A)
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
    T = tensors.stiffness_to_full(C)
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
    C_iso, E_out, nu_out, aniso = tensors.isotropic_part(C)
    assert np.allclose(C_iso, C, rtol=1e-12)
    assert np.isclose(E_out, E, rtol=1e-12)
    assert np.isclose(nu_out, nu, rtol=1e-12)
    assert aniso < 1e-12


def test_isotropic_part_invariant_under_rotation():
    """The h1 = C_iijj and h2 = C_ijij contractions are frame invariants."""
    rng = _rng(13)
    C = _random_stiffness(rng)
    _, E0, nu0, a0 = tensors.isotropic_part(C)
    for _ in range(5):
        R = _random_rotation(rng)
        C_rot = tensors.full_to_stiffness(
            _rotate(tensors.stiffness_to_full(C), R))
        _, E, nu, a = tensors.isotropic_part(C_rot)
        assert np.isclose(E, E0, rtol=1e-9)
        assert np.isclose(nu, nu0, rtol=1e-9)
        assert np.isclose(a, a0, rtol=1e-6, atol=1e-12)


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
    T = tensors.strain_map_to_full(_random_strain_map(rng))
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
    return {"A_p": tensors.strain_map_to_full(A),
            "CA_p": tensors.stiffness_to_full(C_p @ A)}


@pytest.mark.parametrize("name", ["A_p", "CA_p", "random"])
def test_isotropic_projection_is_uniform_fiber_average(name):
    """The closed form equals the quadrature over fiber directions for
    tensors transversely isotropic about the fiber axis."""
    if name == "random":
        T = _transversely_isotropic(_rng(15))
        assert not np.allclose(T, T.transpose(2, 3, 0, 1))
    else:
        T = _mwcnt_phase_tensors()[name]
    want = _fiber_average(T)
    got = tensors.isotropic_projection(T)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
