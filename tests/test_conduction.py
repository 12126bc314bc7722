"""Tests of the conductivity homogenization and strain sensitivity.

Oracles: frozen high-precision evaluations of the depolarization
factor, tunneling junction resistance, percolated fraction, and the
isotropic onset product f_c * s; exact identities for the equivalent
solid cylinder; permutation equivariance and symmetry properties of the
strained conductivity.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import clear_caches
from piezofrac import conduction, elastic, materials, mesh as meshing, solver

VIRGIN = (1.0, 1.0, 1.0)


def _conductivity(spec, stretches=VIRGIN):
    """The conductivity at one triple of axis stretches, a stack of one."""
    return conduction.effective_conductivity(spec, [stretches])[0]


# ------------------------------------------------------------- network


def test_percolated_fraction_below_onset_is_zero():
    assert conduction.percolated_fraction(0.005, 0.01) == 0.0
    assert conduction.percolated_fraction(0.01, 0.01) == 0.0


def test_percolated_fraction_value():
    # frozen evaluation at f_p = 2%, f_c = 1%
    assert np.isclose(conduction.percolated_fraction(0.02, 0.01),
                      0.071375726851899544, rtol=1e-12)


def test_percolated_fraction_limits_and_monotonicity():
    f_c = 0.01
    grid = np.linspace(f_c, 1.0, 200)
    vals = [conduction.percolated_fraction(f, f_c) for f in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert np.isclose(vals[-1], 1.0, rtol=1e-12)
    with pytest.raises(ValueError):
        conduction.percolated_fraction(0.02, 0.0)


def test_depolarization_factor_limits_and_value():
    assert conduction.eshelby_electrical(1.0) == pytest.approx(1.0 / 3.0)
    assert conduction.eshelby_electrical(np.inf) == 0.5
    # frozen evaluation at s = 310
    assert np.isclose(conduction.eshelby_electrical(310.0),
                      0.49997174918401807, rtol=1e-12)
    with pytest.raises(ValueError):
        conduction.eshelby_electrical(0.9)


def test_depolarization_factor_monotone_between_limits():
    ss = [1.0, 2.0, 5.0, 30.0, 310.0, 1e4]
    vals = [conduction.eshelby_electrical(s) for s in ss]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(1.0 / 3.0 <= v < 0.5 for v in vals)


# ------------------------------------------------------------ tunneling


def test_tunneling_resistance_value():
    # frozen 30-digit evaluation: 0.22 nm gap, 0.69 eV barrier,
    # junction area = cross-section of a 10.35 nm fiber
    a = np.pi * (10.35e-9) ** 2 / 4.0
    R = conduction.tunneling_resistance(0.22e-9, 0.69, a)
    assert np.isclose(R, 648.200227299, rtol=1e-9)


def test_tunneling_resistance_scalings():
    a = 1e-16
    # inverse in junction area
    assert np.isclose(conduction.tunneling_resistance(1e-9, 1.0, 2.0 * a),
                      0.5 * conduction.tunneling_resistance(1e-9, 1.0, a),
                      rtol=1e-12)
    # increasing in the gap at fixed barrier (exponential dominates)
    ds = np.linspace(0.2e-9, 3e-9, 20)
    Rs = [conduction.tunneling_resistance(d, 1.0, a) for d in ds]
    assert all(b > a_ for a_, b in zip(Rs, Rs[1:]))
    with pytest.raises(ValueError):
        conduction.tunneling_resistance(-1e-9, 1.0, a)


def test_interphase_layer_channels(panel):
    # the layer is half the gap, its conductivity the junction's gap over
    # its resistance through the fiber cross-section; hopping uses the
    # cutoff distance, the network a gap shrunk by the excess over onset
    f_c = conduction.percolation_threshold(panel.kappa)
    eh_gap = panel.d_c
    cn_gap = panel.d_c * (f_c / panel.f_p0) ** (1.0 / 3.0)
    area = np.pi * panel.D_cnt ** 2 / 4.0
    eh, cn = (conduction.interphase_layer(panel, gap)
              for gap in (eh_gap, cn_gap))
    for layer, gap in ((eh, eh_gap), (cn, cn_gap)):
        R = conduction.tunneling_resistance(gap, panel.lambda_eV, area)
        assert 2 * layer.t == gap
        assert np.isclose(layer.sigma_int, gap / (area * R), rtol=1e-12)
    assert cn.t < eh.t
    assert cn.sigma_int > eh.sigma_int
    with pytest.raises(ValueError):
        conduction.interphase_layer(panel, 0.0)


def test_equivalent_cylinder_identities():
    r, L = 5e-9, 3e-6
    # no layer: pass-through with unit volume multiplier
    sL, sT, mult = conduction.equivalent_cylinder(100.0, 80.0, r, L, 0.0, 7.0)
    assert (sL, sT, mult) == (100.0, 80.0, 1.0)
    # homogeneous conductivity: composite cylinder is that conductor
    t = 1e-9
    sL, sT, mult = conduction.equivalent_cylinder(9.0, 9.0, r, L, t, 9.0)
    assert np.isclose(sL, 9.0, rtol=1e-12)
    assert np.isclose(sT, 9.0, rtol=1e-12)
    assert np.isclose(mult, (r + t) ** 2 * (L + 2 * t) / (r ** 2 * L),
                      rtol=1e-12)
    # blocked end caps kill the longitudinal path
    sL, _, _ = conduction.equivalent_cylinder(100.0, 100.0, r, L, t, 1e-30)
    assert sL < 1e-20


# ------------------------------------------------------- strain effects


def test_effective_conductivity_rejects_inverted_volume(panel):
    # the stretch 1 + (-1.2) is not positive
    with pytest.raises(ValueError, match="inverts the volume"):
        _conductivity(panel, (1.01, 1.0, -0.2))


def _density(stretches):
    """The strained density as a function of the two angles."""
    def w(g1, g2):
        return conduction._strained_density(
            *stretches, np.sin(g1), np.cos(g1), np.sin(g2), np.cos(g2))
    return w


def test_strained_density_uniform_limit_and_normalization():
    w = _density((1.0, 1.0, 1.0))
    assert np.isclose(w(0.3, 0.7), 1.0, rtol=1e-12)

    # reweighted density keeps unit mass over the quarter sphere
    w = _density((1.05, 0.98, 0.97))
    x, wq = np.polynomial.legendre.leggauss(48)
    x1, w1 = np.pi * (x + 1.0), np.pi * wq                # [0, 2pi]
    x2, w2 = 0.25 * np.pi * (x + 1.0), 0.25 * np.pi * wq  # [0, pi/2]
    G1, G2 = np.meshgrid(x1, x2, indexing="ij")
    vals = w(G1, G2) * np.sin(G2) / (2.0 * np.pi)
    mass = np.einsum("i,j,ij->", w1, w2, vals)
    assert np.isclose(mass, 1.0, rtol=1e-9)


def test_second_moment_uniform_and_stretched():
    M2 = conduction._second_moment((1.0, 1.0, 1.0))
    assert M2 is conduction._ISOTROPIC_MOMENT
    assert np.allclose(M2, np.eye(3) / 3.0, atol=1e-12)

    # axial stretch reorients fibers toward the stretched axis:
    # <m3^2> grows by about 4 delta / 15 to first order
    delta = 0.01
    M2s = conduction._second_moment((1.0, 1.0, 1.0 + delta))
    assert np.isclose(np.trace(M2s), 1.0, rtol=1e-12)
    assert np.isclose(M2s[2, 2] - 1.0 / 3.0, 4.0 * delta / 15.0, rtol=0.05)
    assert M2s[0, 0] < 1.0 / 3.0 < M2s[2, 2]


def _moment_rule_inline(stretches):
    """<m x m> with the 32 x 32 moment rule built from scratch, the
    density evaluated on the node grids."""
    g1, w1 = np.polynomial.legendre.leggauss(32)
    a1, w1 = np.pi * (g1 + 1.0), np.pi * w1
    g2, w2 = np.polynomial.legendre.leggauss(32)
    a2, w2 = 0.25 * np.pi * (g2 + 1.0), 0.25 * np.pi * w2
    A1, A2 = np.meshgrid(a1, a2, indexing="ij")
    dens = _density(stretches)(A1, A2)
    wt = np.outer(w1, w2 * np.sin(a2)) * dens
    wt /= np.sum(wt)
    m = np.stack([np.cos(A1) * np.sin(A2), np.sin(A1) * np.sin(A2),
                  np.cos(A2)])
    return np.einsum("iab,jab,ab->ij", m, m, wt)


def test_second_moment_matches_rule_built_per_call():
    """The rule sees the stretches in ascending order, and its moment is
    permuted back to the axes."""
    for stretches in ((0.998, 0.999, 1.004), (1.004, 0.999, 0.998),
                      (0.9, 1.2, 1.1)):
        order = np.argsort(stretches, kind="stable")
        want = _moment_rule_inline(tuple(np.asarray(stretches)[order]))
        back = np.argsort(order)
        assert np.array_equal(conduction._second_moment(stretches),
                              want[np.ix_(back, back)])


def test_quadrature_rules_are_read_only():
    rules = [conduction._MOMENT_SIN1, conduction._MOMENT_COS1,
             conduction._MOMENT_SIN2, conduction._MOMENT_COS2,
             conduction._MOMENT_WEIGHT, conduction._MOMENT_AXES,
             conduction._ONSET_G, conduction._ONSET_SIN, conduction._ONSET_CC,
             conduction._ONSET_AREA, conduction._ONSET_SIN1,
             conduction._ONSET_COS1, conduction._ONSET_SIN2,
             conduction._ONSET_COS2]
    for arr in rules:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0.0


def test_second_moment_is_read_only():
    M2 = conduction._second_moment((1.0, 1.0, 1.0 + 1e-5))
    assert not M2.flags.writeable
    with pytest.raises(ValueError):
        M2[0, 0] = 0.0


def test_public_results_are_fresh_and_writeable(panel):
    """Memoized pieces are read-only; what a caller gets is its own."""
    no_contrast = replace(panel, E_cnt=panel.E_m, nu_cnt=panel.nu_m,
                          E_i=panel.E_m)
    results = [lambda s=s: elastic.effective_stiffness(s)
               for s in (panel, panel.with_filler(0.0), no_contrast)]
    results += [lambda s=s, lam=lam: _conductivity(s, lam)
                for s in (panel, panel.with_filler(0.0))
                for lam in (VIRGIN, (1.0 + 1e-5, 1.0, 1.0))]
    results += [lambda s=s: conduction.effective_conductivity(
                    s, conduction._FD_STATES)
                for s in (panel, panel.with_filler(0.0))]
    for result in results:
        first = result()
        want = first.copy()
        assert first.flags.writeable
        first[...] = -1.0
        again = result()
        assert again is not first
        assert np.array_equal(again, want)


def _stack_states():
    """The virgin state, the four finite-difference states, three
    distinct stretches, and the same stretches permuted."""
    return [*conduction._FD_STATES, (1.0002, 0.99994, 0.99991),
            (0.99991, 1.0002, 0.99994)]


def test_stack_slices_equal_one_state_calls(panel, dogbone):
    """Each slice of a stack is, bit for bit, the one-state call of the
    same strain, in either state order and from cold caches."""
    f_c = conduction.percolation_threshold(panel.kappa)
    states = _stack_states()
    for card in (panel, dogbone, panel.with_filler(0.5 * f_c),
                 panel.with_filler(0.0)):
        clear_caches()
        forward = conduction.effective_conductivity(card, states)
        clear_caches()
        backward = conduction.effective_conductivity(card, states[::-1])
        clear_caches()
        single = [_conductivity(card, e) for e in states]
        assert forward.shape == backward.shape == (len(states), 3, 3)
        for k, want in enumerate(single):
            assert np.array_equal(forward[k], want)
            assert np.array_equal(backward[-1 - k], want)


def _raised(f):
    with pytest.raises(ValueError) as info:
        f()
    return str(info.value)


@pytest.mark.parametrize("k", [0, 2, 4])
def test_stack_raises_the_faulty_states_message(panel, k):
    """A stack whose k-th state inverts the volume, or pushes the dressed
    filler fraction to 1, raises that state's own message."""
    # at f_p = 0.95 the dressed hopping fraction is just below 1, and 2%
    # compression pushes it past 1
    dense = panel.with_filler(0.95)
    for card, bad, message in (
            (panel, (1.01, 1.0, -0.2), "inverts the volume"),
            (dense, (0.98, 1.0, 1.0), "dressed filler fraction")):
        states = list(conduction._FD_STATES)
        states[k] = bad
        want = _raised(lambda: _conductivity(card, bad))
        assert message in want
        assert _raised(
            lambda: conduction.effective_conductivity(card, states)) == want
    assert _conductivity(dense)[0, 0] > 0.0


@pytest.mark.parametrize("field, value", [
    ("D_cnt", 12e-9), ("L_cnt", 2.5e-6), ("sigma_cnt", 250.0),
    ("d_c", 0.25e-9), ("lambda_eV", 0.6)])
def test_effective_conductivity_warm_equals_cold_per_hopping_field(
        panel, field, value):
    """Each field of the hopping-channel key reaches the cache key.

    The card sits below the percolation onset, so hopping is its only
    channel.
    """
    below = panel.with_filler(0.001)
    spec = replace(below, **{field: value})
    assert conduction.percolation_threshold(spec.kappa) > spec.f_p0
    clear_caches()
    base = _conductivity(below)
    warm = _conductivity(spec)
    clear_caches()
    cold = _conductivity(spec)
    assert np.array_equal(warm, cold)
    assert not np.array_equal(warm, base)


def test_property_card_builds_no_quadrature(panel, monkeypatch):
    def refuse(n):
        raise AssertionError(f"leggauss({n}) called per evaluation")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    clear_caches()
    props = materials.derive_properties(panel.with_filler(0.0137))
    assert props.rho0 > 0.0 and props.f_c > 0.0


def test_property_cards_independent_of_derivation_order(panel):
    """The 28 `props` cards from cold caches, forward and reversed."""
    cards = [replace(panel, L_cnt=ar * panel.D_cnt).with_filler(f_p)
             for ar in (50.0, 100.0, 310.0, 1000.0)
             for f_p in (0.0, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05)]
    clear_caches()
    forward = [repr(materials.derive_properties(c)) for c in cards]
    clear_caches()
    backward = [repr(materials.derive_properties(c)) for c in cards[::-1]]
    assert backward[::-1] == forward


def test_percolation_onset_product_constant_across_aspect_ratios():
    """Isotropic onset scales as 1/s: f_c * s is a shape constant."""
    want = 0.69324090121317158  # 4 / 5.77, frozen
    for s in (50.0, 100.0, 310.0, 1000.0):
        f_c = conduction.percolation_threshold(s)
        assert abs(f_c * s - want) / want < 1e-4
    with pytest.raises(ValueError):
        conduction.percolation_threshold(1.0)


def test_percolation_onset_rises_under_fiber_alignment():
    f_iso = conduction.percolation_threshold(310.0)
    f_ali = conduction.percolation_threshold(310.0, stretches=(0.95, 0.95, 1.2))
    assert f_ali > f_iso


# ------------------------------------------------- effective conductivity


def test_effective_conductivity_zero_filler_is_matrix(panel):
    s = _conductivity(panel.with_filler(0.0))
    assert np.array_equal(s, panel.sigma_m * np.eye(3))


def test_effective_conductivity_isotropic_and_spd_at_rest(panel):
    s = _conductivity(panel)
    assert np.allclose(s, s.T)
    assert np.allclose(s - np.diag(np.diag(s)), 0.0, atol=1e-15 * s[0, 0])
    assert np.allclose(np.diag(s), s[0, 0], rtol=1e-12)
    assert np.all(np.linalg.eigvalsh(s) > 0.0)


def test_effective_conductivity_regressions(panel, dogbone):
    s = _conductivity(panel)
    assert np.isclose(s[0, 0], 0.1035119937463155, rtol=1e-9)
    s4 = _conductivity(panel.with_filler(0.04))
    assert np.isclose(s4[0, 0], 1.0022235518484675, rtol=1e-9)
    sd = _conductivity(dogbone)
    assert np.isclose(sd[0, 0], 0.08995690389464155, rtol=1e-9)


def test_effective_conductivity_jumps_at_onset(panel):
    f_c = conduction.percolation_threshold(panel.kappa)
    below = _conductivity(panel.with_filler(0.5 * f_c))
    above = _conductivity(panel.with_filler(2.0 * f_c))
    assert above[0, 0] / below[0, 0] > 1e3


def test_effective_conductivity_rotation_equivariance(panel, dogbone):
    """Stretches (a, b, c) and (b, c, a) give, bit for bit, the same
    conductivity with its axes permuted, also where a * b * c and
    b * c * a differ in the last bit (the second triple)."""
    p = [1, 2, 0]
    f_c = conduction.percolation_threshold(panel.kappa)
    for a, b, c in ((1.01, 0.998, 0.997), (1.01, 0.998, 0.99)):
        for card in (panel, dogbone, panel.with_filler(0.5 * f_c)):
            s = conduction.effective_conductivity(card,
                                                  [(a, b, c), (b, c, a)])
            assert np.array_equal(s[1], s[0][np.ix_(p, p)])


def test_effective_conductivity_strain_shifts_axial_value(panel):
    s0 = _conductivity(panel)[0, 0]
    s = _conductivity(panel, (1.01, 0.9972, 0.9972))
    assert not np.isclose(s[0, 0], s0, rtol=1e-5)
    # transverse axes stay degenerate for a transversely isotropic strain
    assert np.isclose(s[1, 1], s[2, 2], rtol=1e-10)


# -------------------------------------------------------- piezoresistivity


def test_piezoresistivity_coeffs_regression(panel):
    rho0, l11, l12 = conduction.piezoresistivity_coeffs(panel)
    assert np.isclose(rho0, 9.660716249469349, rtol=1e-9)
    assert np.isclose(l11, 1.0776384361812614, rtol=1e-6)
    assert np.isclose(l12, 2.27763843488746, rtol=1e-6)


def test_resistivity_update_consistent_with_conductivity_derivative(panel):
    """The solver's linearized law reproduces the exact strained
    resistivity, shear included."""
    rho0, l11, l12 = conduction.piezoresistivity_coeffs(panel)
    mat = solver.MaterialPoint(E=3e9, nu=0.3, Gc=100.0, ell=1e-3,
                               rho0=rho0, lam11=l11, lam12=l12,
                               k=50.0, n=6.0, eps_reg=1e-7)
    sys_ = solver.CoupledSystem(
        meshing.structured_mesh((1.0, 1.0, 1.0), (1, 1, 1)), mat)
    # Voigt order 11, 22, 33, 23, 13, 12 with engineering shears
    voigt = np.array([2e-4, -6e-5, -6e-5, 1e-4, -8e-5, 6e-5])
    eps = np.array([[2e-4, 3e-5, -4e-5],
                    [3e-5, -6e-5, 5e-5],
                    [-4e-5, 5e-5, -6e-5]])
    rho_lin = np.linalg.inv(sys_.conductivity(voigt.reshape(1, 1, 6))[0, 0])
    # the micromechanics at the principal stretches, rotated back
    ev, V = np.linalg.eigh(eps)
    rho_exact = V @ np.linalg.inv(_conductivity(panel, 1.0 + ev)) @ V.T
    # the strain-induced change agrees to second order in the strain
    change = rho_exact - rho0 * np.eye(3)
    assert np.abs(rho_lin - rho_exact).max() < 1e-3 * np.abs(change).max()
