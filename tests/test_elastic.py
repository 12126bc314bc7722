"""Tests of the stiffness and fracture-energy homogenization.

Oracles: closed-form sphere/cylinder inclusion limits, high-precision
frozen values for the prolate shape tensor, the two-phase sphere
composite closed form, and exact pull-out/rupture regime formulas for
the bridging energy.  The adaptive bridging quadrature is additionally
cross-checked against a deterministic fixed-grid integration.
"""

import numpy as np
import pytest
from dataclasses import replace

from piezofrac import elastic, tensors
from piezofrac.elastic import PhaseContrastError
from piezofrac.materials import CompositeSpec


# ---------------------------------------------------------------- shape


def test_sphericity_sphere_is_one():
    assert elastic.sphericity(1.0) == 1.0


def test_sphericity_value():
    # frozen high-precision evaluation at aspect ratio 310
    assert np.isclose(elastic.sphericity(310.0), 0.18812822904825275,
                      rtol=1e-12)


def test_sphericity_decreases_with_slenderness():
    kappas = [1.0, 2.0, 5.0, 20.0, 100.0, 1000.0]
    vals = [elastic.sphericity(k) for k in kappas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.0


def test_sphericity_rejects_oblate():
    with pytest.raises(ValueError):
        elastic.sphericity(0.5)


def test_interphase_fraction_zero_cases():
    assert elastic.interphase_volume_fraction(0.0, 310.0, 31e-9, 10e-9) == 0.0
    assert elastic.interphase_volume_fraction(0.01, 310.0, 0.0, 10e-9) == 0.0


def test_interphase_fraction_value():
    # frozen high-precision evaluation for the panel geometry
    f_i = elastic.interphase_volume_fraction(0.01, 310.0, 31e-9, 10.35e-9)
    assert np.isclose(f_i, 0.16688253094439239, rtol=1e-12)


def test_interphase_fraction_bounded_and_monotone_in_thickness():
    f_p = 0.02
    ts = np.linspace(0.0, 400e-9, 30)
    vals = [elastic.interphase_volume_fraction(f_p, 310.0, t, 10.35e-9)
            for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 - f_p for v in vals[1:])


# ---------------------------------------------------------------- Eshelby


def _full(S):
    return tensors.strain_map_to_full(S)


def test_eshelby_sphere_closed_form():
    nu = 0.3
    T = _full(elastic.eshelby_prolate(1.0, nu))
    assert np.isclose(T[0, 0, 0, 0], (7.0 - 5.0 * nu) / (15.0 * (1.0 - nu)))
    assert np.isclose(T[0, 0, 1, 1], (5.0 * nu - 1.0) / (15.0 * (1.0 - nu)))
    assert np.isclose(T[0, 1, 0, 1], (4.0 - 5.0 * nu) / (15.0 * (1.0 - nu)))
    # full spherical symmetry
    assert np.isclose(T[0, 0, 0, 0], T[2, 2, 2, 2])
    assert np.isclose(T[0, 0, 2, 2], T[2, 2, 0, 0])


def test_eshelby_prolate_frozen_values():
    # frozen 30-digit evaluations of the closed-form integrals
    T = _full(elastic.eshelby_prolate(5.0, 0.3))
    assert np.isclose(T[0, 0, 0, 0], 0.66130529571357075, rtol=1e-12)
    assert np.isclose(T[2, 2, 2, 2], 0.11078732277641999, rtol=1e-12)
    assert np.isclose(T[0, 0, 1, 1], 0.04059147377165791, rtol=1e-12)
    assert np.isclose(T[0, 0, 2, 2], 0.1748409014124915, rtol=1e-12)
    assert np.isclose(T[2, 2, 0, 0], -0.0035599037145015756, rtol=1e-10)
    assert np.isclose(T[0, 1, 0, 1], 0.31035691097095642, rtol=1e-12)
    assert np.isclose(T[0, 2, 0, 2], 0.23647206596363142, rtol=1e-12)

    T = _full(elastic.eshelby_prolate(50.0, 0.28))
    assert np.isclose(T[0, 0, 0, 0], 0.67328689954425783, rtol=1e-12)
    assert np.isclose(T[2, 2, 2, 2], 0.0031704180418253002, rtol=1e-10)
    assert np.isclose(T[0, 0, 1, 1], 0.021019201913175449, rtol=1e-12)
    assert np.isclose(T[0, 0, 2, 2], 0.19330014407672161, rtol=1e-12)
    assert np.isclose(T[2, 2, 0, 0], -0.00030256566617865056, rtol=1e-9)
    assert np.isclose(T[0, 1, 0, 1], 0.32613384881554119, rtol=1e-12)
    assert np.isclose(T[0, 2, 0, 2], 0.24949702130964416, rtol=1e-12)


def test_eshelby_cylinder_limit():
    nu = 0.28
    T = _full(elastic.eshelby_prolate(1e7, nu))
    d = 8.0 * (1.0 - nu)
    assert np.isclose(T[0, 0, 0, 0], (5.0 - 4.0 * nu) / d, atol=1e-6)
    assert np.isclose(T[0, 0, 1, 1], (4.0 * nu - 1.0) / d, atol=1e-6)
    assert np.isclose(T[0, 0, 2, 2], nu / (2.0 * (1.0 - nu)), atol=1e-6)
    assert np.isclose(T[2, 2, 2, 2], 0.0, atol=1e-6)
    assert np.isclose(T[0, 1, 0, 1], (3.0 - 4.0 * nu) / d, atol=1e-6)
    assert np.isclose(T[0, 2, 0, 2], 0.25, atol=1e-6)


def test_eshelby_minor_symmetries():
    T = _full(elastic.eshelby_prolate(17.0, 0.31))
    assert np.allclose(T, T.transpose(1, 0, 2, 3))
    assert np.allclose(T, T.transpose(0, 1, 3, 2))
    # transverse isotropy about x3
    assert np.isclose(T[0, 0, 0, 0], T[1, 1, 1, 1])
    assert np.isclose(T[0, 0, 2, 2], T[1, 1, 2, 2])


# -------------------------------------------------------- concentration


def test_dilute_concentration_matches_direct_inverse_form():
    """I + S:T with T = -(S+M)^-1 equals [I + S:C_m^-1:(C_i - C_m)]^-1."""
    rng = np.random.default_rng(3)
    C_m = tensors.isotropic_stiffness(2.5e9, 0.3)
    S = elastic.eshelby_prolate(12.0, 0.3)
    for E_i, nu_i in [(700e9, 0.2), (5e9, 0.45), (0.5e9, 0.1)]:
        C_i = tensors.isotropic_stiffness(E_i, nu_i)
        A = elastic.dilute_concentration(C_i, C_m, S)
        A_alt = np.linalg.inv(
            np.eye(6) + S @ np.linalg.solve(C_m, C_i - C_m))
        assert np.allclose(A, A_alt, rtol=1e-9, atol=1e-12)


def test_dilute_concentration_rejects_vanishing_contrast():
    C_m = tensors.isotropic_stiffness(2.5e9, 0.3)
    S = elastic.eshelby_prolate(12.0, 0.3)
    with pytest.raises(PhaseContrastError):
        elastic.dilute_concentration(C_m.copy(), C_m, S)
    # a uniformly scaled contrast stays well conditioned however small
    A = elastic.dilute_concentration(C_m * (1.0 + 1e-12), C_m, S)
    assert np.allclose(A, np.eye(6), atol=1e-11)


def test_dilute_concentration_approaches_identity_at_low_contrast():
    C_m = tensors.isotropic_stiffness(2.5e9, 0.3)
    S = elastic.eshelby_prolate(12.0, 0.3)
    C_i = tensors.isotropic_stiffness(2.5e9 * 1.001, 0.3)
    A = elastic.dilute_concentration(C_i, C_m, S)
    assert np.allclose(A, np.eye(6), atol=1e-3)


def _phase_pairs():
    """Named (C_a, C_b) pairs: equal, within and just outside the
    tolerance, a sign flip, NaN on either side or an infinity in C_b
    only, and a zero matrix."""
    C = tensors.isotropic_stiffness(2.5e9, 0.28)
    tol = 1e-12 * np.linalg.norm(C)
    near, far, flip, nan, inf = (C.copy() for _ in range(5))
    near[0, 1] += 0.5 * tol
    far[0, 1] += 3.0 * tol
    flip[3, 3] = -flip[3, 3]
    nan[2, 2] = np.nan
    inf[4, 4] = np.inf
    zero = np.zeros((6, 6))
    return {"equal": (C, C.copy()), "near": (near, C), "near_b": (C, near),
            "far": (far, C), "far_b": (C, far),
            "scaled_in": (C * (1.0 + 1e-13), C),
            "scaled_out": (C * (1.0 + 1e-11), C), "flip": (flip, C),
            "nan_a": (nan, C), "nan_b": (C, nan), "nan_both": (nan, nan),
            "inf_b": (C, inf),
            "zeros": (zero, zero), "zero_b": (C, zero), "zero_a": (zero, C)}


@pytest.mark.filterwarnings("ignore:One of rtol or atol:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_phase_pairs()))
def test_phases_match_agrees_with_allclose(name):
    C_a, C_b = _phase_pairs()[name]
    want = np.allclose(C_a, C_b, rtol=1e-12,
                       atol=1e-12 * np.linalg.norm(C_b))
    assert elastic._phases_match(C_a, C_b) is bool(want)


def test_phases_match_needs_finite_entries():
    """Unlike np.allclose, equal infinities do not match."""
    C = tensors.isotropic_stiffness(2.5e9, 0.28)
    C[4, 4] = np.inf
    assert not elastic._phases_match(C, C.copy())


# ---------------------------------------------------- effective stiffness


def _sphere_spec(f_p, E_p, nu_p, E_m, nu_m):
    """Single-inclusion composite with spherical fillers and no coating."""
    return CompositeSpec(
        f_p0=f_p, L_cnt=1e-6, D_cnt=1e-6, E_cnt=E_p, nu_cnt=nu_p,
        E_m=E_m, nu_m=nu_m, E_i=E_m, t_i=0.0, sigma_cnt=100.0,
        sigma_m=1e-10, d_c=1e-9, lambda_eV=1.0, G0=100.0,
        sigma_ult=35e9, tau_int=47e6)


def _kg(E, nu):
    return E / (3.0 * (1.0 - 2.0 * nu)), E / (2.0 * (1.0 + nu))


def test_effective_stiffness_sphere_composite_closed_form():
    """Spherical-filler composite matches the two-phase mean-field result."""
    f = 0.15
    E_p, nu_p, E_m, nu_m = 50e9, 0.2, 3e9, 0.35
    spec = _sphere_spec(f, E_p, nu_p, E_m, nu_m)
    E_eff, nu_eff = elastic.effective_engineering_constants(spec)
    K, G = _kg(E_eff, nu_eff)

    K_p, G_p = _kg(E_p, nu_p)
    K_m, G_m = _kg(E_m, nu_m)
    K_ref = K_m + f * (K_p - K_m) / (
        1.0 + (1.0 - f) * (K_p - K_m) / (K_m + 4.0 * G_m / 3.0))
    zeta = G_m * (9.0 * K_m + 8.0 * G_m) / (6.0 * (K_m + 2.0 * G_m))
    G_ref = G_m + f * (G_p - G_m) / (
        1.0 + (1.0 - f) * (G_p - G_m) / (G_m + zeta))
    assert np.isclose(K, K_ref, rtol=1e-9)
    assert np.isclose(G, G_ref, rtol=1e-9)


def test_effective_stiffness_zero_filler_is_matrix_exactly(panel):
    C = elastic.effective_stiffness(panel.with_filler(0.0))
    assert np.array_equal(C, tensors.isotropic_stiffness(panel.E_m, panel.nu_m))


def test_effective_stiffness_identical_phases_returns_matrix(panel):
    spec = replace(panel, E_cnt=panel.E_m, nu_cnt=panel.nu_m, E_i=panel.E_m)
    C = elastic.effective_stiffness(spec)
    C_m = tensors.isotropic_stiffness(panel.E_m, panel.nu_m)
    assert np.max(np.abs(C - C_m)) <= 1e-10 * np.max(np.abs(C_m))


def test_effective_stiffness_is_isotropic(panel):
    C = elastic.effective_stiffness(panel)
    _, _, _, aniso = tensors.isotropic_part(C)
    assert aniso <= 1e-6
    assert np.allclose(C, C.T)


def test_effective_modulus_monotone_in_filler(panel):
    fps = [0.0, 0.005, 0.01, 0.02, 0.04]
    Es = [elastic.effective_engineering_constants(panel.with_filler(f))[0]
          for f in fps]
    assert all(b > a for a, b in zip(Es, Es[1:]))
    assert np.isclose(Es[0], panel.E_m, rtol=1e-12)


def test_effective_constants_regression(panel):
    E, nu = elastic.effective_engineering_constants(panel)
    assert np.isclose(E, 3594845109.6492443, rtol=1e-9)
    assert np.isclose(nu, 0.2709069028540671, rtol=1e-9)


def test_effective_stiffness_rejects_overfilled_interphase(panel):
    # a thick coating at high filler content exhausts the matrix
    spec = replace(panel, t_i=5e-7, f_p0=0.09)
    with pytest.raises(ValueError):
        elastic.effective_stiffness(spec)


# --------------------------------------------------------- fiber bridging


def test_fracture_energy_zero_filler_is_matrix_value(panel):
    assert elastic.fracture_energy(panel.with_filler(0.0)) == panel.G0


def test_fracture_energy_pure_pullout_closed_form(panel, monkeypatch):
    """With lc > L everywhere the energy is G0 + f tau L^2 / (3 pi D)."""
    monkeypatch.setattr(elastic, "_A_SNUB", 0.0)
    tau = 0.4 * panel.sigma_ult * panel.D_cnt / (2.0 * panel.L_cnt)
    spec = replace(panel, tau_int=tau)
    want = spec.G0 + spec.f_p0 * tau * spec.L_cnt ** 2 / (3.0 * np.pi * spec.D_cnt)
    assert np.isclose(elastic.fracture_energy(spec), want, rtol=1e-8)


def test_fracture_energy_pure_rupture_closed_form(panel, monkeypatch):
    """With lc ~ 0 the energy is G0 + f sigma_ult^2 L / (pi E)."""
    monkeypatch.setattr(elastic, "_A_SNUB", 0.0)
    spec = replace(panel, tau_int=1e18)
    want = (spec.G0 + spec.f_p0 * spec.sigma_ult ** 2 * spec.L_cnt
            / (np.pi * spec.E_cnt))
    assert np.isclose(elastic.fracture_energy(spec), want, rtol=1e-8)


def test_fracture_energy_regression_and_monotonicity(panel):
    G1 = elastic.fracture_energy(panel)
    assert np.isclose(G1, 181.17048286481554, rtol=1e-9)
    G2 = elastic.fracture_energy(panel.with_filler(0.02))
    G4 = elastic.fracture_energy(panel.with_filler(0.04))
    assert panel.G0 < G1 < G2 < G4


def test_fracture_energy_against_fixed_grid_integration(panel):
    """Deterministic midpoint integration reproduces the adaptive result."""
    spec = panel
    D, L = spec.D_cnt, spec.L_cnt
    tau, sig_u, E_f = spec.tau_int, spec.sigma_ult, spec.E_cnt
    A, mu = elastic._A_SNUB, spec.mu_snub
    W_rup = np.pi * D ** 2 * sig_u ** 2 * L / (8.0 * E_f)

    n_th, n_l = 12000, 4000
    th = (np.arange(n_th) + 0.5) * (0.5 * np.pi / n_th)
    dth = 0.5 * np.pi / n_th
    sig = sig_u * (1.0 - A * np.tan(th))
    lcut = np.clip(0.5 * sig * D / (2.0 * tau * np.exp(mu * th)),
                   0.0, 0.5 * L)
    # pull-out part: c(th) * lcut^3 * int_0^1 u^2/2 du on a midpoint grid
    u = (np.arange(n_l) + 0.5) / n_l
    unit = np.sum(0.5 * u ** 2) / n_l
    pull = tau * np.pi * D * np.exp(mu * th) * lcut ** 3 * unit
    inner = pull + (0.5 * L - lcut) * W_rup
    g = 2.0 / np.pi  # uniform inclination density on [0, pi/2]
    G_grid = spec.G0 + (2.0 * spec.f_p0 / (np.pi * D ** 2 / 4.0 * L)
                        ) * np.sum(inner * g * np.cos(th)) * dth
    assert np.isclose(elastic.fracture_energy(spec), G_grid, rtol=1e-6)


def test_snubbing_friction_raises_single_fiber_pullout_work(panel,
                                                            monkeypatch):
    """Friction amplifies the pull-out work that every fiber contributes.

    With lc > L at every inclination no fiber ruptures, so G_c - G0 is
    pull-out work alone, whose integrand gains the factor exp(mu theta);
    under the uniform density that multiplies it by
    int exp(mu th) cos th dth / int cos th dth = (exp(mu pi/2) - mu) / (1 + mu^2).
    """
    monkeypatch.setattr(elastic, "_A_SNUB", 0.0)
    tau = 0.4 * panel.sigma_ult * panel.D_cnt / (2.0 * panel.L_cnt)
    spec = replace(panel, tau_int=tau, mu_snub=0.0)
    G_plain = elastic.fracture_energy(spec)
    G_snub = elastic.fracture_energy(replace(spec, mu_snub=0.5))
    gain = (np.exp(0.25 * np.pi) - 0.5) / 1.25
    assert G_snub > G_plain
    assert np.isclose(G_snub - spec.G0, gain * (G_plain - spec.G0), rtol=1e-8)


def test_fracture_energy_with_snubbing_is_finite(panel):
    # exercises the inclined-strength and pull-out/rupture break points
    G = elastic.fracture_energy(replace(panel, mu_snub=0.5))
    assert np.isfinite(G) and G > panel.G0

