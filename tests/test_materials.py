"""Tests of the material parameter records and the derived-property bundle."""

import math

import numpy as np
import pytest
from dataclasses import replace

from piezofrac import conduction, elastic
from piezofrac.materials import (EffectiveProperties, derive_properties,
                                 mass_to_volume_fraction)


def test_mass_to_volume_fraction_values():
    # frozen: 0.5 wt% filler at 1350/1150 kg/m^3 densities
    assert np.isclose(mass_to_volume_fraction(0.005, 1350.0, 1150.0),
                      0.0042624166048925135, rtol=1e-12)
    assert mass_to_volume_fraction(0.0, 1350.0, 1150.0) == 0.0
    # equal densities: volume fraction equals mass fraction
    assert np.isclose(mass_to_volume_fraction(0.3, 1000.0, 1000.0), 0.3,
                      rtol=1e-14)


def test_mass_to_volume_fraction_rejects_bad_input():
    with pytest.raises(ValueError):
        mass_to_volume_fraction(-0.1, 1350.0, 1150.0)
    with pytest.raises(ValueError):
        mass_to_volume_fraction(1.0, 1350.0, 1150.0)
    with pytest.raises(ValueError):
        mass_to_volume_fraction(0.5, 0.0, 1150.0)


def test_spec_validation(panel):
    with pytest.raises(ValueError):
        replace(panel, f_p0=-0.01)
    with pytest.raises(ValueError):
        replace(panel, f_p0=1.0)
    with pytest.raises(ValueError):
        replace(panel, E_m=0.0)
    with pytest.raises(ValueError):
        replace(panel, nu_m=0.5)
    with pytest.raises(ValueError):
        replace(panel, L_cnt=1e-9)   # shorter than its diameter
    with pytest.raises(ValueError):
        replace(panel, t_i=-1e-9)
    with pytest.raises(ValueError):
        replace(panel, mu_snub=-0.1)


def test_spec_geometry_properties(panel):
    assert np.isclose(panel.kappa, panel.L_cnt / panel.D_cnt, rtol=1e-15)


def test_with_filler_and_from_mass_fraction(panel):
    spec = panel.with_filler(0.04)
    assert spec.f_p0 == 0.04
    assert spec.L_cnt == panel.L_cnt
    spec2 = panel.with_filler(mass_to_volume_fraction(0.005, 1350.0, 1150.0))
    assert np.isclose(spec2.f_p0, 0.0042624166048925135, rtol=1e-12)


def test_spec_is_hashable_and_frozen(panel):
    assert hash(panel) == hash(replace(panel))
    with pytest.raises(Exception):
        panel.f_p0 = 0.5  # frozen dataclass


def test_derive_properties_consistency(panel):
    p = derive_properties(panel)
    assert isinstance(p, EffectiveProperties)
    E, nu = elastic.effective_engineering_constants(panel)
    assert np.isclose(p.E, E, rtol=1e-12)
    assert np.isclose(p.nu, nu, rtol=1e-12)
    assert np.isclose(p.Gc, elastic.fracture_energy(panel), rtol=1e-12)
    sig = conduction.effective_conductivity(panel)
    assert np.isclose(p.sigma0, np.trace(sig) / 3.0, rtol=1e-12)
    assert np.isclose(p.rho0 * p.sigma0, 1.0, rtol=1e-12)
    assert np.isclose(p.f_c, conduction.percolation_threshold(panel.kappa),
                      rtol=1e-12)
    rho0, l11, l12 = conduction.piezoresistivity_coeffs(panel)
    assert np.isclose(p.lam11, l11, rtol=1e-12)
    assert np.isclose(p.lam12, l12, rtol=1e-12)


def test_derive_properties_unfilled_matrix(panel):
    p = derive_properties(panel.with_filler(0.0))
    assert np.isclose(p.E, panel.E_m, rtol=1e-12)
    assert np.isclose(p.nu, panel.nu_m, rtol=1e-12)
    assert p.Gc == panel.G0
    assert p.sigma0 == panel.sigma_m
    assert p.lam11 == 0.0 and p.lam12 == 0.0
    assert math.isnan(p.f_c)


def test_derive_properties_cached(panel):
    assert derive_properties(panel) is derive_properties(panel)
