"""Tests of the material parameter records and the derived-property bundle."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

import piezofrac
from conftest import clear_caches
from piezofrac import cli, conduction, elastic
from piezofrac.materials import (EffectiveProperties, derive_properties,
                                 mass_to_volume_fraction, preset)


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
    sig = conduction.effective_conductivity(panel, [(1.0, 1.0, 1.0)])[0]
    assert np.isclose(p.sigma0, np.trace(sig) / 3.0, rtol=1e-12)
    assert np.isclose(p.rho0 * p.sigma0, 1.0, rtol=1e-12)
    assert np.isclose(p.f_c, conduction.percolation_threshold(panel.kappa),
                      rtol=1e-12)
    rho0, l11, l12 = conduction.piezoresistivity_coeffs(panel)
    assert np.isclose(p.lam11, l11, rtol=1e-12)
    assert np.isclose(p.lam12, l12, rtol=1e-12)


def test_clear_caches_empties_every_memo(panel):
    """Each function the package's source decorates with `lru_cache` is
    module-level, and `conftest.clear_caches` empties it."""
    derive_properties(panel.with_filler(0.0137))
    clear_caches()
    memos = []
    for path in sorted(Path(piezofrac.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.FunctionDef)
                    and any("lru_cache" in ast.unparse(d)
                            for d in node.decorator_list)):
                module = importlib.import_module(f"piezofrac.{path.stem}")
                memos.append(getattr(module, node.name))
    assert len(memos) >= 8
    assert all(m.cache_info().currsize == 0 for m in memos)


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


# ------------------------------------------------------- golden property sweep
#
# The 28-card grid of `piezofrac props` and the two presets' full
# property records, written with repr() by the code at commit 05d59e2,
# before the Voigt conversions became index gathers and the moment-rule
# trigonometry became module arrays.  Those changes keep every operation
# of the chain, so the values must not move.

_NAN = float("nan")
_SWEEP_COLUMNS = ("f_p", "AR", "E_eff", "G_c", "sigma_eff", "lambda11", "f_c")

# rows in property_sweep order, columns as _SWEEP_COLUMNS
_SWEEP_ROWS = [
    (0.0, 50.0, 2500000000.0, 133.0,
     1.036e-10, 0.0, _NAN),
    (0.005, 50.0, 2773419972.4205055, 133.64813787570884,
     2.298346814914206e-10, 0.11651648162281408, 0.013865161348540284),
    (0.01, 50.0, 3048519624.1082983, 134.29627575141768,
     3.57400392904818e-10, 0.15441081817526497, 0.013865161348540284),
    (0.02, 50.0, 3606611763.9053288, 135.59255150283536,
     0.0794628568483094, 3.2409014437696753, 0.013865161348540284),
    (0.03, 50.0, 4179106061.5261602, 136.88882725425304,
     0.28261056921872985, 1.7676200302605887, 0.013865161348540284),
    (0.04, 50.0, 4769387938.46667, 138.18510300567073,
     0.5572535954749506, 1.389830374632873, 0.013865161348540284),
    (0.05, 50.0, 5379450430.519799, 139.48137875708838,
     0.888962975112332, 1.2067625122239516, 0.013865161348540284),
    (0.0, 100.0, 2500000000.0, 133.0,
     1.036e-10, 0.0, _NAN),
    (0.005, 100.0, 2934101165.6008315, 135.58018423023864,
     5.255117288263693e-10, 0.16643595221897858, 0.006932580674270142),
    (0.01, 100.0, 3367687262.647513, 138.16036846047726,
     0.029592916424974008, 3.241018744578713, 0.006932580674270142),
    (0.02, 100.0, 4236893733.7821975, 143.32073692095454,
     0.20754313985416428, 1.3899251406420416, 0.006932580674270142),
    (0.03, 100.0, 5114351950.308132, 148.4811053814318,
     0.4723472939807551, 1.095295767204847, 0.006932580674270142),
    (0.04, 100.0, 6005925860.016913, 153.6414738419091,
     0.7985326720145111, 0.9620216644596932, 0.006932580674270142),
    (0.05, 100.0, 6916334451.498349, 158.80184230238635,
     1.1723713674339615, 0.8825560552669057, 0.006932580674270142),
    (0.0, 310.0, 2500000000.0, 133.0,
     1.036e-10, 0.0, _NAN),
    (0.005, 310.0, 3048078478.502422, 157.0648138559997,
     0.023558064459688968, 1.7119404202595336, 0.002236316346538756),
    (0.01, 310.0, 3594806982.9781713, 181.12962771199938,
     0.1034880860829432, 1.0778825190648031, 0.002236316346538756),
    (0.02, 310.0, 4687340992.778126, 229.25925542399875,
     0.344350399855095, 0.8196074585060801, 0.002236316346538756),
    (0.03, 310.0, 5783851866.645325, 277.3888831359981,
     0.650991739212304, 0.7263519947256282, 0.002236316346538756),
    (0.04, 310.0, 6890523040.229503, 325.5185108479975,
     1.002180857319526, 0.6747101478366103, 0.002236316346538756),
    (0.05, 310.0, 8013110487.568038, 373.64813855999694,
     1.387332592513993, 0.640846176816731, 0.002236316346538756),
    (0.0, 1000.0, 2500000000.0, 133.0,
     1.036e-10, 0.0, _NAN),
    (0.005, 1000.0, 3069859038.155818, 162.70544038511278,
     0.04830752268403, 0.8826191414303948, 0.0006932580674270143),
    (0.01, 1000.0, 3638400163.527901, 192.4108807702256,
     0.14542467143037566, 0.712374617213574, 0.0006932580674270143),
    (0.02, 1000.0, 4774173622.299147, 251.82176154045118,
     0.3989971195222262, 0.6075400783809087, 0.0006932580674270143),
    (0.03, 1000.0, 5912748535.991335, 311.23264231067674,
     0.6995918453143183, 0.564088283734016, 0.0006932580674270143),
    (0.04, 1000.0, 7059804318.522259, 370.64352308090236,
     1.0319614396657837, 0.5390516913268578, 0.0006932580674270143),
    (0.05, 1000.0, 8220950054.223884, 430.0544038511279,
     1.3886914050745958, 0.5223947827200318, 0.0006932580674270143),
]

_PRESET_PROPERTIES = {
    "mwcnt_epoxy": dict(
        E=3594845109.6492453, nu=0.27090690285406716, Gc=181.17048286481554,
        sigma0=0.10351199374631548, rho0=9.660716249469353,
        lam11=1.0776384362823919, lam12=2.277638434763344,
        f_c=0.002235271338900186),
    "dwcnt_epoxy": dict(
        E=3093197786.4904895, nu=0.27756688969103915, Gc=311.36722555825975,
        sigma0=0.08995690389464167, rho0=11.11643416686738,
        lam11=1.9092401622189523, lam12=3.1092401621647996,
        f_c=0.00015472902692294956),
}


def _assert_matches(name, got, want):
    """Each value within 1e-13 of the golden one, relative; NaN as NaN."""
    assert len(got) == len(want), name
    for k, (g, w) in enumerate(zip(got, want)):
        ok = math.isnan(g) if math.isnan(w) else abs(g - w) <= 1e-13 * abs(w)
        assert ok, f"{name}[{k}]: {g!r}, want {w!r}"


def test_props_verb_matches_golden_table(tmp_path, capsys):
    assert cli.main(["props", "--out", str(tmp_path)]) == 0
    assert "NO" not in capsys.readouterr().out
    lines = (tmp_path / "properties.csv").read_text().splitlines()
    assert tuple(lines[0].split(",")) == _SWEEP_COLUMNS
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    for c, name in enumerate(_SWEEP_COLUMNS):
        _assert_matches(name, [r[c] for r in rows],
                        [w[c] for w in _SWEEP_ROWS])


# the cards' filler volume fractions; dwcnt_epoxy's is 0.5 wt% converted
# with its PRESET_DENSITIES entry
_PRESET_F_P0 = {"mwcnt_epoxy": 0.01, "dwcnt_epoxy": 0.0042624166048925135}


@pytest.mark.parametrize("name", sorted(_PRESET_PROPERTIES))
def test_preset_properties_match_golden_values(name):
    assert preset(name).f_p0 == _PRESET_F_P0[name]
    got = derive_properties(preset(name))
    for field, want in _PRESET_PROPERTIES[name].items():
        _assert_matches(f"{name}.{field}", [getattr(got, field)], [want])
