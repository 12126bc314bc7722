"""Config parsing, schema validation, and material resolution."""

import math

import numpy as np
import pytest

from piezofrac import materials, scenario

MINIMAL = """
[loading]
steps = 10
"""


def test_minimal_text_parses_with_defaults_logged():
    sc = scenario.parse_text(MINIMAL, "mini")
    assert sc.loading["steps"] == 10
    assert sc.geometry["kind"] == "plate"
    assert len(sc.defaulted) > 30
    assert any(s.startswith("phase_field.k = ") for s in sc.defaulted)
    # the explicitly given key is not in the defaulted list
    assert not any(s.startswith("loading.steps") for s in sc.defaulted)


def test_empty_text_is_fully_defaulted():
    sc = scenario.parse_text("", "empty")
    assert sc.loading["u_max"] > 0.0
    assert sc.electrodes["drive_face"] != sc.electrodes["ground_face"]


def test_comments_and_blanks_ignored():
    sc = scenario.parse_text(
        "# header\n\n[loading]\nsteps = 4   # inline\n", "c")
    assert sc.loading["steps"] == 4


@pytest.mark.parametrize("bad, key", [
    ("[geometry]\nlenght_scale = 0.1\n", "lenght_scale"),
    ("[solver]\nmax_iter = 50\n", "max_iter"),       # removed solver knob
    ("[material]\nhomog_order = 16\n", "homog_order"),  # now a constant
], ids=["typo", "removed_solver_key", "removed_material_key"])
def test_unknown_key_named_with_line(bad, key):
    with pytest.raises(scenario.SchemaError, match=rf"f:2.*{key}"):
        scenario.parse_text(bad, "f")


def test_removed_strip_kind_rejected():
    # a strip was always meshed as a plate; kind = plate says so
    with pytest.raises(scenario.SchemaError, match=r"'strip' not recognised"):
        scenario.parse_text("[geometry]\nkind = strip\n", "f")


def test_unknown_section_rejected():
    with pytest.raises(scenario.SchemaError, match=r"geometrie"):
        scenario.parse_text("[geometrie]\n", "f")


def test_duplicate_key_rejected():
    bad = "[loading]\nsteps = 3\nsteps = 4\n"
    with pytest.raises(scenario.SchemaError, match=r"duplicate.*steps"):
        scenario.parse_text(bad, "f")


def test_bad_value_rejected():
    with pytest.raises(scenario.SchemaError, match=r"bad value for 'steps'"):
        scenario.parse_text("[loading]\nsteps = soon\n", "f")


def test_key_outside_section_rejected():
    with pytest.raises(scenario.SchemaError, match=r"outside any"):
        scenario.parse_text("steps = 3\n", "f")


def test_malformed_section_rejected():
    with pytest.raises(scenario.SchemaError, match=r"malformed"):
        scenario.parse_text("[loading\nsteps = 3\n", "f")


def test_electrode_overlap_rejected():
    bad = "[electrodes]\ndrive_face = ymax\nground_face = ymax\n"
    with pytest.raises(scenario.SchemaError, match=r"overlap"):
        scenario.parse_text(bad, "f")


def test_bad_face_rejected():
    bad = "[electrodes]\ndrive_face = top\n"
    with pytest.raises(scenario.SchemaError, match=r"not a face"):
        scenario.parse_text(bad, "f")


def test_z_axis_invalid_in_2d():
    with pytest.raises(scenario.SchemaError, match=r"axis"):
        scenario.parse_text("[loading]\naxis = z\n", "f")


def test_nonpositive_program_rejected():
    with pytest.raises(scenario.SchemaError, match=r"monotone"):
        scenario.parse_text("[loading]\nu_max = -1e-4\n", "f")


def test_defect_fraction_range():
    with pytest.raises(scenario.SchemaError, match=r"defect_area_fraction"):
        scenario.parse_text("[geometry]\ndefect_area_fraction = 0.7\n", "f")


def test_replace_copies_one_section():
    sc = scenario.parse_text(MINIMAL, "mini")
    sc2 = sc.replace("phase_field", k=10.0)
    assert sc2.phase_field["k"] == 10.0
    assert sc.phase_field["k"] == 50.0
    # an overridden key is no longer listed as defaulted; the rest stay
    assert any(s.startswith("phase_field.k = ") for s in sc.defaulted)
    assert not any(s.startswith("phase_field.k = ") for s in sc2.defaulted)
    assert set(sc.defaulted) - set(sc2.defaulted) == {"phase_field.k = 50.0"}
    sc3 = sc.replace("mc", seed=5)
    assert not any(s.startswith("mc.seed = ") for s in sc3.defaulted)
    with pytest.raises(KeyError):
        sc.replace("phase_field", kk=1.0)


_COUNTS = [("mc", "seed"), ("solver", "max_cutbacks"),
           ("output", "vtk_every"), ("geometry", "surface_notches")]


@pytest.mark.parametrize("section, key", _COUNTS)
def test_negative_count_or_seed_rejected_by_key(section, key):
    with pytest.raises(scenario.SchemaError, match=rf"{section}\.{key}"):
        scenario.parse_text(f"[{section}]\n{key} = -1\n", "f")
    # zero is a valid count and seed
    sc = scenario.parse_text(f"[{section}]\n{key} = 0\n", "f")
    assert getattr(sc, section)[key] == 0


@pytest.mark.parametrize("section, key", _COUNTS)
def test_replace_validates_its_result(section, key):
    sc = scenario.parse_text(MINIMAL, "mini")
    with pytest.raises(scenario.SchemaError, match=rf"{section}\.{key}"):
        sc.replace(section, **{key: -5})


@pytest.mark.parametrize("section, key, bad, edge", [
    ("phase_field", "k", "0", "1e-3"),
    ("phase_field", "n", "0.99", "1"),
    ("phase_field", "eps_reg", "-1e-7", "1e-12"),
    ("sweep", "k_values", "10, nan", "10, 1e-3"),
    ("sweep", "n_values", "1, 0", "1, 2"),
])
def test_degradation_bounds_rejected_by_key(section, key, bad, edge):
    with pytest.raises(scenario.SchemaError,
                       match=rf"f: {section}\.{key} must be"):
        scenario.parse_text(f"[{section}]\n{key} = {bad}\n", "f")
    scenario.parse_text(f"[{section}]\n{key} = {edge}\n", "f")


_FLOAT_KEYS = [(sec, key, default)
               for sec, keys in scenario._SCHEMA.items()
               for key, (tag, default, _) in keys.items() if tag == "float"]


@pytest.mark.parametrize(
    "section, key", [(s, k) for s, k, d in _FLOAT_KEYS if not math.isnan(d)])
def test_non_finite_value_rejected_by_key(section, key):
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(scenario.SchemaError,
                           match=rf"f: {section}\.{key} must be finite"):
            scenario.parse_text(f"[{section}]\n{key} = {bad}\n", "f")


@pytest.mark.parametrize(
    "section, key", [(s, k) for s, k, d in _FLOAT_KEYS if math.isnan(d)])
def test_unset_key_takes_nan_but_no_infinity(section, key):
    sc = scenario.parse_text(f"[{section}]\n{key} = nan\n", "f")
    assert math.isnan(getattr(sc, section)[key])
    for bad in ("inf", "-inf"):
        with pytest.raises(scenario.SchemaError,
                           match=rf"f: {section}\.{key} must be finite"):
            scenario.parse_text(f"[{section}]\n{key} = {bad}\n", "f")


@pytest.mark.parametrize("section, key, bad", [
    ("geometry", "defect_region", "0.01, nan, 0.09, 0.15"),
    ("geometry", "defect_region", "0.01, 0.05, inf, 0.15"),
    ("sweep", "k_values", "10, inf"),
    ("sweep", "n_values", "-inf, 4"),
    ("geometry", "holes", "0.05, 0.1, nan"),
    ("geometry", "holes", "0.05, 0.1, 0.01; inf, 0.1, 0.01"),
])
def test_non_finite_list_entry_rejected_by_key(section, key, bad):
    with pytest.raises(scenario.SchemaError,
                       match=rf"f: {section}\.{key} must be finite"):
        scenario.parse_text(f"[{section}]\n{key} = {bad}\n", "f")


def test_replace_rejects_non_finite_values():
    sc = scenario.canned("plate")
    for kv in ({"holes": ((0.05, 0.1, math.nan),)},
               {"notch_length": math.inf}):
        with pytest.raises(scenario.SchemaError, match=r"must be finite"):
            sc.replace("geometry", **kv)
    with pytest.raises(scenario.SchemaError,
                       match=r"electrodes\.voltage must be finite"):
        sc.replace("electrodes", voltage=math.inf)


def test_notch_on_a_cylinder_rejected():
    cyl = scenario.canned("cylinder")
    assert cyl.geometry["notch_mode"] == "none"
    for mode in ("element", "seed"):
        with pytest.raises(scenario.SchemaError,
                           match=r"geometry\.notch_mode must be 'none'"):
            cyl.replace("geometry", notch_mode=mode)


def test_surface_notches_on_a_plate_rejected():
    with pytest.raises(scenario.SchemaError,
                       match=r"geometry\.surface_notches must be 0"):
        scenario.canned("plate").replace("geometry", surface_notches=3)


def test_resolve_weight_fraction_names_unknown_preset():
    sc = scenario.parse_text("[material]\npreset = foo\nwt = 0.01\n", "f")
    with pytest.raises(KeyError, match=r"unknown material preset 'foo'"):
        scenario.resolve_material(sc)


def test_parse_scenario_reads_file(tmp_path):
    p = tmp_path / "case.cfg"
    p.write_text(MINIMAL, encoding="utf-8")
    sc = scenario.parse_scenario(p)
    assert sc.loading["steps"] == 10


def test_resolve_direct_override():
    text = ("[material]\nE = 3e9\nnu = 0.3\nGc = 50\nrho0 = 10\n"
            "lam11 = 1.0\nlam12 = 2.0\n")
    sc = scenario.parse_text(text, "f")
    props, spec = scenario.resolve_material(sc)
    assert spec is None
    assert props.E == 3e9 and props.rho0 == 10.0
    assert props.sigma0 == pytest.approx(0.1)
    assert math.isnan(props.f_c)


def test_resolve_partial_override_rejected():
    sc = scenario.parse_text("[material]\nE = 3e9\n", "f")
    with pytest.raises(scenario.SchemaError, match=r"all of"):
        scenario.resolve_material(sc)


def test_resolve_preset_with_filler_override():
    sc = scenario.parse_text("[material]\npreset = mwcnt_epoxy\n"
                             "f_p = 0.02\n", "f")
    props, spec = scenario.resolve_material(sc)
    assert spec is not None and spec.f_p0 == 0.02
    assert props.E > spec.E_m     # stiffened by filler


def test_resolve_weight_fraction_converts():
    sc = scenario.parse_text("[material]\npreset = dwcnt_epoxy\n"
                             "wt = 0.005\n", "f")
    _, spec = scenario.resolve_material(sc)
    want = materials.mass_to_volume_fraction(0.005, 1350.0, 1150.0)
    assert spec.f_p0 == pytest.approx(want, rel=1e-12)


def test_resolve_weight_and_volume_fraction_exclude_each_other():
    sc = scenario.parse_text("[material]\npreset = dwcnt_epoxy\n"
                             "wt = 0.005\nf_p = 0.02\n", "f")
    with pytest.raises(scenario.SchemaError,
                       match=r"material\.wt and material\.f_p"):
        scenario.resolve_material(sc)


def test_canned_scenarios_all_valid(tmp_path):
    names = scenario.canned_names()
    assert {"validation", "plate", "plate_fp4", "holes", "defects",
            "cylinder", "degradation"} <= set(names)
    for name in names:
        sc = scenario.canned(name)
        assert sc.loading["u_max"] > 0.0
        # the built-in text reads back the same from a scenario file
        path = tmp_path / f"{name}.ini"
        path.write_text(scenario._CANNED[name], encoding="utf-8")
        sc2 = scenario.parse_scenario(path)
        assert sc2.loading == sc.loading


def test_canned_unknown_name():
    with pytest.raises(KeyError, match=r"available"):
        scenario.canned("nope")


def test_canned_cover_the_case_matrix():
    assert scenario.canned("validation").geometry["kind"] == "plate"
    assert scenario.canned("plate").geometry["notch_mode"] == "element"
    fp4 = scenario.canned("plate_fp4")
    assert fp4.material["f_p"] == pytest.approx(0.04)
    assert len(scenario.canned("holes").geometry["holes"]) == 4
    d = scenario.canned("defects")
    assert d.geometry["defect_area_fraction"] == pytest.approx(0.01)
    assert d.mc["replicates"] == 21
    cyl = scenario.canned("cylinder")
    assert cyl.geometry["kind"] == "cylinder"
    assert cyl.loading["axis"] == "z"
    deg = scenario.canned("degradation")
    assert set(deg.sweep["k_values"]) == {10.0, 50.0, 90.0}
    assert set(deg.sweep["n_values"]) == {4.0, 6.0, 8.0}


def test_schema_reference_lists_sections():
    ref = scenario.schema_reference()
    for sec in ("[material]", "[geometry]", "[loading]", "[electrodes]",
                "[phase_field]", "[solver]", "[output]", "[sweep]", "[mc]"):
        assert sec in ref
    assert "ell_over_h" in ref


def test_holes_parser():
    sc = scenario.parse_text(
        "[geometry]\nholes = 0.1,0.2,0.01; 0.3,0.4,0.02\n", "f")
    h = np.asarray(sc.geometry["holes"])
    assert h.shape == (2, 3)
    assert h[1, 2] == pytest.approx(0.02)
