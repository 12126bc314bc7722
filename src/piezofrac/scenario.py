"""Scenario configuration: schema, strict parser, and canned case studies.

Config files are flat ``key = value`` text grouped in ``[sections]``.
Every key is typed and defaulted by the schema below; unknown keys are
rejected with their line number (typo safety) and applied defaults are
recorded so front ends can log them.  All physical quantities are SI
(lengths m, voltage V, energies J) unless a key says otherwise.
"""

import math
from dataclasses import dataclass, fields as dc_fields

from . import materials
from .mesh import FACE_NAMES


class SchemaError(ValueError):
    """Configuration text violates the documented schema."""


# --------------------------------------------------------------- schema


def _floats(s):
    return tuple(float(v) for v in s.replace(";", ",").split(",") if v.strip())


def _holes(s):
    """Parse 'cx,cy,r; cx,cy,r; ...' into tuples."""
    out = []
    for part in s.split(";"):
        part = part.strip()
        if not part:
            continue
        vals = [float(v) for v in part.split(",")]
        if len(vals) != 3:
            raise ValueError(f"hole needs 'cx,cy,r', got '{part}'")
        out.append(tuple(vals))
    return tuple(out)


_CONVERT = {"float": float, "int": int, "str": str, "floats": _floats,
            "holes": _holes}

# section -> key -> (type tag, default, unit/meaning)
_SCHEMA = {
    "material": {
        "preset": ("str", "mwcnt_epoxy", "built-in parameter card name"),
        "f_p": ("float", math.nan, "filler volume fraction (overrides preset)"),
        "wt": ("float", math.nan, "filler mass fraction (converted via densities)"),
        "mu_snub": ("float", math.nan, "snubbing friction exponent"),
        # direct effective-property override (all six or none)
        "E": ("float", math.nan, "Pa"),
        "nu": ("float", math.nan, "-"),
        "Gc": ("float", math.nan, "J/m^2"),
        "rho0": ("float", math.nan, "ohm m"),
        "lam11": ("float", math.nan, "-"),
        "lam12": ("float", math.nan, "-"),
    },
    "geometry": {
        "kind": ("str", "plate", "plate | cylinder"),
        "length_x": ("float", 0.10, "m"),
        "length_y": ("float", 0.20, "m"),
        "length_z": ("float", 0.0, "m (3D only)"),
        "nx": ("int", 40, "elements along x"),
        "ny": ("int", 80, "elements along y"),
        "nz": ("int", 0, "elements along z (3D only)"),
        "thickness": ("float", 0.005, "m (2D out-of-plane)"),
        "notch_mode": ("str", "none", "none | element | seed"),
        "notch_angle_deg": ("float", 30.0, "slit inclination"),
        "notch_length": ("float", 0.03, "m"),
        "notch_cx": ("float", math.nan, "m (default: domain center)"),
        "notch_cy": ("float", math.nan, "m (default: domain center)"),
        "holes": ("holes", (), "'cx,cy,r; ...' circular cutouts, m"),
        "defect_area_fraction": ("float", 0.0, "random-hole area target"),
        "defect_region": ("floats", (), "x0,y0,x1,y1 sampling window, m"),
        "defect_mean_radius": ("float", 2.0e-3, "m"),
        "defect_std_radius": ("float", 1.2e-3, "m"),
        "defect_min_radius": ("float", 0.25e-3, "m"),
        "cylinder_radius": ("float", 0.02, "m (kind = cylinder)"),
        "surface_notches": ("int", 0, "seeded surface flaws (cylinder)"),
        "surface_notch_radius": ("float", 8.0e-3, "m"),
    },
    "loading": {
        "axis": ("str", "y", "pull direction: x | y | z"),
        "u_max": ("float", 4.5e-4, "m, final applied displacement"),
        "steps": ("int", 60, "load increments"),
    },
    "electrodes": {
        "drive_face": ("str", "ymin", "face node set carrying the voltage"),
        "ground_face": ("str", "ymax", "grounded face node set"),
        "voltage": ("float", 10.0, "V"),
    },
    "phase_field": {
        "ell": ("float", math.nan, "m (default: ell_over_h * h)"),
        "ell_over_h": ("float", 2.0, "minimum resolved ratio"),
        "k": ("float", 50.0, "conduction degradation sharpness"),
        "n": ("float", 6.0, "conduction degradation exponent"),
        "eps_reg": ("float", 1e-7, "residual stiffness/conductance"),
        "seed_magnitude": ("float", 500.0, "seeded-history scale, x Gc/(2 ell)"),
    },
    "solver": {
        "max_cutbacks": ("int", 10, "load bisection levels"),
    },
    "output": {
        "vtk_every": ("int", 0, "field dump cadence in steps (0 = off)"),
        "prefix": ("str", "case", "artifact file prefix"),
    },
    "sweep": {
        "k_values": ("floats", (), "conduction degradation k grid"),
        "n_values": ("floats", (), "conduction degradation n grid"),
    },
    "mc": {
        "replicates": ("int", 21, "Monte Carlo sample count"),
        "seed": ("int", 20220419, "base RNG seed"),
    },
}


@dataclass
class Scenario:
    """Validated run description; one attribute dict per schema section."""

    material: dict
    geometry: dict
    loading: dict
    electrodes: dict
    phase_field: dict
    solver: dict
    output: dict
    sweep: dict
    mc: dict
    defaulted: tuple = ()   # "section.key = value" strings applied by default

    def replace(self, section, **kv):
        """Validated copy with selected keys of one section overridden.

        An overridden key leaves the `defaulted` list.
        """
        d = dict(getattr(self, section))
        for k, v in kv.items():
            if k not in d:
                raise KeyError(f"unknown key '{k}' in [{section}]")
            d[k] = v
        out = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        out[section] = d
        given = {f"{section}.{k}" for k in kv}
        out["defaulted"] = tuple(s for s in self.defaulted
                                 if s.split(" = ", 1)[0] not in given)
        sc = Scenario(**out)
        _validate(sc, f"[{section}] override")
        return sc


def parse_text(text, name="<config>"):
    """Parse config text into a validated Scenario."""
    raw = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("["):
            if not body.endswith("]"):
                raise SchemaError(f"{name}:{lineno}: malformed section '{line.strip()}'")
            section = body[1:-1].strip()
            if section not in _SCHEMA:
                raise SchemaError(
                    f"{name}:{lineno}: unknown section '[{section}]'; "
                    f"known: {sorted(_SCHEMA)}")
            continue
        if "=" not in body:
            raise SchemaError(f"{name}:{lineno}: expected 'key = value', got '{body}'")
        if section is None:
            raise SchemaError(f"{name}:{lineno}: key outside any [section]")
        key, value = (s.strip() for s in body.split("=", 1))
        if key not in _SCHEMA[section]:
            raise SchemaError(
                f"{name}:{lineno}: unknown key '{key}' in [{section}]")
        if (section, key) in raw:
            raise SchemaError(f"{name}:{lineno}: duplicate key '{key}'")
        tag = _SCHEMA[section][key][0]
        try:
            raw[(section, key)] = _CONVERT[tag](value)
        except ValueError as err:
            raise SchemaError(
                f"{name}:{lineno}: bad value for '{key}': {err}") from None

    sections = {}
    defaulted = []
    for sec, keys in _SCHEMA.items():
        d = {}
        for key, (tag, default, _) in keys.items():
            if (sec, key) in raw:
                d[key] = raw[(sec, key)]
            else:
                d[key] = default
                defaulted.append(f"{sec}.{key} = {default!r}")
        sections[sec] = d
    sc = Scenario(**sections, defaulted=tuple(defaulted))
    _validate(sc, name)
    return sc


def parse_scenario(path):
    """Parse a config file into a validated Scenario."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read(), name=str(path))


def _validate(sc, name):
    g, lo, el, pf = sc.geometry, sc.loading, sc.electrodes, sc.phase_field
    if g["kind"] not in ("plate", "cylinder"):
        raise SchemaError(f"{name}: geometry.kind '{g['kind']}' not recognised")
    dim = 3 if g["kind"] == "cylinder" else 2
    if dim == 3 and (g["nz"] < 1 or g["length_z"] <= 0.0):
        raise SchemaError(f"{name}: 3D geometry needs nz >= 1 and length_z > 0")
    if g["nx"] < 1 or g["ny"] < 1:
        raise SchemaError(f"{name}: divisions must be >= 1")
    if g["length_x"] <= 0.0 or g["length_y"] <= 0.0 or g["thickness"] <= 0.0:
        raise SchemaError(f"{name}: lengths must be positive")
    if g["notch_mode"] not in ("none", "element", "seed"):
        raise SchemaError(f"{name}: notch_mode '{g['notch_mode']}' not recognised")
    if not 0.0 <= g["defect_area_fraction"] < 0.5:
        raise SchemaError(f"{name}: defect_area_fraction outside [0, 0.5)")
    if g["defect_region"] and len(g["defect_region"]) != 4:
        raise SchemaError(f"{name}: defect_region needs 'x0,y0,x1,y1'")
    if lo["axis"] not in ("x", "y", "z") or (dim == 2 and lo["axis"] == "z"):
        raise SchemaError(f"{name}: loading.axis '{lo['axis']}' invalid here")
    if lo["u_max"] <= 0.0 or lo["steps"] < 1:
        raise SchemaError(f"{name}: loading program must be monotone "
                          f"(u_max > 0, steps >= 1)")
    faces = {face for pair in FACE_NAMES[:dim] for face in pair}
    for which in ("drive_face", "ground_face"):
        if el[which] not in faces:
            raise SchemaError(f"{name}: {which} '{el[which]}' is not a face "
                              f"of this geometry ({sorted(faces)})")
    if el["drive_face"] == el["ground_face"]:
        raise SchemaError(f"{name}: electrodes overlap (both on "
                          f"'{el['drive_face']}')")
    if pf["ell_over_h"] < 1.0:
        raise SchemaError(f"{name}: ell_over_h must be >= 1")
    if not math.isnan(pf["ell"]) and pf["ell"] <= 0.0:
        raise SchemaError(f"{name}: ell must be positive when given")
    # the degradations need k > 0, n >= 1 and a positive residual, as
    # `solver.MaterialPoint` does; a sweep grid stands in for k or n
    positive = (lambda v: v > 0.0, "> 0")
    at_least_one = (lambda v: v >= 1.0, ">= 1")
    for key, values, (ok, bound) in (
            ("phase_field.k", (pf["k"],), positive),
            ("phase_field.n", (pf["n"],), at_least_one),
            ("phase_field.eps_reg", (pf["eps_reg"],), positive),
            ("sweep.k_values", sc.sweep["k_values"], positive),
            ("sweep.n_values", sc.sweep["n_values"], at_least_one)):
        bad = [v for v in values if not ok(v)]
        if bad:
            raise SchemaError(f"{name}: {key} must be {bound}, got {bad[0]!r}")
    if sc.mc["replicates"] < 1:
        raise SchemaError(f"{name}: mc.replicates must be >= 1")
    for sec, key in (("mc", "seed"), ("solver", "max_cutbacks"),
                     ("output", "vtk_every"), ("geometry", "surface_notches")):
        if getattr(sc, sec)[key] < 0:
            raise SchemaError(f"{name}: {sec}.{key} must be >= 0")


def resolve_material(sc):
    """Material section -> (EffectiveProperties, CompositeSpec | None)."""
    m = sc.material
    direct = [m[k] for k in ("E", "nu", "Gc", "rho0", "lam11", "lam12")]
    given = [not math.isnan(v) for v in direct]
    if any(given):
        if not all(given):
            raise SchemaError("effective-property override needs all of "
                              "E, nu, Gc, rho0, lam11, lam12")
        E, nu, Gc, rho0, l11, l12 = direct
        props = materials.EffectiveProperties(
            E=E, nu=nu, Gc=Gc, rho0=rho0, lam11=l11, lam12=l12, f_c=math.nan)
        return props, None
    over = {}
    if not math.isnan(m["mu_snub"]):
        over["mu_snub"] = m["mu_snub"]
    if not (math.isnan(m["wt"]) or math.isnan(m["f_p"])):
        raise SchemaError("material.wt and material.f_p both set the filler "
                          "fraction; give one of them")
    if not math.isnan(m["f_p"]):
        over["f_p0"] = m["f_p"]
    # the card lookup names an unknown preset before its densities are read
    spec = materials.preset(m["preset"], **over)
    if not math.isnan(m["wt"]):
        rho_f, rho_m = materials.PRESET_DENSITIES[m["preset"]]
        spec = spec.with_filler(
            materials.mass_to_volume_fraction(m["wt"], rho_f, rho_m))
    props = materials.derive_properties(spec)
    return props, spec


def schema_reference():
    """Human-readable schema listing (key, default, meaning)."""
    lines = []
    for sec, keys in _SCHEMA.items():
        lines.append(f"[{sec}]")
        for key, (tag, default, help_) in keys.items():
            lines.append(f"  {key} ({tag}, default {default!r}): {help_}")
    return "\n".join(lines)


# ------------------------------------------------------ canned scenarios

_CANNED = {
    # gauge-strip resistance validation: DWCNT/epoxy coupon, electrodes
    # 5 cm apart across the full 13 x 5 mm^2 section, 1.7 mV drive
    "validation": """
[material]
preset = dwcnt_epoxy
wt = 0.005
[geometry]
kind = plate
length_x = 0.05
length_y = 0.013
nx = 40
ny = 10
thickness = 0.005
notch_mode = none
[loading]
axis = x
u_max = 1.0e-4
steps = 10
[electrodes]
drive_face = xmin
ground_face = xmax
voltage = 1.7e-3
[output]
prefix = validation
""",
    # 10 x 20 cm plate, center slit at 30 deg, bottom edge pinned and
    # driven at 10 V, top edge pulled and grounded
    "plate": """
[material]
preset = mwcnt_epoxy
f_p = 0.01
[geometry]
kind = plate
length_x = 0.10
length_y = 0.20
nx = 40
ny = 80
thickness = 0.005
notch_mode = element
notch_angle_deg = 30.0
notch_length = 0.03
[loading]
axis = y
u_max = 4.5e-4
steps = 60
[electrodes]
drive_face = ymin
ground_face = ymax
voltage = 10.0
[output]
prefix = plate
""",
    # same plate at 4% filler volume fraction
    "plate_fp4": """
[material]
preset = mwcnt_epoxy
f_p = 0.04
[geometry]
kind = plate
length_x = 0.10
length_y = 0.20
nx = 40
ny = 80
thickness = 0.005
notch_mode = element
notch_angle_deg = 30.0
notch_length = 0.03
[loading]
axis = y
u_max = 4.5e-4
steps = 60
[electrodes]
drive_face = ymin
ground_face = ymax
voltage = 10.0
[output]
prefix = plate_fp4
""",
    # slit plus four circular cutouts: two on the slit diagonal close to
    # its tips, two farther off-diagonal; crack bridges holes in stages
    "holes": """
[material]
preset = mwcnt_epoxy
f_p = 0.01
[geometry]
kind = plate
length_x = 0.10
length_y = 0.20
nx = 30
ny = 60
thickness = 0.005
notch_mode = element
notch_angle_deg = 30.0
notch_length = 0.03
holes = 0.082,0.118,0.010; 0.018,0.082,0.010; 0.080,0.050,0.010; 0.020,0.150,0.010
[loading]
axis = y
u_max = 4.5e-4
steps = 60
[electrodes]
drive_face = ymin
ground_face = ymax
voltage = 10.0
[output]
prefix = holes
""",
    # random circular defects over the center region, 1% of plate area,
    # radii ~ N(2 mm, 1.2 mm); Monte Carlo base case
    "defects": """
[material]
preset = mwcnt_epoxy
f_p = 0.01
[geometry]
kind = plate
length_x = 0.10
length_y = 0.20
nx = 30
ny = 60
thickness = 0.005
notch_mode = none
defect_area_fraction = 0.01
defect_region = 0.015, 0.05, 0.085, 0.15
[loading]
axis = y
u_max = 7.0e-4
steps = 50
[electrodes]
drive_face = ymin
ground_face = ymax
voltage = 10.0
[mc]
replicates = 21
seed = 20220419
[output]
prefix = defects
""",
    # 3D cylinder, radius 2 cm and length 5 cm, pulled axially with
    # 10 V between the bases; five seeded surface flaws
    "cylinder": """
[material]
preset = mwcnt_epoxy
f_p = 0.01
[geometry]
kind = cylinder
length_x = 0.04
length_y = 0.04
length_z = 0.05
nx = 10
ny = 10
nz = 13
cylinder_radius = 0.02
notch_mode = seed
surface_notches = 5
surface_notch_radius = 8.0e-3
[loading]
axis = z
u_max = 1.5e-4
steps = 25
[electrodes]
drive_face = zmin
ground_face = zmax
voltage = 10.0
[mc]
seed = 77
[output]
prefix = cylinder
""",
    # conduction-degradation shape study on a coarse plate: k x n grid
    "degradation": """
[material]
preset = mwcnt_epoxy
f_p = 0.01
[geometry]
kind = plate
length_x = 0.10
length_y = 0.20
nx = 16
ny = 32
thickness = 0.005
notch_mode = element
notch_angle_deg = 30.0
notch_length = 0.03
[loading]
axis = y
u_max = 4.5e-4
steps = 40
[electrodes]
drive_face = ymin
ground_face = ymax
voltage = 10.0
[sweep]
k_values = 10, 50, 90
n_values = 4, 6, 8
[output]
prefix = degradation
""",
}


def canned(name):
    """Built-in scenario by name."""
    try:
        text = _CANNED[name]
    except KeyError:
        raise KeyError(f"unknown scenario '{name}'; "
                       f"available: {sorted(_CANNED)}") from None
    return parse_text(text, name=f"canned:{name}")


def canned_names():
    return sorted(_CANNED)

