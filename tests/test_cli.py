"""Command-line entry points and exit codes."""

import re

import pytest

from piezofrac import cli

CRACKING = """
[material]
E = 3e9
nu = 0.3
Gc = 50
rho0 = 10
lam11 = 1.0
lam12 = 2.0
[geometry]
kind = plate
length_x = 0.02
length_y = 0.01
nx = 12
ny = 6
thickness = 0.001
notch_mode = element
notch_angle_deg = 90
notch_length = 0.005
[loading]
axis = x
u_max = 6e-5
steps = 30
[electrodes]
drive_face = xmin
ground_face = xmax
voltage = 1.0
"""

DOOMED = """
[material]
E = 1e9
nu = 0.0
Gc = 1e9
rho0 = 10
lam11 = -5.0
lam12 = 0.0
[geometry]
kind = plate
length_x = 0.01
length_y = 0.005
nx = 4
ny = 2
thickness = 0.001
[loading]
axis = x
u_max = 3e-3
steps = 2
[electrodes]
drive_face = xmin
ground_face = xmax
voltage = 1.0
"""


def test_missing_scenario_is_schema_error(capsys):
    assert cli.main(["run"]) == cli.EXIT_SCHEMA
    assert "--scenario" in capsys.readouterr().err


def test_unknown_canned_name(capsys):
    assert cli.main(["run", "--scenario", "canned:nope"]) == cli.EXIT_SCHEMA
    assert "available" in capsys.readouterr().err


def test_missing_file(capsys):
    assert cli.main(["run", "--scenario", "/no/such.cfg"]) == cli.EXIT_SCHEMA
    assert "not found" in capsys.readouterr().err


def test_unknown_key_reported_with_location(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[geometry]\nlenght_scale = 0.1\n", encoding="utf-8")
    assert cli.main(["run", "--scenario", str(p)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "lenght_scale" in err and ":2" in err


def test_negative_seed_flag_is_schema_error(capsys):
    code = cli.main(["mc", "--scenario", "canned:defects", "--seed", "-5"])
    assert code == cli.EXIT_SCHEMA
    assert "mc.seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("verb, section, line", [
    ("mc", "phase_field", "k = -1"),
    ("run", "sweep", "k_values = 10, -5"),
])
def test_bad_degradation_parameter_is_schema_error(tmp_path, capsys, verb,
                                                   section, line):
    """Rejected before any case runs: no replicate is recorded as failed
    and no sweep case writes its artifacts."""
    p = tmp_path / "case.cfg"
    p.write_text(CRACKING + f"[{section}]\n{line}\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = [verb, "--scenario", str(p), "--out", str(out)]
    if verb == "mc":
        argv += ["--replicates", "2"]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    key = line.split(" = ")[0]
    assert f"{section}.{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_load_is_schema_error(tmp_path, capsys):
    """A NaN displacement is rejected before the run writes anything."""
    p = tmp_path / "case.cfg"
    p.write_text(CRACKING.replace("u_max = 6e-5", "u_max = nan"),
                 encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(p), "--out", str(out)]) == \
        cli.EXIT_SCHEMA
    assert "loading.u_max must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_preset_on_weight_route_is_named(tmp_path, capsys):
    p = tmp_path / "foo.cfg"
    p.write_text("[material]\npreset = foo\nwt = 0.01\n", encoding="utf-8")
    code = cli.main(["run", "--scenario", str(p), "--out", str(tmp_path)])
    assert code == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "unknown material preset 'foo'; available: [" in err


def test_flags_only_on_the_verbs_they_change(capsys):
    # --threads is gone; --replicates acts on mc only, --seed not on props
    for argv in (["run", "--threads", "1"], ["props", "--replicates", "2"],
                 ["props", "--seed", "3"]):
        assert cli.main(argv) == cli.EXIT_SCHEMA
        assert "unrecognized arguments" in capsys.readouterr().err


def test_schema_listing(capsys):
    assert cli.main(["run", "--schema"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "[geometry]" in out and "ell_over_h" in out


def test_run_verb_completes(tmp_path, capsys):
    p = tmp_path / "case.cfg"
    p.write_text(CRACKING, encoding="utf-8")
    code = cli.main(["run", "--scenario", str(p), "--out",
                     str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "status: ok" in out
    assert "R0 = " in out
    assert (tmp_path / "out" / "case_curves.csv").exists()


def test_run_verb_solver_failure_code(tmp_path, capsys):
    p = tmp_path / "doomed.cfg"
    p.write_text(DOOMED, encoding="utf-8")
    code = cli.main(["run", "--scenario", str(p), "--out",
                     str(tmp_path / "out")])
    assert code == cli.EXIT_SOLVER
    assert "aborted" in capsys.readouterr().out


def test_mc_verb(tmp_path, capsys):
    p = tmp_path / "case.cfg"
    p.write_text(CRACKING, encoding="utf-8")
    code = cli.main(["mc", "--scenario", str(p), "--replicates", "1",
                     "--seed", "4", "--out", str(tmp_path / "mc")])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "1/1 replicates succeeded" in out
    assert (tmp_path / "mc" / "histogram.csv").exists()


def test_mesh_verb(tmp_path, capsys):
    code = cli.main(["mesh", "--scenario", "canned:validation",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "nodes" in out
    assert (tmp_path / "validation_mesh.vtk").exists()
    assert not (tmp_path / "validation_mesh.txt").exists()


def test_mesh_verb_marks_seeded_elements(tmp_path, capsys):
    code = cli.main(["mesh", "--scenario", "canned:cylinder",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    n_seeded = int(re.search(r"(\d+) seeded elements",
                             capsys.readouterr().out).group(1))
    assert n_seeded > 0
    lines = (tmp_path / "cylinder_mesh.vtk").read_text().splitlines()
    i = lines.index("SCALARS seeded double 1")
    assert lines[i - 1].startswith("CELL_DATA ")
    n_cells = int(lines[i - 1].split()[1])
    values = [float(v) for v in lines[i + 2:i + 2 + n_cells]]
    assert values.count(1.0) == n_seeded
    assert values.count(0.0) == n_cells - n_seeded


def test_props_verb(tmp_path, capsys):
    code = cli.main(["props", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "properties.csv" in out
    assert "E_eff_increasing_in_f_p: yes" in out
    csv_text = (tmp_path / "properties.csv").read_text(encoding="utf-8")
    assert csv_text.startswith("f_p,AR,")
    # full grid: 7 fractions x 4 aspect ratios
    assert len(csv_text.strip().splitlines()) == 29


def test_props_rejects_direct_override(tmp_path, capsys):
    p = tmp_path / "direct.cfg"
    p.write_text(DOOMED, encoding="utf-8")
    code = cli.main(["props", "--scenario", str(p), "--out", str(tmp_path)])
    assert code == cli.EXIT_SCHEMA
    assert "micromechanical" in capsys.readouterr().err


def test_canned_scenario_runs_by_name(tmp_path, capsys):
    # the validation strip end to end through the CLI
    code = cli.main(["run", "--scenario", "canned:validation",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "status: ok" in out


def test_seed_flag_changes_defect_draw(tmp_path):
    text = CRACKING.replace("notch_mode = element",
                            "notch_mode = none\ndefect_area_fraction = 0.05")
    p = tmp_path / "defects.cfg"
    p.write_text(text, encoding="utf-8")
    for seed, name in ((3, "a"), (3, "b"), (4, "c")):
        code = cli.main(["mesh", "--scenario", str(p), "--seed", str(seed),
                         "--out", str(tmp_path / name)])
        assert code == cli.EXIT_OK
    a = (tmp_path / "a" / "case_mesh.vtk").read_bytes()
    b = (tmp_path / "b" / "case_mesh.vtk").read_bytes()
    c = (tmp_path / "c" / "case_mesh.vtk").read_bytes()
    assert a == b
    assert a != c
