"""Scenario execution: artifacts, ensembles, sweeps."""

import csv
import math

import numpy as np
import pytest

from piezofrac import materials, runner, scenario, solver

# small notched strip that cracks through within the program
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

# tension drives the resistivity tensor indefinite: never completes
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


@pytest.fixture(scope="module")
def cracked():
    sc = scenario.parse_text(CRACKING, "cracking")
    return sc, runner.run_case(sc)


def test_run_case_fractures(cracked):
    sc, s = cracked
    assert s.status == "ok"
    assert len(s.records) == 31          # baseline + 30 targets
    assert math.isfinite(s.fracture_displacement)
    assert s.fracture_displacement <= sc.loading["u_max"]
    rel = s.curve("rel_resistance")
    assert rel[0] == 0.0
    assert rel[-1] > 1e3                 # severed specimen reads open
    assert s.curve("max_d")[-1] > 0.95
    assert s.peak_force > 0.0
    # notch removes section, so R0 sits above the intact-strip value
    assert s.R0 > 10.0 * 0.02 / (0.01 * 0.001)
    assert abs(s.R0 - 1.0 / s.I0) / s.R0 < 1e-10


def test_current_drop_spans_orders(cracked):
    _, s = cracked
    cur = s.curve("current")
    assert cur[-1] < 1e-3 * cur[0]
    assert np.all(s.curve("charge_mismatch") < 1e-8)


def test_run_case_artifacts(tmp_path, cracked):
    sc, _ = cracked
    sc = sc.replace("output", vtk_every=10, prefix="case")
    s = runner.run_case(sc, out_dir=tmp_path)
    assert s.status == "ok"
    curves = tmp_path / "case_curves.csv"
    with open(curves, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == runner.CURVE_HEADER
    assert len(rows) == len(s.records) + 1
    assert float(rows[1][4]) == pytest.approx(s.R0)
    summary = (tmp_path / "case_summary.txt").read_text(encoding="utf-8")
    assert "status: ok" in summary
    assert "defaulted keys" in summary
    final = tmp_path / "case_final.vtk"
    assert final.exists()
    assert (tmp_path / "case_0000.vtk").exists()
    text = final.read_text(encoding="utf-8")
    for field in ("u", "phi_e", "d", "H"):
        assert field in text


def test_run_case_deterministic(tmp_path, cracked):
    sc, _ = cracked
    a = runner.run_case(sc, out_dir=tmp_path / "a")
    b = runner.run_case(sc, out_dir=tmp_path / "b")
    ca = (tmp_path / "a" / "case_curves.csv").read_bytes()
    cb = (tmp_path / "b" / "case_curves.csv").read_bytes()
    assert ca == cb
    assert a.fracture_displacement == b.fracture_displacement


def test_exported_damage_bounded(tmp_path, cracked):
    sc, _ = cracked
    sc = sc.replace("output", vtk_every=30, prefix="bnd")
    runner.run_case(sc, out_dir=tmp_path)
    text = (tmp_path / "bnd_final.vtk").read_text(encoding="utf-8")
    lines = text.splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("SCALARS d "))
    vals = []
    for ln in lines[i + 2:]:
        if not ln or ln[0].isalpha():
            break
        vals.extend(float(v) for v in ln.split())
    vals = np.array(vals)
    assert vals.size and np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-6)


def test_zero_voltage_runs_dark(cracked):
    sc, _ = cracked
    sc = sc.replace("electrodes", voltage=0.0)
    sc = sc.replace("loading", u_max=2e-5, steps=4)
    s = runner.run_case(sc)
    assert s.status == "ok"
    assert np.all(s.curve("current") == 0.0)


def test_run_case_aborts_cleanly():
    sc = scenario.parse_text(DOOMED, "doomed")
    s = runner.run_case(sc)
    assert s.status == "aborted"
    assert "definiteness" in s.reason
    assert len(s.records) >= 1           # converged prefix is kept
    assert math.isnan(s.fracture_displacement)


def test_under_resolved_length_rejected():
    sc = scenario.parse_text(CRACKING, "cracking")
    sc = sc.replace("phase_field", ell=1e-4)    # < 2h on this mesh
    with pytest.raises(scenario.SchemaError, match="under-resolved"):
        runner.build_case(sc)


def test_build_mesh_seed_mode():
    sc = scenario.parse_text(CRACKING, "cracking")
    sc = sc.replace("geometry", notch_mode="seed")
    m, seed_ids, defects = runner.build_mesh(sc)
    assert seed_ids.size > 0
    assert m.active.all()                # seeding keeps elements alive
    assert defects == []
    case = runner.build_case(sc)
    st = runner.initial_state(case, sc)
    assert st.H.max() > 0.0
    assert np.all(st.H[seed_ids] > 0.0)


def test_seeded_notch_under_hole_runs():
    # the hole covers the seeded notch: only live elements are seeded
    sc = scenario.canned("plate_fp4")
    sc = sc.replace("geometry", nx=12, ny=24, notch_mode="seed",
                    holes=((0.05, 0.10, 0.03),))
    sc = sc.replace("loading", steps=5)
    m, seed_ids, _ = runner.build_mesh(sc)
    assert m.active[seed_ids].all()
    s = runner.run_case(sc)
    assert s.status == "ok", s.reason


def test_build_mesh_defects_reproducible():
    sc = scenario.parse_text(CRACKING, "cracking")
    sc = sc.replace("geometry", notch_mode="none", defect_area_fraction=0.05,
                    defect_mean_radius=2e-3, defect_std_radius=5e-4,
                    defect_min_radius=1e-3)
    m1, _, d1 = runner.build_mesh(sc, np.random.default_rng(9))
    m2, _, d2 = runner.build_mesh(sc, np.random.default_rng(9))
    assert len(d1) > 0
    flat = lambda ds: np.array([(c[0], c[1], r) for c, r in ds])
    assert np.allclose(flat(d1), flat(d2))
    assert np.array_equal(m1.active, m2.active)
    m3, _, _ = runner.build_mesh(sc, np.random.default_rng(10))
    assert not np.array_equal(m1.active, m3.active)


def test_monte_carlo_single_replicate(tmp_path):
    sc = scenario.parse_text(CRACKING, "cracking")
    summaries, (edges, counts) = runner.monte_carlo(
        sc.replace("mc", seed=3), replicates=1, out_dir=tmp_path)
    assert len(summaries) == 1
    assert summaries[0].status == "ok"
    assert counts.sum() == 1             # degenerate one-sample histogram
    assert edges[0] < edges[-1]
    for name in ("ensemble.csv", "histogram.csv", "mean_curves.csv"):
        assert (tmp_path / name).exists()
    rep = tmp_path / "rep_000"
    assert (rep / "case_curves.csv").exists()


def test_monte_carlo_deterministic_and_seed_sensitive():
    sc = scenario.parse_text(CRACKING, "cracking")
    sc = sc.replace("geometry", notch_mode="none", defect_area_fraction=0.04,
                    defect_mean_radius=2e-3, defect_std_radius=5e-4,
                    defect_min_radius=1e-3)
    sc = sc.replace("loading", u_max=4e-5, steps=10).replace("mc", seed=5)
    a, _ = runner.monte_carlo(sc, replicates=2)
    b, _ = runner.monte_carlo(sc, replicates=2)
    fa = [s.peak_force for s in a]
    fb = [s.peak_force for s in b]
    assert fa == fb
    # different defect draws give different structures
    assert a[0].peak_force != a[1].peak_force


def test_monte_carlo_survives_failed_replicate(tmp_path):
    sc = scenario.parse_text(DOOMED, "doomed")
    summaries, (edges, counts) = runner.monte_carlo(
        sc.replace("mc", seed=1), replicates=2, out_dir=tmp_path)
    assert len(summaries) == 2
    assert all(s.status == "aborted" for s in summaries)
    assert counts.sum() == 0             # nobody fractured
    with open(tmp_path / "ensemble.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["aborted", "aborted"]
    assert all("definiteness" in r["reason"] for r in rows)


def test_monte_carlo_records_raising_replicate(tmp_path, monkeypatch):
    # an expected error inside one replicate is recorded as "failed"
    # with its reason and nan numbers, and the ensemble runs on
    sc = scenario.parse_text(CRACKING, "cracking").replace("mc", seed=3)
    real = runner.run_case

    def flaky(sc, out_dir=None, seed=None, tag=""):
        if seed[1] == 0:
            raise ValueError("replicate 0 mesh came apart")
        return real(sc, out_dir=out_dir, seed=seed, tag=tag)

    monkeypatch.setattr(runner, "run_case", flaky)
    summaries, (edges, counts) = runner.monte_carlo(
        sc, replicates=2, out_dir=tmp_path)
    assert [s.status for s in summaries] == ["failed", "ok"]
    failed = summaries[0]
    assert failed.reason == "replicate 0 mesh came apart"
    assert failed.records == [] and failed.wall_time == 0.0
    for value in (failed.peak_force, failed.fracture_displacement,
                  failed.R0, failed.I0):
        assert math.isnan(value)
    assert counts.sum() == 1             # only the finished replicate
    lines = (tmp_path / "ensemble.csv").read_text(
        encoding="utf-8").splitlines()
    assert lines[1] == "0,failed,nan,nan,nan,replicate 0 mesh came apart"
    assert lines[2].startswith("1,ok,")
    assert not (tmp_path / "rep_000").exists()
    assert (tmp_path / "rep_001" / "case_curves.csv").exists()


def test_monte_carlo_propagates_programming_errors(monkeypatch):
    sc = scenario.parse_text(DOOMED, "doomed")

    def broken(*args, **kwargs):
        raise TypeError("bug, not a failed replicate")

    monkeypatch.setattr(runner, "run_case", broken)
    with pytest.raises(TypeError, match="bug"):
        runner.monte_carlo(sc.replace("mc", seed=1), replicates=2)


def test_property_sweep_rows_and_flags(tmp_path):
    path = tmp_path / "props.csv"
    rows, flags = runner.property_sweep(
        None, [0.0, 0.01, 0.02], [100.0, 310.0], path=path)
    assert len(rows) == 6
    base = rows[0]
    assert base["f_p"] == 0.0
    assert math.isnan(base["f_c"])       # no filler, no onset
    spec = materials.preset("mwcnt_epoxy")
    assert base["E_eff"] == pytest.approx(spec.E_m, rel=1e-6)
    assert flags["E_eff_increasing_in_f_p"]
    assert flags["G_c_increasing_in_f_p"]
    assert flags["f_c_decreasing_in_AR"]
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got[0][0] == "f_p" and len(got) == 7


def test_property_sweep_validity_limits():
    with pytest.raises(ValueError, match="filler"):
        runner.property_sweep(None, [0.2], [100.0])
    with pytest.raises(ValueError, match="aspect"):
        runner.property_sweep(None, [0.01], [20.0])


def test_degradation_matrix_tags(tmp_path):
    sc = scenario.parse_text(CRACKING, "cracking")
    sc = sc.replace("loading", u_max=2e-5, steps=3)
    sc = sc.replace("sweep", k_values=(10.0, 90.0), n_values=(6.0,))
    out = runner.degradation_matrix(sc, out_dir=tmp_path)
    assert [kn for kn, _ in out] == [(10.0, 6.0), (90.0, 6.0)]
    assert all(s.status == "ok" for _, s in out)
    assert (tmp_path / "case_k10_n6_curves.csv").exists()
    assert (tmp_path / "case_k90_n6_curves.csv").exists()


def test_holed_plate_cracks_in_stages():
    # the crack must reach a cutout boundary while the plate still
    # conducts, and sever the current path only afterwards
    sc = scenario.canned("holes").replace("geometry", nx=20, ny=40)
    sc = sc.replace("loading", steps=30)
    case = runner.build_case(sc)
    m = case.system.mesh
    dm = case.system.dofmap
    rim = np.array(sorted(set(m.elems[m.active].ravel())
                          & set(m.elems[~m.active].ravel())))
    assert rim.size > 0
    touch, sever = [], []

    def obs(step, rec, st):
        if np.any(st.x[dm.off_d:][rim] >= 0.95):
            touch.append(step)
        if rec.rel_resistance > 1e3:
            sever.append(step)

    res = solver.run_load_program(
        case.system, case.constraints, ["pull"], list(case.load_values),
        "drive", "ground", max_cutbacks=sc.solver["max_cutbacks"],
        observer=obs, initial=runner.initial_state(case, sc))
    assert not res.aborted
    assert touch and sever
    assert touch[0] < sever[0]
    assert res.records[touch[0]].rel_resistance < 1e3
