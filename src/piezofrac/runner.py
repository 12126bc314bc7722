"""Case execution: scenario -> mesh/system/constraints -> artifacts.

Builds the discrete problem a Scenario describes, runs the stepping
solver, and writes the curve CSV, plain-text summary, and VTK field
dumps.  Also provides the homogenized-property sweep and the
Monte Carlo ensemble over random-defect realizations.
"""

import csv
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import elements, materials, mesh as meshing, scenario as scenarios
from . import solver

CURVE_HEADER = ["step", "u_applied (m)", "force (N)", "current (A)",
                "R (Ω)", "ΔR/R0 (–)", "max d (–)"]
SWEEP_HEADER = ["f_p", "AR", "E_eff", "G_c", "sigma_eff", "lambda11", "f_c"]


@dataclass
class CaseSetup:
    """Everything run-ready for one scenario realization.

    The mesh is `system.mesh`, the phase-field length `system.mat.ell`
    and the applied voltage the "drive" group's value in `constraints`.
    """

    system: object
    constraints: object
    load_values: np.ndarray
    seed_ids: np.ndarray


@dataclass
class RunSummary:
    status: str               # "ok" | "aborted" | "failed"
    reason: str
    wall_time: float          # s
    records: list

    def curve(self, name):
        return np.array([getattr(r, name) for r in self.records])

    # the numbers below read nan when there are no records
    @property
    def peak_force(self):     # N
        return float(max((r.force for r in self.records), default=math.nan))

    @property
    def fracture_displacement(self):
        """m at electrical interruption (rel resistance > 1e3), else nan."""
        return next((r.u_applied for r in self.records
                     if r.rel_resistance > 1e3), math.nan)

    @property
    def R0(self):             # unstrained resistance, ohm
        return self.records[0].resistance if self.records else math.nan

    @property
    def I0(self):             # unstrained current, A
        return self.records[0].current if self.records else math.nan


def build_mesh(sc, rng=None):
    """Mesh with notch/holes/defects applied; returns (mesh, seed_ids, defects)."""
    g = sc.geometry
    if g["kind"] == "cylinder":
        m = meshing.structured_mesh(
            (g["length_x"], g["length_y"], g["length_z"]),
            (g["nx"], g["ny"], g["nz"]))
        meshing.punch_outside_cylinder(
            m, (0.5 * g["length_x"], 0.5 * g["length_y"]),
            g["cylinder_radius"])
    else:
        m = meshing.structured_mesh(
            (g["length_x"], g["length_y"]), (g["nx"], g["ny"]),
            thickness=g["thickness"])

    for (hx, hy, hr) in g["holes"]:
        meshing.punch_hole(m, (hx, hy), hr)

    defects = []
    if g["defect_area_fraction"] > 0.0:
        if rng is None:
            raise ValueError("random defects need an RNG (set a seed)")
        region = g["defect_region"] or (0.0, 0.0, g["length_x"], g["length_y"])
        target = g["defect_area_fraction"] * g["length_x"] * g["length_y"]
        defects = meshing.random_defects(
            rng, region[:2], region[2:], target,
            mean_radius=g["defect_mean_radius"],
            std_radius=g["defect_std_radius"],
            min_radius=g["defect_min_radius"])
        meshing.apply_defects(m, defects)

    # after holes and defects: the slit band keeps only live elements
    seed_ids = np.empty(0, dtype=np.int64)
    if g["notch_mode"] != "none":
        cx = g["notch_cx"]
        cy = g["notch_cy"]
        if math.isnan(cx):
            cx = 0.5 * g["length_x"]
        if math.isnan(cy):
            cy = 0.5 * g["length_y"]
        ang = math.radians(g["notch_angle_deg"])
        t = np.array([math.cos(ang), math.sin(ang)])
        start = np.array([cx, cy]) - 0.5 * g["notch_length"] * t
        if g["notch_mode"] == "element":
            meshing.cut_slit(m, start, ang, g["notch_length"])
        else:
            seed_ids = meshing.slit_elements(m, start, ang, g["notch_length"])

    if g["surface_notches"] > 0:
        if rng is None:
            raise ValueError("surface notches need an RNG (set a seed)")
        seed_ids = _surface_flaws(m, g, rng)
    return m, seed_ids, defects


def _surface_flaws(m, g, rng):
    """Random lateral-surface patches of elements for history seeding."""
    cx, cy = 0.5 * g["length_x"], 0.5 * g["length_y"]
    R, Lz = g["cylinder_radius"], g["length_z"]
    cen = m.centroids()
    ids = []
    for _ in range(g["surface_notches"]):
        for _attempt in range(64):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z = rng.uniform(0.2 * Lz, 0.8 * Lz)
            p = np.array([cx + R * math.cos(theta),
                          cy + R * math.sin(theta), z])
            near = np.flatnonzero(
                (np.linalg.norm(cen - p, axis=1) < g["surface_notch_radius"])
                & m.active)
            if near.size:
                ids.append(near)
                break
        else:
            raise RuntimeError("could not place a surface flaw on the mesh")
    return np.unique(np.concatenate(ids)) if ids else np.empty(0, np.int64)


def build_case(sc, rng=None):
    """Assemble the run-ready system for a scenario realization."""
    props, _ = scenarios.resolve_material(sc)
    m, seed_ids, _ = build_mesh(sc, rng)
    g, pf, lo, el = sc.geometry, sc.phase_field, sc.loading, sc.electrodes

    h = float(np.max(m.element_size()))
    ell = pf["ell"]
    if math.isnan(ell):
        ell = pf["ell_over_h"] * h
    elif ell < pf["ell_over_h"] * h:
        raise scenarios.SchemaError(
            f"phase-field length {ell} under-resolved: needs >= "
            f"{pf['ell_over_h']} * h = {pf['ell_over_h'] * h:.4g}")

    mat = solver.MaterialPoint(
        E=props.E, nu=props.nu, Gc=props.Gc, ell=ell, rho0=props.rho0,
        lam11=props.lam11, lam12=props.lam12, k=pf["k"], n=pf["n"],
        eps_reg=pf["eps_reg"])
    system = solver.CoupledSystem(m, mat)
    dm = system.dofmap

    axis = {"x": 0, "y": 1, "z": 2}[lo["axis"]]
    pin_face = lo["axis"] + "min"
    pull_face = lo["axis"] + "max"
    # punched-away face corners must stay with the automatic inactive
    # pin, not join electrode/grip groups
    live = np.flatnonzero(m.active_nodes())

    def face(name):
        return np.intersect1d(m.set_nodes(name), live)

    con = elements.Constraints(dm)
    con.fix("pin", dm.u_dofs(face(pin_face)))
    con.fix("pull", dm.u_dofs(face(pull_face), axis))
    con.fix("drive", dm.phi_dofs(face(el["drive_face"])),
            value=el["voltage"])
    con.fix("ground", dm.phi_dofs(face(el["ground_face"])))

    load = np.linspace(lo["u_max"] / lo["steps"], lo["u_max"], lo["steps"])
    return CaseSetup(system=system, constraints=con, load_values=load,
                     seed_ids=seed_ids)


def initial_state(case, sc):
    """Zero fields plus any seeded-flaw history."""
    system, pf = case.system, sc.phase_field
    state = system.empty_state()
    if case.seed_ids.size:
        mat = system.mat
        mag = pf["seed_magnitude"] * mat.Gc / (2.0 * mat.ell)
        state.H = solver.seed_history(system, case.seed_ids, mag)
    return state


# ------------------------------------------------------------ artifacts


def _write_csv(path, header, rows):
    """RFC 4180 CSV with a header row; floats round-trip as %.17g."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.17g}" if isinstance(v, float) else v
                     for v in row] for row in rows)


def write_curves(records, path):
    """Curve CSV (RFC 4180, fixed column order, header mandatory)."""
    _write_csv(path, CURVE_HEADER,
               ([r.step, r.u_applied, r.force, r.current, r.resistance,
                 r.rel_resistance, r.max_d] for r in records))


def export_fields(system, state, path):
    """VTK dump: point data u, phi, d and cell data H (mean over Gauss)."""
    m = system.mesh
    u, phi, d = system.dofmap.split(state.x)
    meshing.write_vtk(path, m,
                      point_data={"u": u.reshape(m.n_nodes, m.dim),
                                  "phi_e": phi, "d": d},
                      cell_data={"H": state.H.mean(axis=1)})


def run_case(sc, out_dir=None, seed=None, tag=""):
    """Execute one scenario realization and write its artifacts.

    Random geometry is drawn from `seed`, or from sc.mc["seed"] when
    none is given.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(sc.mc["seed"] if seed is None else seed)
    case = build_case(sc, rng)
    state0 = initial_state(case, sc)

    out = None
    observer = None
    prefix = sc.output["prefix"] + (f"_{tag}" if tag else "")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        every = sc.output["vtk_every"]
        if every > 0:
            def observer(step, rec, st):
                if step % every == 0:
                    export_fields(case.system, st,
                                  out / f"{prefix}_{step:04d}.vtk")

    result = solver.run_load_program(
        case.system, case.constraints, ["pull"], list(case.load_values),
        "drive", "ground", max_cutbacks=sc.solver["max_cutbacks"],
        observer=observer, initial=state0)

    recs = result.records
    summary = RunSummary(
        status="aborted" if result.aborted else "ok",
        reason=result.abort_reason,
        wall_time=time.perf_counter() - t0,
        records=recs)

    if out is not None:
        write_curves(recs, out / f"{prefix}_curves.csv")
        write_summary(summary, sc, out / f"{prefix}_summary.txt")
        if sc.output["vtk_every"] > 0:
            export_fields(case.system, result.state,
                          out / f"{prefix}_final.vtk")
    return summary


def write_summary(summary, sc, path):
    lines = [
        f"status: {summary.status}",
        f"reason: {summary.reason or '-'}",
        f"peak force (N): {summary.peak_force:.17g}",
        f"fracture displacement (m): {summary.fracture_displacement:.17g}",
        f"unstrained resistance R0 (ohm): {summary.R0:.17g}",
        f"initial current I0 (A): {summary.I0:.17g}",
        f"steps recorded: {len(summary.records)}",
        f"wall time (s): {summary.wall_time:.3f}",
        "defaulted keys: " + (", ".join(sc.defaulted) if sc.defaulted
                              else "-"),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def degradation_matrix(sc, out_dir=None):
    """Run the (k, n) conduction-degradation grid of a sweep scenario."""
    ks = sc.sweep["k_values"] or (sc.phase_field["k"],)
    ns = sc.sweep["n_values"] or (sc.phase_field["n"],)
    out = []
    for k in ks:
        for n in ns:
            si = sc.replace("phase_field", k=k, n=n)
            tag = f"k{k:g}_n{n:g}"
            out.append(((k, n), run_case(si, out_dir=out_dir, tag=tag)))
    return out


# ------------------------------------------------------- property sweep


def property_sweep(spec, f_p_grid, ar_grid, path=None):
    """Homogenized properties over a filler-fraction x aspect-ratio grid.

    Rows are dicts keyed by SWEEP_HEADER; the returned flags report the
    expected monotone trends over the grid.
    """
    f_p_grid = [float(f) for f in f_p_grid]
    ar_grid = [float(a) for a in ar_grid]
    if any(not 0.0 <= f <= 0.10 for f in f_p_grid):
        raise ValueError("filler fractions limited to [0, 10%]")
    if any(not 50.0 <= a <= 1000.0 for a in ar_grid):
        raise ValueError("aspect ratios limited to [50, 1000]")

    base = materials.preset("mwcnt_epoxy") if spec is None else spec
    rows = []
    for ar in ar_grid:
        s_ar = replace(base, L_cnt=ar * base.D_cnt)
        for f_p in f_p_grid:
            p = materials.derive_properties(s_ar.with_filler(f_p))
            rows.append(dict(zip(SWEEP_HEADER, (f_p, ar, p.E, p.Gc, p.sigma0,
                                                p.lam11, p.f_c))))

    flags = _sweep_flags(rows, f_p_grid, ar_grid)
    if path is not None:
        _write_csv(path, SWEEP_HEADER,
                   ([r[c] for c in SWEEP_HEADER] for r in rows))
    return rows, flags


def _sweep_flags(rows, f_p_grid, ar_grid):
    def series(ar, key):
        return [r[key] for r in rows if r["AR"] == ar]

    def increasing(v):
        return all(b > a for a, b in zip(v, v[1:]))

    e_up = all(increasing(series(ar, "E_eff")) for ar in ar_grid) \
        if len(f_p_grid) > 1 else True
    g_up = all(increasing(series(ar, "G_c")) for ar in ar_grid) \
        if len(f_p_grid) > 1 else True
    # onset is independent of f_p; read it off any percolation-defined row
    fc_by_ar = [next((v for v in series(ar, "f_c") if not math.isnan(v)),
                     math.nan) for ar in ar_grid]
    fc_clean = [v for v in fc_by_ar if not math.isnan(v)]
    fc_down = increasing([-v for v in fc_clean]) if len(fc_clean) > 1 else True
    return {"E_eff_increasing_in_f_p": e_up,
            "G_c_increasing_in_f_p": g_up,
            "f_c_decreasing_in_AR": fc_down}


# --------------------------------------------------------- Monte Carlo


def monte_carlo(sc, replicates=None, out_dir=None):
    """Independent seeded replicates of a random-defect scenario.

    Replicate k draws its geometry from the seed [sc.mc["seed"], k].
    Expected per-replicate failures (ValueError, RuntimeError and their
    subclasses, StepFailure included) are recorded with their reason and
    the ensemble continues; any other exception propagates.
    Returns (summaries, histogram) where histogram is (edges, counts)
    over the ultimate fracture displacements of successful replicates.
    """
    n_rep = sc.mc["replicates"] if replicates is None else int(replicates)
    if n_rep < 1:
        raise ValueError("replicates must be >= 1")

    summaries = []
    for rep in range(n_rep):
        rep_dir = None if out_dir is None else Path(out_dir) / f"rep_{rep:03d}"
        try:
            s = run_case(sc, out_dir=rep_dir, seed=[sc.mc["seed"], rep])
        except (ValueError, RuntimeError) as err:
            s = RunSummary(status="failed", reason=str(err), wall_time=0.0,
                           records=[])
        summaries.append(s)

    frac = np.array([s.fracture_displacement for s in summaries
                     if s.status != "failed"
                     and math.isfinite(s.fracture_displacement)])
    if frac.size:
        lo, hi = float(frac.min()), float(frac.max())
        if hi <= lo:
            hi = lo + max(abs(lo) * 1e-6, 1e-12)
        counts, edges = np.histogram(frac, bins=min(8, max(1, frac.size)),
                                     range=(lo, hi))
    else:
        counts, edges = np.zeros(1, dtype=int), np.array([0.0, 1.0])

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "ensemble.csv",
                   ["replicate", "status", "peak force (N)",
                    "fracture displacement (m)", "R0 (Ω)", "reason"],
                   ([i, s.status, s.peak_force, s.fracture_displacement,
                     s.R0, s.reason] for i, s in enumerate(summaries)))
        _write_csv(out / "histogram.csv",
                   ["bin_left (m)", "bin_right (m)", "count"],
                   zip(edges[:-1], edges[1:], counts))
        _write_mean_curves(summaries, out / "mean_curves.csv")
    return summaries, (edges, counts)


def _write_mean_curves(summaries, path):
    """Ensemble means of force/current/relative resistance per step."""
    ok = [s for s in summaries if s.status == "ok" and s.records]
    if not ok:
        Path(path).write_text("", encoding="utf-8")
        return
    n = min(len(s.records) for s in ok)
    u = ok[0].curve("u_applied")[:n]
    force = np.mean([s.curve("force")[:n] for s in ok], axis=0)
    cur = np.mean([s.curve("current")[:n] for s in ok], axis=0)
    rel = np.mean([np.minimum(s.curve("rel_resistance")[:n], 1e9)
                   for s in ok], axis=0)
    _write_csv(path, ["u_applied (m)", "mean force (N)", "mean current (A)",
                      "mean ΔR/R0 (–)"], zip(u, force, cur, rel))
