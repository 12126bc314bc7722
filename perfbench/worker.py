"""One repetition of one benchmark workload, in a fresh process.

`run.py` starts this script once per repetition, so every repetition
pays import and cold homogenization (the package's `lru_cache`s start
empty) exactly as a command-line user does.  It writes one JSON result:
set-up and end timestamps, per-step times, output-check outcome and,
with `--trace`, the per-layer summary of the spans it recorded.

    python3 perfbench/worker.py WORKLOAD --spawn T --result PATH --out DIR
        [--trace PATH] [--setup-only] [--record]

T is the `time.monotonic()` reading taken just before the process was
started; Linux shares that clock between processes.
"""

import argparse
import csv
import importlib
import io
import json
import math
import os
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

from spans import Tracer

# Each FE workload is a canned scenario with the overrides below: a
# coarser mesh and, on the plate and the ensemble, half the load steps,
# so that one repetition takes seconds rather than a minute (README.md).
WORKLOADS = {
    "plate2d": {"kind": "run", "canned": "plate_fp4",
                "geometry": {"nx": 20, "ny": 40}, "loading": {"steps": 30},
                "output": {"vtk_every": 1}},
    "cylinder3d": {"kind": "run", "canned": "cylinder",
                   "geometry": {"nx": 5, "ny": 5, "nz": 7}},
    "ensemble": {"kind": "mc", "canned": "defects",
                 "geometry": {"nx": 24, "ny": 48}, "loading": {"steps": 25},
                 "replicates": 2},
    "props": {"kind": "props"},
}

CHARGE_TOL = 1e-8     # accept 10's bound on every step
DRIFT_TOL = 1e-9      # relative to each curve's largest magnitude
CURVES = ("force", "current", "max_d")
# the modules whose public callables a traced repetition wraps
MODULES = ("materials", "tensors", "elastic", "conduction", "mesh",
           "elements", "solver", "scenario", "runner", "cli")


class SetupReached(BaseException):
    """Ends a set-up probe at its first load step.

    A BaseException so the ensemble's per-replicate `except Exception`
    does not swallow it.
    """


def _scenario(scenario, spec):
    sc = scenario.canned(spec["canned"])
    for section in ("geometry", "loading", "output"):
        if section in spec:
            sc = sc.replace(section, **spec[section])
    return sc


def _run_outputs(summary):
    recs = summary.records
    return {"status": summary.status, "reason": summary.reason,
            "fracture_displacement": summary.fracture_displacement,
            "max_charge_mismatch": max((r.charge_mismatch for r in recs),
                                       default=math.nan),
            **{name: [getattr(r, name) for r in recs] for name in CURVES}}


def run_workload(name, pf, out):
    """Run the workload; return (outputs, operations, missing artifacts)."""
    spec = WORKLOADS[name]
    if spec["kind"] == "props":
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = pf.cli.main(["props", "--out", str(out)])
        path = out / "properties.csv"
        rows = []
        if path.is_file():
            with open(path, encoding="utf-8", newline="") as fh:
                rows = [[float(v) for v in row]
                        for row in list(csv.reader(fh))[1:]]
        flags = {}
        for line in buf.getvalue().splitlines():
            key, sep, val = line.strip().partition(": ")
            if sep and val in ("yes", "NO"):
                flags[key] = val == "yes"
        return {"code": code, "rows": rows, "flags": flags}, len(rows), []

    sc = _scenario(pf.scenario, spec)
    if spec["kind"] == "run":
        summary = pf.runner.run_case(sc, out_dir=out)
        runs = [_run_outputs(summary)]
        prefix = sc.output["prefix"]
        expected = [f"{prefix}_curves.csv", f"{prefix}_summary.txt"]
        if sc.output["vtk_every"] > 0:
            expected += [f"{prefix}_{i:04d}.vtk"
                         for i in range(len(summary.records))]
            expected.append(f"{prefix}_final.vtk")
    else:
        summaries, _ = pf.runner.monte_carlo(
            sc, replicates=spec["replicates"], out_dir=out)
        runs = [_run_outputs(s) for s in summaries]
        expected = ["ensemble.csv", "histogram.csv", "mean_curves.csv"]
    missing = [f"missing artifact {f}" for f in expected
               if not (out / f).is_file() or (out / f).stat().st_size == 0]
    return {"runs": runs}, len(runs), missing


def _close(a, b, tol):
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= tol


def _curve_problems(got, ref, label):
    if len(got) != len(ref):
        return [f"{label}: {len(got)} values, reference has {len(ref)}"]
    tol = DRIFT_TOL * max((abs(v) for v in ref if math.isfinite(v)),
                          default=0.0)
    bad = [i for i, (a, b) in enumerate(zip(got, ref))
           if not _close(a, b, tol)]
    return [f"{label}: {len(bad)} values off the reference, first at index "
            f"{bad[0]} ({got[bad[0]]!r} vs {ref[bad[0]]!r})"] if bad else []


def check_outputs(outputs, ref):
    """(failed operations, problem list) of one repetition's outputs."""
    if "rows" in outputs:
        problems = []
        if outputs["code"] != 0:
            problems.append(f"props exited {outputs['code']}")
        not_true = [k for k, v in outputs["flags"].items() if not v]
        if len(outputs["flags"]) != 3 or not_true:
            problems.append(f"trend flags not all true: {outputs['flags']}")
        rows, ref_rows = outputs["rows"], ref["rows"]
        if len(rows) != len(ref_rows):
            problems.append(
                f"{len(rows)} cards, reference has {len(ref_rows)}")
            return len(ref_rows), problems
        if problems:
            return len(ref_rows), problems
        tols = [DRIFT_TOL * max((abs(r[j]) for r in ref_rows
                                 if math.isfinite(r[j])), default=0.0)
                for j in range(len(ref_rows[0]))]
        bad = [i for i, (a, b) in enumerate(zip(rows, ref_rows))
               if not all(_close(x, y, t) for x, y, t in zip(a, b, tols))]
        problems += [f"card {i} off the reference: {rows[i]} vs {ref_rows[i]}"
                     for i in bad]
        return len(bad), problems

    if len(outputs["runs"]) != len(ref["runs"]):
        return len(outputs["runs"]), [
            f"{len(outputs['runs'])} runs, reference has {len(ref['runs'])}"]
    failed, problems = 0, []
    for i, (run, rr) in enumerate(zip(outputs["runs"], ref["runs"])):
        p = []
        if run["status"] != "ok":
            p.append(f"run {i}: status {run['status']} ({run['reason']})")
        if not run["max_charge_mismatch"] <= CHARGE_TOL:
            p.append(f"run {i}: charge mismatch "
                     f"{run['max_charge_mismatch']:.3e} > {CHARGE_TOL:g}")
        for name in CURVES:
            p += _curve_problems(run[name], rr[name], f"run {i} {name}")
        p += _curve_problems([run["fracture_displacement"]],
                             [rr["fracture_displacement"]],
                             f"run {i} fracture displacement")
        failed += bool(p)
        problems += p
    return failed, problems


def layer_metrics(s):
    """Per-layer metrics of one traced repetition, named as in
    BENCHMARK.json."""
    calls, incl, counters = s["calls"], s["incl_s"], s["counters"]

    def t(n):
        return incl.get(n, 0.0)

    def c(n):
        return calls.get(n, 0)

    solves = c("solver.solve_step")
    steps = counters.get("solver.steps", 0)
    return {
        "solver.residual_s": t("solver.CoupledSystem.residual"),
        "solver.residual.calls": c("solver.CoupledSystem.residual"),
        "solver.block_matrices_s": t("solver.CoupledSystem.block_matrices"),
        "solver.block_matrices.calls":
            c("solver.CoupledSystem.block_matrices"),
        "solver.factor_s": t("solver.factor"),
        "solver.factor.calls": c("solver.factor"),
        "solver.factor.nnz": counters.get("solver.factor.nnz", 0),
        "solver.solve_step_s": t("solver.solve_step"),
        "solver.solve_step.calls": solves,
        "solver.solve_step.self_s": s["self_s"].get("solver.solve_step", 0.0),
        "solver.iterations": counters.get("solver.iterations", 0),
        "solver.steps": steps,
        "solver.cutbacks": counters.get("solver.solve_step.raised", 0),
        "solver.useful_step_ratio": steps / solves if solves else 0.0,
        "solver.advance_history_s": t("solver.advance_history"),
        "solver.dofs": counters.get("solver.dofs", 0),
        "materials.derive_properties_s": t("materials.derive_properties"),
        "materials.derive_properties.calls": c("materials.derive_properties"),
        "materials.derive_properties.cache_hits":
            counters.get("materials.derive_properties.cache_hits", 0),
        "elastic.effective_engineering_constants_s":
            t("elastic.effective_engineering_constants"),
        "elastic.fracture_energy_s": t("elastic.fracture_energy"),
        "conduction.percolation_threshold_s":
            t("conduction.percolation_threshold"),
        "conduction.piezoresistivity_coeffs_s":
            t("conduction.piezoresistivity_coeffs"),
        "conduction.effective_conductivity.calls":
            c("conduction.effective_conductivity"),
        "tensors.orientational_average_s": t("tensors.orientational_average"),
        "tensors.orientational_average.calls":
            c("tensors.orientational_average"),
        "scenario.resolve_material_s": t("scenario.resolve_material"),
        "runner.build_case_s": t("runner.build_case"),
        "runner.build_mesh_s": t("runner.build_mesh"),
        "elements.element_tables_s": t("elements.element_tables"),
        "elements.constraints_build.calls": c("elements.Constraints.build"),
        "runner.export_fields_s": t("runner.export_fields"),
        "mesh.write_vtk_s": t("mesh.write_vtk"),
        "mesh.write_vtk.bytes": counters.get("mesh.write_vtk.bytes", 0),
        "runner.write_curves_s": t("runner.write_curves"),
        "runner.replicate_s.p50": s["p50_s"].get("runner.run_case", 0.0),
    }


def _install_hooks(pf, tracer, marks, args):
    """Stamp the first load step and each converged step's wall time.

    A step's time runs from the end of the previous step's observer
    call to the start of this one, so it includes cutbacks but not
    field dumps.  On `props` the set-up ends where the sweep starts and
    each property card is one step.
    """
    def setup_done():
        if marks["setup_end"] is None:
            marks["setup_end"] = time.monotonic()
            if args.setup_only:
                raise SetupReached

    load_program = pf.solver.run_load_program

    def timed_load_program(system, *a, observer=None, **kw):
        setup_done()
        last = [time.perf_counter()]

        def timed_observer(step, rec, state):
            now = time.perf_counter()
            if step > 0:
                marks["steps"].append(now - last[0])
            if observer is not None:
                observer(step, rec, state)
            last[0] = time.perf_counter()

        result = load_program(system, *a, observer=timed_observer, **kw)
        if tracer is not None:
            tracer.counters["solver.steps"] += len(result.records)
            tracer.counters["solver.dofs"] += system.dofmap.ndof
        return result

    pf.solver.run_load_program = timed_load_program

    sweep = pf.runner.property_sweep
    derive = pf.materials.derive_properties

    def timed_sweep(*a, **kw):
        setup_done()
        return sweep(*a, **kw)

    def timed_derive(*a, **kw):
        t0 = time.perf_counter()
        out = derive(*a, **kw)
        if marks["setup_end"] is not None:
            marks["steps"].append(time.perf_counter() - t0)
        return out

    pf.runner.property_sweep = timed_sweep
    if WORKLOADS[args.workload]["kind"] == "props":
        pf.materials.derive_properties = timed_derive


def _trace_hooks(tracer):
    def factor(args, kwargs, lu):
        tracer.counters["solver.factor.nnz"] += lu.L.nnz + lu.U.nnz

    def solve_step(args, kwargs, out):
        tracer.counters["solver.iterations"] += out[1]

    def vtk(args, kwargs, out):
        path = args[0] if args else kwargs["path"]
        tracer.counters["mesh.write_vtk.bytes"] += os.path.getsize(path)

    return {"solver.solve_step": solve_step, "mesh.write_vtk": vtk}, factor


def _import_package():
    return SimpleNamespace(**{
        name: importlib.import_module("piezofrac." + name)
        for name in MODULES})


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--spawn", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reference", default=None)
    p.add_argument("--trace", default=None, help="span file to write")
    p.add_argument("--run-id", default="")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record", action="store_true",
                   help="store the outputs instead of checking them")
    args = p.parse_args(argv)

    tracer = Tracer(args.run_id) if args.trace else None
    if tracer is not None:
        with tracer.span("bench.import"):
            pf = _import_package()
        hooks, factor = _trace_hooks(tracer)
        tracer.instrument([getattr(pf, name) for name in MODULES],
                          on_return=hooks)
        pf.solver.splu = tracer.wrap(pf.solver.splu, "solver.factor", factor)
    else:
        pf = _import_package()

    marks = {"setup_end": None, "steps": []}
    _install_hooks(pf, tracer, marks, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = {"workload": args.workload}
    try:
        outputs, ops, missing = run_workload(args.workload, pf, out)
    except SetupReached:
        result["setup_s"] = marks["setup_end"] - args.spawn
        _write(args.result, result)
        return 0
    t_end = time.monotonic()

    problems = list(missing)
    if args.record:
        result["outputs"] = outputs
    else:
        with open(args.reference, encoding="utf-8") as fh:
            ref = json.load(fh)[args.workload]
        failed, more = check_outputs(outputs, ref)
        problems += more
        # a missing artifact fails every operation of the repetition
        result["failed"] = ops if missing else failed
    import numpy
    import scipy
    result.update(
        setup_s=marks["setup_end"] - args.spawn,
        wall_s=t_end - args.spawn,
        ops=ops,
        steps_s=marks["steps"],
        problems=problems,
        versions={"python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__})
    if tracer is not None:
        summary = tracer.summary(t_end - args.spawn)
        result["layers"] = layer_metrics(summary)
        result["coverage"] = summary["coverage"]
        tracer.dump(args.trace)
    _write(args.result, result)
    return 0


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
