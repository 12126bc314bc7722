"""Command-line front end: property sweeps, case runs, ensembles, meshes.

Verbs:
  props  homogenized-property sweep over filler fraction and aspect ratio
  run    execute one scenario (or its degradation-parameter matrix)
  mc     Monte Carlo ensemble of a random-defect scenario
  mesh   build and export the scenario's mesh without solving

Scenarios are config files (see `piezofrac run --schema`) or built-ins
addressed as `canned:<name>`.  Exit codes: 0 success, 2 configuration or
schema error, 3 solver failure.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import mesh as meshing, runner, scenario as scen
from .solver import StepFailure

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_SOLVER = 3


def _build_parser():
    p = argparse.ArgumentParser(
        prog="piezofrac",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, help_ in (("props", "write the property-sweep CSV"),
                        ("run", "run one scenario"),
                        ("mc", "run a Monte Carlo ensemble"),
                        ("mesh", "generate and export the mesh only")):
        q = sub.add_parser(verb, help=help_)
        q.add_argument("--scenario", default=None,
                       help="config path or canned:<name> "
                            "(canned: %s)" % ", ".join(scen.canned_names()))
        if verb != "props":
            q.add_argument("--seed", type=int, default=None,
                           help="RNG seed override")
        if verb == "mc":
            q.add_argument("--replicates", type=int, default=None,
                           help="Monte Carlo replicate count override")
        q.add_argument("--out", default="piezofrac_out",
                       help="output directory (default: %(default)s)")
        q.add_argument("--schema", action="store_true",
                       help="print the scenario schema and exit")
    return p


def _load_scenario(arg, seed):
    if arg is None:
        raise scen.SchemaError("this verb needs --scenario "
                               "(path or canned:<name>)")
    if arg.startswith("canned:"):
        sc = scen.canned(arg.split(":", 1)[1])
    elif Path(arg).is_file():
        sc = scen.parse_scenario(arg)
    else:
        raise scen.SchemaError(f"scenario file not found: {arg}")
    if seed is not None:
        sc = sc.replace("mc", seed=seed)
    return sc


def _cmd_props(args):
    spec = None
    if args.scenario is not None:
        sc = _load_scenario(args.scenario, None)
        _, spec = scen.resolve_material(sc)
        if spec is None:
            raise scen.SchemaError(
                "property sweep needs a micromechanical material card, "
                "not a direct effective-property override")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    f_p_grid = [0.0, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05]
    ar_grid = [50.0, 100.0, 310.0, 1000.0]
    rows, flags = runner.property_sweep(spec, f_p_grid, ar_grid,
                                        path=out / "properties.csv")
    print(f"wrote {out / 'properties.csv'} ({len(rows)} rows)")
    for name, ok in flags.items():
        print(f"  {name}: {'yes' if ok else 'NO'}")
    return EXIT_OK


def _cmd_run(args):
    sc = _load_scenario(args.scenario, args.seed)
    _log_defaults(sc)
    if sc.sweep["k_values"] or sc.sweep["n_values"]:
        results = runner.degradation_matrix(sc, out_dir=args.out)
        bad = [kn for kn, s in results if s.status != "ok"]
        for (k, n), s in results:
            print(f"k={k:g} n={n:g}: {s.status}  R0={s.R0:.6g} ohm  "
                  f"peak={s.peak_force:.6g} N")
        return EXIT_SOLVER if bad else EXIT_OK
    s = runner.run_case(sc, out_dir=args.out)
    print(f"status: {s.status}" + (f" ({s.reason})" if s.reason else ""))
    print(f"R0 = {s.R0:.6g} ohm, I0 = {s.I0:.6g} A")
    print(f"peak force = {s.peak_force:.6g} N")
    print(f"fracture displacement = {s.fracture_displacement:.6g} m")
    print(f"wall time = {s.wall_time:.1f} s; artifacts in {args.out}")
    return EXIT_OK if s.status == "ok" else EXIT_SOLVER


def _cmd_mc(args):
    sc = _load_scenario(args.scenario, args.seed)
    _log_defaults(sc)
    summaries, (edges, counts) = runner.monte_carlo(
        sc, replicates=args.replicates, out_dir=args.out)
    n_ok = sum(1 for s in summaries if s.status == "ok")
    print(f"{n_ok}/{len(summaries)} replicates succeeded; "
          f"artifacts in {args.out}")
    print("fracture-displacement histogram: "
          + " ".join(str(c) for c in counts))
    return EXIT_OK if n_ok > 0 else EXIT_SOLVER


def _cmd_mesh(args):
    sc = _load_scenario(args.scenario, args.seed)
    _log_defaults(sc)
    rng = np.random.default_rng(sc.mc["seed"])
    m, seed_ids, defects = runner.build_mesh(sc, rng)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{sc.output['prefix']}_mesh.vtk"
    seeded = np.zeros(len(m.elems))
    seeded[seed_ids] = 1.0
    meshing.write_vtk(path, m, cell_data={"seeded": seeded[m.active]})
    print(f"mesh: {m.n_nodes} nodes, {int(m.active.sum())} active elements, "
          f"{len(defects)} defects, {seed_ids.size} seeded elements")
    print(f"wrote {path}")
    return EXIT_OK


def _log_defaults(sc):
    n = len(sc.defaulted)
    if n:
        print(f"[config] {n} keys at schema defaults "
              "(full list in the run summary)", file=sys.stderr)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on bad flags, matching the schema-error code
        return int(err.code or 0)
    if getattr(args, "schema", False):
        print(scen.schema_reference())
        return EXIT_OK

    handler = {"props": _cmd_props, "run": _cmd_run,
               "mc": _cmd_mc, "mesh": _cmd_mesh}[args.verb]
    try:
        return handler(args)
    except (scen.SchemaError, KeyError, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except StepFailure as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
