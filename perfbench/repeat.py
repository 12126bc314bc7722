"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads plate2d props]
        [--traced] [--write perfbench/baseline.json]

Runs `run.py` once per workload and seed, from the checkout root, and
prints for every end-to-end metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, (q3 - q1) /
median, against the metric's bound in BENCHMARK.json.  `--traced` adds
one traced run per workload (first seed) for the per-layer numbers.
`--write` stores everything as JSON, which is how `baseline.json` was
made.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: "
                           f"{out.stderr[-2000:]}")
    meta = next((json.loads(ln[5:]) for ln in lines if ln.startswith("meta ")),
                {})
    result = json.loads(lines[-1])
    result["meta"] = meta
    result["elapsed_s"] = time.monotonic() - t0
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--traced", action="store_true")
    p.add_argument("--write", default=None)
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "seeds": args.seeds,
              "end_to_end": {}, "per_layer": {}, "runs": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, s, seconds, False) for s in args.seeds]
        report["runs"][workload] = runs
        table = {}
        print(f"{workload}: {len(runs)} runs, "
              f"{sum(r['elapsed_s'] for r in runs):.0f} s, "
              f"correct {all(r['correct'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}/"
              f"{sum(r['attempted'] for r in runs)}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            table[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "bound": m["bound"],
                                "values": values}
            print(f"  {m['name']:<14} median {med:12.6g} {m['unit']:<4} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f}"
                  f"{'' if ok else '  (over a third of the bound)'}")
        report["end_to_end"][workload] = table
        if args.traced:
            r = run_once(workload, args.seeds[0], seconds, True)
            report["per_layer"][workload] = {
                "correct": r["correct"], "meta": r["meta"],
                "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
            print(f"  traced run: correct {r['correct']}, coverage "
                  f"{r['metrics']['trace.coverage']['value']:.3f}")
        sys.stdout.flush()
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1) + "\n",
                                    encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
