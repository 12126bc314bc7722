"""piezofrac benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload plate2d --seed 1 --seconds 25 --trace 0

Run from the root of a piezofrac checkout.  Each repetition of the
workload runs in a fresh `worker.py` process with the package imported
from `src/`, so import and cold homogenization are paid every time.
Repetitions continue while another one fits in `--seconds`.  The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the `end_to_end` metrics of BENCHMARK.json with
`--trace 0`, the `per_layer` ones with `--trace 1`).

The workloads take no random input: `--seed` is recorded with the
result and names the run's span files, but README.md explains why the
random geometry stays at the canned seeds.

    python3 perfbench/run.py --record-reference [--workload NAME]

re-records `reference.json`, the outputs every repetition is checked
against, from the current checkout (all workloads, or the one named).
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("plate2d", "cylinder3d", "ensemble", "props")
BLAS_THREADS = 1          # at or below nproc; steadier than the default
MIN_SETUP_SAMPLES = 3
DEADLINE_S = 170.0        # a run never takes more than three minutes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
EXACT = ("solver.dofs", "solver.steps", "solver.iterations",
         "solver.residual.calls", "solver.factor.calls", "solver.factor.nnz")
COVERED_WORKLOADS = ("plate2d", "cylinder3d")
MIN_COVERAGE = 0.95


class Runner:
    """Starts worker processes for one workload inside a work directory."""

    def __init__(self, root, workload, seed, deadline):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = root / ".perfbench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        for var in THREAD_VARS:
            self.env[var] = str(BLAS_THREADS)
        self.count = 0

    def rep(self, trace=False, setup_only=False, record=False):
        """One fresh-process repetition; returns its result dict.

        A worker that crashes or overruns the deadline yields
        {"crashed": reason}.
        """
        k = self.count
        self.count += 1
        tag = f"rep{k:02d}"
        out = self.work / tag
        result = self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload,
               "--result", str(result), "--out", str(out),
               "--reference", str(HERE / "reference.json"),
               "--run-id", f"{self.workload}-seed{self.seed}-{tag}"]
        if trace:
            cmd += ["--trace", str(self.work / f"spans_{tag}.json")]
        if setup_only:
            cmd.append("--setup-only")
        if record:
            cmd.append("--record")
        with open(self.work / f"{tag}.log", "w", encoding="utf-8") as log:
            spawn = time.monotonic()
            proc = subprocess.Popen(cmd + ["--spawn", repr(spawn)],
                                    cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline
                                             - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = "timeout"
        # artifacts are checked by the worker; only spans and logs stay
        shutil.rmtree(out, ignore_errors=True)
        if code != 0 or not result.is_file():
            tail = (self.work / f"{tag}.log").read_text(
                encoding="utf-8", errors="replace")[-2000:]
            return {"crashed": f"worker exit {code}: {tail}"}
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


def run_reps(runner, seconds, trace):
    """Repetitions while another fits in `seconds` (at least the minimum).

    A traced run alternates traced and untraced repetitions, starting
    and ending traced, so it has two traced ones to compare counts.
    """
    kinds = [True, False, True] if trace else [False]
    reps = []
    t0 = time.monotonic()
    while True:
        want_trace = kinds[len(reps)] if len(reps) < len(kinds) \
            else trace and len(reps) % 2 == 0
        reps.append((want_trace, runner.rep(trace=want_trace)))
        if "crashed" in reps[-1][1]:
            break
        walls = [r["wall_s"] for _, r in reps]
        if len(reps) >= len(kinds) and (
                time.monotonic() - t0 + statistics.median(walls) > seconds):
            break
        if time.monotonic() + statistics.median(walls) > runner.deadline:
            break
    return reps


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(reps, extra_setups):
    """End-to-end metric values from untraced repetitions."""
    walls = [r["wall_s"] for r in reps]
    steps = [s for r in reps for s in r["steps_s"]]
    wall = statistics.median(walls)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "setup_s": statistics.median([r["setup_s"] for r in reps]
                                     + extra_setups),
        "wall_s": wall,
        "step_s.p50": statistics.median(steps),
        "step_s.p90": statistics.quantiles(steps, n=10,
                                           method="inclusive")[8],
        "ops_per_s": reps[0]["ops"] / wall,
        "peak_rss_mb": usage / 1024.0,
    }
    samples = {"setup_s": len(reps) + len(extra_setups),
               "wall_s": len(walls), "step_s.p50": len(steps),
               "step_s.p90": len(steps), "ops_per_s": len(walls),
               "peak_rss_mb": len(reps) + len(extra_setups)}
    return values, samples


def per_layer(traced, untraced, workload):
    """Per-layer metric values plus problems found in the traced reps."""
    problems = []
    layers = [r["layers"] for r in traced]
    values = {}
    for name in layers[0]:
        if name in EXACT:
            seen = [lay[name] for lay in layers]
            if len(set(seen)) != 1:
                problems.append(f"{name} differs between traced runs: {seen}")
            values[name] = seen[0]
        else:
            values[name] = statistics.median(lay[name] for lay in layers)
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced))
    values["trace.coverage"] = min(r["coverage"] for r in traced)
    if workload in COVERED_WORKLOADS and \
            values["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"top-level spans cover {values['trace.coverage']:.3f}"
                        f" of wall_s (< {MIN_COVERAGE})")
    return values, problems


def record_reference(root, workloads):
    path = HERE / "reference.json"
    refs = json.loads(path.read_text(encoding="utf-8")) if path.is_file() \
        else {}
    for workload in workloads:
        runner = Runner(root, workload, 0, time.monotonic() + 600.0)
        r = runner.rep(record=True)
        if "crashed" in r:
            sys.exit(f"{workload}: {r['crashed']}")
        refs[workload] = r["outputs"]
        print(f"{workload}: recorded in {r['wall_s']:.1f} s", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n\n".join(__doc__.split("\n\n")[1:]))
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    t_start = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "piezofrac" / "__init__.py").is_file():
        print("error: run from the root of a piezofrac checkout "
              "(src/piezofrac not found)", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(
            root, [args.workload] if args.workload else WORKLOADS)
    if args.workload is None:
        p.error("--workload is required")

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    runner = Runner(root, args.workload, args.seed, t_start + DEADLINE_S)
    reps = run_reps(runner, args.seconds, bool(args.trace))
    results = [r for _, r in reps]
    crashed = [r["crashed"] for r in results if "crashed" in r]
    done = [(t, r) for t, r in reps if "crashed" not in r]
    if not done:
        print(f"error: no repetition finished: {crashed[0]}", file=sys.stderr)
        return 3

    ops = done[0][1]["ops"]
    attempted = ops * len(results)
    failed = sum(r["failed"] for _, r in done) + ops * len(crashed)
    problems = crashed + [p for _, r in done for p in r["problems"]]

    if args.trace:
        traced = [r for t, r in done if t]
        untraced = [r for t, r in done if not t]
        if not traced or not untraced:
            print("error: traced run needs traced and untraced repetitions",
                  file=sys.stderr)
            return 3
        values, more = per_layer(traced, untraced, args.workload)
        problems += more
        names = spec["per_layer"]
        samples = {m["name"]: len(traced) for m in names}
    else:
        untraced = [r for _, r in done]
        extra = []
        while len(untraced) + len(extra) < MIN_SETUP_SAMPLES and \
                time.monotonic() < runner.deadline - 30.0:
            probe = runner.rep(setup_only=True)
            if "crashed" in probe:
                problems.append(probe["crashed"])
                break
            extra.append(probe["setup_s"])
        values, samples = end_to_end(untraced, extra)
        names = spec["end_to_end"]

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "repetitions": len(results),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "versions": done[0][1]["versions"],
            "git_commit": git_commit(root),
            "src_sha256": source_digest(root),
            "run_s": time.monotonic() - t_start}
    print("meta " + json.dumps(meta))
    for prob in problems[:10]:
        print("problem: " + prob.replace("\n", " | "))
    if len(problems) > 10:
        print(f"problem: ... and {len(problems) - 10} more")
    metrics = {}
    for m in names:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:<45} {v:>14.6g} {m['unit']:<6} "
              f"(n={samples[m['name']]})")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
