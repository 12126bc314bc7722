"""The benchmark's traced output check, run once per workload.

`perfbench/worker.py --trace` wraps every public callable of the package
in a span and hooks a few of their results (`solve_step`'s block-solve
count, the factor returned by `solver.splu`, the file `write_vtk`
wrote), then checks the run's outputs against `perfbench/reference.json`:
the FE workloads' curves, and on `props` the 28 cards (within 1e-9 of
each column's largest value) and the three trend flags.  A change to any of those signatures or outputs
fails here, in the test suite, and not only in a benchmark run.  The
traced count of `conduction.effective_conductivity` calls is pinned
too.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("workload", ["plate2d", "cylinder3d", "ensemble",
                                      "props"])
def test_traced_workload_matches_reference(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    result = tmp_path / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), workload,
           "--result", str(result), "--out", str(tmp_path / "out"),
           "--reference", str(BENCH / "reference.json"),
           "--trace", str(tmp_path / "spans.json"),
           "--spawn", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    assert res["problems"] == []
    assert res["failed"] == 0
    # each props step is one card's call of `materials.derive_properties`,
    # which the worker hooks through the module attribute; the benchmark
    # takes the median of the steps, so an FE run must record one too
    if workload == "props":
        assert len(res["steps_s"]) == 28
    else:
        assert len(res["steps_s"]) >= 1
    # a filled card evaluates its five conductivity states in one stacked
    # call: 24 of the 28 props cards are filled, and an FE workload
    # derives one card per process
    calls = res["layers"]["conduction.effective_conductivity.calls"]
    assert calls == (24 if workload == "props" else 1)
