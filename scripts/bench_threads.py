"""Time the pooled CLI commands at ``--threads`` 1 and 2 in one process.

    PYTHONPATH=src python3 scripts/bench_threads.py --repeats 5

``region``, ``test-inequality`` and ``lemma-check`` map their ball jobs
through ``cli._pool_map``, whose workers are threads.  Each command runs on
the scenario the benchmark gives it (``perfbench/workloads.py``): ``region``
and ``lemma-check`` as in ``region_sweep``, ``test-inequality`` as in
``transform_decompose``.  ``region (default)`` is ``region`` with empty
``parameters``: the default windows, grids and z-samples, the one scenario
whose ball jobs are large enough for a second thread to pay.  After one
warm-up call per scenario, every repeat runs each scenario once per thread
count, 1 first on even repeats and 2 first on odd ones.  It prints the
minimum and median seconds per thread count and whether the two thread
counts wrote byte-identical reports.
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

# as perfbench/run.py does: numpy's BLAS pool would add threads the commands do not ask for
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from ccradon.cli import run_scenario  # noqa: E402

# label -> (command, report file, scenario)
SCENARIOS = {
    "region (default)": ("region", "region_report.json", {"kind": "region", "model": "parabola", "parameters": {}}),
    "region": ("region", "region_report.json", {
        "kind": "region", "model": "parabola",
        "parameters": {"windows": [[0.5, 1.0], [0.75, 1.0], [1.0, 1.0]], "delta_grid": [0.125, 0.0625, 0.03125],
                       "expect": [{"c1": 2.2, "c2": 2.2, "label": "inside"},
                                  {"c1": 1.5, "c2": 1.5, "label": "outside"},
                                  {"c1": 2.0, "c2": 2.0, "label": "edge"}]}}),
    "test-inequality": ("test-inequality", "inequality_report.json", {
        "kind": "test-inequality", "model": "parabola",
        "parameters": {"triple": ["5/3", 3, 3], "delta_list": [0.125, 0.0625, 0.03125], "expect": "bounded"}}),
    "lemma-check": ("lemma-check", "lemma_report.json", {
        "kind": "lemma-check", "model": "parabola",
        "parameters": {"q": 3, "r": 3, "p": 2, "grid": {"theta_list": [0.5, 0.75, 1.0], "delta1_list": [0.125]}}}),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="bench_threads_") as tmp:
        for label, (command, report_name, scenario) in SCENARIOS.items():
            dirs = {threads: Path(tmp) / label / str(threads) for threads in (1, 2)}
            run_scenario(command, scenario, dirs[1], threads=1)
            times = {1: [], 2: []}
            for r in range(args.repeats):
                for threads in ((1, 2) if r % 2 == 0 else (2, 1)):
                    t0 = time.perf_counter()
                    run_scenario(command, scenario, dirs[threads], threads=threads)
                    times[threads].append(time.perf_counter() - t0)
            same = (dirs[1] / report_name).read_bytes() == (dirs[2] / report_name).read_bytes()
            print(f"{label}: " + "; ".join(
                f"threads {threads} min {min(t):.3f} s, median {statistics.median(t):.3f} s"
                for threads, t in times.items()) + f"; reports {'identical' if same else 'DIFFER'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
