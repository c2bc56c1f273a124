"""Benchmark entry point for the ccradon ball lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in a child process
(``harness.py``) against the package under ``src/``; two more children time
set-up alone, and ``setup_s`` is the median of the three.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
The exit code is 0 only when every child finished and printed its result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ball_fixpoint", "mc_oracle", "region_sweep", "transform_decompose")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def _child(args, extra, deadline) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path.cwd() / "src"), env.get("PYTHONPATH")]))
    # numpy's BLAS pool would add threads beyond the ones the workload asks for
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--t0", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (Path.cwd() / "src" / "ccradon" / "__init__.py").is_file():
        print("run from the repository root: src/ccradon not found", file=sys.stderr)
        return 2
    try:
        setups = [_child(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        run = _child(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])
    passes = run["pass_times"]
    q = statistics.quantiles(passes, n=4) if len(passes) > 1 else [passes[0]] * 3
    print(f"{args.workload} seed={args.seed} trace={args.trace}: pass_s median {statistics.median(passes):.4f} s "
          f"(quartiles {q[0]:.4f} / {q[2]:.4f}, {len(passes)} passes); setup_s samples "
          + " ".join(f"{s:.4f}" for s in setups)
          + f"; peak_rss {run['peak_rss_mib']:.1f} MiB; {run['failed']} of {run['attempted']} operations failed")
    if args.trace:
        metrics = run["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "peak_rss_mib": {"value": run["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
