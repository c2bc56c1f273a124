"""Record the benchmark's end-to-end metrics into a BENCH_<pr>.json trail file.

    python3 scripts/bench_record.py --out BENCH_11.json --parent ../parent-checkout
    python3 scripts/bench_record.py --out BENCH_11.json

Runs the unchanged ``perfbench/run.py --trace 0`` for every workload on seeds
500-502, with the run length that ``BENCHMARK.json`` sets, in the change
checkout (``--root``, default: this repository) and, with ``--parent``, in
the parent checkout too.  The two sides alternate per seed as in
``bench_pairs.py``: the parent first on even seeds and the change first on
odd ones, so host drift during the recording falls on both sides alike.
Each run's metrics, operation counts and sha256 lines go under
``results["parent"]`` or ``results["change"]`` of the output file, next to
the checkout's git sha, Python and numpy versions and ``nproc``; per workload
and metric it stores the median over seeds and the spread (max - min).
Labels already in the file are kept; once both exist the file also gets
their median ratios and whether every sha256 line matches.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SEEDS = (500, 501, 502)


def _git(root: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with code {proc.returncode}:\n{proc.stdout}")
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "sha256": sorted(line for line in lines if line.startswith("sha256 ")),
    }


def _summary(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        out[name] = {"median": statistics.median(values), "spread": max(values) - min(values)}
    return out


def _compare(parent: dict, change: dict) -> dict:
    out = {}
    for workload, base in parent["workloads"].items():
        new = change["workloads"][workload]
        out[workload] = {
            "ratio_change_over_parent": {
                name: new["summary"][name]["median"] / s["median"] for name, s in base["summary"].items()
            },
            "sha256_identical": [r["sha256"] for r in base["runs"]] == [r["sha256"] for r in new["runs"]],
        }
    return out


def _record(root: Path, seconds: float, workloads: dict) -> dict:
    return {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": workloads,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--root", type=Path, default=REPO, help="checkout of the change (default: this repository)")
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit, recorded interleaved with the change")
    args = ap.parse_args()
    roots = {"change": args.root.resolve()}
    if args.parent is not None:
        roots = {"parent": args.parent.resolve(), **roots}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = {label: {} for label in roots}
    for w in bench["workloads"]:
        runs = {label: [] for label in roots}
        for i, seed in enumerate(SEEDS):
            for label in (roots if i % 2 == 0 else reversed(roots)):
                runs[label].append(run_once(roots[label], w["name"], seed, seconds))
                print(f"{label} {w['name']} seed {seed}: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in runs[label][-1]["metrics"].items()), flush=True)
        for label, label_runs in runs.items():
            workloads[label][w["name"]] = {"summary": _summary(label_runs), "runs": label_runs}
    trail = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label, root in roots.items():
        trail.setdefault("results", {})[label] = _record(root, seconds, workloads[label])
    if {"parent", "change"} <= trail["results"].keys():
        trail["comparison"] = _compare(trail["results"]["parent"], trail["results"]["change"])
    args.out.write_text(json.dumps(trail, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
