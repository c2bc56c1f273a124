"""Record the benchmark's end-to-end metrics into a BENCH_<pr>.json trail file.

    python3 scripts/bench_record.py --out BENCH_7.json --label change
    python3 scripts/bench_record.py --out BENCH_7.json --label parent --root ../parent-checkout

Runs the unchanged ``perfbench/run.py --trace 0`` of the checkout at
``--root`` (default: this repository) for every workload on seeds 500-502,
with the run length that ``BENCHMARK.json`` sets.  Each run's metrics,
operation counts and sha256 lines go under ``results[label]`` of the output
file, next to the checkout's git sha, Python and numpy versions and
``nproc``; per workload and metric it stores the median over seeds and the
spread (max - min).  Labels already in the file are kept, so a parent and a
change recorded on the same machine sit side by side; once both exist the
file also gets their median ratios and whether every sha256 line matches.
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--root", type=Path, default=REPO, help="checkout to benchmark (default: this repository)")
    args = ap.parse_args()
    root = args.root.resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = {}
    for w in bench["workloads"]:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(root, w["name"], seed, seconds))
            print(f"{args.label} {w['name']} seed {seed}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        workloads[w["name"]] = {"summary": _summary(runs), "runs": runs}
    record = {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": workloads,
    }
    trail = json.loads(args.out.read_text()) if args.out.exists() else {}
    trail.setdefault("results", {})[args.label] = record
    if {"parent", "change"} <= trail["results"].keys():
        trail["comparison"] = _compare(trail["results"]["parent"], trail["results"]["change"])
    args.out.write_text(json.dumps(trail, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
