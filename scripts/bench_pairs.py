"""Run alternating parent/change pairs of one benchmark workload and test a claimed gain.

    python3 scripts/bench_pairs.py --parent ../parent-checkout --workload transform_decompose \
        --first-seed 530 --pairs 10

Pair i runs the unchanged ``perfbench/run.py --trace 0`` on seed
``first_seed + i`` in both checkouts, the parent first on even pairs and the
change (``--root``, default: this repository) first on odd ones, with the run
length that the parent's ``BENCHMARK.json`` sets.  For every end-to-end metric
that file declares, it prints each side's median and quartiles, the pairs the
change wins (strictly better in its declared direction; ties count for
neither side), and whether the gap between the medians exceeds the parent's
interquartile range.  A gain holds when the change wins at least nine tenths
of the pairs and its median is better by more than that range.  Failed
operations are summed per side, and every sha256 line on which the two sides
differ is printed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_record import REPO, run_once


def _quartiles(values: list) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--root", type=Path, default=REPO, help="checkout of the change (default: this repository)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", required=True, type=int)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.root.resolve()}
    bench = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(roots[side], args.workload, seed, bench["run_seconds"]))
        print(f"pair {i} seed {seed} ({order[0]} first): " + "; ".join(
            side + " " + ", ".join(f"{k} {v:.4g}" for k, v in runs[side][-1]["metrics"].items())
            for side in ("parent", "change")), flush=True)
    for side, side_runs in runs.items():
        failed = sum(r["failed"] for r in side_runs)
        print(f"{side}: {failed} of {sum(r['attempted'] for r in side_runs)} operations failed")
    for metric in bench["end_to_end"]:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        base = [r["metrics"][name] for r in runs["parent"]]
        new = [r["metrics"][name] for r in runs["change"]]
        (p1, pm, p3), (c1, cm, c3) = _quartiles(base), _quartiles(new)
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, new))
        gain = wins >= 0.9 * len(base) and sign * (pm - cm) > p3 - p1
        print(f"{name} [{metric['unit']}, {metric['better']} is better]: parent median {pm:.4g} "
              f"(quartiles {p1:.4g} / {p3:.4g}), change median {cm:.4g} (quartiles {c1:.4g} / {c3:.4g}), "
              f"change/parent {cm / pm:.3f}; change wins {wins} of {len(base)}; median gap {abs(pm - cm):.4g} "
              f"{'>' if abs(pm - cm) > p3 - p1 else '<='} parent IQR {p3 - p1:.4g}; gain {'holds' if gain else 'not shown'}")
    differ = 0
    for base, new in zip(runs["parent"], runs["change"]):
        for line in sorted(set(base["sha256"]) ^ set(new["sha256"])):
            side = "parent" if line in base["sha256"] else "change"
            print(f"seed {base['seed']} sha256 differs, {side} only: {line}")
            differ += 1
    print(f"sha256 lines that differ: {differ}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
