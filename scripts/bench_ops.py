"""Time the benchmark's operations in one process, parent and change interleaved.

    python3 scripts/bench_ops.py --parent ../parent-checkout --workload ball_fixpoint \
        --seed 700 --rounds 10

Each checkout's ``src/ccradon`` is loaded under its own package name, and
each side builds its own copy of the ``perfbench/workloads.py`` workload
from the same seed, so both sides call the same operations on the same
inputs.  After one warm-up per side, every round calls each operation once
per side, the parent first on even rounds and the change (``--root``,
default: this repository) first on odd ones.  Per operation it prints each
side's median and minimum seconds, the rounds the change won, and whether
the two sides' sha256 digests match where the operation has one.

Process-to-process spread hides operation-level moves of a few per cent;
interleaving calls in one process puts host drift on both sides alike.
This is a tool for finding where time moves, not evidence for a claimed
gain: ``bench_pairs.py`` runs the unchanged benchmark for that.
"""
from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

# as perfbench/run.py does: numpy's BLAS pool would add threads the operations do not ask for
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("ball_fixpoint", "mc_oracle", "region_sweep", "transform_decompose")


def _load(name: str, path: Path, package_dir: Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_side(label: str, root: Path):
    """The ``perfbench/workloads.py`` module of ``root``, bound to that checkout's package.

    The package is loaded as ``ccradon_<label>``; while ``workloads.py`` and
    ``reference.py`` import, ``ccradon`` and its submodules are aliased to it
    in ``sys.modules``, and the aliases are removed afterwards.
    """
    src = root / "src" / "ccradon"
    pkg = f"ccradon_{label}"
    _load(pkg, src / "__init__.py", src)
    for path in sorted(src.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{pkg}.{path.stem}")
    aliases = {"ccradon" + key[len(pkg):]: mod for key, mod in list(sys.modules.items())
               if key == pkg or key.startswith(pkg + ".")}
    saved = {key: sys.modules.get(key) for key in (*aliases, "reference")}
    sys.modules.update(aliases)
    try:
        _load("reference", root / "perfbench" / "reference.py")
        return _load(f"workloads_{label}", root / "perfbench" / "workloads.py")
    finally:
        for key, mod in saved.items():
            if mod is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = mod


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--root", type=Path, default=REPO, help="checkout of the change (default: this repository)")
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="workload to time; repeat for more (default: all four)")
    ap.add_argument("--seed", type=int, default=700)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args()
    sides = {"parent": load_side("parent", args.parent.resolve()), "change": load_side("change", args.root.resolve())}
    with tempfile.TemporaryDirectory(prefix="bench_ops_") as tmp:
        for workload in args.workload or WORKLOADS:
            built = {}
            for side, module in sides.items():
                built[side] = module.WORKLOADS[workload](args.seed, Path(tmp) / side / workload)
                built[side].warmup()
            ops = list(zip(built["parent"].ops, built["change"].ops))
            times = {side: [[] for _ in ops] for side in sides}
            digests = {side: [None] * len(ops) for side in sides}
            for r in range(args.rounds):
                order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
                for k, pair in enumerate(ops):
                    for side in order:
                        op = pair[0] if side == "parent" else pair[1]
                        t0 = time.perf_counter()
                        result = op.call()
                        times[side][k].append(time.perf_counter() - t0)
                        if r == 0 and op.digest is not None:
                            digests[side][k] = op.digest(result)
            print(f"{workload} seed {args.seed}, {args.rounds} rounds (seconds: median / min)")
            for k, (op, _) in enumerate(ops):
                base, new = times["parent"][k], times["change"][k]
                wins = sum(c < b for b, c in zip(base, new))
                same = "" if digests["parent"][k] is None else (
                    "; sha256 " + ("equal" if digests["parent"][k] == digests["change"][k] else "DIFFERS"))
                print(f"  {op.name}: parent {statistics.median(base):.4f} / {min(base):.4f}, "
                      f"change {statistics.median(new):.4f} / {min(new):.4f}, "
                      f"change/parent {statistics.median(new) / statistics.median(base):.3f}; "
                      f"change wins {wins} of {len(base)}{same}")
            total = {side: [sum(times[side][k][r] for k in range(len(ops))) for r in range(args.rounds)]
                     for side in sides}
            wins = sum(c < b for b, c in zip(total["parent"], total["change"]))
            print(f"  all operations: parent {statistics.median(total['parent']):.4f}, change "
                  f"{statistics.median(total['change']):.4f}; change wins {wins} of {args.rounds}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
