"""Show that every output check of the benchmark can fail.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs one real operation per check (about a minute on a 2-core machine),
confirms the check accepts the real output, then feeds it an altered copy
and confirms the check rejects it with the expected reason.  Exits 1 if a
check accepts an altered result or rejects a real one.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import reference as ref
import workloads
from ccradon.lattice import LatticeSet

OUT = Path(__file__).resolve().parent / "out" / "selftest"
SEED = 7
failures = []


def expect_reject(label, op, result, altered, reason):
    """``op.check`` must pass ``result`` and reject ``altered`` for ``reason``."""
    real = op.check(result)
    if real:
        failures.append(f"{label}: real output rejected: {real}")
        print(f"FAIL {label}: real output rejected: {real}")
        return
    got = op.check(altered)
    if any(reason in f for f in got):
        print(f"ok   {label}: rejected ({'; '.join(got)})")
    else:
        failures.append(f"{label}: altered output not rejected for '{reason}' (got {got})")
        print(f"FAIL {label}: altered output not rejected for '{reason}' (got {got})")


def find(ops, prefix):
    return next(op for op in ops if op.name.startswith(prefix))


def ball_checks():
    op = find(workloads.ball_fixpoint(SEED, OUT).ops, "reach cubic")
    ball = op.call()
    cells = ball.cells.cells.copy()
    k = int(np.argmax(cells[:, -1]))
    t_edge = ball.center[-1] + ball.delta1 + ball.delta2
    cells[k, -1] = int(np.floor(t_edge / ball.h + 0.5)) + 3
    moved = dataclasses.replace(ball, cells=LatticeSet(ball.h, cells))
    expect_reject("ball, one cell moved 3 cells past the box", op, ball, moved, "outside the reachable box")
    dropped = dataclasses.replace(ball, truncated=True)
    expect_reject("ball, truncated flag set", op, ball, dropped, "truncated")
    real = ball.cells.cells
    c0 = np.floor(np.asarray(ball.center) / ball.h + 0.5).astype(np.int64)
    on_segment = (real[:, :-1] == c0[:-1]).all(axis=1)
    expect_reject("ball, V1 segment removed", op, ball,
                  dataclasses.replace(ball, cells=LatticeSet(ball.h, real[~on_segment])), "V1 segment")
    ends = ref.constant_control_endpoints(ball.center, ball.delta1, ball.delta2, ref.CURVES["cubic"])
    near = np.abs(real - ref.point_cells(ends[-1], ball.h)).max(axis=1) <= 2
    expect_reject("ball, cells near the (d1, d2) endpoint removed", op, ball,
                  dataclasses.replace(ball, cells=LatticeSet(ball.h, real[~near])), "constant-control endpoint")


def mc_checks():
    ops = workloads.mc_oracle(SEED, OUT).ops
    reach_op, mc_op = ops[0], ops[1]
    reach = reach_op.call()
    if reach_op.check(reach):
        failures.append("mc: reach check rejected the real ball")
    mc = mc_op.call()
    low = dataclasses.replace(mc, volume=0.2 * reach.volume)
    expect_reject("mc, agreement 0.2", mc_op, mc, low, "agreement 0.2")
    stray = mc.endpoints.copy()
    stray[0, -1] += 1.0
    expect_reject("mc, one endpoint moved out of the box", mc_op, mc, dataclasses.replace(mc, endpoints=stray),
                  "endpoints outside")


def region_checks():
    op = find(workloads.region_sweep(SEED, OUT).ops, "cli region")
    report = op.call()
    csv_path = OUT / "region" / "region.csv"
    real = csv_path.read_text()
    flipped = "".join(
        ln.replace(",inside", ",outside") if ln.startswith("2.2,2.2,") else ln for ln in real.splitlines(True)
    )

    class FlipLabel:
        """Check the real report, then the same report with region.csv flipped."""

        def check(self, rep):
            if rep is report:
                return op.check(rep)
            csv_path.write_text(flipped)
            try:
                return op.check(report)
            finally:
                csv_path.write_text(real)

    expect_reject("region, label at (2.2, 2.2) flipped", FlipLabel(), report, dict(report), "node (2.2, 2.2)")
    bad_rate = copy.deepcopy(report)
    for s in bad_rate["meta"]["raw_rates"]:
        if s["theta"] == 1.0 and s["A"] == 1.0:
            s["raw_rate"] = 3.5
    expect_reject("region, diagonal rate 3.5", op, report, bad_rate, "diagonal raw volume rates")
    limited = copy.deepcopy(report)
    limited["meta"]["resolution_limited"] = True
    expect_reject("region, resolution limited", op, report, limited, "resolution_limited")


def transform_checks():
    ops = workloads.transform_decompose(SEED, OUT).ops
    op = find(ops, "pairing")
    pr = op.call()
    scaled = dataclasses.replace(pr, quadrature=1.2 * pr.quadrature, lattice=1.2 * pr.lattice)
    expect_reject("pairing scaled by 1.2", op, pr, scaled, "continuum reference")
    op = find(ops, "rwt_ratio")
    val = op.call()
    expect_reject("rwt ratio scaled by 1.2", op, val, 1.2 * val, "continuum reference")
    t_op, ts_op = find(ops, "apply_T"), find(ops, "apply_Tstar")
    tf = t_op.call()
    shifted = dataclasses.replace(tf, values=tf.values + 1e-6)
    expect_reject("Tf shifted by 1e-6", t_op, tf, shifted, "node sum")
    t_op.check(tf)
    tsg = ts_op.call()
    bumped = dataclasses.replace(tsg, values=tsg.values * (1.0 + 1e-8))
    expect_reject("T*g scaled by 1 + 1e-8", ts_op, tsg, bumped, "<Tf, g>")
    op = find(ops, "cli necessity")
    report = op.call()
    expect_reject("CLI passed flag false", op, report, dict(report, passed=False), "did not pass")


def spec_matches_spans():
    """BENCHMARK.json lists exactly the per-layer metrics the traced run prints."""
    import spans

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if listed != list(spans.PER_LAYER):
        failures.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
        print("FAIL BENCHMARK.json per_layer differs from spans.PER_LAYER")


def main() -> int:
    spec_matches_spans()
    for group in (ball_checks, transform_checks, mc_checks, region_checks):
        group()
    shutil.rmtree(OUT, ignore_errors=True)
    print(f"{len(failures)} check(s) misbehaved" if failures else "every check rejected its altered result")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
