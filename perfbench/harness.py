"""One workload in one process: set-up, timed passes, checks, optional trace.

Started by ``run.py``; prints information lines and, as its last line, a
JSON object for ``run.py`` to aggregate.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so set-up time
counts interpreter start and imports.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The median of three or more passes keeps one slow pass from setting the value.
MIN_PASSES = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import ccradon

    src = (Path.cwd() / "src").resolve()
    if Path(ccradon.__file__).resolve().parent.parent != src:
        print(f"ccradon imported from {ccradon.__file__}, not from {src}", file=sys.stderr)
        return 2

    from ccradon.errors import CCRadonError

    import workloads

    out = HERE / "out" / args.workload
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    workload.warmup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    pass_times, layer_runs, digests, problems = [], [], {}, []
    attempted = failed = 0
    incorrect = False
    measured = 0.0
    while len(pass_times) < MIN_PASSES or measured < args.seconds:
        pass_s = 0.0
        pass_start = time.perf_counter()
        results = []
        for i, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.begin_op(i)
            with tracer.installed() if tracer is not None else contextlib.nullcontext():
                t = time.perf_counter()
                try:
                    result, error = op.call(), None
                except CCRadonError as exc:
                    result, error = None, f"{type(exc).__name__}: {exc}"
                pass_s += time.perf_counter() - t
            results.append((op, result, error))
        if not pass_times:
            # set-up plus one pass of operations: the checks' own arrays stay out
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pass_times.append(pass_s)
        measured += pass_s
        if tracer is not None:
            layer_runs.append((tracer.spans, pass_start, pass_s))
            tracer.spans = []
        for op, result, error in results:
            attempted += 1
            fails = [error] if error else op.check(result)
            if fails:
                failed += 1
                incorrect |= error is None
                problems.extend(f"{op.name}: {f}" for f in fails)
            elif op.digest is not None and op.name not in digests:
                digests[op.name] = op.digest(result)

    for name, digest in digests.items():
        print(f"sha256 {args.workload} | {name} | {digest}")
    for p in problems:
        print(f"FAILED {p}")
    summary = {
        "setup_s": setup_s,
        "pass_times": pass_times,
        "attempted": attempted,
        "failed": failed,
        "correct": not incorrect,
        "peak_rss_mib": peak_rss_mib,
    }
    if tracer is not None:
        summary["per_layer"] = _per_layer(args, tracer, layer_runs, spans)
    print(json.dumps(summary))
    return 0


def _per_layer(args, tracer, layer_runs, spans) -> dict:
    cost = spans.span_cost()
    per_pass = []
    for i, (recorded, start, pass_s) in enumerate(layer_runs):
        metrics, acct = spans.layer_metrics(recorded, tracer.main_thread, pass_s, cost)
        per_pass.append(metrics)
        covered = acct["sum_self"] - acct["pool_overlap"]
        print(
            f"trace pass {i}: {acct['spans']} spans; layer self times sum to {acct['sum_self']:.4f} thread-s, "
            f"minus pool overlap {acct['pool_overlap']:.4f} s = {covered:.4f} s, "
            f"{100.0 * covered / pass_s:.2f}% of traced pass_s {pass_s:.4f} s; "
            f"estimated tracing overhead {metrics['trace.overhead_s']:.4f} s "
            f"({100.0 * metrics['trace.overhead_s'] / pass_s:.2f}%, {cost * 1e6:.2f} us per span)"
        )
    print(f"trace: max OS threads seen in ball spans {tracer.max_threads} (main thread + pool workers)")
    trace_path = HERE / "out" / f"trace-{args.workload}.csv"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path, [s for run in layer_runs for s in run[0]], layer_runs[0][1])
    print(f"trace: spans written to {trace_path.relative_to(HERE.parent)}")
    return {name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
            for name, unit in spans.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
