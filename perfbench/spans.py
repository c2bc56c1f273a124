"""Span recorder for the traced run, timed from outside the program.

Wrappers are installed on the names each consumer module looks up (for
example ``ccradon.exponents.reach_ball`` as well as
``ccradon.ccball.reach_ball``) and on class attributes, only for the
duration of a traced pass.  A span is (id, name, start, end, parent,
operation id, thread, two counts, label); spans live in memory and are
written out when the run finishes.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import statistics
import threading
import time
from collections import defaultdict, namedtuple

import numpy as np

from ccradon import ccball, cli, decomp, exponents, geometry, lattice, mixednorm, radon
from ccradon.geometry import ModelFamily
from ccradon.lattice import LatticeSet

Span = namedtuple("Span", "sid name start end parent op thread n1 n2 label")

LAYERS = ("geometry", "lattice", "ccball", "exponents", "mixednorm", "radon", "decomp", "cli")

PER_LAYER = (
    ("geometry.flow_s", "s"), ("geometry.flow_point_steps", "count"), ("geometry.chart_test_s", "s"),
    ("geometry.self_s", "s"),
    ("lattice.encode_s", "s"), ("lattice.encode_rows", "count"), ("lattice.set_build_s", "s"),
    ("lattice.set_algebra_s", "s"), ("lattice.self_s", "s"),
    ("ccball.reach_s", "s"), ("ccball.reach_calls", "count"), ("ccball.reach_self_s", "s"),
    ("ccball.reach_rounds", "count"), ("ccball.reach_cells", "count"),
    ("ccball.reach_cells_per_kstep", "cells/kstep"), ("ccball.mc_s", "s"), ("ccball.mc_paths_per_s", "paths/s"),
    ("ccball.lemma_s", "s"), ("ccball.self_s", "s"),
    ("exponents.region_s", "s"), ("exponents.fit_s", "s"), ("exponents.ball_jobs", "count"),
    ("exponents.self_s", "s"),
    ("mixednorm.norm_s", "s"), ("mixednorm.norm_calls", "count"), ("mixednorm.self_s", "s"),
    ("radon.transform_s", "s"), ("radon.superlevel_s", "s"), ("radon.pairing_s", "s"),
    ("radon.necessity_s", "s"), ("radon.probe_rows", "count"), ("radon.self_s", "s"),
    ("decomp.stratify_s", "s"), ("decomp.partition_s", "s"), ("decomp.fibers", "count"), ("decomp.self_s", "s"),
    ("cli.self_s", "s"), ("cli.pool_concurrency", "ratio"),
    ("trace.pass_s", "s"), ("trace.overhead_s", "s"),
)


def _rows(args, kwargs, out):
    return len(args[0]), 0


def _flow_steps(args, kwargs, out):
    substeps = kwargs.get("substeps", args[5] if len(args) > 5 else 1)
    return len(args[1]) * substeps, 0


def _ball(args, kwargs, out):
    return out.cells.n_cells, out.rounds


def _paths(args, kwargs, out):
    return out.n_paths, 0


def _fibers(args, kwargs, out):
    return out.n, 0


def _os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


# (owner, attribute, span name, count function, label)
def _catalog():
    cat = []
    for owner in (ccball, geometry):
        cat.append((owner, "rk4_many", "geometry.flow", _flow_steps, None))
    cat.append((ModelFamily, "contains", "geometry.chart_test", None, None))
    for owner in (lattice, ccball, radon):
        cat.append((owner, "encode_cells", "lattice.encode", _rows, owner.__name__.rsplit(".", 1)[-1]))
    for owner in (lattice, ccball):
        cat.append((owner, "decode_keys", "lattice.encode", _rows, None))
    for attr in ("__init__", "from_points", "from_box"):
        cat.append((LatticeSet, attr, "lattice.set_build", None, None))
    for attr in ("union", "intersection", "difference", "issubset", "contains_cells", "contains_points", "dilate"):
        cat.append((LatticeSet, attr, "lattice.set_algebra", None, None))
    for owner in (ccball, exponents, cli, decomp):
        cat.append((owner, "reach_ball", "ccball.reach", _ball, None))
    for owner in (ccball, cli):
        cat.append((owner, "mc_ball", "ccball.mc", _paths, None))
        cat.append((owner, "lemma_balls_report", "ccball.lemma", None, None))
    for owner in (exponents, cli):
        cat.append((owner, "estimate_region", "exponents.region", None, None))
    for owner in (ccball, radon, mixednorm):
        cat.append((owner, "mixed_norm_indicator", "mixednorm.norm", None, None))
    cat.append((mixednorm, "mixed_norm_grid", "mixednorm.norm", None, None))
    for attr in ("apply_T", "apply_Tstar"):
        cat.append((radon, attr, "radon.transform", None, None))
    for owner in (radon, cli):
        cat.append((owner, "superlevel_set", "radon.superlevel", None, None))
        cat.append((owner, "rwt_ratio", "radon.rwt", None, None))
    cat.append((radon, "pairing", "radon.pairing", None, None))
    cat.append((cli, "necessity_union", "radon.necessity", None, None))
    cat.append((cli, "to_pi_fibers", "decomp.fibers", _fibers, None))
    cat.append((cli, "stratify", "decomp.stratify", None, None))
    cat.append((cli, "partition", "decomp.partition", None, None))
    cat.append((cli, "widthbound_check", "decomp.widthbound", None, None))
    cat.append((cli, "run_scenario", "cli.command", None, "args0"))
    return cat


class Tracer:
    """Records spans of wrapped calls; ``installed()`` patches the catalog in."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.main_thread = threading.get_ident()
        self.op = None
        self._op_top = None
        self.max_threads = 0

    def begin_op(self, op_id: int):
        self.op = op_id
        self._op_top = None

    def wrap(self, name, fn, count=None, label=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            tid = threading.get_ident()
            # spans started in pool threads hang under the operation's top span
            parent = stack[-1] if stack else tracer._op_top
            sid = next(tracer._ids)
            if parent is None and tid == tracer.main_thread:
                tracer._op_top = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer.spans.append(Span(sid, name, start, time.perf_counter(), parent, tracer.op, tid, 0, 0, label))
                raise
            end = time.perf_counter()
            stack.pop()
            n1, n2 = count(args, kwargs, out) if count else (0, 0)
            tag = str(args[0]) if label == "args0" else label
            if name == "ccball.reach":
                tracer.max_threads = max(tracer.max_threads, _os_threads())
            tracer.spans.append(Span(sid, name, start, end, parent, tracer.op, tid, n1, n2, tag))
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every catalogue entry with a span wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name, count, label in _catalog():
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__, count, label))
                else:
                    patched = self.wrap(name, raw, count, label)
                saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write(self, path, spans, t0: float):
        """Write ``spans`` as CSV, times in seconds from ``t0``."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start_s", "end_s", "parent", "op", "thread", "n1", "n2", "label"])
            for sp in spans:
                w.writerow([sp.sid, sp.name, f"{sp.start - t0:.9f}", f"{sp.end - t0:.9f}", sp.parent or "", sp.op,
                            "main" if sp.thread == self.main_thread else sp.thread, sp.n1, sp.n2, sp.label or ""])


def span_cost(n: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    def noop(x):
        return x

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    samples = []
    for _ in range(5):
        t = time.perf_counter()
        for i in range(n):
            noop(i)
        raw = time.perf_counter() - t
        t = time.perf_counter()
        for i in range(n):
            wrapped(i)
        samples.append((time.perf_counter() - t - raw) / n)
        tracer.spans.clear()
    return max(statistics.median(samples), 0.0)


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, main_thread: int, pass_s: float, cost_per_span: float) -> tuple:
    """Per-layer metrics of one traced pass, and the accounting figures."""
    by_id = {s.sid: s for s in spans}
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    self_t = {s.sid: (s.end - s.start) - _union_length(kids.get(s.sid, ()), s.start, s.end) for s in spans}

    def has_ancestor(s, names):
        p = s.parent
        while p is not None:
            if by_id[p].name in names:
                return True
            p = by_id[p].parent
        return False

    dur = defaultdict(float)
    selfs = defaultdict(float)
    calls = defaultdict(int)
    n1 = defaultdict(int)
    n2 = defaultdict(int)
    for s in spans:
        dur[s.name] += s.end - s.start
        selfs[s.name] += self_t[s.sid]
        calls[s.name] += 1
        n1[s.name] += s.n1
        n2[s.name] += s.n2

    reach_steps = sum(s.n1 for s in spans if s.name == "geometry.flow" and has_ancestor(s, {"ccball.reach"}))
    region_ops = {s.sid for s in spans if s.name == "cli.command" and s.label in ("region", "classify")}
    ball_jobs = sum(
        1 for s in spans if s.name == "ccball.reach"
        and (s.parent in region_ops or has_ancestor(s, {"exponents.region"}))
    )
    # the outermost span of each pooled job: started in a worker, its parent on the main thread
    pooled = defaultdict(list)
    for s in spans:
        if s.thread != main_thread and (s.parent is None or by_id[s.parent].thread == main_thread):
            pooled[s.op].append((s.start, s.end))
    concurrency = [
        sum(b - a for a, b in iv) / (max(b for _, b in iv) - min(a for a, _ in iv)) for iv in pooled.values()
    ]
    pool_overlap = sum(
        sum(b - a for a, b in iv) - _union_length(iv, -np.inf, np.inf) for iv in pooled.values()
    )

    def layer_self(layer):
        return sum(v for k, v in selfs.items() if k.startswith(layer + "."))

    mc_s = dur["ccball.mc"]
    m = {
        "geometry.flow_s": dur["geometry.flow"],
        "geometry.flow_point_steps": n1["geometry.flow"],
        "geometry.chart_test_s": dur["geometry.chart_test"],
        "lattice.encode_s": dur["lattice.encode"],
        "lattice.encode_rows": n1["lattice.encode"],
        "lattice.set_build_s": dur["lattice.set_build"],
        "lattice.set_algebra_s": dur["lattice.set_algebra"],
        "ccball.reach_s": dur["ccball.reach"],
        "ccball.reach_calls": calls["ccball.reach"],
        "ccball.reach_self_s": selfs["ccball.reach"],
        "ccball.reach_rounds": n2["ccball.reach"],
        "ccball.reach_cells": n1["ccball.reach"],
        "ccball.reach_cells_per_kstep": 1000.0 * n1["ccball.reach"] / reach_steps if reach_steps else 0.0,
        "ccball.mc_s": mc_s,
        "ccball.mc_paths_per_s": n1["ccball.mc"] / mc_s if mc_s else 0.0,
        "ccball.lemma_s": dur["ccball.lemma"],
        "exponents.region_s": dur["exponents.region"],
        "exponents.fit_s": selfs["exponents.region"],
        "exponents.ball_jobs": ball_jobs,
        "mixednorm.norm_s": dur["mixednorm.norm"],
        "mixednorm.norm_calls": calls["mixednorm.norm"],
        "radon.transform_s": dur["radon.transform"],
        "radon.superlevel_s": dur["radon.superlevel"],
        "radon.pairing_s": dur["radon.pairing"],
        "radon.necessity_s": dur["radon.necessity"],
        "radon.probe_rows": sum(s.n1 for s in spans if s.name == "lattice.encode" and s.label == "radon"),
        "decomp.stratify_s": dur["decomp.stratify"],
        "decomp.partition_s": dur["decomp.partition"],
        "decomp.fibers": n1["decomp.fibers"],
        "cli.pool_concurrency": statistics.mean(concurrency) if concurrency else 0.0,
        "trace.pass_s": pass_s,
        "trace.overhead_s": cost_per_span * len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    accounting = {"sum_self": sum(selfs.values()), "pool_overlap": pool_overlap, "spans": len(spans)}
    return m, accounting
