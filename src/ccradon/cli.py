"""Batch front-end: scenario files in, JSON reports and CSV plot data out.

One experiment is one scenario file.  Reports are deterministic given the
scenario and seed (timestamps live in a metadata sidecar); exit status is
0 on pass, 1 on assertion failure, 2 on usage errors, 3 on resolution errors.
"""
from __future__ import annotations

import csv
import datetime
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import __version__, calibration
from .ccball import ComparabilityWindow, lemma_balls_report, mc_ball, reach_ball, slab_profile
from .decomp import partition, stratify, to_pi_fibers, widthbound_check
from .errors import CCRadonError, OrderingError, ResolutionError
from .exponents import DEFAULT_MARGIN, classify_triple, default_h_rule, estimate_region
from .geometry import builtin_models, load_model
from .lattice import LatticeSet
from .mixednorm import exponent
from .radon import necessity_union, rwt_ratio, superlevel_set

EXIT_PASS = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_RESOLUTION = 3


def _require(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise click.UsageError(f"scenario missing required field '{path}'")
    return mapping[key]


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _write_report(out_dir: Path, name: str, report: dict, diagnostics: dict | None):
    """Write the report and its ``meta.json`` sidecar; run diagnostics go to the sidecar only."""
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"
    (out_dir / name).write_text(payload)
    meta = {
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "package_version": __version__,
        "numpy_version": np.__version__,
    }
    if diagnostics is not None:
        meta["diagnostics"] = diagnostics
    (out_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _write_csv(out_dir: Path, name: str, header, rows):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _load_scenario(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise click.UsageError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"scenario file is not valid JSON: {exc}")


def _parse_set(spec, h: float, dim: int) -> LatticeSet:
    if "rects" in spec:
        parts = None
        for rect in spec["rects"]:
            if len(rect) != dim:
                raise click.UsageError("set rect dimensionality mismatch")
            box = LatticeSet.from_box([a for a, _ in rect], [b for _, b in rect], h)
            parts = box if parts is None else parts.union(box)
        return parts
    if "cells" in spec:
        return LatticeSet(h, np.asarray(spec["cells"], dtype=np.int64))
    raise click.UsageError("set spec requires 'rects' or 'cells'")


def _reject_h_overrides(params):
    for key in ("h_rule", "halve_h"):
        if key in params:
            raise click.UsageError(f"parameters.{key} is not supported: balls run at h = default_h_rule(delta1, delta2)")


def _pool_map(fn, jobs, threads: int):
    if threads <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


def _ball_pairs_sweep(model, deltas, p, q, r, threads):
    def one(d):
        h = default_h_rule(d, d)
        ball = reach_ball(model, (0.0,) * model.dim_z, d, d, h)
        ratio = rwt_ratio(model, ball.proj1, ball.proj2, p, q, r)
        return {"delta": d, "h": h, "ratio": ratio, "volume": ball.volume}

    return _pool_map(one, sorted(deltas, reverse=True), threads)


# --------------------------------------------------------------------------
# Command runners, called through run_scenario
# --------------------------------------------------------------------------

def run_ball(model, params: dict, out_dir: Path, seed, threads: int):
    h = _require(params, "h", "parameters.h")
    d1 = _require(params, "delta1", "parameters.delta1")
    d2 = _require(params, "delta2", "parameters.delta2")
    center = params.get("center", [0.0] * model.dim_z)
    if "steps" in params.get("mc", {}):
        raise click.UsageError("parameters.mc.steps is not supported: mc flows take one step per control piece, exact for curves of degree <= 4")
    if "tau" in params:
        raise click.UsageError("parameters.tau is not supported: reach_ball takes its round length from default_tau(delta1, delta2, h)")
    ball = reach_ball(model, center, d1, d2, h)
    fields = {"model": model.to_json_dict(), "ball": ball.to_report()}
    if "mc" in params:
        if seed is None:
            raise click.UsageError("scenario missing required field 'seed' (stochastic run)")
        mc = mc_ball(
            model,
            center,
            d1,
            d2,
            paths=_require(params["mc"], "paths", "parameters.mc.paths"),
            seed=seed,
            h=h,
        )
        lo, hi = calibration.MC_AGREEMENT_BAND
        agreement = mc.volume / ball.volume if ball.volume > 0 else math.inf
        fields["mc"] = {
            "volume": mc.volume,
            "paths": mc.n_paths,
            "escaped": mc.n_escaped,
            "agreement": agreement,
            "band": [lo, hi],
        }
        if not lo <= agreement <= hi:
            fields["failures"] = [f"mc_agreement={agreement:.4g} outside [{lo}, {hi}]"]
    _write_csv(out_dir, "slab_profile.csv", ["t", "f"], slab_profile(ball))
    return fields, ball.diagnostics()


def run_lemma_check(model, params: dict, out_dir: Path, seed, threads: int):
    q = float(exponent(_require(params, "q", "parameters.q")))
    r = float(exponent(_require(params, "r", "parameters.r")))
    p = float(exponent(params["p"])) if "p" in params else None
    grid = _require(params, "grid", "parameters.grid")
    thetas = grid.get("theta_list", [0.5, 0.75, 1.0])
    d1s = _require(grid, "delta1_list", "parameters.grid.delta1_list")
    _reject_h_overrides(params)
    jobs = []
    for theta in thetas:
        for d1 in d1s:
            d2 = min(d1 ** theta, 0.375)
            jobs.append((theta, d1, d2, default_h_rule(d1, d2)))

    def one(job):
        theta, d1, d2, h = job
        rep, _, _ = lemma_balls_report(model, (0.0,) * model.dim_z, d1, d2, q, r, h, p=p,
                                       window=ComparabilityWindow(theta=theta, bigA=2.0))
        rep["theta"] = theta
        return rep

    reports = _pool_map(one, jobs, threads)
    rows = []
    failures = []
    for rep in reports:
        where = f"theta={rep['theta']} d1={rep['delta1']:g} h={rep['h']:g}"
        if rep["truncated"]:
            failures.append(f"ball pair truncated by the chart at {where}")
        for key, val in rep["ratios"].items():
            lo, hi = calibration.LEMMA_BANDS[key]
            ok = lo <= val <= hi
            if not ok:
                failures.append(f"ratio {key}={val:.4g} at {where}")
            rows.append([rep["theta"], rep["delta1"], rep["delta2"], rep["h"], key, val, lo, hi, int(ok)])
    _write_csv(out_dir, "lemma_ratios.csv",
               ["theta", "delta1", "delta2", "h", "ratio", "value", "band_lo", "band_hi", "ok"], rows)
    return {"bands": calibration.LEMMA_BANDS, "results": reports, "failures": failures}, None


def _region_from_params(model, params, threads):
    windows = None
    if "windows" in params:
        windows = [ComparabilityWindow(theta=t, bigA=a) for t, a in params["windows"]]
    kwargs = {}
    for grid_key in ("c1_grid", "c2_grid"):
        if grid_key in params:
            g = params[grid_key]
            kwargs[grid_key] = np.round(np.arange(g["start"], g["stop"] + 1e-9, g["step"]), 10)
    if "delta_grid" in params:
        kwargs["delta_grid"] = tuple(params["delta_grid"])
    if "z_samples" in params:
        kwargs["z_samples"] = [tuple(z) for z in params["z_samples"]]
    return estimate_region(
        model, windows=windows, pool_map=lambda fn, jobs: _pool_map(fn, jobs, threads), **kwargs
    )


def run_region(model, params: dict, out_dir: Path, seed, threads: int):
    region = _region_from_params(model, params, threads)
    rows = [[r["c1"], r["c2"], r["infimum"], r["worst_rate"], r["label"]] for r in region.to_rows()]
    _write_csv(out_dir, "region.csv", ["c1", "c2", "infimum", "worst_rate", "label"], rows)
    checks = []
    failures = []
    for expect in params.get("expect", []):
        got = region.label_at(expect["c1"], expect["c2"])
        ok = got == expect["label"]
        if not ok:
            failures.append(f"node ({expect['c1']}, {expect['c2']}): want {expect['label']}, got {got}")
        checks.append({"c1": expect["c1"], "c2": expect["c2"], "want": expect["label"], "got": got, "ok": ok})
    return {"meta": _sanitize(region.meta), "checks": checks, "failures": failures}, {"jobs": region.jobs}


def run_classify(model, params: dict, out_dir: Path, seed, threads: int):
    triples = [(tuple(exponent(v) for v in entry["triple"]), entry.get("expect"))
               for entry in _require(params, "triples", "parameters.triples")]
    margin = params.get("margin", DEFAULT_MARGIN)
    region = _region_from_params(model, params, threads)
    results = []
    failures = []
    for trip, expect in triples:
        try:
            label = classify_triple(trip, region, margin=margin)
            outcome = {"ok": expect in (None, label)}
        except OrderingError as exc:
            label = "ordering-error"
            outcome = {"detail": str(exc)}
        results.append({"triple": [str(t) for t in trip], "label": label, **outcome})
        if expect not in (None, label):
            failures.append(f"triple {', '.join(map(str, trip))}: want {expect}, got {label}")
    return {"resolved": {"margin": margin}, "meta": _sanitize(region.meta), "results": results,
            "failures": failures}, {"jobs": region.jobs}


def run_test_inequality(model, params: dict, out_dir: Path, seed, threads: int):
    p, q, r = (exponent(v) for v in _require(params, "triple", "parameters.triple"))
    deltas = _require(params, "delta_list", "parameters.delta_list")
    _reject_h_overrides(params)
    sweep = _ball_pairs_sweep(model, deltas, p, q, r, threads)
    ratios = [s["ratio"] for s in sweep]
    factors = [ratios[i + 1] / ratios[i] for i in range(len(ratios) - 1)]
    mean_factor = float(np.exp(np.mean(np.log(factors)))) if factors else 1.0
    if mean_factor <= 1.25:
        verdict = "bounded"
    elif mean_factor >= 1.5:
        verdict = "growing"
    else:
        verdict = "indeterminate"
    failures = []
    expect = params.get("expect")
    if expect not in (None, verdict):
        failures.append(f"verdict {verdict} (mean halving factor {mean_factor:.3g}), expected {expect}")
    _write_csv(out_dir, "inequality_sweep.csv", ["delta", "h", "ratio"],
               [[s["delta"], s["h"], s["ratio"]] for s in sweep])
    return {"sweep": sweep, "mean_halving_factor": mean_factor, "verdict": verdict, "failures": failures}, None


def run_necessity(model, params: dict, out_dir: Path, seed, threads: int):
    p, q, r = (exponent(v) for v in _require(params, "triple", "parameters.triple"))
    deltas = _require(params, "delta_list", "parameters.delta_list")
    _reject_h_overrides(params)

    def one(pair):
        d1, d2 = pair
        return reach_ball(model, (0.0,) * model.dim_z, d1, d2, default_h_rule(d1, d2))

    balls = _pool_map(one, [tuple(d) for d in deltas], threads)
    records = necessity_union(model, balls, p, q, r, n_translates=params.get("n_translates"))
    growth = []
    for i in range(len(records) - 2):
        growth.append(records[i + 2].ratio / records[i].ratio)
    failures = []
    if params.get("expect_growth", False):
        failures.extend(
            f"growth {g:.3g} < 2 from n={i} to n={i + 2}" for i, g in enumerate(growth) if g < 2.0
        )
    _write_csv(out_dir, "necessity.csv",
               ["n", "delta1", "delta2", "n_translates", "ratio"],
               [[rec.n, rec.delta1, rec.delta2, rec.n_translates, rec.ratio] for rec in records])
    return {"records": [vars(rec) for rec in records], "growth_n_plus_2": growth, "failures": failures}, None


def run_decompose(model, params: dict, out_dir: Path, seed, threads: int):
    h = _require(params, "h", "parameters.h")
    beta = _require(params, "beta", "parameters.beta")
    F = _parse_set(_require(params, "F", "parameters.F"), h, model.d)
    eta = params.get("eta", 0.125)
    c_eta = params.get("c_eta", 0.25)
    C = params.get("C", 4.0)
    sl = superlevel_set(model, F, beta)
    if sl.is_empty:
        return {"empty": True}, None
    fibs = to_pi_fibers(sl)
    strat = stratify(fibs, eta=eta, c_eta=c_eta)
    part = partition(model, fibs, strat, F, C=C)
    wb_ok, wb_worst = widthbound_check(fibs, strat)
    strata_rows = [[s.m, s.k, len(s.indices), s.pairing, int(s is strat.selected)] for s in strat.strata]
    _write_csv(out_dir, "strata.csv", ["m", "k", "count", "pairing", "selected"], strata_rows)
    part_rows = [
        [n, part.e_counts[n], part.f_counts[n], part.omega_measure[n], part.alpha1[n], part.alpha2[n]]
        for n in part.e_counts
    ]
    _write_csv(out_dir, "partition.csv", ["n", "E_n_cells", "F_n_cells", "omega_n", "alpha_n1", "alpha_n2"], part_rows)
    failures = [
        f"stratify verdict {k}" for k, v in strat.verdicts.items()
        if isinstance(v, (bool, np.bool_)) and not v
    ]
    failures += [
        f"partition verdict {k}" for k, v in part.verdicts.items()
        if isinstance(v, (bool, np.bool_)) and not v
    ]
    if not wb_ok:
        failures.append(f"width bound exceeded (worst {wb_worst:.3g})")
    return {
        "resolved": {"h": h, "beta": beta, "eta": eta, "c_eta": c_eta, "C": C},
        "superlevel_cells": sl.E.n_cells,
        "strata": strata_rows,
        "stratify_verdicts": _sanitize(strat.verdicts),
        "partition_verdicts": _sanitize(part.verdicts),
        "widthbound_worst": wb_worst,
        "failures": failures,
    }, None


# parameters that runners read only to reject them, naming the reason
_REJECTED = ("h_rule", "halve_h", "tau")
_REGION_KEYS = ("windows", "c1_grid", "c2_grid", "delta_grid", "z_samples")

# command -> (runner, report file, the parameters keys it reads).  A runner
# writes its CSVs and returns its report fields, ``failures`` among them, and
# the meta.json diagnostics.
_RUNNERS = {
    "ball": (run_ball, "ball_report.json", ("h", "delta1", "delta2", "center", "mc", "tau")),
    "lemma-check": (run_lemma_check, "lemma_report.json", ("q", "r", "p", "grid", "h_rule", "halve_h")),
    "region": (run_region, "region_report.json", (*_REGION_KEYS, "expect")),
    "classify": (run_classify, "classify_report.json", ("triples", "margin", *_REGION_KEYS)),
    "test-inequality": (run_test_inequality, "inequality_report.json",
                        ("triple", "delta_list", "expect", "h_rule", "halve_h")),
    "necessity": (run_necessity, "necessity_report.json",
                  ("triple", "delta_list", "n_translates", "expect_growth", "h_rule", "halve_h")),
    "decompose": (run_decompose, "decompose_report.json", ("h", "beta", "F", "eta", "c_eta", "C")),
}


def run_scenario(command: str, scenario: dict, out_dir: Path, seed=None, threads: int = 1) -> dict:
    """Run one command and write its report; ``passed`` is true exactly when ``failures`` is empty."""
    if seed is None:
        seed = scenario.get("seed")
    kind = scenario.get("kind", command)
    if kind != command:
        raise click.UsageError(f"scenario kind '{kind}' does not match command '{command}'")
    runner, report_name, keys = _RUNNERS[command]
    model = load_model(_require(scenario, "model", "model"))
    if command == "region":
        params = scenario.get("parameters", {})
    else:
        params = _require(scenario, "parameters", "parameters")
    if not isinstance(params, dict):
        raise click.UsageError("scenario field 'parameters' must be an object")
    unknown = sorted(set(params) - set(keys))
    if unknown:
        accepted = ", ".join(sorted(set(keys) - set(_REJECTED)))
        raise click.UsageError(f"unknown parameters.{unknown[0]} for {command}; accepted keys: {accepted}")
    fields, diagnostics = runner(model, params, out_dir, seed, threads)
    report = {"command": command, "parameters": _sanitize(params), **fields,
              "passed": not fields.get("failures")}
    _write_report(out_dir, report_name, report, diagnostics)
    return report


# --------------------------------------------------------------------------
# Click wiring
# --------------------------------------------------------------------------

def _common_options(fn):
    fn = click.option("--scenario", "scenario_path", required=True, type=str, help="Scenario JSON file.")(fn)
    fn = click.option("--out", "out_dir", default=None, type=str, help="Output directory.")(fn)
    fn = click.option("--seed", default=None, type=int, help="Seed override for stochastic runs.")(fn)
    fn = click.option("--threads", default=1, type=int, show_default=True, help="Worker threads.")(fn)
    return fn


def _invoke(command: str, scenario_path: str, out_dir, seed, threads):
    scenario = _load_scenario(scenario_path)
    out = Path(out_dir) if out_dir else Path(scenario.get("out", f"ccradon-out/{command}"))
    try:
        report = run_scenario(command, scenario, out, seed=seed, threads=threads)
    except ResolutionError as exc:
        click.echo(f"resolution error: {exc}", err=True)
        sys.exit(EXIT_RESOLUTION)
    except OrderingError as exc:
        raise click.UsageError(str(exc))
    except CCRadonError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ASSERTION)
    if not report["passed"]:
        click.echo(f"assertion failure: {'; '.join(report['failures'])}", err=True)
        sys.exit(EXIT_ASSERTION)
    click.echo(f"ok: report written to {out}")


@click.group()
@click.version_option(version=__version__)
def main():
    """Numerical laboratory for two-parameter balls and curve transforms."""


@main.group()
def model():
    """Model catalog."""


@model.command("list")
def model_list():
    for name in sorted(builtin_models()):
        click.echo(name)


@model.command("show")
@click.argument("name")
def model_show(name):
    try:
        m = load_model(name)
    except CCRadonError as exc:
        raise click.UsageError(str(exc))
    click.echo(json.dumps(m.to_json_dict(), sort_keys=True, indent=2))


for _name in _RUNNERS:
    def _make(cmd):
        @_common_options
        def _cmd(scenario_path, out_dir, seed, threads):
            _invoke(cmd, scenario_path, out_dir, seed, threads)

        _cmd.__name__ = f"cmd_{cmd.replace('-', '_')}"
        return _cmd

    main.command(name=_name)(_make(_name))


if __name__ == "__main__":
    main()
