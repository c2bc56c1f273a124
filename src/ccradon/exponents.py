"""Exponent arithmetic and empirical admissible-region estimation.

Conversions between Lebesgue triples (p, q, r) and ball-volume exponents
(c1, c2) are exact rational arithmetic on reciprocals (infinity maps to
reciprocal zero).  The region estimator classifies (c1, c2) nodes by the decay
trend of |B(z, d1, d2)| / (d1^c1 d2^c2) along weakly comparable radius paths:
decay rates are scale-free, unlike lattice volume constants.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ccball import ComparabilityWindow, reach_balls
from .ccball import reach_ball  # noqa: F401  perfbench's tracer wraps this module's reach_ball by name
from .errors import ConfigError, DegenerateError, OrderingError
from .geometry import ModelFamily, as_zarray
from .mixednorm import exponent

INF = math.inf

# Trend thresholds, in bits of ratio decay per halving of delta1.
INSIDE_RATE = 0.1
OUTSIDE_RATE = 0.6
DEFAULT_MARGIN = 0.1
MIN_BALL_CELLS = 10  # fewer cells in any ball job marks the region resolution-limited
DELTA_CAP = 0.25  # largest companion radius on a region path
SNAP_TOL_CAP = 0.2  # largest |fitted - lattice| rate that still snaps


def _recip(value) -> Fraction:
    """Reciprocal of an exponent in [1, inf] as an exact Fraction (inf -> 0)."""
    value = exponent(value)
    return Fraction(0) if value == INF else 1 / Fraction(value)


def _as_exponent(recip: Fraction):
    return INF if recip == 0 else 1 / recip


@dataclass(frozen=True)
class BallExponents:
    """Ball-volume exponents (c1, c2), exact rationals."""

    c1: Fraction
    c2: Fraction

    def as_floats(self) -> tuple:
        return float(self.c1), float(self.c2)


def c_from_pq(p, q) -> BallExponents:
    """(c1, c2) = (1/p, 1 - 1/q) / (1/p - 1/q), c_from_pqr at r = q; requires q > p."""
    return c_from_pqr(p, q, q)


def c_from_pqr(p, q, r) -> BallExponents:
    """(c1, c2) = (g1 + g3, g2) = (1/p + 1/q - 1/r, 1 - 1/r) / (1/p - 1/r); requires r > p."""
    g1, g2, g3 = gammas(p, q, r)
    return BallExponents(c1=g1 + g3, c2=g2)


def gammas(p, q, r) -> tuple:
    """(g1, g2, g3) = (1/p, 1 - 1/r, 1/q - 1/r) / (1/p - 1/r); requires r > p."""
    rp, rq, rr = _recip(p), _recip(q), _recip(r)
    den = rp - rr
    if den <= 0:
        raise DegenerateError(f"(p, q, r) = ({p}, {q}, {r}) requires r > p")
    return (rp / den, (1 - rr) / den, (rq - rr) / den)


@dataclass(frozen=True)
class InterpolationWindow:
    """The segment parameter window [s_lo, s_hi] mapping (p,q,r) with q > r > p
    onto ordered triples r1 >= q1 >= p1 along the line through (1, inf, 1)."""

    s_lo: Fraction
    s_hi: Fraction
    rp: Fraction
    rq: Fraction
    rr: Fraction

    def triple_at(self, s) -> tuple:
        s = Fraction(s)
        if not (0 < s < 1):
            raise ConfigError("interpolation parameter s must lie in (0, 1)")
        rp1 = (self.rp - (1 - s)) / s
        rq1 = self.rq / s
        rr1 = (self.rr - (1 - s)) / s
        if not (rp1 >= rq1 >= rr1):
            raise OrderingError("mapped triple is not ordered at this s; stay in [s_lo, s_hi]")
        return (_as_exponent(rp1), _as_exponent(rq1), _as_exponent(rr1))

    @property
    def midpoint(self) -> Fraction:
        return (self.s_lo + self.s_hi) / 2


def interpolation_window(p, q, r) -> InterpolationWindow:
    """For q > r > p: s in [1/q + 1/p', 1/q + 1/r'] gives ordered mapped triples."""
    rp, rq, rr = _recip(p), _recip(q), _recip(r)
    if not (rq < rr < rp):
        raise OrderingError("interpolation_window requires q > r > p")
    s_lo = rq + (1 - rp)
    s_hi = rq + (1 - rr)
    if not (0 < s_lo <= s_hi < 1):
        raise ConfigError("degenerate interpolation window")
    return InterpolationWindow(s_lo=s_lo, s_hi=s_hi, rp=rp, rq=rq, rr=rr)


# --------------------------------------------------------------------------
# Empirical region estimation
# --------------------------------------------------------------------------

def default_h_rule(d1: float, d2: float) -> float:
    """Lattice edge resolving the thin commutator direction of depth-2 models
    (smallest ball scale ~ d1 * d2).  Keeping h proportional to that scale
    keeps the covering inflation factor stable along radius sweeps."""
    return max(min(2.0 * d1 * d2, min(d1, d2) / 4.0), 2.0 ** -14)


def default_windows() -> list:
    return [
        ComparabilityWindow(theta=th, bigA=a)
        for th in (0.5, 0.75, 1.0)
        for a in (1.0, 2.0)
    ]


def default_z_samples(model: ModelFamily) -> list:
    """Center plus two interior offsets; translation-invariant models make the
    z-dependence trivial, and the estimator asserts rather than assumes that."""
    d = model.d
    z1 = [0.15] + [0.05] * (d - 1) + [0.0]
    z2 = [-0.2] + [-0.1] * (d - 1) + [0.05]
    return [tuple([0.0] * (d + 1)), tuple(z1), tuple(z2)]


@dataclass
class RatioSequence:
    """Volumes along one weakly comparable radius path.

    The path is (d1, d2) = (C1 g^e1, C2 g^e2) for the sweep variable g; for
    polynomial models the true volume rate d log2 vol / d log2 g lies on the
    lattice {i e1 + j e2 : integers i, j}, which ``fit_rate`` exploits.
    """

    window: ComparabilityWindow
    orientation: int  # 0: (g, A g^theta), 1: swapped
    e1: float
    e2: float
    sweep: list = field(default_factory=list)
    delta1: list = field(default_factory=list)
    delta2: list = field(default_factory=list)
    volumes: list = field(default_factory=list)
    raw_rate: float = math.nan
    snapped: bool = False

    def fit_rate(self) -> float:
        """Least-squares volume rate, snapped to the nearest lattice rate when
        it lies within min(SNAP_TOL_CAP, 0.45 x the lattice spacing there)."""
        g = np.log2(np.asarray(self.sweep))
        v = np.log2(np.asarray(self.volumes))
        rate = float(np.polyfit(g, v, 1)[0])
        self.raw_rate = rate
        cand = sorted(
            {i * self.e1 + j * self.e2 for i in range(0, 13) for j in range(0, 13)}
        )
        nearest = min(cand, key=lambda c: abs(c - rate))
        gaps = [abs(c - nearest) for c in cand if abs(c - nearest) > 1e-12]
        spacing = min(gaps) if gaps else 1.0
        tol = min(SNAP_TOL_CAP, 0.45 * spacing)
        if abs(nearest - rate) <= tol:
            self.snapped = True
            return float(nearest)
        return rate


@dataclass
class RegionEstimate:
    """Lower-envelope data for |B| / (d1^c1 d2^c2) over a (c1, c2) lattice."""

    c1_values: np.ndarray
    c2_values: np.ndarray
    infimum: np.ndarray          # (n1, n2)
    worst_rate: np.ndarray       # (n1, n2) decay bits per halving, worst window
    classification: np.ndarray   # (n1, n2) of {"inside","outside","inconclusive"}
    edge: np.ndarray             # (n1, n2) bool: inside nodes touching non-inside
    sequences: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    jobs: list = field(default_factory=list)  # one record per reach_balls job, for the metadata sidecar

    def node_index(self, c1: float, c2: float) -> tuple:
        i = int(np.argmin(np.abs(self.c1_values - c1)))
        j = int(np.argmin(np.abs(self.c2_values - c2)))
        return i, j

    def label_at(self, c1: float, c2: float) -> str:
        i, j = self.node_index(c1, c2)
        base = self.classification[i, j]
        if base == "inside" and self.edge[i, j]:
            return "edge"
        return str(base)

    def to_rows(self) -> list:
        rows = []
        for i, c1 in enumerate(self.c1_values):
            for j, c2 in enumerate(self.c2_values):
                rows.append(
                    {
                        "c1": float(c1),
                        "c2": float(c2),
                        "infimum": float(self.infimum[i, j]),
                        "worst_rate": float(self.worst_rate[i, j]),
                        "label": self.label_at(c1, c2),
                    }
                )
        return rows


def _region_sequences(windows, delta_grid) -> list:
    """Radius paths along window edges, one RatioSequence skeleton each.

    A path keeps the grid points whose companion radius A g^theta stays under
    DELTA_CAP, so it obeys a single power law; where the cap binds at every
    grid point, it becomes a fixed-companion sweep (exponent 0).
    """
    gs = sorted(delta_grid, reverse=True)
    seqs = []
    for w in windows:
        pts = [(g, w.bigA * g ** w.theta) for g in gs]
        pts = [(g, other) for g, other in pts if other <= DELTA_CAP + 1e-12]
        exps = (1.0, w.theta)
        if not pts:
            pts, exps = [(g, DELTA_CAP) for g in gs], (1.0, 0.0)
        for o in (0, 1):
            seq = RatioSequence(window=w, orientation=o, e1=exps[o], e2=exps[1 - o])
            for g, other in pts:
                d1, d2 = (g, other) if o == 0 else (other, g)
                if w.contains(d1, d2):
                    seq.sweep.append(g)
                    seq.delta1.append(d1)
                    seq.delta2.append(d2)
            if len(seq.sweep) >= 2:
                seqs.append(seq)
    return seqs


def estimate_region(
    model: ModelFamily,
    windows=None,
    delta_grid=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
    z_samples=None,
    c1_grid=None,
    c2_grid=None,
    pool_map=map,
) -> RegionEstimate:
    """Estimate the admissible (c1, c2) region from ball volumes.

    For each window and orientation the radii follow the window edge
    (d2 = A d1^theta and mirrored); per node the classification is by the worst
    decay rate of |B| / (d1^c1 d2^c2) over all radius paths:

        outside       worst rate >= OUTSIDE_RATE (bits per halving of sweep)
        inside        worst rate <= INSIDE_RATE and the infimum is positive
        inconclusive  anything else, or resolution-limited volumes (some
                      ball job has fewer than MIN_BALL_CELLS cells)

    Each ball runs on the lattice edge h = default_h_rule(d1, d2), and the
    volume at a radius pair is the minimum over ``z_samples``.  The fitted
    volume rates are snapped to the integer-weight lattice of polynomial
    models (``RatioSequence.fit_rate``), which removes the small
    covering-inflation drift of the raw fits.  Each unique ball (z, d1, d2,
    h) runs once: the unique z-samples of one (d1, d2, h) go to
    ``reach_balls`` as one job (centres, d1, d2, h), through
    ``pool_map(fn, jobs)``: the builtin ``map`` by default, or a pooled map
    with the same result order.  ``jobs`` records each job's radii, h,
    rounds, cells per centre and seconds, for the sidecar only.
    """
    if windows is None:
        windows = default_windows()
    if z_samples is None:
        z_samples = default_z_samples(model)
    if c1_grid is None:
        c1_grid = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    if c2_grid is None:
        c2_grid = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    c1_grid = np.asarray(c1_grid, dtype=float)
    c2_grid = np.asarray(c2_grid, dtype=float)
    if not (c1_grid.size and c2_grid.size):
        raise ConfigError("c1_grid and c2_grid need at least one node each")

    sequences = _region_sequences(windows, delta_grid)
    zkeys = [tuple(as_zarray(z, model.dim_z).tolist()) for z in z_samples]
    centres = list(dict.fromkeys(zkeys))
    radii = dict.fromkeys(
        (d1, d2, default_h_rule(d1, d2)) for seq in sequences for d1, d2 in zip(seq.delta1, seq.delta2)
    )
    jobs = [(tuple(centres), *r) for r in radii]

    def run(job):
        start = time.perf_counter()
        balls = reach_balls(model, *job)
        return [(ball.volume, ball.cells.n_cells) for ball in balls], balls[0].rounds, time.perf_counter() - start

    results, job_records = {}, []
    for (zs, d1, d2, h), (vols, rounds, seconds) in zip(jobs, pool_map(run, jobs)):
        results.update(((zk, d1, d2, h), v) for zk, v in zip(zs, vols))
        job_records.append({"delta1": d1, "delta2": d2, "h": h, "rounds": rounds, "cells": [n for _, n in vols],
                            "seconds": seconds})
    resolution_limited = False
    z_spread_ok = True
    for seq in sequences:
        for d1, d2 in zip(seq.delta1, seq.delta2):
            vols = [results[zk, d1, d2, default_h_rule(d1, d2)] for zk in zkeys]
            if any(n < MIN_BALL_CELLS for _, n in vols):
                resolution_limited = True
            vals = [v for v, _ in vols]
            if max(vals) > 2.0 * min(vals):
                z_spread_ok = False
            seq.volumes.append(min(vals))

    c1, c2 = c1_grid[:, None], c2_grid[None, :]
    infimum = np.full((len(c1_grid), len(c2_grid)), np.inf)
    worst = np.full_like(infimum, -np.inf)
    for seq in sequences:
        d1s, d2s, vols = (np.asarray(v)[:, None, None] for v in (seq.delta1, seq.delta2, seq.volumes))
        # decay rate of the node ratio along this path is linear in (c1, c2)
        np.maximum(worst, seq.fit_rate() - (c1 * seq.e1 + c2 * seq.e2), out=worst)
        np.minimum(infimum, (vols / (d1s ** c1 * d2s ** c2)).min(axis=0), out=infimum)

    # INSIDE_RATE < OUTSIDE_RATE, so no inside node is outside
    inside = (worst <= INSIDE_RATE) & (infimum > 0) & (not resolution_limited)
    classification = np.where(
        worst >= OUTSIDE_RATE, "outside", np.where(inside, "inside", "inconclusive")
    ).astype(object)
    # an inside node is an edge node when some in-grid 3x3 neighbour is not inside
    padded = np.pad(inside, 1, constant_values=True)
    edge = inside & ~sliding_window_view(padded, (3, 3)).all(axis=(2, 3))
    return RegionEstimate(
        c1_values=c1_grid,
        c2_values=c2_grid,
        infimum=infimum,
        worst_rate=worst,
        classification=classification,
        edge=edge,
        sequences=sequences,
        meta={
            "windows": [(w.theta, w.bigA) for w in windows],
            "delta_grid": sorted(delta_grid, reverse=True),
            "z_samples": [list(z) for z in z_samples],
            "inside_rate": INSIDE_RATE,
            "outside_rate": OUTSIDE_RATE,
            "raw_rates": [
                {
                    "theta": s.window.theta,
                    "A": s.window.bigA,
                    "orientation": s.orientation,
                    "raw_rate": s.raw_rate,
                    "snapped": s.snapped,
                }
                for s in sequences
            ],
            "resolution_limited": resolution_limited,
            "z_spread_ok": z_spread_ok,
        },
        jobs=job_records,
    )


def classify_triple(triple, region: RegionEstimate, margin: float = DEFAULT_MARGIN) -> str:
    """Classify a (p, q, r) triple against an estimated region.

    interior: the mapped (c1, c2) node and every lattice node within the margin
    ball classify inside; boundary: the node is inside but the margin ball is
    not; outside / inconclusive follow the node's own label.  OrderingError
    unless p <= q <= r and r > p, before the region is read.
    """
    rp, rq, rr = (_recip(e) for e in triple)
    p, q, r = (_as_exponent(e) for e in (rp, rq, rr))
    if not rp >= rq >= rr:
        raise OrderingError(
            f"triple (p, q, r) = ({p}, {q}, {r}) violates p <= q <= r; "
            "for q > r use the interpolation analysis (interpolation_window)"
        )
    if rp == rr:
        raise OrderingError(f"triple (p, q, r) = ({p}, {q}, {r}) requires r > p")
    c1, c2 = c_from_pqr(*triple).as_floats()
    i0, j0 = region.node_index(c1, c2)
    node = region.classification[i0, j0]
    if node == "outside":
        return "outside"
    if node == "inconclusive":
        return "inconclusive"
    tol = margin + 1e-9
    ball = (np.abs(region.c1_values - c1) <= tol)[:, None] & (np.abs(region.c2_values - c2) <= tol)
    return "interior" if np.all(region.classification[ball] == "inside") else "boundary"
