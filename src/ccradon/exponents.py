"""Exponent arithmetic and empirical admissible-region estimation.

Conversions between Lebesgue triples (p, q, r) and ball-volume exponents
(c1, c2) are exact rational arithmetic on reciprocals (infinity maps to
reciprocal zero).  The region estimator classifies (c1, c2) nodes by the decay
trend of |B(z, d1, d2)| / (d1^c1 d2^c2) along weakly comparable radius paths:
decay rates are scale-free, unlike lattice volume constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .ccball import MAX_BATCH, ComparabilityWindow, reach_balls
from .ccball import reach_ball  # noqa: F401  perfbench's tracer wraps this module's reach_ball by name
from .errors import ConfigError, DegenerateError, OrderingError
from .geometry import ModelFamily, as_zarray

INF = math.inf

# Trend thresholds, in bits of ratio decay per halving of delta1.
INSIDE_RATE = 0.1
OUTSIDE_RATE = 0.6
DEFAULT_MARGIN = 0.1
MIN_BALL_CELLS = 10  # fewer cells in any ball job marks the region resolution-limited
SNAP_TOL_CAP = 0.2  # largest |fitted - lattice| rate that still snaps


def _recip(value) -> Fraction:
    """Reciprocal of an exponent in [1, inf] as an exact Fraction (inf -> 0)."""
    if value == INF:
        return Fraction(0)
    if isinstance(value, str):
        value = Fraction(value)
    frac = Fraction(value)
    if frac < 1:
        raise ConfigError(f"exponent must lie in [1, inf], got {value}")
    return 1 / frac


def _as_exponent(recip: Fraction):
    return INF if recip == 0 else 1 / recip


@dataclass(frozen=True)
class BallExponents:
    """Ball-volume exponents (c1, c2), exact rationals."""

    c1: Fraction
    c2: Fraction

    def as_floats(self) -> tuple:
        return float(self.c1), float(self.c2)


@dataclass(frozen=True)
class ExponentTriple:
    """A triple (p, q, r) of exponents in [1, inf], stored as reciprocals."""

    rp: Fraction
    rq: Fraction
    rr: Fraction

    @classmethod
    def make(cls, p, q, r) -> "ExponentTriple":
        return cls(_recip(p), _recip(q), _recip(r))

    @property
    def p(self):
        return _as_exponent(self.rp)

    @property
    def q(self):
        return _as_exponent(self.rq)

    @property
    def r(self):
        return _as_exponent(self.rr)

    @property
    def ordered(self) -> bool:
        """Candidacy ordering p <= q <= r (reciprocals reversed)."""
        return self.rp >= self.rq >= self.rr

    def require_ordered(self):
        if not self.ordered:
            raise OrderingError(
                f"triple (p, q, r) = ({self.p}, {self.q}, {self.r}) violates p <= q <= r; "
                "for q > r use the interpolation analysis (interpolation_window)"
            )


def c_from_pq(p, q) -> BallExponents:
    """(c1, c2) = (1/p, 1 - 1/q) / (1/p - 1/q); requires q > p."""
    rp, rq = _recip(p), _recip(q)
    den = rp - rq
    if den <= 0:
        raise DegenerateError("c_from_pq requires q > p")
    return BallExponents(c1=rp / den, c2=(1 - rq) / den)


def c_from_pqr(p, q, r) -> BallExponents:
    """(c1, c2) = (1/p + 1/q - 1/r, 1 - 1/r) / (1/p - 1/r); requires r > p."""
    rp, rq, rr = _recip(p), _recip(q), _recip(r)
    den = rp - rr
    if den <= 0:
        raise DegenerateError("c_from_pqr requires r > p")
    return BallExponents(c1=(rp + rq - rr) / den, c2=(1 - rr) / den)


def gammas(p, q, r) -> tuple:
    """(g1, g2, g3) = (1/p, 1 - 1/r, 1/q - 1/r) / (1/p - 1/r); requires r > p."""
    rp, rq, rr = _recip(p), _recip(q), _recip(r)
    den = rp - rr
    if den <= 0:
        raise DegenerateError("gammas requires r > p")
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


def _region_sequences(windows, delta_grid, delta_cap=0.25) -> list:
    """Radius paths along window edges, one RatioSequence skeleton each.

    Where the radius cap binds for every grid point, the path degenerates to a
    fixed-companion sweep (exponent 0); mixed capped/uncapped points are
    trimmed to the uncapped part so every path obeys a single power law.
    """
    seqs = []
    for w in windows:
        for orientation in (0, 1):
            gs = sorted(delta_grid, reverse=True)
            raw = [(g, w.bigA * g ** w.theta) for g in gs]
            capped = [other > delta_cap + 1e-12 for _, other in raw]
            if all(capped):
                pts = [(g, delta_cap) for g in gs]
                exps = (1.0, 0.0)
            elif any(capped):
                pts = [(g, other) for (g, other), c in zip(raw, capped) if not c]
                exps = (1.0, w.theta)
            else:
                pts = raw
                exps = (1.0, w.theta)
            if len(pts) < 2:
                continue
            if orientation == 1:
                pts = [(other, g) for g, other in pts]
                exps = (exps[1], exps[0])
            seq = RatioSequence(window=w, orientation=orientation, e1=exps[0], e2=exps[1])
            for (d1, d2), g in zip(pts, [p[0] if orientation == 0 else p[1] for p in pts]):
                if not w.contains(d1, d2):
                    continue
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
    ``reach_balls`` as jobs (centres, d1, d2, h) of at most ``MAX_BATCH``
    centres, each one fixpoint, through ``pool_map(fn, jobs)``: the builtin
    ``map`` by default, or a pooled map with the same result order.
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

    sequences = _region_sequences(windows, delta_grid)
    zkeys = [tuple(as_zarray(z, model.dim_z).tolist()) for z in z_samples]
    centres = list(dict.fromkeys(zkeys))
    radii = dict.fromkeys(
        (d1, d2, default_h_rule(d1, d2)) for seq in sequences for d1, d2 in zip(seq.delta1, seq.delta2)
    )
    # one job per radius triple and batch of at most MAX_BATCH unique centres
    jobs = [(tuple(centres[lo:lo + MAX_BATCH]), *r) for r in radii for lo in range(0, len(centres), MAX_BATCH)]

    def run(job):
        return [(ball.volume, ball.cells.n_cells) for ball in reach_balls(model, *job)]

    results = {}
    for (zs, *r), vols in zip(jobs, pool_map(run, jobs)):
        results.update(((zk, *r), v) for zk, v in zip(zs, vols))
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

    n1, n2 = len(c1_grid), len(c2_grid)
    infimum = np.full((n1, n2), np.inf)
    worst = np.full((n1, n2), -np.inf)
    for seq in sequences:
        d1s = np.asarray(seq.delta1)
        d2s = np.asarray(seq.delta2)
        vols = np.asarray(seq.volumes)
        vol_rate = seq.fit_rate()
        # decay rate of the node ratio along this path is linear in (c1, c2)
        rates = vol_rate - (c1_grid[:, None] * seq.e1 + c2_grid[None, :] * seq.e2)
        np.maximum(worst, rates, out=worst)
        for i, c1 in enumerate(c1_grid):
            ratios = vols[:, None] / (d1s[:, None] ** c1 * d2s[:, None] ** c2_grid[None, :])
            infimum[i, :] = np.minimum(infimum[i, :], ratios.min(axis=0))

    classification = np.empty((n1, n2), dtype=object)
    for i in range(n1):
        for j in range(n2):
            rate = worst[i, j]
            if rate >= OUTSIDE_RATE:
                classification[i, j] = "outside"
            elif resolution_limited:
                classification[i, j] = "inconclusive"
            elif rate <= INSIDE_RATE and infimum[i, j] > 0:
                classification[i, j] = "inside"
            else:
                classification[i, j] = "inconclusive"

    edge = np.zeros((n1, n2), dtype=bool)
    for i in range(n1):
        for j in range(n2):
            if classification[i, j] != "inside":
                continue
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < n1 and 0 <= jj < n2 and classification[ii, jj] != "inside":
                        edge[i, j] = True
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
            "snap": True,
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
    )


def classify_triple(triple, region: RegionEstimate, margin: float = DEFAULT_MARGIN) -> str:
    """Classify a (p, q, r) triple against an estimated region.

    interior: the mapped (c1, c2) node and every lattice node within the margin
    ball classify inside; boundary: the node is inside but the margin ball is
    not; outside / inconclusive follow the node's own label.
    """
    if isinstance(triple, ExponentTriple):
        et = triple
    else:
        et = ExponentTriple.make(*triple)
    et.require_ordered()
    ce = c_from_pqr(et.p, et.q, et.r)
    c1, c2 = ce.as_floats()
    i0, j0 = region.node_index(c1, c2)
    node = region.classification[i0, j0]
    if node == "outside":
        return "outside"
    if node == "inconclusive":
        return "inconclusive"
    tol = margin + 1e-9
    ball_inside = True
    for i, cv1 in enumerate(region.c1_values):
        if abs(cv1 - c1) > tol:
            continue
        for j, cv2 in enumerate(region.c2_values):
            if abs(cv2 - c2) > tol:
                continue
            if region.classification[i, j] != "inside":
                ball_inside = False
    return "interior" if ball_inside else "boundary"
