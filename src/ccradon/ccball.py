"""Two-parameter Carnot-Caratheodory balls as lattice reachable sets.

A ball B(z0, d1, d2) is the set of points reachable from z0 in unit time along
a1 V1 + a2 V2 with |a1| <= d1, |a2| <= d2.  ``reach_ball`` computes a cell
estimate by a breadth-first fixpoint driven by the nine extreme control pairs;
``mc_ball`` is its independent Monte Carlo oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, ConfigError, ResolutionError
from .geometry import ModelFamily, as_zarray, rk4_many
from .lattice import LatticeSet, decode_keys, encode_cells, points_to_cells
from .mixednorm import conjugate, mixed_norm_indicator

MAX_RADIUS = 0.75
MC_CONTROL_PIECES = 8  # random controls are piecewise constant on this many pieces
ROUND_CHUNK = 8192  # active points a reach_ball round steps and keys together
JOB_SHIFT = 60  # encode_cells keys fit in 60 bits; a batched fixpoint keeps its job index above them
MAX_BATCH = 1 << (63 - JOB_SHIFT)  # centres per fixpoint: job bits 60-62 keep int64 keys positive
MIN_PROJ_CELLS = 10  # lemma_balls_report refuses ratios of projections with fewer cells


@dataclass(frozen=True)
class ComparabilityWindow:
    """(theta, A)-weak comparability: d1 <= A d2^theta and d2 <= A d1^theta."""

    theta: float
    bigA: float

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ConfigError("theta must lie in (0, 1]")
        if not (self.bigA >= 1.0):
            raise ConfigError("A must be >= 1")

    def contains(self, d1: float, d2: float) -> bool:
        return d1 <= self.bigA * d2 ** self.theta and d2 <= self.bigA * d1 ** self.theta


@dataclass
class BallEstimate:
    """A computed ball: cells, volume, projections, Pi-extent, slab profile."""

    model_name: str
    center: tuple
    delta1: float
    delta2: float
    h: float
    tau: float
    rounds: int
    cells: LatticeSet
    volume: float
    proj1: LatticeSet
    proj2: LatticeSet
    pi_cols: np.ndarray  # occupied Pi columns, sorted
    pi_extent: float
    c_geom: float
    slab_values: np.ndarray  # measure of the ball in each column of pi_cols
    truncated: bool
    # per-round diagnostics of the fixpoint, one entry per round run
    active_per_round: np.ndarray  # representatives kept after the dedup
    new_cells_per_round: np.ndarray  # cells added to the ball; their sum + 1 is n_cells
    dropped_per_round: np.ndarray  # pool points outside the chart domain

    def to_report(self) -> dict:
        return {
            "model": self.model_name,
            "center": list(self.center),
            "delta1": self.delta1,
            "delta2": self.delta2,
            "h": self.h,
            "tau": self.tau,
            "rounds": self.rounds,
            "n_cells": self.cells.n_cells,
            "volume": self.volume,
            "proj1": self.proj1.measure,
            "proj2": self.proj2.measure,
            "pi_extent": self.pi_extent,
            "c_geom": self.c_geom,
            "truncated": self.truncated,
        }

    def diagnostics(self) -> dict:
        """Per-round counts of the fixpoint, for the metadata sidecar."""
        return {
            "rounds_run": int(self.active_per_round.shape[0]),
            "active_per_round": self.active_per_round.tolist(),
            "new_cells_per_round": self.new_cells_per_round.tolist(),
            "dropped_per_round": self.dropped_per_round.tolist(),
        }


def default_tau(d1: float, d2: float, h: float) -> float:
    """Round length: at most one t-cell per stride of the fastest extreme
    control (no skipped cells), and at least 32 rounds of control switching so
    path diversity does not depend on the radius shape."""
    return min(1.0 / 32.0, max(h / (d1 + d2), 1.0 / 4096.0))


def _check_radii(d1: float, d2: float, h: float):
    if not (0.0 < d1 <= MAX_RADIUS and 0.0 < d2 <= MAX_RADIUS):
        raise ConfigError(f"radii must lie in (0, {MAX_RADIUS}]")
    if h > min(d1, d2) / 4.0 + 1e-15:
        raise ResolutionError(
            f"h={h:g} too coarse for radii ({d1:g}, {d2:g}); need h <= min/4"
        )


def pi2_cells(model: ModelFamily, cells: np.ndarray, h: float) -> np.ndarray:
    """pi2 image of Z-cells as Y-cells.  The first coordinate is exact integer
    arithmetic (the cell center maps to x1 + t = (i + j) h since gamma_1 = t);
    remaining coordinates are rounded from cell-center evaluations."""
    d = model.d
    ycells = np.empty((cells.shape[0], d), dtype=np.int64)
    ycells[:, 0] = cells[:, 0] + cells[:, d]
    if d > 1:
        gam = model.gamma(cells[:, d] * h)[:, 1:]
        ycells[:, 1:] = points_to_cells(cells[:, 1:d] * h + gam, h)
    return ycells


def _ball_from_cells(model: ModelFamily, name, z0, d1, d2, h, tau, rounds, keys, stats) -> BallEstimate:
    """``stats`` holds (active, new cells, dropped) for each round run."""
    d = model.d
    cells = decode_keys(keys, d + 1)
    zset = LatticeSet(h, cells, _sorted=True)
    volume = zset.measure
    proj1 = zset.project(range(d))
    ycells = pi2_cells(model, cells, h)
    proj2 = LatticeSet(h, ycells)
    pi_cols, counts = np.unique(ycells[:, 0], return_counts=True)
    pi_extent = pi_cols.shape[0] * h
    slab_values = counts * h ** d
    return BallEstimate(
        model_name=name,
        center=tuple(np.asarray(z0, dtype=float).tolist()),
        delta1=d1,
        delta2=d2,
        h=h,
        tau=tau,
        rounds=rounds,
        cells=zset,
        volume=volume,
        proj1=proj1,
        proj2=proj2,
        pi_cols=pi_cols,
        pi_extent=pi_extent,
        c_geom=pi_extent / d1,
        slab_values=slab_values,
        truncated=bool(stats[:, 2].any()),
        active_per_round=stats[:, 0],
        new_cells_per_round=stats[:, 1],
        dropped_per_round=stats[:, 2],
    )


def _farthest_per_key(keys: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Index of one point per distinct key: the largest ``dist``, and on exact
    ties the lowest index.  Indices come out in ascending key order.

    This is the first-of-group rule of ``np.lexsort((-dist, keys))``, from one
    stable key sort and a per-group max.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_key = np.empty(order.shape[0], dtype=bool)
    new_key[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_key[1:])
    starts = np.flatnonzero(new_key)
    sorted_dist = dist[order]
    group_max = np.maximum.reduceat(sorted_dist, starts)
    hits = np.flatnonzero(sorted_dist == np.repeat(group_max, np.diff(starts, append=order.shape[0])))
    # every group holds a hit, so its first hit is the first one at or after its start
    return order[hits[np.searchsorted(hits, starts)]]


def _expand(model: ModelFamily, active: np.ndarray, job: np.ndarray, a1, a2, tau: float, z0s: np.ndarray,
            h_rep: float) -> tuple:
    """One round's candidate pool: every active point stepped under every control.

    ``job`` is each active point's column of ``z0s``, the batch's centres,
    in ascending order.
    Returns the pool as column storage (d+1, m n), control-major, with each
    point's refined-cell key (its job index in bits ``JOB_SHIFT`` and up),
    squared distance to its centre and chart mask.  The work runs on chunks
    of ``ROUND_CHUNK`` active points so that temporaries stay cache-sized;
    points outside the chart are keyed at their centre, and the caller drops
    them.
    """
    dim, m, n = model.dim_z, a1.shape[0], active.shape[1]
    pool = np.empty((dim, m, n))
    keys = np.empty((m, n), dtype=np.int64)
    dist = np.zeros((m, n))
    inside = np.empty((m, n), dtype=bool)
    for lo in range(0, n, ROUND_CHUNK):
        cols = slice(lo, lo + ROUND_CHUNK)
        block = rk4_many(model, active[:, cols], a1, a2, tau)
        pool[:, :, cols] = block
        jobs = job[cols]
        # actives are stored job by job, so most chunks subtract one centre column
        centres = z0s.take(jobs[:1] if jobs[0] == jobs[-1] else jobs, axis=1)
        ok = model.contains(block)
        inside[:, cols] = ok
        if not ok.all():
            block = np.where(ok, block, centres[:, None, :])
        keys[:, cols] = encode_cells(points_to_cells(block, h_rep).reshape(dim, -1).T).reshape(m, -1)
        keys[:, cols] |= jobs << JOB_SHIFT
        # summed left to right, as np.sum over a row of coordinates does
        for coord, c0 in zip(block, centres):
            dx = coord - c0
            dist[:, cols] += dx * dx
    return pool.reshape(dim, -1), keys.ravel(), dist.ravel(), inside.ravel()


def reach_balls(model: ModelFamily, centers, delta1: float, delta2: float, h: float) -> list:
    """Breadth-first reachable-cell fixpoints under the nine extreme controls,
    one ``BallEstimate`` per centre, in the order of ``centers``.

    Unit time is split into ``ceil(1 / default_tau(delta1, delta2, h))``
    rounds of equal length.  The active population carries exact trajectory
    points, deduplicated each round on a refined sub-lattice: coarse pruning
    systematically hijacks advancing fronts with slow interior points, so the
    dedup resolution tracks the per-round stride (clamped to [h/4, h/2]).
    Cells leaving the chart are dropped and flagged, never clamped.

    Each round steps every active point under the nine controls into one
    column-storage pool, (d+1, 9n), control-major; pool order breaks
    distance ties in the dedup (see ``_expand`` and ``_farthest_per_key``).
    Centres share the rounds and controls, so up to ``MAX_BATCH`` of them run
    as one fixpoint over their concatenated actives, each key carrying its
    job index above the cell bits.  Every dedup group and visited cell then
    belongs to one job, and each job keeps its own pool order, so every ball
    equals its one-centre run bit for bit.
    """
    _check_radii(delta1, delta2, h)
    z0s = np.array([as_zarray(z, model.dim_z) for z in centers]).reshape(-1, model.dim_z).T
    for z0 in z0s.T:
        if not model.contains(z0):
            raise ChartDomainError(f"ball center {z0.tolist()} outside chart domain")
    rounds = math.ceil(1.0 / default_tau(delta1, delta2, h) - 1e-12)
    tau = 1.0 / rounds
    a1 = np.repeat([-delta1, 0.0, delta1], 3)[:, None]
    a2 = np.tile([-delta2, 0.0, delta2], 3)[:, None]
    stride = (delta1 + delta2) * tau
    h_rep = min(max(stride, h / 4.0), h / 2.0)

    balls = []
    for lo in range(0, z0s.shape[1], MAX_BATCH):
        batch = z0s[:, lo:lo + MAX_BATCH]
        n_jobs = batch.shape[1]
        job = np.arange(n_jobs, dtype=np.int64)
        visited = encode_cells(points_to_cells(batch, h).T) | (job << JOB_SHIFT)
        active = batch.copy()
        stats = []  # (active, new cells, dropped) per round, each counted per job
        for _ in range(rounds):
            pool, rep_keys, dist, inside = _expand(model, active, job, a1, a2, tau, batch, h_rep)
            # One representative per refined cell, preferring the point farthest
            # from its centre: slow interior landings must not hijack the fronts.
            # Control (0, 0) maps each point to itself, so every job keeps a point.
            if inside.all():
                dropped, pick = np.zeros(n_jobs, dtype=np.int64), _farthest_per_key(rep_keys, dist)
            else:
                dropped = np.bincount(rep_keys[~inside] >> JOB_SHIFT, minlength=n_jobs)
                kept = np.flatnonzero(inside)
                pick = kept[_farthest_per_key(rep_keys[kept], dist[kept])]
            job = rep_keys[pick] >> JOB_SHIFT
            active = pool[:, pick]
            del pool, rep_keys, dist, inside
            # look the cell keys up in visited and merge in only the new ones
            keys = encode_cells(points_to_cells(active, h).T) | (job << JOB_SHIFT)
            fresh = np.unique(keys[visited.take(np.searchsorted(visited, keys), mode="clip") != keys])
            visited = np.sort(np.concatenate((visited, fresh)), kind="stable")  # a merge of two sorted runs
            new_cells = np.bincount(fresh >> JOB_SHIFT, minlength=n_jobs)
            stats.append((np.bincount(job, minlength=n_jobs), new_cells, dropped))
        stats = np.array(stats, dtype=np.int64)
        ends = np.searchsorted(visited, np.arange(1, n_jobs, dtype=np.int64) << JOB_SHIFT).tolist() + [visited.size]
        for j, (start, end) in enumerate(zip([0] + ends, ends)):
            balls.append(_ball_from_cells(model, model.name, batch[:, j], delta1, delta2, h, tau, rounds,
                                          visited[start:end] - (j << JOB_SHIFT), stats[:, :, j]))
    return balls


def reach_ball(model: ModelFamily, z0, delta1: float, delta2: float, h: float) -> BallEstimate:
    """The ball B(z0, delta1, delta2) on lattice edge ``h``: the one-centre
    case of ``reach_balls``."""
    return reach_balls(model, [z0], delta1, delta2, h)[0]


@dataclass
class McBall:
    """Monte Carlo ball estimate: endpoint cloud plus occupied-cell volume."""

    endpoints: np.ndarray
    cells: LatticeSet
    volume: float
    n_paths: int
    n_escaped: int


def _integrate_paths(model: ModelFamily, z0: np.ndarray, controls: np.ndarray) -> tuple:
    """Integrate piecewise-constant control paths; returns (endpoints, alive mask).

    ``controls`` is (paths, pieces, 2); total time is 1, one RK4 step per
    piece (exact while gamma has degree <= 4).  Paths leaving the chart are
    dropped (once out, always out).
    """
    n_paths, pieces, _ = controls.shape
    dt = 1.0 / pieces
    pts = np.tile(z0[:, None], (1, n_paths))
    alive = np.ones(n_paths, dtype=bool)
    for k in range(pieces):
        pts = rk4_many(model, pts, controls[:, k, 0], controls[:, k, 1], dt)[:, 0]
        alive &= model.contains(pts)
    return pts.T, alive


def mc_ball(model: ModelFamily, z0, delta1: float, delta2: float, paths: int, seed: int = 0, h: float | None = None) -> McBall:
    """Random-control oracle for reach_ball.

    Controls are piecewise constant on MC_CONTROL_PIECES intervals, sampled
    uniformly from the product box.  Endpoints are binned into cells of edge
    ``h`` (default min(d1,d2)/8).
    """
    if paths < 1000:
        raise ConfigError("mc_ball requires paths >= 1000")
    if h is None:
        h = min(delta1, delta2) / 8.0
    _check_radii(delta1, delta2, h)
    z0 = as_zarray(z0, model.dim_z)
    rng = np.random.default_rng(seed)
    controls = rng.uniform(-1.0, 1.0, size=(paths, MC_CONTROL_PIECES, 2))
    controls[:, :, 0] *= delta1
    controls[:, :, 1] *= delta2
    pts, alive = _integrate_paths(model, z0, controls)
    endpoints = pts[alive]
    cells = LatticeSet.from_points(endpoints, h) if endpoints.size else LatticeSet.empty(h, model.dim_z)
    return McBall(
        endpoints=endpoints,
        cells=cells,
        volume=cells.measure,
        n_paths=paths,
        n_escaped=int((~alive).sum()),
    )


def slab_profile(ball: BallEstimate) -> list:
    """Pairs (t, f(t)): d-dimensional measure of the ball in each Pi-slab of width h."""
    ts = (ball.pi_cols + 0.5) * ball.h
    return list(zip(ts.tolist(), ball.slab_values.tolist()))


def _inv(e: float) -> float:
    return 0.0 if e == math.inf else 1.0 / e


def lemma_balls_report(
    model: ModelFamily,
    z0,
    delta1: float,
    delta2: float,
    q: float,
    r: float,
    h: float,
    p: float | None = None,
    window: ComparabilityWindow | None = None,
    return_balls: bool = False,
):
    """Empirical comparison ratios for the five ball facts.

    (i)   |B(2d1, 2d2)| / |B(d1, d2)|
    (ii)  |B| / (|pi1 B| d1)  and  |B| / (|pi2 B| d2)
    (iii) |Pi(pi2 B)| / d1
    (iv)  ||chi_{pi2 B}||_{q', r'} / (|B|^{1-1/r} d1^{1/r-1/q} d2^{1/r-1})
    (v)   [|B| / (|pi1 B|^{1/p} ||chi_{pi2 B}||_{q',r'})] /
          [|B|^{1/r-1/p} d1^{1/p+1/q-1/r} d2^{1-1/r}]

    ``p`` enters only ratio (v); it defaults to q.
    """
    if window is not None and not window.contains(delta1, delta2):
        raise ConfigError("radii are not weakly comparable for the window under test")
    if p is None:
        p = q
    b1 = reach_ball(model, z0, delta1, delta2, h)
    b2 = reach_ball(model, z0, 2.0 * delta1, 2.0 * delta2, h)
    for name, proj in (("proj1", b1.proj1), ("proj2", b1.proj2)):
        if proj.n_cells < MIN_PROJ_CELLS:
            raise ResolutionError(
                f"{name} of the ball has {proj.n_cells} cells (< MIN_PROJ_CELLS = {MIN_PROJ_CELLS}); refine h"
            )
    iq, ir, ip = _inv(q), _inv(r), _inv(p)
    qc, rc = conjugate(q), conjugate(r)
    norm = mixed_norm_indicator(b1.proj2, qc, rc)
    ratio_i = b2.volume / b1.volume
    ratio_ii_1 = b1.volume / (b1.proj1.measure * delta1)
    ratio_ii_2 = b1.volume / (b1.proj2.measure * delta2)
    ratio_iii = b1.pi_extent / delta1
    rhs_iv = b1.volume ** (1.0 - ir) * delta1 ** (ir - iq) * delta2 ** (ir - 1.0)
    ratio_iv = norm / rhs_iv
    lhs_v = b1.volume / (b1.proj1.measure ** ip * norm)
    rhs_v = b1.volume ** (ir - ip) * delta1 ** (ip + iq - ir) * delta2 ** (1.0 - ir)
    ratio_v = lhs_v / rhs_v
    report = {
        "delta1": delta1,
        "delta2": delta2,
        "h": h,
        "p": p,
        "q": q,
        "r": r,
        "volume": b1.volume,
        "volume_doubled": b2.volume,
        "proj1": b1.proj1.measure,
        "proj2": b1.proj2.measure,
        "pi_extent": b1.pi_extent,
        "norm_q_r_conj": norm,
        "truncated": b1.truncated or b2.truncated,
        "ratios": {
            "i": ratio_i,
            "ii_1": ratio_ii_1,
            "ii_2": ratio_ii_2,
            "iii": ratio_iii,
            "iv": ratio_iv,
            "v": ratio_v,
        },
    }
    if return_balls:
        return report, b1, b2
    return report
