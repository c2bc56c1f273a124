"""Combinatorial decomposition machinery: central sets, minimal dyadic
intervals, strata, interval partitions, incidence statistics, and the dense
ball search.

One-dimensional sets here live on the Pi coordinate u = x1 + t; the fibers of
a superlevel set convert to that coordinate by an exact integer shift, which
is what makes interval bookkeeping against Pi-slabs of Y exact.
All dyadic logic requires h to be a dyadic fraction of 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ccball import pi2_cells, reach_ball
from .errors import ConfigError, DegenerateError
from .geometry import ModelFamily
from .lattice import LatticeSet


def _dyadic_level(h: float) -> int:
    k = round(math.log2(1.0 / h))
    if abs(h - 2.0 ** -k) > 1e-12 * h:
        raise ConfigError("decomposition lattices require dyadic h = 2^-k")
    return k


def _as_bool_line(cells: np.ndarray, level: int) -> np.ndarray:
    """Boolean occupancy over cell indices [-2^level, 2^level)."""
    n = 1 << level
    cells = np.asarray(cells, dtype=np.int64).ravel()
    if cells.size and (cells.min() < -n or cells.max() >= n):
        raise ConfigError("1-D set exceeds [-1, 1]")
    line = np.zeros(2 * n, dtype=np.int64)
    line[cells + n] = 1
    return line


# --------------------------------------------------------------------------
# Central sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralSetSpec:
    width: float
    eps: float
    c_eps: float

    def __post_init__(self):
        if not (self.width > 0 and 0 < self.eps <= 1 and self.c_eps >= 1):
            raise ConfigError("central set spec requires w > 0, eps in (0,1], C_eps >= 1")


@dataclass(frozen=True)
class IntervalWitness:
    lo: float
    hi: float
    mass: float
    bound: float

    @property
    def violates(self) -> bool:
        return self.mass > self.bound + 1e-12


def is_central(cells: np.ndarray, h: float, spec: CentralSetSpec):
    """Concentration test: (i) support within [-C_eps w, C_eps w]; (ii) mass of
    every window (dyadic lengths, all lattice translates) bounded by
    C_eps (|I|/w)^eps |S|.  Returns (bool, worst IntervalWitness)."""
    level = _dyadic_level(h)
    line = _as_bool_line(cells, level)
    total = line.sum() * h
    if total == 0:
        raise DegenerateError("is_central requires a set of positive measure")
    idx = np.flatnonzero(line) - (1 << level)
    support_ok = max(abs(idx.min()), abs(idx.max())) * h <= spec.c_eps * spec.width + 1e-12
    prefix = np.concatenate([[0], np.cumsum(line)])
    worst = None
    for lev in range(level + 1):
        length = 2.0 ** -lev
        b = 1 << (level - lev)
        sums = prefix[b:] - prefix[:-b]
        j = int(np.argmax(sums))
        mass = sums[j] * h
        bound = spec.c_eps * (length / spec.width) ** spec.eps * total
        wit = IntervalWitness(lo=(j - (1 << level)) * h, hi=(j - (1 << level)) * h + length, mass=mass, bound=bound)
        if worst is None or (wit.mass / wit.bound) > (worst.mass / worst.bound):
            worst = wit
    ok = support_ok and not worst.violates
    return ok, worst


# --------------------------------------------------------------------------
# Minimal dyadic interval selection
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicInterval:
    """[index * 2^-level, (index+1) * 2^-level) within [-1, 1]."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0 or not (-(1 << self.level) <= self.index < (1 << self.level)):
            raise ConfigError("dyadic interval outside [-1, 1]")

    @property
    def lo(self) -> float:
        return self.index * 2.0 ** -self.level

    @property
    def hi(self) -> float:
        return (self.index + 1) * 2.0 ** -self.level

    @property
    def length(self) -> float:
        return 2.0 ** -self.level

    def cell_range(self, h: float):
        level = _dyadic_level(h)
        b = 1 << (level - self.level)
        return self.index * b, (self.index + 1) * b


def minimal_dyadic(cells: np.ndarray, h: float, eta: float, c_eta: float) -> DyadicInterval:
    """Shortest dyadic interval with |I cap S| >= c_eta |I|^eta |S|, leftmost
    among ties.  Raises ConfigError when not even a unit root qualifies."""
    if not (0 < eta < 1 and c_eta > 0):
        raise ConfigError("minimal_dyadic requires eta in (0,1), c_eta > 0")
    level = _dyadic_level(h)
    line = _as_bool_line(cells, level)
    total = line.sum() * h
    if total == 0:
        raise DegenerateError("minimal_dyadic requires |S| > 0")
    # precondition: a unit root interval must qualify, otherwise c_eta is too
    # large for the minimality argument to make sense
    roots = line.reshape(2, -1).sum(axis=1) * h
    if not (roots >= c_eta * total - 1e-12).any():
        raise ConfigError("no dyadic interval qualifies at unit level; c_eta too large")
    for lev in range(level, -1, -1):
        b = 1 << (level - lev)
        sums = line.reshape(-1, b).sum(axis=1) * h
        thr = c_eta * (2.0 ** -lev) ** eta * total
        qual = sums >= thr - 1e-12
        if qual.any():
            j = int(np.argmax(qual))
            return DyadicInterval(level=lev, index=j - (1 << lev))
    raise ConfigError("no dyadic interval qualifies; inconsistent parameters")


def interval_mass(cells: np.ndarray, h: float, interval: DyadicInterval) -> float:
    lo, hi = interval.cell_range(h)
    cells = np.asarray(cells, dtype=np.int64).ravel()
    return int(((cells >= lo) & (cells < hi)).sum()) * h


def localization_check(cells: np.ndarray, h: float, interval: DyadicInterval, eta: float, slack_cells: int = 1) -> bool:
    """|J cap S| <= (|J|/|I|)^eta |I cap S| for every dyadic J inside I."""
    level = _dyadic_level(h)
    line = _as_bool_line(cells, level)
    n = 1 << level
    lo, hi = interval.cell_range(h)
    block = line[lo + n: hi + n]
    mass_i = block.sum() * h
    for lev in range(interval.level, level + 1):
        b = 1 << (level - lev)
        sums = block.reshape(-1, b).sum(axis=1) * h
        bound = (2.0 ** -lev / interval.length) ** eta * mass_i + slack_cells * h
        if (sums > bound + 1e-12).any():
            return False
    return True


# --------------------------------------------------------------------------
# Fibers in the Pi coordinate, strata, partition
# --------------------------------------------------------------------------

@dataclass
class PiFibers:
    """Per-x fibers of a superlevel set, shifted to the Pi coordinate u = x1 + t."""

    h: float
    d: int
    beta: float
    x_cells: np.ndarray
    fibers_u: list
    measures: np.ndarray

    @property
    def n(self) -> int:
        return self.x_cells.shape[0]

    def total_pairing(self) -> float:
        return float(self.measures.sum()) * self.h ** self.d


def to_pi_fibers(superlevel) -> PiFibers:
    """Exact integer shift t-cell -> u-cell = x1-cell + t-cell."""
    fibers_u = [
        fiber + int(x[0])
        for fiber, x in zip(superlevel.fibers_t, superlevel.x_cells)
    ]
    return PiFibers(
        h=superlevel.h,
        d=superlevel.x_cells.shape[1] if superlevel.x_cells.size else superlevel.E.dim,
        beta=superlevel.beta,
        x_cells=superlevel.x_cells,
        fibers_u=fibers_u,
        measures=superlevel.fiber_measures,
    )


@dataclass
class Stratum:
    m: int
    k: int
    indices: np.ndarray
    pairing: float
    selected: bool = False


@dataclass
class StratifyResult:
    strata: list
    selected: Stratum
    intervals: list  # DyadicInterval per x (aligned with fibers)
    beta: float
    eta: float
    c_eta: float
    verdicts: dict = field(default_factory=dict)


def stratify(fibs: PiFibers, eta: float, c_eta: float) -> StratifyResult:
    """Assign each x to a stratum by |I(x)| ~ 2^m beta, |I(x) cap F(x)| ~ 2^k
    (floor dyadic rounding) and select the stratum with the largest pairing.

    An empty input yields an empty result (selected is None), not an error.
    """
    if fibs.n == 0:
        return StratifyResult(
            strata=[], selected=None, intervals=[], beta=fibs.beta,
            eta=eta, c_eta=c_eta, verdicts={"empty": True},
        )
    beta = fibs.beta
    intervals = []
    ms = np.empty(fibs.n, dtype=np.int64)
    ks = np.empty(fibs.n, dtype=np.int64)
    for i in range(fibs.n):
        interval = minimal_dyadic(fibs.fibers_u[i], fibs.h, eta, c_eta)
        intervals.append(interval)
        mass = interval_mass(fibs.fibers_u[i], fibs.h, interval)
        ms[i] = math.floor(math.log2(interval.length / beta))
        ks[i] = math.floor(math.log2(mass))
    strata = []
    cell_w = fibs.h ** fibs.d
    for m, k in sorted({(int(a), int(b)) for a, b in zip(ms, ks)}):
        indices = np.flatnonzero((ms == m) & (ks == k))
        pairing = float(fibs.measures[indices].sum()) * cell_w
        strata.append(Stratum(m=m, k=k, indices=indices, pairing=pairing))
    best = max(strata, key=lambda s: s.pairing)
    best.selected = True
    total = fibs.total_pairing()
    count = len(strata)
    # floor rounding halves the nominal lower bounds |I| >= (c_eta beta)^(1/(1-eta))
    # and mass >= c_eta^(1/(1-eta)) beta^(1/(1-eta))
    lo_m_scale = 0.5 * (c_eta * beta) ** (1.0 / (1.0 - eta))
    lo_k = 0.5 * c_eta ** (1.0 / (1.0 - eta)) * beta ** (1.0 / (1.0 - eta))
    verdicts = {
        "partition_exact": abs(sum(s.pairing for s in strata) - total) <= 1e-9 * max(total, 1e-300),
        "selected_ge_average": best.pairing >= total / count - 1e-12,
        "stratum_count": count,
        "count_log2_bound": count <= 4.0 * (math.log2(1.0 / beta) + 2.0) ** 2,
        "count_beta_eta_bound": count <= 16.0 / c_eta * beta ** -eta,
        "m_range_ok": all(lo_m_scale <= 2.0 ** float(s.m) * beta and 2.0 ** float(s.m) <= 2.0 / beta for s in strata),
        "k_range_ok": all(lo_k <= 2.0 ** float(s.k) <= 2.0 * beta for s in strata),
    }
    return StratifyResult(
        strata=strata,
        selected=best,
        intervals=intervals,
        beta=beta,
        eta=eta,
        c_eta=c_eta,
        verdicts=verdicts,
    )


@dataclass
class PartitionFamily:
    """Uniform intervals I_n of length C 2^m beta with E_n, F_n, Omega^n stats."""

    interval_length: float
    m: int
    beta: float
    C: float
    n_values: list
    e_counts: dict
    f_counts: dict
    omega_measure: dict
    alpha1: dict
    alpha2: dict
    alpha: dict
    verdicts: dict = field(default_factory=dict)


def partition(
    model: ModelFamily,
    fibs: PiFibers,
    strat: StratifyResult,
    F: LatticeSet,
    C: float = 4.0,
) -> PartitionFamily:
    """Build I_n, E_n = {x : I(x) meets I_n}, F_n = F cap Pi^-1(3-window) and
    verify the localized pairing, overlap, and two-sided incidence bounds."""
    if C < 4:
        raise ConfigError("partition requires C >= 4")
    if strat.selected is None:
        raise DegenerateError("partition requires a nonempty stratification")
    sel = strat.selected
    beta = strat.beta
    h = fibs.h
    d = fibs.d
    L = C * 2.0 ** sel.m * beta
    if L <= h:
        raise ConfigError("interval length below lattice resolution; m, beta inconsistent")
    x_idx = sel.indices
    intervals = [strat.intervals[i] for i in x_idx]

    e_members = {}
    for local, (i, interval) in enumerate(zip(x_idx, intervals)):
        n_lo = math.floor(interval.lo / L)
        n_hi = math.floor((interval.hi - 1e-15) / L)
        for n in range(n_lo, n_hi + 1):
            e_members.setdefault(n, []).append(i)

    f_cols = F.cells[:, 0]
    n_values = sorted(e_members.keys())
    f_counts, omega, alpha1, alpha2, alpha = {}, {}, {}, {}, {}
    e_counts = {n: len(v) for n, v in e_members.items()}
    f_cover = np.zeros(F.n_cells, dtype=np.int64)
    pair_sum = 0.0
    omega_lower_ok = True
    omega_upper_ok = True
    c_lower = 0.0
    c_upper = 0.0
    for n in n_values:
        w_lo, w_hi = (n - 1) * L, (n + 2) * L
        col_mask = (f_cols * h >= w_lo - 1e-15) & (f_cols * h < w_hi - 1e-15)
        f_counts[n] = int(col_mask.sum())
        f_cover += col_mask.astype(np.int64)
        members = e_members[n]
        z_blocks = []
        om_cells = 0
        for i in members:
            u = fibs.fibers_u[i]
            inside = (u * h >= w_lo - 1e-15) & (u * h < w_hi - 1e-15)
            cnt = int(inside.sum())
            om_cells += cnt
            if cnt:
                zc = np.empty((cnt, d + 1), dtype=np.int64)
                zc[:, :d] = fibs.x_cells[i]
                zc[:, d] = u[inside] - fibs.x_cells[i][0]
                z_blocks.append(zc)
        om_measure = om_cells * h ** (d + 1)
        omega[n] = om_measure
        pair_sum += om_measure
        e_measure = len(members) * h ** d
        lower = 2.0 ** sel.k * e_measure
        upper = beta * e_measure
        if om_measure + 1e-15 < lower:
            omega_lower_ok = False
        c_lower = max(c_lower, lower / om_measure if om_measure > 0 else math.inf)
        c_upper = max(c_upper, om_measure / upper if upper > 0 else math.inf)
        if om_measure > 2.0 * upper + 1e-15:
            omega_upper_ok = False
        if z_blocks:
            zc = np.concatenate(z_blocks, axis=0)
            p1 = len(np.unique(zc[:, :d], axis=0)) * h ** d
            p2 = len(np.unique(pi2_cells(model, zc, h), axis=0)) * h ** d
            alpha1[n] = om_measure / p1
            alpha2[n] = om_measure / p2
            alpha[n] = min(alpha1[n], alpha2[n])
        else:
            alpha1[n] = alpha2[n] = alpha[n] = 0.0

    total_pair = float(fibs.measures[x_idx].sum()) * h ** d
    sum_e = sum(e_counts.values())
    verdicts = {
        "localized_ok": pair_sum >= total_pair - 1e-12,
        "e_overlap_ok": sum_e <= 2 * len(x_idx),
        "f_cover_max": int(f_cover.max()) if f_cover.size else 0,
        "f_cover_ok": bool(f_cover.max() <= 3) if f_cover.size else True,
        "omega_lower_ok": omega_lower_ok,
        "omega_upper_ok": omega_upper_ok,
        "c_prime_lower": c_lower,
        "c_prime_upper": c_upper,
    }
    return PartitionFamily(
        interval_length=L,
        m=sel.m,
        beta=beta,
        C=C,
        n_values=n_values,
        e_counts=e_counts,
        f_counts=f_counts,
        omega_measure=omega,
        alpha1=alpha1,
        alpha2=alpha2,
        alpha=alpha,
        verdicts=verdicts,
    )


def widthbound_check(
    fibs: PiFibers,
    strat: StratifyResult,
    n_samples: int = 100,
    c_wb: float = 8.0,
    seed: int = 0,
) -> tuple:
    """Spot check |J cap F(x)| <= C |J|^eta (2^m beta)^-eta 2^k on random
    dyadic J and selected-stratum x.  Returns (ok, worst_ratio)."""
    sel = strat.selected
    level = _dyadic_level(fibs.h)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        i = int(rng.choice(sel.indices))
        lev = int(rng.integers(0, level + 1))
        j = int(rng.integers(-(1 << lev), 1 << lev))
        J = DyadicInterval(level=lev, index=j)
        mass = interval_mass(fibs.fibers_u[i], fibs.h, J)
        bound = c_wb * J.length ** strat.eta * (2.0 ** sel.m * strat.beta) ** -strat.eta * 2.0 ** sel.k
        if bound > 0:
            worst = max(worst, mass / bound)
    return worst <= 1.0 + 1e-9, worst


def delta1_lower_bound_check(
    fibs: PiFibers,
    strat: StratifyResult,
    part: PartitionFamily,
    n: int,
    subset_indices,
    c_wb: float = 8.0,
) -> dict:
    """Fiber-width mechanism: a subset of Omega^n carrying a lambda-fraction of
    its measure, with x-fibers inside intervals of width w, forces
    w >= (lambda / C)^(1/eta) * 2^m beta."""
    h = fibs.h
    L = part.interval_length
    w_lo, w_hi = (n - 1) * L, (n + 2) * L
    sub_measure = 0.0
    w_measured = 0.0
    for i in subset_indices:
        u = fibs.fibers_u[i]
        inside = u[(u * h >= w_lo - 1e-15) & (u * h < w_hi - 1e-15)]
        if inside.size == 0:
            continue
        sub_measure += inside.size * h ** (fibs.d + 1)
        w_measured = max(w_measured, (inside.max() - inside.min() + 1) * h)
    omega_n = part.omega_measure[n]
    lam = sub_measure / omega_n if omega_n > 0 else 0.0
    w_bound = (lam / c_wb) ** (1.0 / strat.eta) * 2.0 ** strat.selected.m * strat.beta
    return {
        "lambda": lam,
        "w_measured": w_measured,
        "w_bound": w_bound,
        "ok": w_measured >= w_bound - 1e-12,
    }


# --------------------------------------------------------------------------
# Incidence statistics and dense ball search
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OmegaStats:
    volume: float
    proj1_measure: float
    proj2_measure: float
    alpha1: float
    alpha2: float

    @property
    def alpha(self) -> float:
        return min(self.alpha1, self.alpha2)


def omega_stats(model: ModelFamily, omega: LatticeSet) -> OmegaStats:
    """alpha_j = |Omega| / |pi_j(Omega)| with projections by cell images."""
    if omega.is_empty:
        raise DegenerateError("omega_stats requires a nonempty set")
    d = model.d
    if omega.dim != d + 1:
        raise ConfigError("omega must live on the Z-lattice (d+1 axes)")
    p1 = omega.project(range(d)).measure
    p2 = LatticeSet(omega.h, pi2_cells(model, omega.cells, omega.h)).measure
    if p1 <= 0 or p2 <= 0:
        raise DegenerateError("degenerate projection")
    return OmegaStats(
        volume=omega.measure,
        proj1_measure=p1,
        proj2_measure=p2,
        alpha1=omega.measure / p1,
        alpha2=omega.measure / p2,
    )


@dataclass
class SearchResult:
    center: tuple
    delta1: float
    delta2: float
    density: float
    stats: OmegaStats
    bound_rhs: float
    bound_rhs_swapped: float
    meets_bound: bool
    meets_swapped: bool
    evaluations: list


def dense_ball_search(
    model: ModelFamily,
    omega: LatticeSet,
    delta_pairs,
    varrho: float = 0.1,
    c_const: float = 1.0 / 16.0,
    max_centers: int = 16,
    tau=None,
) -> SearchResult:
    """Search sampled centers and grid radii for the densest ball in Omega and
    compare the best density against c alpha^varrho (a1/d1)^floor((d+2)/2)
    (a2/d2)^floor((d+1)/2) and the X/Y-swapped variant."""
    if omega.is_empty:
        raise DegenerateError("dense_ball_search requires a nonempty set")
    h = omega.h
    d = model.d
    stats = omega_stats(model, omega)
    centroid = omega.cells.mean(axis=0)
    order = np.argsort(np.sum((omega.cells - centroid) ** 2, axis=1), kind="stable")
    picks = [int(order[0])]
    stride = max(1, omega.n_cells // max(1, max_centers - 1))
    picks.extend(range(0, omega.n_cells, stride))
    centers = omega.cells[sorted(set(picks))]
    best = None
    evaluations = []
    for cell in centers:
        z = cell * h
        if not model.contains(z):
            continue
        for d1, d2 in delta_pairs:
            if h > min(d1, d2) / 4.0:
                continue
            ball = reach_ball(model, z, d1, d2, h, tau=tau)
            inter = ball.cells.intersection(omega)
            density = inter.n_cells / ball.cells.n_cells
            evaluations.append(
                {"center": z.tolist(), "delta1": d1, "delta2": d2, "density": density}
            )
            if best is None or density > best[0] + 1e-15:
                best = (density, tuple(z.tolist()), d1, d2)
    if best is None:
        raise ConfigError("no admissible (center, radii) pair at this grid; refine h")
    density, z, d1, d2 = best
    e1 = math.floor((d + 2) / 2)
    e2 = math.floor((d + 1) / 2)
    rhs = c_const * stats.alpha ** varrho * (stats.alpha1 / d1) ** e1 * (stats.alpha2 / d2) ** e2
    rhs_sw = c_const * stats.alpha ** varrho * (stats.alpha1 / d1) ** e2 * (stats.alpha2 / d2) ** e1
    return SearchResult(
        center=z,
        delta1=d1,
        delta2=d2,
        density=density,
        stats=stats,
        bound_rhs=rhs,
        bound_rhs_swapped=rhs_sw,
        meets_bound=density >= rhs,
        meets_swapped=density >= rhs_sw,
        evaluations=evaluations,
    )
