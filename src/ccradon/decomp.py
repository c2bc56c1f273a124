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

from .ccball import pi2_cells, reach_balls
from .ccball import reach_ball  # noqa: F401  perfbench's tracer wraps this module's reach_ball by name
from .errors import ConfigError, DegenerateError
from .geometry import ModelFamily
from .lattice import LatticeSet, encode_cells


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


def _minimal_intervals(rows: np.ndarray, u: np.ndarray, n_rows: int, h: float, eta: float, c_eta: float):
    """Minimal dyadic interval of each row of the flat cells (rows, u), sorted by
    row and then by u, each pair once, as (level, index, cells in it) arrays.
    Each level, finest first, merges the runs of equal (row, block); the first
    qualifying run of a row not yet assigned wins."""
    if not (0 < eta < 1 and c_eta > 0):
        raise ConfigError("minimal_dyadic requires eta in (0,1), c_eta > 0")
    level = _dyadic_level(h)
    if u.size and (u.min() < -(1 << level) or u.max() >= 1 << level):
        raise ConfigError("1-D set exceeds [-1, 1]")
    total = np.bincount(rows, minlength=n_rows) * h
    if not total.all():
        raise DegenerateError("minimal_dyadic requires |S| > 0")
    levels, index, count = np.full((3, n_rows), -1, dtype=np.int64)
    r, block, cnt = rows, u + (1 << level), np.ones(u.size, dtype=np.int64)
    for lev in range(level, -1, -1):
        start = np.flatnonzero(np.concatenate([[True], (r[1:] != r[:-1]) | (block[1:] != block[:-1])]))
        r, block, cnt = r[start], block[start], np.add.reduceat(cnt, start)
        qual = cnt * h >= c_eta * (2.0 ** -lev) ** eta * total[r] - 1e-12
        # a unit root interval must qualify, otherwise c_eta is too large for
        # the minimality argument to make sense
        if lev == 0 and np.unique(r[qual]).size < n_rows:
            raise ConfigError("no dyadic interval qualifies at unit level; c_eta too large")
        fresh = np.flatnonzero(qual & (levels[r] < 0))
        won, first = np.unique(r[fresh], return_index=True)
        levels[won], index[won], count[won] = lev, block[fresh[first]] - (1 << lev), cnt[fresh[first]]
        block = block >> 1
    return levels, index, count


def minimal_dyadic(cells: np.ndarray, h: float, eta: float, c_eta: float) -> DyadicInterval:
    """Shortest dyadic interval with |I cap S| >= c_eta |I|^eta |S|, leftmost
    among ties.  Raises ConfigError when not even a unit root qualifies."""
    u = np.unique(np.asarray(cells, dtype=np.int64).ravel())
    levels, index, _ = _minimal_intervals(np.zeros(u.size, dtype=np.int64), u, 1, h, eta, c_eta)
    return DyadicInterval(level=int(levels[0]), index=int(index[0]))


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
    """Fibers of a superlevel set, shifted to the Pi coordinate u = x1 + t, as
    flat (row, u-cell) pairs sorted by row and then by u-cell."""

    h: float
    d: int
    beta: float
    x_cells: np.ndarray
    rows: np.ndarray      # index into x_cells of each fiber cell
    u_cells: np.ndarray   # u-cell of each fiber cell
    measures: np.ndarray

    @property
    def n(self) -> int:
        return self.x_cells.shape[0]

    def total_pairing(self) -> float:
        return float(self.measures.sum()) * self.h ** self.d


def to_pi_fibers(superlevel) -> PiFibers:
    """Exact integer shift t-cell -> u-cell = x1-cell + t-cell."""
    x_cells = superlevel.E.cells
    return PiFibers(
        h=superlevel.h,
        d=superlevel.E.dim,
        beta=superlevel.beta,
        x_cells=x_cells,
        rows=superlevel.rows,
        u_cells=superlevel.t_cells + x_cells[superlevel.rows, 0],
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
    intervals: np.ndarray  # (level, index) of the minimal dyadic interval I(x), per x
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
            strata=[], selected=None, intervals=np.empty((0, 2), dtype=np.int64), beta=fibs.beta,
            eta=eta, c_eta=c_eta, verdicts={"empty": True},
        )
    beta = fibs.beta
    levels, index, in_interval = _minimal_intervals(fibs.rows, fibs.u_cells, fibs.n, fibs.h, eta, c_eta)
    # floor(log2) in scalar math on the few distinct lengths and masses
    m_of_level = np.array([math.floor(math.log2(2.0 ** -lev / beta)) for lev in range(levels.max() + 1)])
    ms = m_of_level[levels]
    masses, at = np.unique(in_interval, return_inverse=True)
    ks = np.array([math.floor(math.log2(int(c) * fibs.h)) for c in masses])[at]
    strata = []
    cell_w = fibs.h ** fibs.d
    for m, k in np.unique(np.column_stack([ms, ks]), axis=0).tolist():
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
        intervals=np.column_stack([levels, index]),
        beta=beta,
        eta=eta,
        c_eta=c_eta,
        verdicts=verdicts,
    )


@dataclass
class PartitionFamily:
    """Uniform intervals I_n of length C 2^m beta with E_n, F_n, Omega^n stats."""

    interval_length: float
    n_values: list
    e_counts: dict
    f_counts: dict
    omega_measure: dict
    alpha1: dict
    alpha2: dict
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
    levels, index = strat.intervals[x_idx].T
    length = np.ldexp(1.0, -levels)
    lo = index * length
    n_lo = np.floor(lo / L).astype(np.int64)
    n_hi = np.floor((lo + length - 1e-15) / L).astype(np.int64)

    # every fiber cell as a Z-cell (x, t), with its pi2 key
    rows, u_h = fibs.rows, fibs.u_cells * h
    zc = np.column_stack([fibs.x_cells[rows], fibs.u_cells - fibs.x_cells[rows, 0]])
    y_keys = encode_cells(pi2_cells(model, zc, h))

    f_cols = F.cells[:, 0]
    e_counts, f_counts, omega, alpha1, alpha2 = {}, {}, {}, {}, {}
    f_cover = np.zeros(F.n_cells, dtype=np.int64)
    pair_sum = 0.0
    omega_lower_ok = True
    omega_upper_ok = True
    c_lower = 0.0
    c_upper = 0.0
    for n in range(int(n_lo.min()), int(n_hi.max()) + 1):
        # E_n = {x : I(x) meets I_n}
        members = x_idx[(n_lo <= n) & (n <= n_hi)]
        if not members.size:
            continue
        e_counts[n] = members.size
        w_lo, w_hi = (n - 1) * L, (n + 2) * L
        col_mask = (f_cols * h >= w_lo - 1e-15) & (f_cols * h < w_hi - 1e-15)
        f_counts[n] = int(col_mask.sum())
        f_cover += col_mask.astype(np.int64)
        is_member = np.zeros(fibs.n, dtype=bool)
        is_member[members] = True
        cells = np.flatnonzero(is_member[rows] & (u_h >= w_lo - 1e-15) & (u_h < w_hi - 1e-15))
        om_measure = cells.size * h ** (d + 1)
        omega[n] = om_measure
        pair_sum += om_measure
        e_measure = members.size * h ** d
        lower = 2.0 ** sel.k * e_measure
        upper = beta * e_measure
        if om_measure + 1e-15 < lower:
            omega_lower_ok = False
        c_lower = max(c_lower, lower / om_measure if om_measure > 0 else math.inf)
        c_upper = max(c_upper, om_measure / upper if upper > 0 else math.inf)
        if om_measure > 2.0 * upper + 1e-15:
            omega_upper_ok = False
        if cells.size:
            p1 = np.unique(rows[cells]).size * h ** d
            p2 = np.unique(y_keys[cells]).size * h ** d
            alpha1[n] = om_measure / p1
            alpha2[n] = om_measure / p2
        else:
            alpha1[n] = alpha2[n] = 0.0

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
        n_values=list(e_counts),
        e_counts=e_counts,
        f_counts=f_counts,
        omega_measure=omega,
        alpha1=alpha1,
        alpha2=alpha2,
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
    if strat.selected is None:
        raise DegenerateError("widthbound_check requires a nonempty stratification")
    sel = strat.selected
    level = _dyadic_level(fibs.h)
    rng = np.random.default_rng(seed)
    draws = np.zeros((n_samples, 3), dtype=np.int64)
    for s in range(n_samples):  # one draw at a time keeps the seeded stream
        i = int(rng.choice(sel.indices))
        lev = int(rng.integers(0, level + 1))
        draws[s] = i, lev, rng.integers(-(1 << lev), 1 << lev)
    i, lev, j = draws.T
    # |J cap F(x)| by searchsorted on the sorted keys row * 2^(level+1) + u + 2^level,
    # one key range per row since stratify checked u in [-2^level, 2^level)
    width, b = 2 << level, 1 << (level - lev)
    keys = fibs.rows * width + fibs.u_cells + (1 << level)
    lo = i * width + j * b + (1 << level)
    mass = (np.searchsorted(keys, lo + b) - np.searchsorted(keys, lo)) * fibs.h
    bound = np.array([
        c_wb * (2.0 ** -lj) ** strat.eta * (2.0 ** sel.m * strat.beta) ** -strat.eta * 2.0 ** sel.k
        for lj in range(level + 1)
    ])[lev]
    worst = float(np.max(mass[bound > 0] / bound[bound > 0], initial=0.0))
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
    if n not in part.omega_measure:
        raise ConfigError(f"n = {n} is not an interval of the partition (n_values {part.n_values})")
    h = fibs.h
    L = part.interval_length
    w_lo, w_hi = (n - 1) * L, (n + 2) * L
    in_subset = np.zeros(fibs.n, dtype=bool)
    in_subset[np.asarray(subset_indices, dtype=np.int64)] = True
    u_h = fibs.u_cells * h
    inside = in_subset[fibs.rows] & (u_h >= w_lo - 1e-15) & (u_h < w_hi - 1e-15)
    omega_n = part.omega_measure[n]
    if not inside.any() or omega_n == 0:
        raise DegenerateError(f"the subset carries no cells of Omega^n for n = {n}")
    rows, u = fibs.rows[inside], fibs.u_cells[inside]
    first = np.flatnonzero(np.concatenate([[True], rows[1:] != rows[:-1]]))
    sub_measure = rows.size * h ** (fibs.d + 1)
    w_measured = int((np.maximum.reduceat(u, first) - u[first]).max() + 1) * h
    lam = sub_measure / omega_n
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
    centers = [cell * h for cell in omega.cells[sorted(set(picks))] if model.contains(cell * h)]
    pairs = [(d1, d2) for d1, d2 in delta_pairs if h <= min(d1, d2) / 4.0]
    # one batched fixpoint per radius pair; evaluations stay centre-major
    densities = [
        [ball.cells.intersection(omega).n_cells / ball.cells.n_cells for ball in reach_balls(model, centers, *pair, h)]
        for pair in pairs
    ]
    best = None
    evaluations = []
    for i, z in enumerate(centers):
        for (d1, d2), dens in zip(pairs, densities):
            density = dens[i]
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
