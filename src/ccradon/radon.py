"""Discrete curve-integration transform, adjoint, pairings and necessity tests.

The transform averages over the model curve: Tf(y) = sum_j f(y - gamma(t_j)) dt
with the fixed nodes t_j = j*h whose centres lie in [-1, 1) (dt = h).  Each
carries weight h, so the sums integrate t over [-1 - h/2, 1 - h/2).
The adjoint uses the mirrored index shifts of T, so discrete duality
<Tf, g> = <f, T*g> holds to float roundoff.  T and T* share one body,
``_shift_sum``: the products h f sit once in a flat, zero-padded copy of the
grid, so each node adds one contiguous slice into a small tile of output
rows; reads that fall in the padding add +0.0, which changes no bit of the
per-node sums.  Pairings, incidence sets and superlevel fibers all come from
one join, ``_incidence``, over the same shift table.  Because
gamma_1(t) = t, the first-coordinate geometry is exact integer arithmetic on
cell indices throughout; the join uses it to probe, at each node, only the
slice of E's x1-sorted cells whose image can land in F's x1 range, by binary
search of their shifted keys in F's sorted keys.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ccball import BallEstimate, pi2_cells
from .errors import ConfigError, DegenerateError, ResolutionError
from .geometry import ModelFamily
from .lattice import LatticeSet, encode_cells, points_to_cells
from .mixednorm import GridFunctionY, conjugate, mixed_norm_indicator, reciprocal

MAX_DENSE_CELLS = 1 << 26
SHIFT_TILE_BYTES = 1 << 18  # bytes of padded output rows that _shift_sum sums per tile
MIN_INCIDENCE_CELLS = 10  # pairing refuses incidence sets with fewer lattice cells


def _n_half(h: float) -> int:
    return int(math.ceil(1.0 / h - 1e-9))


def make_grid(d: int, h: float) -> GridFunctionY:
    """Dense zero grid with cell centers j*h covering the chart box [-1,1]^d."""
    nh = _n_half(h)
    n = 2 * nh + 1
    if n ** d > MAX_DENSE_CELLS:
        raise ConfigError(
            f"dense grid too large: {n}^{d} = {n ** d} cells at h = {h:g} exceeds "
            f"MAX_DENSE_CELLS = 2^26 = {MAX_DENSE_CELLS}; use sparse set operations"
        )
    return GridFunctionY(h=h, origin=(-nh,) * d, values=np.zeros((n,) * d))


def grid_from_lattice(ls: LatticeSet) -> GridFunctionY:
    g = make_grid(ls.dim, ls.h)
    nh = -g.origin[0]
    idx = ls.cells + nh
    if idx.min() < 0 or idx.max() >= g.values.shape[0]:
        raise ConfigError("lattice set exceeds the chart box")
    g.values[tuple(idx.T)] = 1.0
    return g


def t_node_range(h: float) -> np.ndarray:
    """Integer t-cell indices j whose centres j*h lie in [-1, 1).

    Each node carries weight h, so sums over them integrate t over
    [-1 - h/2, 1 - h/2).
    """
    return np.arange(math.ceil(-1.0 / h - 1e-9), math.ceil(1.0 / h - 1e-9), dtype=np.int64)


def _shifts(model: ModelFamily, h: float, t_cells: np.ndarray) -> np.ndarray:
    """Integer index shifts s_j with f(y - gamma(t_j)) = f[idx(y) + s_j].

    First coordinate is exact (-j); the rest are rounded once per node, and
    the adjoint reuses the same table mirrored, keeping duality exact.
    """
    d = model.d
    out = np.empty((t_cells.shape[0], d), dtype=np.int64)
    out[:, 0] = -t_cells
    if d > 1:
        gam = model.gamma(t_cells * h)[:, 1:]
        out[:, 1:] = np.floor(0.5 - gam / h).astype(np.int64)
    return out


def _shift_sum(model: ModelFamily, f: GridFunctionY, sign: int) -> GridFunctionY:
    """sum_j f[k + sign * s_j] h over the t-nodes: T for sign 1, T* for -1.

    One contiguous slice add per node.  The products h * f are formed once and
    laid out in a flat zero buffer of padded shape N0 x (N1 + P1) x ..., where
    P_i is the largest |shift| on trailing axis i, with one padded row of zero
    margin at each end.  A node that shifts some axis by N_i or more reads no
    grid cell and is dropped, so P_i < N_i; the buffer holds N0 x prod(N_i + P_i)
    cells plus the margin, about 1.5x the grid for the parabola and 2.25x for
    the cubic.  A trailing-axis read past either end of a row lands in that
    row's or the previous row's padding, so a node's shifted read of whole
    padded rows is one slice at the flat offset s . strides; the leading axis,
    shifted by -+j, is clipped to the rows whose source row exists.

    Output rows are summed one tile of leading-axis rows at a time
    (``SHIFT_TILE_BYTES`` of padded rows), every node into the tile in node
    order, and the tile's unpadded part is copied out.  Each cell adds the same
    products in the same order as a per-node loop that skips off-grid sources,
    and where that loop skipped, this one adds +0.0.  That changes no bit: the
    sum starts at +0.0, and in round-to-nearest x + y is -0.0 only when both
    terms are, so no partial sum is -0.0 and adding +0.0 leaves it unchanged.
    """
    if f.values.ndim != model.d:
        raise ConfigError(f"grid has {f.values.ndim} axes, model {model.name!r} has d = {model.d}")
    h, shape = f.h, f.values.shape
    dtype = np.result_type(h, f.values)  # the dtype of h * f.values
    shifts = sign * _shifts(model, h, t_node_range(h))
    shifts = shifts[(np.abs(shifts) < shape).all(axis=1)]
    n0, inner = shape[0], shape[1:]
    padded = tuple(int(m + p) for m, p in zip(inner, np.abs(shifts[:, 1:]).max(axis=0, initial=0)))
    row = math.prod(padded)
    strides = np.array([math.prod(padded[ax:]) for ax in range(len(padded) + 1)])
    src = np.zeros((n0 + 2) * row, dtype=dtype)
    unpad = (slice(None),) + tuple(slice(0, m) for m in inner)
    np.multiply(h, f.values, out=src[row:-row].reshape((n0,) + padded)[unpad])  # every node adds these products
    offsets = row + shifts @ strides  # flat read offset of each node, tile row 0 at flat 0
    tile_rows = max(1, SHIFT_TILE_BYTES // (row * src.itemsize))
    tile = np.empty(tile_rows * row, dtype=dtype)
    out = np.empty(shape, dtype=dtype)
    for r0 in range(0, n0, tile_rows):
        r1 = min(r0 + tile_rows, n0)
        starts = (np.maximum(r0, -shifts[:, 0]) - r0) * row
        stops = (np.minimum(r1, n0 - shifts[:, 0]) - r0) * row
        tile.fill(0.0)
        for a, b, off in zip(starts.tolist(), stops.tolist(), (offsets + r0 * row).tolist()):
            if a < b:
                tile[a:b] += src[a + off:b + off]
        out[r0:r1] = tile[: (r1 - r0) * row].reshape((r1 - r0,) + padded)[unpad]
    return GridFunctionY(h=h, origin=f.origin, values=out)


def apply_T(model: ModelFamily, f: GridFunctionY) -> GridFunctionY:
    """Tf(y) = sum_j f(y - gamma(t_j)) dt on the shared dense grid."""
    return _shift_sum(model, f, 1)


def apply_Tstar(model: ModelFamily, g: GridFunctionY) -> GridFunctionY:
    """T*g(x) = sum_j g(x + gamma(t_j)) dt, the exact transpose of apply_T."""
    return _shift_sum(model, g, -1)


def _incidence(model: ModelFamily, E: LatticeSet, F: LatticeSet) -> tuple:
    """The incidence pairs (x, t_j): x in E, y = x - s_j in F, so x is the cell
    of y - gamma(t_j) and the pair counts once in <T chi_E, chi_F>.

    Returns (rows, t): indices into E.cells and their t-cells, ordered by t-cell
    and then by row.  One sorted-key probe: key packing is linear, so each
    shift s_j is a scalar key offset and E's stored keys are never re-encoded.
    The exact relation y1 = x1 + t_j bounds the rows that can hit at node j to
    one slice of E's ascending x1 column; that slice's shifted keys are looked
    up in F's sorted keys by binary search.
    """
    if abs(F.h - E.h) > 1e-15 * E.h:
        raise ConfigError("E and F must share the lattice edge h")
    if not E.dim == F.dim == model.d:
        raise ConfigError(f"E and F must have the model dimension d = {model.d}, got {E.dim} and {F.dim}")
    x1, f_lo, f_hi = E.cells[:, 0], F.cells[0, 0], F.cells[-1, 0]  # cells are x1-major
    t_cells = t_node_range(E.h)
    t_cells = t_cells[(t_cells >= f_lo - x1[-1]) & (t_cells <= f_hi - x1[0])]
    if t_cells.size == 0:
        return np.empty(0, dtype=np.intp), t_cells
    shifts = _shifts(model, E.h, t_cells)
    lo, hi = E.bounds()
    # every probed cell x - s lies in this box; past the packing range this
    # raises the ConfigError that encoding E - s row by row would
    encode_cells(np.stack([lo - shifts.max(axis=0), hi - shifts.min(axis=0)]))
    e_keys, f_keys = E.keys(), F.keys()
    offsets = encode_cells(E.cells[:1] - shifts) - e_keys[0]  # key(x - s) = key(x) + offset
    starts = np.searchsorted(x1, f_lo + shifts[:, 0])
    stops = np.searchsorted(x1, f_hi + shifts[:, 0], side="right")
    hits = []
    for start, stop, offset in zip(starts, stops, offsets):
        probe = e_keys[start:stop] + offset
        found = f_keys.take(np.searchsorted(f_keys, probe), mode="clip") == probe
        hits.append(start + np.flatnonzero(found))
    rows = np.concatenate([np.empty(0, dtype=np.intp), *hits])
    return rows, np.repeat(t_cells, [hit.size for hit in hits])


@dataclass(frozen=True)
class PairingResult:
    """<T chi_E, chi_F> for one (E, F) pair.

    Both fields hold the same value, the incidence count times h^(d+1): the
    node sum of T chi_E against chi_F counts exactly the lattice cells of
    Omega = pi1^-1(E) cap pi2^-1(F).
    """

    quadrature: float
    lattice: float


def pairing(model: ModelFamily, E: LatticeSet, F: LatticeSet) -> PairingResult:
    """<T chi_E, chi_F> = |pi1^-1(E) cap pi2^-1(F)| on the Z-lattice.

    Raises ResolutionError when the incidence set carries fewer than
    ``MIN_INCIDENCE_CELLS`` lattice cells; the value is meaningless there.
    """
    if E.is_empty or F.is_empty:
        raise DegenerateError("pairing requires nonempty sets")
    rows, _ = _incidence(model, E, F)
    if rows.size < MIN_INCIDENCE_CELLS:
        raise ResolutionError(
            f"incidence set has {rows.size} cells (< {MIN_INCIDENCE_CELLS}); refine h or enlarge the sets"
        )
    value = rows.size * E.h ** (E.dim + 1)
    return PairingResult(quadrature=value, lattice=value)


def incidence_set(model: ModelFamily, E: LatticeSet, F: LatticeSet) -> LatticeSet:
    """Omega = pi1^-1(E) cap pi2^-1(F) as cells (x, t) on the Z-lattice."""
    if E.is_empty or F.is_empty:
        raise DegenerateError("incidence_set requires nonempty sets")
    rows, t = _incidence(model, E, F)
    return LatticeSet(E.h, np.column_stack([E.cells[rows], t]))


def rwt_ratio(model: ModelFamily, E: LatticeSet, F: LatticeSet, p, q, r) -> float:
    """<T chi_E, chi_F> / (|E|^{1/p} ||chi_F||_{q', r'})."""
    pr = pairing(model, E, F)
    ip = reciprocal(p)
    norm = mixed_norm_indicator(F, conjugate(float(q)), conjugate(float(r)))
    denom = E.measure ** ip * norm
    if denom == 0:
        raise DegenerateError("degenerate denominator in rwt_ratio")
    return pr.quadrature / denom


@dataclass
class SuperlevelSet:
    """The layer E = {beta < T* chi_F <= 2 beta} with its fibers as flat
    (row, t-cell) pairs, sorted by row and then by t-cell."""

    E: LatticeSet
    beta: float
    h: float
    rows: np.ndarray             # index into E.cells of each fiber cell
    t_cells: np.ndarray          # t-cell of each fiber cell
    fiber_measures: np.ndarray   # |F(x)| = count * h

    @property
    def is_empty(self) -> bool:
        return self.E.is_empty


def superlevel_set(model: ModelFamily, F: LatticeSet, beta: float) -> SuperlevelSet:
    """E = {x : beta < T* chi_F(x) <= 2 beta}; fibers are exact t-cell sets.

    T* chi_F(x) equals h times the fiber count by construction, so membership
    and fiber measures agree exactly.
    """
    if beta <= 0:
        raise ConfigError("beta must be positive")
    if F.is_empty:
        raise DegenerateError("superlevel_set requires a nonempty F")
    h = F.h
    d = F.dim
    dense_f = grid_from_lattice(F)
    tstar = apply_Tstar(model, dense_f)
    nh = -tstar.origin[0]
    vals = tstar.values
    mask = (vals > beta) & (vals <= 2.0 * beta)
    idx = np.argwhere(mask)
    if idx.shape[0] == 0:
        return SuperlevelSet(
            E=LatticeSet.empty(h, d),
            beta=beta,
            h=h,
            rows=np.empty(0, dtype=np.intp),
            t_cells=np.empty(0, dtype=np.int64),
            fiber_measures=np.empty(0),
        )
    E = LatticeSet(h, idx - nh)
    rows, t = _incidence(model, E, F)
    order = np.argsort(rows, kind="stable")  # t-cells stay ascending per row
    measures = np.bincount(rows, minlength=E.n_cells) * h
    # exact consistency with the dense transform
    dense_vals = vals[tuple((E.cells + nh).T)]
    if not np.allclose(dense_vals, measures, rtol=0, atol=1e-12):
        raise ConfigError("fiber measures disagree with the dense adjoint")
    return SuperlevelSet(E=E, beta=beta, h=h, rows=rows[order], t_cells=t[order], fiber_measures=measures)


@dataclass
class NecessityRecord:
    n: int
    delta1: float
    delta2: float
    h: float
    n_translates: int
    spacing_cells: int
    union_volume: float
    proj1_measure: float
    norm: float
    ratio: float


def necessity_union(
    model: ModelFamily,
    balls,
    p,
    q,
    r,
    n_translates=None,
) -> list:
    """Unions of x1-translated congruent balls with disjoint Pi projections.

    Translation invariance of the models makes translated balls exactly
    congruent on the lattice, so the union U is the ball's cells tiled at
    multiples of the spacing along x1.  Its projections are taken from U
    itself: ``pi2_cells`` shifts by whole cells with x1 and no other
    coordinate depends on x1, so they equal the unions of the shifted
    projections.  The spacing is the Pi span plus one cell, so the copies'
    Pi columns, and so their cells, are disjoint, one empty column apart
    (the span alone leaves them adjacent).  Returns one record per
    input ball with the tested ratio
    |U| / (|pi1 U|^{1/p} ||chi_{pi2 U}||_{q', r'}).
    """
    ip = reciprocal(p)
    qc, rc = conjugate(float(q)), conjugate(float(r))
    records = []
    for n, ball in enumerate(balls):
        if not isinstance(ball, BallEstimate):
            raise ConfigError("necessity_union expects BallEstimate inputs")
        h = ball.h
        span = int(ball.pi_cols.max() - ball.pi_cols.min()) + 1
        spacing = span + 1
        idx_lo, idx_hi = (points_to_cells(model.domain[0], h) + (1, -1)).tolist()
        ball_x1_max = int(ball.cells.cells[:, 0].max())
        ball_x1_min = int(ball.cells.cells[:, 0].min())
        fit = 1 + (idx_hi - ball_x1_max) // spacing
        if ball_x1_min < idx_lo:
            raise ConfigError("ball exceeds the chart domain on the left")
        want = n_translates if n_translates is not None else max(2, int(1.0 / ball.delta1))
        if n_translates is not None and want > fit:
            raise ConfigError(
                f"domain overflow: {want} translates at spacing {spacing} cells do not fit"
            )
        count = min(want, fit)
        union_cells = np.tile(ball.cells.cells, (count, 1))
        union_cells[:, 0] += np.repeat(np.arange(count, dtype=np.int64) * spacing, ball.cells.n_cells)
        union_z = LatticeSet(h, union_cells)
        union_p1 = union_z.project(range(model.d))
        union_p2 = LatticeSet(h, pi2_cells(model, union_z.cells, h))
        norm = mixed_norm_indicator(union_p2, qc, rc)
        ratio = union_z.measure / (union_p1.measure ** ip * norm)
        records.append(
            NecessityRecord(
                n=n,
                delta1=ball.delta1,
                delta2=ball.delta2,
                h=h,
                n_translates=count,
                spacing_cells=spacing,
                union_volume=union_z.measure,
                proj1_measure=union_p1.measure,
                norm=norm,
                ratio=float(ratio),
            )
        )
    return records
