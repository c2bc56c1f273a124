"""References computed apart from the program, and the checks built on them.

Everything here uses numpy and the curve coefficients written out below; no
function of ``ccradon`` computes a reference value.  The geometry is the
exponential-coordinate picture of Nagel-Stein-Wainger ("Balls and metrics
defined by vector fields I", Acta Math. 1985) for the chart fields
``V1 = d/dt`` and ``V2 = d/dt - sum_i gamma_i'(t) d/dx_i``:

* along ``a1 V1 + a2 V2`` the first coordinate moves by ``-a2`` and ``x1 + t``
  by ``a1``, so any admissible path from ``z0`` stays in the box
  ``|t - t0| <= d1 + d2``, ``|x1 - x01| <= d2``, ``|x1 + t - x01 - t0| <= d1``,
  ``|x_i - x0i| <= d2 max|gamma_i'|`` on the reachable t-range;
* a constant control ``(a1, a2)`` for unit time ends at ``t = t0 + v`` and
  ``x = x0 - a2 (gamma(t0 + v) - gamma(t0)) / v`` with ``v = a1 + a2``.

Each ``check_*`` function returns a list of failure strings; an empty list
means the output passed.
"""
from __future__ import annotations

import csv
import math

import numpy as np
from numpy.polynomial import Polynomial

# Built-in model curves, ascending coefficients of gamma_1 .. gamma_d.
CURVES = {
    "parabola": ([0, 1], [0, 0, 1]),
    "cubic": ([0, 1], [0, 0, 1], [0, 0, 0, 1]),
    "quartic": ([0, 1], [0, 0, 1, 0, 1]),
}

# absolute slack on box comparisons, for rounding in cell-centre arithmetic
FLOAT_EPS = 1e-9


def derivative_bound(coeffs, lo: float, hi: float) -> float:
    """max |p'(t)| on [lo, hi] from the end points and the real roots of p''."""
    dp = Polynomial(coeffs).deriv()
    cands = [lo, hi]
    if dp.degree() >= 1:
        for root in dp.deriv().roots():
            if abs(root.imag) < 1e-12 and lo <= root.real <= hi:
                cands.append(float(root.real))
    return float(max(abs(dp(c)) for c in cands))


def divided_difference(coeffs, t0: float, v: np.ndarray) -> np.ndarray:
    """(p(t0 + v) - p(t0)) / v, and p'(t0) at v = 0, without cancellation.

    Uses (s^k - t0^k) / (s - t0) = sum_{j<k} s^j t0^(k-1-j) with s = t0 + v.
    """
    s = t0 + np.asarray(v, dtype=float)
    out = np.zeros_like(s)
    for k, c in enumerate(coeffs):
        if k == 0 or c == 0:
            continue
        out += c * sum(s ** j * t0 ** (k - 1 - j) for j in range(k))
    return out


def box_violations(points, z0, d1: float, d2: float, curve, slack: float) -> np.ndarray:
    """Boolean mask of points outside the exact reachable box.

    ``slack`` is added per axis, twice on ``x1 + t`` (the sum of two axes).
    """
    pts = np.asarray(points, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    d = len(curve)
    rel = pts - z0
    t = rel[:, d]
    bad = np.abs(t) > d1 + d2 + slack + FLOAT_EPS
    bad |= np.abs(rel[:, 0]) > d2 + slack + FLOAT_EPS
    bad |= np.abs(rel[:, 0] + t) > d1 + 2.0 * slack + FLOAT_EPS
    t_lo, t_hi = z0[d] - (d1 + d2), z0[d] + (d1 + d2)
    for i in range(1, d):
        bound = d2 * derivative_bound(curve[i], t_lo, t_hi)
        bad |= np.abs(rel[:, i]) > bound + slack + FLOAT_EPS
    return bad


def constant_control_endpoints(z0, d1: float, d2: float, curve, n: int = 17) -> np.ndarray:
    """Closed-form unit-time endpoints of the n x n constant-control grid."""
    z0 = np.asarray(z0, dtype=float)
    d = len(curve)
    a1, a2 = np.meshgrid(np.linspace(-d1, d1, n), np.linspace(-d2, d2, n), indexing="ij")
    a1, a2 = a1.ravel(), a2.ravel()
    v = a1 + a2
    out = np.empty((v.shape[0], d + 1))
    for i in range(d):
        out[:, i] = z0[i] - a2 * divided_difference(curve[i], z0[d], v)
    out[:, d] = z0[d] + v
    return out


def point_cells(points, h: float) -> np.ndarray:
    """Cell j covers [j h - h/2, j h + h/2)."""
    return np.floor(np.asarray(points, dtype=float) / h + 0.5).astype(np.int64)


def _row_keys(cells: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Mixed-radix keys of cells inside [lo, lo + span) per axis."""
    return np.ravel_multi_index(tuple((cells - lo).T), tuple(span.tolist()))


def chebyshev_distance(ball_cells: np.ndarray, query: np.ndarray, cap: int = 3) -> np.ndarray:
    """Per query cell, the Chebyshev distance to the nearest ball cell, capped."""
    dim = ball_cells.shape[1]
    lo = np.minimum(ball_cells.min(axis=0), query.min(axis=0)) - cap
    span = np.maximum(ball_cells.max(axis=0), query.max(axis=0)) + cap + 1 - lo
    ball_keys = np.sort(_row_keys(ball_cells, lo, span))
    dist = np.full(query.shape[0], cap, dtype=np.int64)
    for r in range(cap - 1, -1, -1):
        offs = np.stack(np.meshgrid(*([np.arange(-r, r + 1)] * dim), indexing="ij"), -1).reshape(-1, dim)
        probe = (query[:, None, :] + offs[None, :, :]).reshape(-1, dim)
        keys = _row_keys(probe, lo, span)
        pos = np.minimum(np.searchsorted(ball_keys, keys), ball_keys.size - 1)
        hit = (ball_keys[pos] == keys).reshape(query.shape[0], -1).any(axis=1)
        dist[hit] = r
    return dist


# --------------------------------------------------------------------------
# ball checks
# --------------------------------------------------------------------------

def check_ball(cells, h, z0, d1, d2, curve, volume, slab_values, truncated) -> list:
    """Reachable box, constant-control endpoints, V1 segment, volume bookkeeping."""
    cells = np.asarray(cells, dtype=np.int64)
    z0 = np.asarray(z0, dtype=float)
    d = len(curve)
    fails = []
    out = box_violations(cells * h, z0, d1, d2, curve, slack=h / 2.0)
    if out.any():
        fails.append(f"{int(out.sum())} of {cells.shape[0]} cells outside the reachable box")
    ends = point_cells(constant_control_endpoints(z0, d1, d2, curve), h)
    worst = int(chebyshev_distance(cells, ends).max())
    if worst > 2:
        fails.append(f"a constant-control endpoint lies {worst}+ cells from the ball (limit 2)")
    c0 = point_cells(z0, h)
    t_cells = np.arange(point_cells(z0[d] - d1, h), point_cells(z0[d] + d1, h) + 1)
    seg = np.repeat(c0[None, :], t_cells.shape[0], axis=0)
    seg[:, d] = t_cells
    missing = int((chebyshev_distance(cells, seg, cap=1) > 0).sum())
    if missing:
        fails.append(f"{missing} cells of the V1 segment unoccupied")
    if truncated:
        fails.append("ball truncated by the chart domain")
    want = cells.shape[0] * h ** (d + 1)
    if not math.isclose(volume, want, rel_tol=1e-12):
        fails.append(f"volume {volume:.6g} != cells x h^dim {want:.6g}")
    slab_total = float(np.sum(slab_values)) * h
    if not math.isclose(slab_total, volume, rel_tol=1e-9):
        fails.append(f"slab profile sums to {slab_total:.6g}, volume {volume:.6g}")
    return fails


def check_mc(endpoints, n_paths, n_escaped, mc_volume, reach_volume, h, z0, d1, d2, curve, band) -> list:
    """Endpoints in the reachable box, no escapes, own binning, agreement band."""
    fails = []
    endpoints = np.asarray(endpoints, dtype=float)
    if n_escaped != 0 or endpoints.shape[0] != n_paths:
        fails.append(f"{n_escaped} escaped, {endpoints.shape[0]} of {n_paths} endpoints kept")
    if endpoints.shape[0]:
        out = box_violations(endpoints, z0, d1, d2, curve, slack=0.0)
        if out.any():
            fails.append(f"{int(out.sum())} endpoints outside the reachable box")
        cells = point_cells(endpoints, h)
        lo = cells.min(axis=0)
        n_cells = np.unique(_row_keys(cells, lo, cells.max(axis=0) + 1 - lo)).size
        own = n_cells * h ** endpoints.shape[1]
        if not math.isclose(own, mc_volume, rel_tol=1e-12):
            fails.append(f"mc volume {mc_volume:.6g} != own binning {own:.6g}")
    agreement = mc_volume / reach_volume if reach_volume > 0 else math.inf
    if not (band[0] <= agreement <= band[1]):
        fails.append(f"mc/reach agreement {agreement:.4g} outside [{band[0]}, {band[1]}]")
    return fails


# --------------------------------------------------------------------------
# region checks
# --------------------------------------------------------------------------

def read_region_rows(path) -> list:
    with open(path, newline="") as fh:
        return [
            {"c1": float(r["c1"]), "c2": float(r["c2"]), "infimum": float(r["infimum"]), "label": r["label"]}
            for r in csv.DictReader(fh)
        ]


def check_region(rows, meta, expect, passed, rate_target=4.0, rate_tol=0.3) -> list:
    """Theory labels, monotone infimum, diagonal-path rate, resolution flags."""
    fails = []
    if not passed:
        fails.append("CLI passed flag is false")
    by_node = {(round(r["c1"], 6), round(r["c2"], 6)): r for r in rows}
    for e in expect:
        got = by_node.get((round(e["c1"], 6), round(e["c2"], 6)))
        if got is None or got["label"] != e["label"]:
            fails.append(f"node ({e['c1']}, {e['c2']}) label {got and got['label']}, theory {e['label']}")
    c1s = sorted({k[0] for k in by_node})
    c2s = sorted({k[1] for k in by_node})
    grid = np.array([[by_node[(a, b)]["infimum"] for b in c2s] for a in c1s])
    tol = 1e-12 * np.abs(grid).max()
    if (np.diff(grid, axis=0) < -tol).any() or (np.diff(grid, axis=1) < -tol).any():
        fails.append("infimum decreases in c1 or c2")
    diag = [s["raw_rate"] for s in meta["raw_rates"] if s["theta"] == 1.0 and s["A"] == 1.0]
    if not diag or any(abs(r - rate_target) > rate_tol for r in diag):
        fails.append(f"diagonal raw volume rates {diag} outside {rate_target} +/- {rate_tol}")
    if not meta["z_spread_ok"]:
        fails.append("z_spread_ok is false")
    if meta["resolution_limited"]:
        fails.append("resolution_limited is true")
    return fails


# --------------------------------------------------------------------------
# transform checks
# --------------------------------------------------------------------------

def covered_box(cells: np.ndarray, h: float):
    """(lo, hi) of the box a full rectangular cell set covers; None if not full."""
    cmin, cmax = cells.min(axis=0), cells.max(axis=0)
    if cells.shape[0] != int(np.prod(cmax - cmin + 1)):
        return None
    return cmin * h - h / 2.0, (cmax + 1) * h - h / 2.0


def continuum_pairing(box_e, box_f, curve, t_window=(-1.0, 1.0), n: int = 200_000) -> float:
    """int prod_i |[a_i, b_i) cap ([c_i, e_i) - gamma_i(t))| dt, midpoint rule."""
    (a, b), (c, e) = box_e, box_f
    dt = (t_window[1] - t_window[0]) / n
    t = t_window[0] + (np.arange(n) + 0.5) * dt
    prod = np.ones(n)
    for i, coeffs in enumerate(curve):
        g = Polynomial(coeffs)(t)
        prod *= np.clip(np.minimum(b[i], e[i] - g) - np.maximum(a[i], c[i] - g), 0.0, None)
    return float(prod.sum() * dt)


def check_pairing(quadrature, lattice, reference, band) -> list:
    fails = []
    for name, val in (("lattice", lattice), ("quadrature", quadrature)):
        ratio = val / reference
        if not (band[0] <= ratio <= band[1]):
            fails.append(f"{name} pairing / continuum reference = {ratio:.4g} outside {list(band)}")
    return fails


def check_rwt(ratio, reference_ratio, band, cap=2.0) -> list:
    fails = []
    if ratio > cap + 1e-9:
        fails.append(f"rwt ratio {ratio:.4g} > {cap}")
    rel = ratio / reference_ratio
    if not (band[0] <= rel <= band[1]):
        fails.append(f"rwt ratio / continuum reference = {rel:.4g} outside {list(band)}")
    return fails


def transform_node_sum(f: np.ndarray, h: float, sample_idx: np.ndarray, curve) -> np.ndarray:
    """Tf = sum_j h f(y - gamma(t_j)) at sampled indices of a 2-D grid on [-1, 1]^2.

    Nodes t_j = j h have centres in [-1, 1); y - gamma(t_j) lands in the
    cell of index idx(y) + (-j, floor(1/2 - gamma_2(t_j) / h)).
    """
    j = np.arange(math.ceil(-1.0 / h - 1e-9), math.ceil(1.0 / h - 1e-9))
    g2 = Polynomial(curve[1])(j * h)
    shift = np.stack([-j, np.floor(0.5 - g2 / h).astype(np.int64)], axis=1)
    out = np.zeros(sample_idx.shape[0])
    for s in shift:
        src = sample_idx + s
        ok = ((src >= 0) & (src < f.shape[0])).all(axis=1)
        out[ok] += f[src[ok, 0], src[ok, 1]] * h
    return out


def check_pointwise(got, want, atol=1e-12) -> list:
    bad = int((~np.isclose(got, want, rtol=0, atol=atol)).sum())
    return [f"Tf differs from the node sum at {bad} of {len(want)} points"] if bad else []


def check_duality(lhs, rhs, tol=1e-10) -> list:
    if abs(lhs - rhs) <= tol * max(1.0, abs(lhs)):
        return []
    return [f"<Tf, g> = {lhs:.17g} but <f, T*g> = {rhs:.17g}"]


def check_cli(report) -> list:
    if report.get("passed") is True:
        return []
    return [f"CLI {report.get('command')} did not pass: {report.get('failures')}"]
