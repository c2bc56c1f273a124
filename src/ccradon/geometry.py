"""Model incidence geometries in a fixed chart.

The chart identifies Z with a box in R^(d+1) via coordinates (x, t):

    pi1(x, t) = x            (projection to X)
    pi2(x, t) = x + gamma(t) (projection to Y)
    Pi(y)     = y[0]         (distinguished mixed-norm direction)

with gamma a polynomial curve normalized so gamma_1(t) = t.  In this chart

    V1 = d/dt                          (spans the fibers of pi1)
    V2 = d/dt - sum_i gamma_i'(t) d/dx_i  (spans the fibers of pi2)

and Pi(pi2(exp(s V1) z)) = Pi(pi2(z)) + s holds exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ChartDomainError, ConfigError, FlowExitError

MAX_CURVE_DEGREE = 8
STEPS_PER_UNIT_TIME = 32


def as_zarray(z, dim_z: int) -> np.ndarray:
    """A point (x..., t) in chart coordinates as a float (d+1,) array."""
    arr = np.asarray(z, dtype=float).ravel()
    if arr.shape != (dim_z,):
        raise ConfigError(f"expected a point with {dim_z} coordinates, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ModelFamily:
    """A polynomial curve model: gamma(t) has gamma_1(t) = t and degree <= 8.

    ``curve[i]`` lists ascending coefficients of gamma_{i+1}; ``domain`` is the
    chart box, one (lo, hi) pair per coordinate of (x, t).
    """

    name: str
    curve: tuple
    domain: tuple

    def __post_init__(self):
        d = len(self.curve)
        if d < 2:
            raise ConfigError("model dimension d must be >= 2")
        if len(self.domain) != d + 1:
            raise ConfigError("domain must have d+1 axes (x..., t)")
        for coeffs in self.curve:
            if len(coeffs) > MAX_CURVE_DEGREE + 1:
                raise ConfigError(f"curve degree must be <= {MAX_CURVE_DEGREE}")
            if not all(math.isfinite(c) for c in coeffs):
                raise ConfigError("curve coefficients must be finite")
        first = list(self.curve[0]) + [0.0] * (2 - len(self.curve[0]))
        if first[0] != 0.0 or first[1] != 1.0 or any(c != 0.0 for c in first[2:]):
            raise ConfigError("gamma_1(t) must equal t exactly")
        for lo, hi in self.domain:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ConfigError("domain bounds must be finite with lo < hi")

    @property
    def d(self) -> int:
        return len(self.curve)

    @property
    def dim_z(self) -> int:
        return self.d + 1

    @cached_property
    def _coef(self) -> np.ndarray:
        """(max_deg+1, d) ascending coefficient matrix of gamma."""
        k = max(len(c) for c in self.curve)
        mat = np.zeros((k, self.d))
        for i, c in enumerate(self.curve):
            mat[: len(c), i] = c
        return mat

    @cached_property
    def _dcoef(self) -> np.ndarray:
        return npoly.polyder(self._coef, axis=0) if self._coef.shape[0] > 1 else np.zeros((1, self.d))

    @cached_property
    def _dom_lo(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.domain], dtype=float)

    @cached_property
    def _dom_hi(self) -> np.ndarray:
        return np.array([hi for _, hi in self.domain], dtype=float)

    def gamma(self, t):
        """gamma(t); vectorized, returns shape t.shape + (d,)."""
        t = np.asarray(t, dtype=float)
        vals = npoly.polyval(t, self._coef)  # (d,) + t.shape
        return np.moveaxis(vals, 0, -1)

    def dgamma(self, t):
        t = np.asarray(t, dtype=float)
        vals = npoly.polyval(t, self._dcoef)
        return np.moveaxis(vals, 0, -1)

    def contains(self, pts) -> np.ndarray:
        """Boolean mask of chart-domain membership.

        ``pts`` is column storage, (d+1, ...): one row per coordinate, so a
        single point is a (d+1,) vector.
        """
        pts = np.asarray(pts, dtype=float)
        inside = (pts[0] >= self._dom_lo[0]) & (pts[0] <= self._dom_hi[0])
        for axis in range(1, self.dim_z):
            inside &= (pts[axis] >= self._dom_lo[axis]) & (pts[axis] <= self._dom_hi[axis])
        return inside

    def pi2(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return pts[..., :-1] + self.gamma(pts[..., -1])

    def pi_pi2(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return self.pi2(pts)[..., 0]

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "curve": [list(c) for c in self.curve],
            "domain": [list(ax) for ax in self.domain],
        }


def _model(name, curve, domain=None) -> ModelFamily:
    d = len(curve)
    if domain is None:
        domain = tuple((-1.0, 1.0) for _ in range(d + 1))
    return ModelFamily(name=name, curve=tuple(tuple(map(float, c)) for c in curve), domain=tuple(tuple(map(float, ax)) for ax in domain))


def builtin_models() -> dict:
    """Catalog of built-in polynomial curve models."""
    return {
        "parabola": _model("parabola", [(0, 1), (0, 0, 1)]),
        "cubic": _model("cubic", [(0, 1), (0, 0, 1), (0, 0, 0, 1)]),
        "quartic": _model("quartic", [(0, 1), (0, 0, 1, 0, 1)]),
    }


def load_model(source) -> ModelFamily:
    """Resolve a model from a catalog name, a JSON file path, or a dict."""
    if isinstance(source, ModelFamily):
        return source
    if isinstance(source, str):
        catalog = builtin_models()
        if source in catalog:
            return catalog[source]
        path = Path(source)
        if path.exists():
            source = json.loads(path.read_text())
        else:
            raise ConfigError(f"unknown model '{source}' (not in catalog, not a file)")
    if not isinstance(source, dict):
        raise ConfigError("model source must be a name, path, or mapping")
    try:
        curve = source["curve"]
    except KeyError:
        raise ConfigError("model mapping requires a 'curve' field")
    d = source.get("d", len(curve))
    if d != len(curve):
        raise ConfigError("model field 'd' disagrees with number of curve coordinates")
    domain = source.get("domain")
    if domain is not None and len(domain) == 1:
        domain = list(domain) * (d + 1)
    return _model(source.get("name", "custom"), curve, domain)


# --------------------------------------------------------------------------
# Vector fields and flows
# --------------------------------------------------------------------------

def eval_fields(model: ModelFamily, z) -> tuple:
    """(V1(z), V2(z)) as (d+1,) arrays in chart components; V_j spans the kernel of Dpi_j."""
    arr = as_zarray(z, model.dim_z)
    if not model.contains(arr):
        raise ChartDomainError(f"point {arr.tolist()} outside chart domain")
    return tuple(npoly.polyval(arr[-1], _field_matrix(model, j)) for j in (1, 2))


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``npoly.polyval(x, coef)`` over the columns of ``coef``, (deg+1, m) ->
    (m,) + x.shape, bit for bit for finite x while the leading coefficients
    are not -0.0, without polyval's ``coef[-1] + x*0`` seed pass."""
    c = coef.reshape(coef.shape + (1,) * x.ndim)
    if c.shape[0] == 1:
        return c[0] + x * 0.0
    acc = c[-1] * x
    acc += c[-2]
    for ck in c[-3::-1]:
        acc *= x
        acc += ck
    return acc


def rk4_many(model: ModelFamily, pts: np.ndarray, a1, a2, dt: float) -> np.ndarray:
    """One classical RK4 step of phi' = a1 V1 + a2 V2 over a grid of controls.

    ``pts`` is column storage, (d+1, n).  ``a1`` (p, n|1) and ``a2`` (q, n|1)
    are the grid's axes: a column holds scalar controls, a length-n row one
    control per point.  Returns (d+1, p q, n); row ``i q + k`` is the step
    under (a1[i], a2[k]), the order of ``np.repeat(a1, q)``, ``np.tile(a2, p)``.

    The fields depend on t only, so k3 == k2 and the step is Simpson's rule
    on gamma' at t, t + dt v/2, t + dt v (v = a1 + a2): exact while gamma has
    degree <= 4.  gamma_1' == 1, so x1 moves like t, by -a2 in place of v.
    The grid is one broadcast block, bit for bit in the classical operation
    order: k1 is shared by every a1, and each Simpson node is one Horner pass.
    """
    d = model.d
    x, t = pts[1:d], pts[d]  # x2 .. xd; x1 moves like t
    a1, a2 = np.atleast_2d(a1), np.atleast_2d(a2)
    ma2, v = -a2, a1[:, None] + a2  # (q, n|1) and (p, q, n|1)
    out = np.empty((d + 1, a1.shape[0], a2.shape[0], t.shape[0]))
    np.add(pts[0], (dt / 6.0) * (ma2 + 2.0 * ma2 + 2.0 * ma2 + ma2), out=out[0])
    np.add(t, (dt / 6.0) * (v + 2.0 * v + 2.0 * v + v), out=out[d])
    # rows with a2 == 0 add a signed zero to x: that is x bit for bit unless x holds -0.0
    live = ma2.any(axis=1)
    if live.all() or (np.signbit(x) & (x == 0.0)).any():
        xs = out[1:d]
    else:
        out[1:d, :, ~live] = x[:, None, None]
        ma2, v, xs = ma2[live], v.compress(live, axis=1), None
    dcoef = model._dcoef[:, 1:]  # gamma_2' .. gamma_d'
    k1 = ma2 * _horner(dcoef, t)[:, None]  # (d-1, q, n)
    dg_mid, dg_end = (_horner(dcoef, t + s * dt * v) for s in (0.5, 1.0))
    two_k2 = np.multiply(ma2, dg_mid, out=dg_mid)
    two_k2 *= 2.0
    incr = np.add(k1[:, None], two_k2, out=xs)
    incr += two_k2
    incr += np.multiply(ma2, dg_end, out=dg_end)
    incr *= dt / 6.0
    incr += x[:, None, None]
    if xs is None:
        out[1:d, :, live] = incr
    return out.reshape(d + 1, -1, t.shape[0])


def integrate(model: ModelFamily, pts: np.ndarray, controls: np.ndarray, dt: float) -> tuple:
    """Step paths along piecewise-constant controls: one ``rk4_many`` step of
    length ``dt`` per piece.

    ``pts`` is column storage, (d+1, n), and ``controls`` is (n, pieces, 2),
    one (a1, a2) pair per path and piece.  Returns the (d+1, n) end points
    and, per path, the number of pieces it stayed in the chart: a path that
    leaves the chart counts as out from then on, and its end point is the
    stepped point all the same.
    """
    alive = np.ones(pts.shape[1], dtype=bool)
    stayed = np.zeros(pts.shape[1], dtype=np.int64)
    for k in range(controls.shape[1]):
        pts = rk4_many(model, pts, controls[:, k, 0], controls[:, k, 1], dt)[:, 0]
        alive &= model.contains(pts)
        stayed += alive
    return pts, stayed


def flow(model: ModelFamily, z, controls, duration: float) -> np.ndarray:
    """Integrate phi' = a1 V1 + a2 V2 for ``duration`` from z; returns the (d+1,) end point.

    The chart is checked at STEPS_PER_UNIT_TIME checkpoints per unit time, one
    RK4 step apart; exits are hard errors carrying the checkpoint time.
    """
    if abs(duration) > 1.0:
        raise ConfigError("|duration| must be <= 1")
    a1, a2 = float(controls[0]), float(controls[1])
    arr = as_zarray(z, model.dim_z)
    if not model.contains(arr):
        raise ChartDomainError(f"start point {arr.tolist()} outside chart domain")
    steps = max(1, math.ceil(STEPS_PER_UNIT_TIME * abs(duration)))
    dt = duration / steps
    end, stayed = integrate(model, arr[:, None], np.full((1, steps, 2), (a1, a2)), dt)
    if stayed[0] < steps:
        exit_time = (int(stayed[0]) + 1) * dt
        raise FlowExitError(f"trajectory exited chart domain near time {exit_time:g}", exit_time=exit_time)
    return end[:, 0]


def check_v1_normalization(model: ModelFamily, z, s: float) -> float:
    """|Pi(pi2(flow(z,(1,0),s))) - Pi(pi2(z)) - s|; zero in exact arithmetic."""
    arr = as_zarray(z, model.dim_z)
    moved = flow(model, arr, (1.0, 0.0), s)
    return float(abs(model.pi_pi2(moved) - model.pi_pi2(arr) - s))


# --------------------------------------------------------------------------
# Brackets
# --------------------------------------------------------------------------
#
# Every field in play has components that are polynomials in t alone (the
# chart makes V1, V2 x-independent), so iterated brackets stay in that class:
# [U, W] = (dW/dt) U_t - (dU/dt) W_t  componentwise, where U_t is the
# t-component polynomial of U.  Fields are stored as (deg+1, d+1) ascending
# coefficient matrices.

def _field_matrix(model: ModelFamily, j: int, scale: float = 1.0) -> np.ndarray:
    d = model.d
    if j == 1:
        mat = np.zeros((1, d + 1))
        mat[0, d] = scale
        return mat
    if j == 2:
        dc = model._dcoef
        mat = np.zeros((dc.shape[0], d + 1))
        mat[:, :d] = -dc * scale
        mat[0, d] += scale
        return mat
    raise ConfigError("field index must be 1 or 2")


def _poly_bracket(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bracket of two t-polynomial field matrices."""
    dim = u.shape[1]
    ut = u[:, dim - 1]
    wt = w[:, dim - 1]
    du = npoly.polyder(u, axis=0) if u.shape[0] > 1 else np.zeros((1, dim))
    dw = npoly.polyder(w, axis=0) if w.shape[0] > 1 else np.zeros((1, dim))
    cols = []
    for c in range(dim):
        a = npoly.polymul(dw[:, c], ut)
        b = npoly.polymul(du[:, c], wt)
        k = max(len(a), len(b))
        a = np.pad(a, (0, k - len(a)))
        b = np.pad(b, (0, k - len(b)))
        cols.append(a - b)
    k = max(len(c) for c in cols)
    out = np.zeros((k, dim))
    for c, col in enumerate(cols):
        out[: len(col), c] = col
    return out


def lie_bracket_exact(model: ModelFamily, z, i: int, j: int) -> np.ndarray:
    """[V_i, V_j](z) as a (d+1,) array, from the polynomial field representation."""
    arr = as_zarray(z, model.dim_z)
    mat = _poly_bracket(_field_matrix(model, i), _field_matrix(model, j))
    return npoly.polyval(arr[-1], mat)


def lie_bracket(model: ModelFamily, z, i: int, j: int, step: float = 1e-3) -> np.ndarray:
    """[V_i, V_j](z) as a (d+1,) array, by symmetric finite differences of the field components."""
    if step <= 0:
        raise ConfigError("finite-difference step must be positive")
    arr = as_zarray(z, model.dim_z)

    def field(jj, pts):
        return npoly.polyval(pts[-1], _field_matrix(model, jj))

    vi = field(i, arr)
    vj = field(j, arr)
    dvj_vi = (field(j, arr + step * vi) - field(j, arr - step * vi)) / (2.0 * step)
    dvi_vj = (field(i, arr + step * vj) - field(i, arr - step * vj)) / (2.0 * step)
    return dvj_vi - dvi_vj


def _bracket_generators(model: ModelFamily, depth: int, v1_scale: float = 1.0, v2_scale: float = 1.0) -> list:
    """Field matrices of V1, V2 and iterated brackets up to word length ``depth``."""
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    base = [_field_matrix(model, 1, v1_scale), _field_matrix(model, 2, v2_scale)]
    gens = list(base)
    level = list(base)
    for _ in range(2, depth + 1):
        nxt = []
        for w in level:
            for b in base:
                nxt.append(_poly_bracket(b, w))
        gens.extend(nxt)
        level = nxt
    return gens


def bracket_rank(model: ModelFamily, z, depth: int, v1_scale: float = 1.0, v2_scale: float = 1.0) -> int:
    """Rank of span{V1, V2, brackets up to length depth} at z.

    Rank d+1 certifies the bracket condition (hence L^p-improving) locally.
    """
    arr = as_zarray(z, model.dim_z)
    gens = _bracket_generators(model, depth, v1_scale, v2_scale)
    rows = np.stack([npoly.polyval(arr[-1], g) for g in gens])
    scale = max(1.0, float(np.abs(rows).max()))
    return int(np.linalg.matrix_rank(rows, tol=1e-9 * scale))
