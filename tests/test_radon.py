import math
import tracemalloc

import numpy as np
import pytest

import conftest

from ccradon import radon
from ccradon.calibration import PAIRING_BAND
from ccradon.ccball import reach_ball
from ccradon.errors import ConfigError, DegenerateError, ResolutionError
from ccradon.exponents import default_h_rule
from ccradon.geometry import ModelFamily
from ccradon.lattice import LatticeSet
from ccradon.mixednorm import conjugate, mixed_norm_indicator
from ccradon.radon import (
    apply_T,
    apply_Tstar,
    incidence_set,
    make_grid,
    necessity_union,
    pairing,
    rwt_ratio,
    superlevel_set,
    t_node_range,
)

H = 2.0 ** -7
GAMMAS = {"parabola": lambda t: (t, t * t), "cubic": lambda t: (t, t * t, t * t * t)}


def random_box(rng, h=H, min_side=0.25):
    lo = rng.uniform(-0.85, 0.85 - min_side, size=2)
    wid = rng.uniform(min_side, min(0.5, 0.85 - lo.max()))
    return LatticeSet.from_box(lo, lo + wid, h)


class TestTransform:
    def test_duality_random_functions(self, parabola, rng):
        f = make_grid(2, H)
        g = make_grid(2, H)
        f.values[:] = rng.random(f.values.shape)
        g.values[:] = rng.random(g.values.shape)
        lhs = float(np.sum(apply_T(parabola, f).values * g.values)) * H * H
        rhs = float(np.sum(f.values * apply_Tstar(parabola, g).values)) * H * H
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_constant_total_mass(self, parabola):
        f = make_grid(2, H)
        f.values[:] = 1.0
        Tf = apply_T(parabola, f)
        nh = -Tf.origin[0]
        # at the grid centre every node's source (-t, -t^2) is on the grid, so
        # the 2/h nodes of weight h sum to the full t mass
        assert Tf.values[nh, nh] == pytest.approx(2.0, abs=1e-12)

    def test_zero_function(self, parabola):
        f = make_grid(2, H)
        assert not apply_T(parabola, f).values.any()

    def test_ball_indicator_bounded_by_root_isolation(self, parabola, rng):
        # Tf(y) <= measure of {t : y - gamma(t) in ball}, found by polynomial
        # root isolation of the boundary crossings
        rho = 0.2
        x0 = np.array([0.1, -0.1])
        f = make_grid(2, H)
        nh = -f.origin[0]
        idx = np.argwhere(np.ones_like(f.values, dtype=bool))
        centers = (idx - nh) * H
        inside = np.sum((centers - x0) ** 2, axis=1) <= rho ** 2
        f.values[tuple(idx[inside].T + np.array([[0], [0]]))] = 0.0  # no-op, keep layout
        f.values[:] = 0.0
        f.values[tuple(idx[inside].T)] = 1.0
        Tf = apply_T(parabola, f)
        for _ in range(5):
            y = rng.uniform(-0.4, 0.4, size=2)
            # |y - gamma(t) - x0|^2 - rho^2 <= 0 as a polynomial in t
            poly = np.polynomial.polynomial.Polynomial([0.0])
            t = np.polynomial.polynomial.Polynomial([0.0, 1.0])
            expr = (y[0] - t - x0[0]) ** 2 + (y[1] - t ** 2 - x0[1]) ** 2 - rho ** 2
            roots = expr.roots()
            real = sorted(r.real for r in roots if abs(r.imag) < 1e-9 and -1 <= r.real <= 1)
            length = 0.0
            pts = [-1.0] + real + [1.0]
            for a, b in zip(pts, pts[1:]):
                mid = 0.5 * (a + b)
                if expr(mid) <= 0:
                    length += b - a
            ky = tuple(np.floor(y / H + 0.5).astype(int) + nh)
            assert Tf.values[ky] <= length + 4 * H

    def test_tstar_constant(self, parabola):
        g = make_grid(2, H)
        g.values[:] = 1.0
        Ts = apply_Tstar(parabola, g)
        nh = -Ts.origin[0]
        assert Ts.values[nh, nh] == pytest.approx(2.0, abs=1e-12)


def reference_shift_sum(model, f, sign):
    """The per-node slice loop that ``_shift_sum`` replaced: for each node in
    order, out[k] += h * f[k + sign * s_j] over the cells k whose source is on
    the grid, as one strided in-place add."""
    h = f.h
    out = np.zeros_like(f.values)
    for s in sign * radon._shifts(model, h, t_node_range(h)):
        dst_sl, src_sl = [], []
        for n, shift in zip(out.shape, s.tolist()):
            lo, hi = max(0, -shift), min(n, n - shift)
            dst_sl.append(slice(lo, hi))
            src_sl.append(slice(lo + shift, hi + shift))
        if all(sl.stop > sl.start for sl in dst_sl):
            out[tuple(dst_sl)] += h * f.values[tuple(src_sl)]
    return out


# a custom curve whose x2 shifts take both signs and, at h = 2^-3, leave the
# grid (empty node slices), and a cubic with negative coefficients
ODD_CURVES = {
    "wide": ModelFamily("wide", ((0.0, 1.0), (0.0, -1.0, 2.0)), ((-1.0, 1.0),) * 3),
    "negcubic": ModelFamily("negcubic", ((0.0, 1.0), (0.0, 0.5, -1.0), (0.0, -0.25, 0.0, -1.0)),
                            ((-1.0, 1.0),) * 4),
}


@pytest.mark.parametrize("name", ["parabola", "cubic", "quartic", "wide", "negcubic"])
@pytest.mark.parametrize("h", [2.0 ** -3, 2.0 ** -5])
def test_shift_sum_matches_per_node_loop_bitwise(models, monkeypatch, name, h):
    model = models.get(name) or ODD_CURVES[name]
    rng = np.random.default_rng(9)
    f = make_grid(model.d, h)
    f.values[:] = rng.standard_normal(f.values.shape)
    f.values[rng.random(f.values.shape) < 0.2] = 0.0
    n0 = f.values.shape[0]
    assert n0 % 3 != 0
    # one padded row as _shift_sum lays it out: N_i + the largest |shift|
    # among nodes that read some grid cell
    shifts = radon._shifts(model, h, t_node_range(h))
    pads = np.abs(shifts[(np.abs(shifts) < f.values.shape).all(axis=1), 1:]).max(axis=0)
    row_bytes = 8 * math.prod(n + p for n, p in zip(f.values.shape[1:], pads.tolist()))
    # the module's tile, one row per tile, and 3 rows per tile, which divides no n0 here
    for tile_bytes in (radon.SHIFT_TILE_BYTES, 1, 3 * row_bytes):
        monkeypatch.setattr(radon, "SHIFT_TILE_BYTES", tile_bytes)
        for transform, sign in ((apply_T, 1), (apply_Tstar, -1)):
            got = transform(model, f).values
            want = reference_shift_sum(model, f, sign)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (tile_bytes, sign)


def test_shift_sum_cases_have_empty_node_slices():
    # at h = 2^-3 the "wide" curve shifts x2 both ways, by up to 24 cells on a
    # 17-cell axis, so some nodes read no grid cell at all
    shifts = radon._shifts(ODD_CURVES["wide"], 2.0 ** -3, t_node_range(2.0 ** -3))
    assert np.abs(shifts[:, 1]).max() >= 17
    assert shifts[:, 1].min() < 0 < shifts[:, 1].max()


def test_dense_grid_limit_named_before_allocating():
    # 1025^3 cells at h = 2^-9 in d = 3: refused with the limit and the count,
    # before any grid-sized allocation
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"1025\^3 = 1076890625 cells.*2\^26 = 67108864"):
            make_grid(3, 2.0 ** -9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestPairing:
    def test_full_box_mass(self, parabola):
        E = LatticeSet.from_box([-0.5, -0.5], [0.5, 0.5], H)
        F = LatticeSet.from_box([-0.95, -0.95], [0.95, 0.95], H)
        pr = pairing(parabola, E, F)
        ref = conftest.continuum_pairing(E, F, GAMMAS["parabola"])
        assert pr.lattice == pytest.approx(ref, rel=0.05)

    def test_quad_vs_lattice_on_random_slabs(self, parabola, rng):
        # the lattice pairing against the continuum integral over the boxes
        done = 0
        while done < 20:
            E = random_box(rng)
            F = random_box(rng)
            try:
                pr = pairing(parabola, E, F)
            except ResolutionError:
                continue  # sets too far apart to incide; redraw
            ratio = pr.lattice / conftest.continuum_pairing(E, F, GAMMAS["parabola"])
            assert PAIRING_BAND[0] <= ratio <= PAIRING_BAND[1]
            done += 1

    def test_ball_pair_contains_ball(self, parabola):
        d = 2.0 ** -4
        ball = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, d / 8)
        pr = pairing(parabola, ball.proj1, ball.proj2)
        assert pr.lattice >= ball.volume - 1e-12
        omega = incidence_set(parabola, ball.proj1, ball.proj2)
        assert ball.cells.issubset(omega)

    def test_mismatched_sets_raise_config(self, parabola, cubic):
        E = LatticeSet.from_box([0, 0], [0.25, 0.25], H)
        F = LatticeSet.from_box([0, 0], [0.25, 0.25], H / 2)
        with pytest.raises(ConfigError):
            incidence_set(parabola, E, F)
        with pytest.raises(ConfigError):
            pairing(cubic, E, E)
        with pytest.raises(ConfigError):
            apply_T(cubic, make_grid(2, H))

    def test_empty_error(self, parabola):
        E = LatticeSet.from_box([0, 0], [0.25, 0.25], H)
        with pytest.raises(DegenerateError):
            pairing(parabola, E, LatticeSet.empty(H, 2))

    def test_tiny_incidence_raises_resolution(self, parabola):
        E = LatticeSet.from_box([-0.9, -0.9], [-0.65, -0.65], H)
        F = LatticeSet.from_box([0.65, 0.65], [0.9, 0.9], H)
        with pytest.raises(ResolutionError):
            pairing(parabola, E, F)

    def test_positivity_and_monotonicity(self, parabola):
        E1 = LatticeSet.from_box([0.0, 0.0], [0.25, 0.25], H)
        E2 = LatticeSet.from_box([-0.25, -0.25], [0.25, 0.25], H)
        F = LatticeSet.from_box([-0.5, -0.5], [0.5, 0.5], H)
        p1 = pairing(parabola, E1, F)
        p2 = pairing(parabola, E2, F)
        assert 0 <= p1.quadrature <= p2.quadrature
        assert p1.lattice <= p2.lattice


def brute_incidence(gamma, F, h, nh):
    """{x: t-cells} by pure-Python loops over y in F and nodes j: x is the cell
    (index i covers [i h - h/2, i h + h/2)) of the point y h - gamma(j h), kept
    when every |x_i| <= nh.  Nodes j are the centres j h in [-1, 1)."""
    fibers = {}
    for y in F.cells.tolist():
        for j in range(math.ceil(-1 / h), math.ceil(1 / h)):
            x = tuple(math.floor((yi * h - gi) / h + 0.5) for yi, gi in zip(y, gamma(j * h)))
            if max(abs(xi) for xi in x) <= nh:
                fibers.setdefault(x, []).append(j)
    return {x: sorted(js) for x, js in fibers.items()}


def oracle_draws(rng, d):
    """(E cells, F cells) draws at h = 2^-4 for the brute-force oracle:
    overlapping sets; F offset in x1 from E, so the join's per-node row slices
    of E are partial; and F one or two x1 columns wide, like the ``decompose``
    slab, against an E with x1 gaps, so some slices are empty."""
    def cells(n, lo, hi, x1_lo=None, x1_hi=None):
        out = rng.integers(lo, hi + 1, size=(n, d))
        if x1_lo is not None:
            out[:, 0] = rng.integers(x1_lo, x1_hi + 1, size=n)
        return out

    for _ in range(3):
        yield cells(60, -4, 4), cells(60, -4, 4)
    yield cells(60, -4, 4), cells(60, -4, 4, 3, 10)
    yield cells(60, -4, 4, -3, 6), cells(60, -4, 4, -10, -2)
    for width in (1, 2):  # E on even x1 only: against one column, every other slice is empty
        e_cells = cells(150, -6, 6, -4, 4)
        e_cells[:, 0] *= 2
        yield e_cells, cells(80, -6, 6, 2, 1 + width)


@pytest.mark.parametrize("name", ["parabola", "cubic"])
def test_brute_force_incidence_oracle(models, name):
    model = models[name]
    d, h = model.d, 2.0 ** -4
    nh = math.ceil(1 / h)
    rng = np.random.default_rng(5)
    for e_cells, f_cells in oracle_draws(rng, d):
        E, F = LatticeSet(h, e_cells), LatticeSet(h, f_cells)
        fibers = brute_incidence(GAMMAS[name], F, h, nh)
        omega = {x + (j,) for x in map(tuple, E.cells.tolist()) for j in fibers.get(x, [])}
        assert len(omega) >= 10
        assert pairing(model, E, F).lattice / h ** (d + 1) == len(omega)
        assert set(map(tuple, incidence_set(model, E, F).cells.tolist())) == omega
        for k in range(6):  # layers (2^(k-1) h, 2^k h] hold every nonempty fiber
            beta = h * 2.0 ** (k - 1)
            sl = superlevel_set(model, F, beta)
            want = {x: js for x, js in fibers.items() if beta < len(js) * h <= 2 * beta}
            got = {}
            for row, t in zip(sl.rows.tolist(), sl.t_cells.tolist()):
                got.setdefault(tuple(sl.E.cells[row].tolist()), []).append(t)
            assert got == want
            assert sl.rows.tolist() == sorted(sl.rows.tolist())
            assert sl.fiber_measures.tolist() == [len(want[tuple(x)]) * h for x in sl.E.cells.tolist()]


def test_pair_without_common_node(parabola):
    # y1 = x1 + j needs j >= 17, past the last node j = 15 at h = 2^-4
    h = 2.0 ** -4
    E = LatticeSet.from_box([-0.5, -0.25], [-0.25, 0.25], h)
    F = LatticeSet.from_box([0.75, -0.25], [0.9, 0.25], h)
    assert incidence_set(parabola, E, F).is_empty
    with pytest.raises(ResolutionError):
        pairing(parabola, E, F)


@pytest.mark.parametrize("first_x2", [(1 << 19) - 2, 5])
def test_probe_past_packing_range_raises(parabola, first_x2):
    # nodes 11..13 shift x2 by -8..-11 cells, so E - s leaves |index| < 2^19;
    # the join must refuse rather than return keys that alias other cells,
    # also when E's first cell, which fixes the key offsets, stays in range.
    # The join raises before pairing counts the cells against MIN_INCIDENCE_CELLS.
    h, top = 2.0 ** -4, 1 << 19
    E = LatticeSet(h, [[0, first_x2], [1, top - 3]])
    F = LatticeSet(h, [[12, top - 2], [13, 5]])
    with pytest.raises(ConfigError, match=r"2\^19"):
        pairing(parabola, E, F)
    with pytest.raises(ConfigError, match=r"2\^19"):
        incidence_set(parabola, E, F)


class TestRwt:
    def test_strong_type_1_inf_1(self, parabola):
        # <T chi_E, chi_F> / |E| <= full t mass
        E = LatticeSet.from_box([-0.4, -0.4], [0.4, 0.4], H)
        F = LatticeSet.from_box([-0.95, -0.95], [0.95, 0.95], H)
        ratio = rwt_ratio(parabola, E, F, p=1, q=math.inf, r=1)
        assert ratio <= 2.0 + 1e-9

    def test_relabeling_invariance(self, parabola):
        # pure function of set geometry: same sets, same value
        E = LatticeSet.from_box([0.0, 0.0], [0.25, 0.25], H)
        F = LatticeSet.from_box([0.0, 0.0], [0.5, 0.5], H)
        r1 = rwt_ratio(parabola, E, F, 1.5, 3.0, 3.0)
        r2 = rwt_ratio(parabola, LatticeSet(H, E.cells.copy()), F, 1.5, 3.0, 3.0)
        assert r1 == r2


class TestSuperlevel:
    def test_full_f_layers(self, parabola):
        F = LatticeSet.from_box([-0.95, -0.95], [0.95, 0.95], H)
        # T* chi_F ~ 2 deep inside; beta = 1.1 puts interior x in (1.1, 2.2]
        sl = superlevel_set(parabola, F, beta=1.1)
        assert not sl.is_empty
        assert np.all(sl.fiber_measures > 1.1) and np.all(sl.fiber_measures <= 2.2)

    def test_beta_above_total_mass_empty(self, parabola):
        F = LatticeSet.from_box([-0.95, -0.95], [0.95, 0.95], H)
        assert superlevel_set(parabola, F, beta=2.5).is_empty

    def test_pi_slab_fiber_width(self, parabola):
        a = 0.125
        F = LatticeSet.from_box([0.25, -0.9], [0.25 + a, 0.9], H)
        sl = superlevel_set(parabola, F, beta=a / 1.5)
        assert not sl.is_empty
        # coreregion fibers have measure exactly a (gamma_1(t) = t makes the
        # Pi constraint affine in t)
        frac = np.mean(np.abs(sl.fiber_measures - a) <= 2 * H)
        assert frac >= 0.9

    def test_beta_validation(self, parabola):
        F = LatticeSet.from_box([0, 0], [0.25, 0.25], H)
        with pytest.raises(ConfigError):
            superlevel_set(parabola, F, beta=0.0)

    def test_omega_chain_at_lattice_scale(self, parabola):
        # |Omega| / (beta |E|) in [1/4, 4] for the superlevel layer: fibers
        # carry mass in (beta, 2 beta] exactly, and Omega collects them
        beta = 0.1
        F = LatticeSet.from_box([0.1, -0.9], [0.25, 0.9], H)
        sl = superlevel_set(parabola, F, beta=beta)
        omega = incidence_set(parabola, sl.E, F)
        ratio = omega.measure / (beta * sl.E.measure)
        assert 0.25 <= ratio <= 4.0


def reference_necessity_union(model, balls, p, q, r, n_translates=None):
    """The per-copy union: each translate's cells, projections and Pi columns
    are shifted along x1 on their own and then joined.  Same spacing and
    count rules as ``necessity_union``; no range checks."""
    ip = 0.0 if p == math.inf else 1.0 / float(p)
    qc, rc = conjugate(float(q)), conjugate(float(r))
    records = []
    for n, ball in enumerate(balls):
        h = ball.h
        spacing = int(ball.pi_cols.max() - ball.pi_cols.min()) + 2
        idx_hi = int(math.floor(model.domain[0][1] / h + 0.5)) - 1
        fit = 1 + (idx_hi - int(ball.cells.cells[:, 0].max())) // spacing
        want = n_translates if n_translates is not None else max(2, int(1.0 / ball.delta1))
        count = min(want, fit)

        def union(cells):
            copies = []
            for k in range(count):
                moved = cells.copy()
                moved[:, 0] += k * spacing
                copies.append(moved)
            return LatticeSet(h, np.concatenate(copies))

        union_z, union_p1, union_p2 = union(ball.cells.cells), union(ball.proj1.cells), union(ball.proj2.cells)
        norm = mixed_norm_indicator(union_p2, qc, rc)
        records.append(radon.NecessityRecord(
            n=n, delta1=ball.delta1, delta2=ball.delta2, h=h, n_translates=count, spacing_cells=spacing,
            union_volume=union_z.measure, proj1_measure=union_p1.measure,
            norm=norm, ratio=float(union_z.measure / (union_p1.measure ** ip * norm)),
        ))
    return records


class TestNecessity:
    def test_union_matches_per_copy_reference(self, parabola, cubic):
        # the union is tiled once and projected, instead of shifting each
        # copy's projections: the records must agree to the bit
        balls = [reach_ball(parabola, (-0.8, 0.0, 0.0), d, d, default_h_rule(d, d))
                 for d in (2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6)]
        assert necessity_union(parabola, balls, 1.15, 1, math.inf) == \
            reference_necessity_union(parabola, balls, 1.15, 1, math.inf)
        d = 2.0 ** -3
        ball = reach_ball(cubic, (-0.7, 0.0, 0.0, 0.0), d, d, d / 8)
        for n_translates in (None, 3):
            got = necessity_union(cubic, [ball], 2.0, 1.5, 4.0, n_translates=n_translates)
            assert got == reference_necessity_union(cubic, [ball], 2.0, 1.5, 4.0, n_translates=n_translates)
            assert got[0].n_translates >= 3

    def test_translates_and_growth(self, parabola):
        p, q, r = 1.25, 1.0, math.inf
        balls = []
        for n in range(3):
            d = 2.0 ** (-3 - n)
            h = min(2 * d * d, d / 4)
            balls.append(reach_ball(parabola, (-0.8, 0.0, 0.0), d, d, h))
        records = necessity_union(parabola, balls, p, q, r)
        for rec in records:
            assert rec.n_translates >= 2
        assert records[2].ratio / records[0].ratio > 1.5

    def test_domain_overflow(self, parabola):
        d = 2.0 ** -3
        ball = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, d / 8)
        with pytest.raises(ConfigError):
            necessity_union(parabola, [ball], 1.25, 1.0, math.inf, n_translates=1000)

    def test_union_volume_additive(self, parabola):
        d = 2.0 ** -4
        ball = reach_ball(parabola, (-0.8, 0.0, 0.0), d, d, d / 8)
        rec = necessity_union(parabola, [ball], 2.0, 1.5, 4.0, n_translates=3)[0]
        assert rec.union_volume == pytest.approx(3 * ball.volume, rel=1e-12)

    def test_union_pi2_columns_repeat_the_ball(self, parabola, monkeypatch):
        # the pi2 image whose norm the record reports holds, column by column,
        # the ball's proj2 column counts repeated once per translate at the
        # spacing; copies whose Pi columns met would merge cells there
        seen = []

        def norm(F, qc, rc):
            seen.append(F)
            return mixed_norm_indicator(F, qc, rc)

        monkeypatch.setattr(radon, "mixed_norm_indicator", norm)
        d = 2.0 ** -4
        ball = reach_ball(parabola, (-0.8, 0.0, 0.0), d, d, d / 8)
        rec = necessity_union(parabola, [ball], 2.0, 1.5, 4.0, n_translates=3)[0]
        cols, counts = np.unique(ball.proj2.cells[:, 0], return_counts=True)
        want = {}
        for k in range(rec.n_translates):
            for c, n in zip((cols + k * rec.spacing_cells).tolist(), counts.tolist()):
                want[c] = want.get(c, 0) + n
        got_cols, got_counts = np.unique(seen[0].cells[:, 0], return_counts=True)
        assert dict(zip(got_cols.tolist(), got_counts.tolist())) == want


def test_t_node_range_exact_window():
    # the nodes are the centres j h in [-1, 1): -1 is one, 1 is not
    assert t_node_range(0.125).tolist() == list(range(-8, 8))
    # 1 / 0.1 rounds to 10 and 10 * 0.1 to 1.0, but the same end rule holds
    assert t_node_range(0.1).tolist() == list(range(-10, 10))
