import math

import numpy as np
import pytest
from conftest import exhaustive_minimal_dyadic
from hypothesis import given, settings
from hypothesis import strategies as st

from ccradon.ccball import pi2_cells, reach_ball
from ccradon.decomp import (
    C_WB,
    CentralSetSpec,
    DyadicInterval,
    PiFibers,
    Stratum,
    StratifyResult,
    dense_ball_search,
    delta1_lower_bound_check,
    is_central,
    localization_check,
    minimal_dyadic,
    omega_stats,
    partition,
    stratify,
    to_pi_fibers,
    widthbound_check,
)
from ccradon.errors import ConfigError, DegenerateError
from ccradon.lattice import LatticeSet
from ccradon.radon import superlevel_set


class TestMinimalDyadic:
    def test_worked_example(self):
        h = 2.0 ** -10
        cells = np.arange(0, int(0.25 / h))
        I = minimal_dyadic(cells, h, eta=0.5, c_eta=0.25)
        assert (I.level, I.index) == (8, 0)
        assert I.lo == 0.0 and I.hi == 2.0 ** -8

    def test_entire_interval_has_qualifier(self):
        h = 2.0 ** -8
        cells = np.arange(-(1 << 8), 1 << 8)
        I = minimal_dyadic(cells, h, eta=0.5, c_eta=0.25)
        # no interval shorter than (c_eta |S|)^(1/(1-eta)) can qualify
        assert I.length >= (0.25 * 2.0) ** 2 - 1e-12

    def test_matches_exhaustive_oracle(self, rng):
        h = 2.0 ** -8
        for _ in range(50):
            n_cells = int(rng.integers(3, 60))
            cells = np.unique(rng.integers(-(1 << 8), 1 << 8, size=n_cells))
            eta = float(rng.uniform(0.1, 0.6))
            c_eta = float(rng.uniform(0.05, 0.3))
            got = minimal_dyadic(cells, h, eta=eta, c_eta=c_eta)
            want = exhaustive_minimal_dyadic(cells, h, eta, c_eta)
            assert (got.level, got.index) == want

    def test_localization_holds(self, rng):
        h = 2.0 ** -8
        for _ in range(20):
            cells = np.unique(rng.integers(-64, 256, size=40))
            I = minimal_dyadic(cells, h, eta=0.25, c_eta=0.25)
            assert localization_check(cells, h, I, eta=0.25)

    def test_localization_fails_on_concentrated_set(self):
        # 16 cells fill the quarter [0, 1/4) of I = [0, 1): 1/4 > (1/4)^0.5 |S| + h
        h = 2.0 ** -6
        assert not localization_check(np.arange(16), h, DyadicInterval(level=0, index=0), eta=0.5)

    def test_no_qualifier_error(self):
        h = 2.0 ** -8
        with pytest.raises(ConfigError):
            minimal_dyadic(np.array([0]), h, eta=0.5, c_eta=10.0)

    def test_empty_error(self):
        with pytest.raises(DegenerateError):
            minimal_dyadic(np.array([], dtype=np.int64), 2.0 ** -8, 0.5, 0.25)


class TestCentral:
    def test_symmetric_interval(self):
        h = 2.0 ** -10
        w = 0.0625
        cells = np.arange(-int(w / h), int(w / h))
        ok, _ = is_central(cells, h, CentralSetSpec(width=w, eps=0.5, c_eps=2.0))
        assert ok

    def test_distant_set_fails_support(self):
        h = 2.0 ** -10
        w = 0.0625
        cells = np.arange(int(8 * w / h), int(10 * w / h))
        ok, _ = is_central(cells, h, CentralSetSpec(width=w, eps=0.5, c_eps=2.0))
        assert not ok

    def test_single_cell(self):
        h = 2.0 ** -10
        ok, wit = is_central(np.array([0]), h, CentralSetSpec(width=h, eps=0.5, c_eps=1.0))
        assert ok
        assert not wit.violates

    def test_witness_identifies_violation(self):
        h = 2.0 ** -10
        # mass concentrated in a tiny subinterval of a wide claimed width
        cells = np.arange(0, 4)
        ok, wit = is_central(cells, h, CentralSetSpec(width=0.5, eps=1.0, c_eps=1.0))
        assert not ok
        assert wit.violates and wit.mass > wit.bound


@pytest.fixture(scope="module")
def slab_setup():
    from ccradon.geometry import builtin_models

    model = builtin_models()["parabola"]
    h = 2.0 ** -7
    F = LatticeSet.from_box([0.2, -0.9], [0.26, 0.9], h)
    sl = superlevel_set(model, F, beta=0.05)
    fibs = to_pi_fibers(sl)
    strat = stratify(fibs, eta=0.125, c_eta=0.25)
    return model, F, fibs, strat


class TestStratifyPartition:
    def test_single_slab_concentrates(self, slab_setup):
        model, F, fibs, strat = slab_setup
        total = fibs.total_pairing()
        assert strat.selected.pairing >= 0.9 * total

    def test_stratify_verdicts(self, slab_setup):
        _, _, _, strat = slab_setup
        for key in ("m_range_ok", "k_range_ok", "count_log2_bound", "count_beta_eta_bound"):
            assert strat.verdicts[key], key

    def test_partition_bounds(self, slab_setup):
        model, F, fibs, strat = slab_setup
        part = partition(model, fibs, strat, F, C=8.0)
        v = part.verdicts
        assert v["localized_ok"]
        assert v["omega_lower_ok"] and v["omega_upper_ok"]
        assert max(v["c_prime_lower"], v["c_prime_upper"]) <= 4.0

    def test_single_slab_single_triple(self, slab_setup):
        model, F, fibs, strat = slab_setup
        part = partition(model, fibs, strat, F, C=8.0)
        nonempty_e = [n for n in part.e_counts if part.e_counts[n] > 0]
        assert max(nonempty_e) - min(nonempty_e) <= 1
        nonempty_f = [n for n in part.e_counts if part.f_counts[n] > 0]
        assert max(nonempty_f) - min(nonempty_f) <= 2

    def test_widthbound(self, slab_setup):
        _, _, fibs, strat = slab_setup
        ok, worst = widthbound_check(fibs, strat)
        assert ok, worst

    def test_delta1_bound(self, slab_setup):
        model, F, fibs, strat = slab_setup
        part = partition(model, fibs, strat, F, C=8.0)
        n = max(part.e_counts, key=lambda n: part.omega_measure[n])
        sel = strat.selected.indices
        res = delta1_lower_bound_check(fibs, strat, part, n, sel[: max(1, len(sel) // 2)])
        assert res["ok"]

    def test_delta1_unknown_n_names_it(self, slab_setup):
        model, F, fibs, strat = slab_setup
        part = partition(model, fibs, strat, F, C=8.0)
        bad = max(part.e_counts) + 5
        with pytest.raises(ConfigError, match=f"n = {bad} "):
            delta1_lower_bound_check(fibs, strat, part, bad, strat.selected.indices)

    def test_delta1_subset_without_cells_is_degenerate(self, slab_setup):
        # an empty subset carries lambda = 0, which would pass vacuously
        model, F, fibs, strat = slab_setup
        part = partition(model, fibs, strat, F, C=8.0)
        n = max(part.e_counts, key=lambda n: part.omega_measure[n])
        with pytest.raises(DegenerateError):
            delta1_lower_bound_check(fibs, strat, part, n, [])

    def test_partition_requires_c(self, slab_setup):
        model, F, fibs, strat = slab_setup
        with pytest.raises(ConfigError):
            partition(model, fibs, strat, F, C=2.0)

    def test_f_norm_overlap_bound(self, slab_setup):
        # sum_n ||chi_{F_n}||^{q'} <= 3 ||chi_F||^{q'}: the 3-windows cover F
        # at most threefold and the norm is power-additive over slices
        from ccradon.mixednorm import mixed_norm_indicator

        model, F, fibs, strat = slab_setup
        part = partition(model, fibs, strat, F, C=8.0)
        h = F.h
        qc, rc = 3.0, 1.5
        L = part.interval_length
        total = 0.0
        for n in part.e_counts:
            w_lo, w_hi = (n - 1) * L, (n + 2) * L
            mask = (F.cells[:, 0] * h >= w_lo - 1e-15) & (F.cells[:, 0] * h < w_hi - 1e-15)
            if mask.any():
                total += mixed_norm_indicator(LatticeSet(h, F.cells[mask]), qc, rc) ** qc
        assert total <= 3.0 * mixed_norm_indicator(F, qc, rc) ** qc + 1e-12


def test_stratify_empty_input_is_degenerate():
    fibs = PiFibers(h=2.0 ** -7, d=2, beta=0.1,
                    x_cells=np.empty((0, 2), dtype=np.int64), rows=np.empty(0, dtype=np.int64),
                    u_cells=np.empty(0, dtype=np.int64), measures=np.empty(0))
    with pytest.raises(DegenerateError, match="nonempty superlevel set"):
        stratify(fibs, eta=0.125, c_eta=0.25)


# --------------------------------------------------------------------------
# stratify on many rows against the one-set oracle
# --------------------------------------------------------------------------

LEVEL = 6  # h = 2^-6: u-cells in [-64, 64)
HALF = 1 << LEVEL


def flat_fibers(rows, h, beta=0.05):
    """PiFibers holding one u-cell set per row (distinct dummy x-cells)."""
    counts = [len(cells) for cells in rows]
    return PiFibers(
        h=h, d=2, beta=beta,
        x_cells=np.column_stack([np.arange(len(rows)), np.zeros(len(rows), dtype=np.int64)]),
        rows=np.repeat(np.arange(len(rows)), counts),
        u_cells=np.array([c for cells in rows for c in sorted(cells)], dtype=np.int64),
        measures=np.array(counts, dtype=np.int64) * h,
    )


@st.composite
def fiber_row(draw):
    kind = draw(st.sampled_from(["random", "single", "edge", "tie", "run"]))
    if kind == "single":
        return {draw(st.integers(-HALF, HALF - 1))}
    if kind == "run":  # consecutive cells, concentrated inside wide dyadic intervals
        start = draw(st.integers(-HALF, HALF - 1))
        return set(range(start, min(start + draw(st.integers(2, 24)), HALF)))
    if kind == "tie":  # one pattern in both halves of a dyadic block
        lev = draw(st.integers(1, LEVEL))
        b = 1 << (LEVEL - lev)
        start = draw(st.integers(-(1 << (lev - 1)), (1 << (lev - 1)) - 1)) * 2 * b
        pattern = draw(st.sets(st.integers(0, b - 1), min_size=1, max_size=16))
        return {start + c for c in pattern} | {start + b + c for c in pattern}
    cells = draw(st.sets(st.integers(-HALF, HALF - 1), min_size=1, max_size=40))
    if kind == "edge":  # touches u = -1 or the last cell below u = 1
        cells.add(draw(st.sampled_from([-HALF, HALF - 1])))
    return cells


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(fiber_row(), min_size=1, max_size=6),
       eta=st.floats(0.1, 0.6), c_eta=st.floats(0.05, 0.3))
def test_stratify_matches_oracle_per_row(rows, eta, c_eta):
    h = 2.0 ** -LEVEL
    fibs = flat_fibers(rows, h)
    strat = stratify(fibs, eta=eta, c_eta=c_eta)
    assert sorted(i for s in strat.strata for i in s.indices.tolist()) == list(range(len(rows)))
    for r, cells in enumerate(rows):
        lev, index = exhaustive_minimal_dyadic(sorted(cells), h, eta, c_eta)
        assert strat.intervals[r].tolist() == [lev, index]
        b = 1 << (LEVEL - lev)
        mass = sum(1 for c in cells if index * b <= c < (index + 1) * b) * h
        (stratum,) = [s for s in strat.strata if r in s.indices]
        assert (stratum.m, stratum.k) == (math.floor(math.log2(2.0 ** -lev / fibs.beta)), math.floor(math.log2(mass)))


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(fiber_row(), min_size=1, max_size=6), eta=st.floats(0.1, 0.6),
       i_level=st.integers(0, LEVEL))
def test_widthbound_and_localization_match_block_loop(rows, eta, i_level):
    # every dyadic block counted one at a time, against the one level walk
    h = 2.0 ** -LEVEL
    fibs = flat_fibers(rows, h)
    strat = stratify(fibs, eta=eta, c_eta=0.05)
    sel = strat.selected

    def mass(cells, lev, j):
        b = 1 << (LEVEL - lev)
        return sum(j * b <= c < (j + 1) * b for c in cells) * h

    worst = 0.0
    for lev in range(LEVEL + 1):
        bound = C_WB * (2.0 ** -lev) ** eta * (2.0 ** sel.m * fibs.beta) ** -eta * 2.0 ** sel.k
        for r in sel.indices.tolist():
            worst = max([worst] + [mass(rows[r], lev, j) / bound for j in range(-(1 << lev), 1 << lev)])
    ok, got = widthbound_check(fibs, strat)
    assert got == pytest.approx(worst, rel=1e-12)
    assert ok == (worst <= 1.0 + 1e-9)

    # I: the dyadic interval of level i_level around the first cell of row 0
    I = DyadicInterval(level=i_level, index=min(rows[0]) >> (LEVEL - i_level))
    mass_i = mass(rows[0], I.level, I.index)
    want = all(
        mass(rows[0], lev, j) <= (2.0 ** -lev / I.length) ** eta * mass_i + h + 1e-12
        for lev in range(I.level, LEVEL + 1)
        for j in range(I.index << (lev - I.level), (I.index + 1) << (lev - I.level))
    )
    assert localization_check(np.array(sorted(rows[0])), h, I, eta) == want


@pytest.mark.parametrize("rows, eta, c_eta, match", [
    ([{0, 1}, {HALF}], 0.125, 0.25, "exceeds"),
    ([{-HALF - 1}, {0}], 0.125, 0.25, "exceeds"),
    # the finest level qualifies for the single cell (4 h^0.5 <= 1) but no
    # unit root can hold 4 |S|
    ([{0, 5, 9}, {0}], 0.5, 4.0, "unit level"),
    ([{0}], 1.0, 0.25, "eta"),
])
def test_stratify_rejects_bad_fibers(rows, eta, c_eta, match):
    with pytest.raises(ConfigError, match=match):
        stratify(flat_fibers(rows, 2.0 ** -LEVEL), eta=eta, c_eta=c_eta)


def test_widthbound_exhaustive_finds_block_that_draws_miss():
    # twenty selected rows with m = 0, k = -6, beta = 1/4, eta = 1/2, so the
    # bound is C_WB |J|^eta (2^m beta)^-eta 2^k = 2^(-lev/2) / 4 at level lev.
    # Row 7 packs 8 cells into J = [16h, 24h) (level 3, index 2): ratio sqrt(2).
    # Every other (row, dyadic block) stays within the bound.
    h = 2.0 ** -LEVEL
    rows = [{-40, -8, 24, 56} for _ in range(20)]
    rows[7] = set(range(16, 24))
    fibs = flat_fibers(rows, h, beta=0.25)
    sel = Stratum(m=0, k=-6, indices=np.arange(20), pairing=1.0)
    strat = StratifyResult(strata=[sel], selected=sel, intervals=np.zeros((20, 2), dtype=np.int64), eta=0.5)
    # 100 seeded (row, level, index) draws, as a sampled check takes them, miss J
    rng = np.random.default_rng(0)
    draws = set()
    for _ in range(100):
        i, lev = int(rng.choice(sel.indices)), int(rng.integers(0, LEVEL + 1))
        draws.add((i, lev, int(rng.integers(-(1 << lev), 1 << lev))))
    assert (7, 3, 2) not in draws
    ok, worst = widthbound_check(fibs, strat)
    assert not ok
    assert worst == pytest.approx(math.sqrt(2.0), rel=1e-12)


# --------------------------------------------------------------------------
# partition against the per-member reference
# --------------------------------------------------------------------------

def reference_partition(model, fibs, strat, F, C):
    """Pure-Python partition, one member at a time: E_n from each I(x), and
    the Omega^n cells, projections and verdicts window by window."""
    sel, beta, h, d = strat.selected, fibs.beta, fibs.h, fibs.d
    fibers_u = np.split(fibs.u_cells, np.cumsum(np.bincount(fibs.rows, minlength=fibs.n))[:-1])
    L = C * 2.0 ** sel.m * beta
    e_members = {}
    for i in sel.indices.tolist():
        interval = DyadicInterval(*strat.intervals[i].tolist())
        for n in range(math.floor(interval.lo / L), math.floor((interval.hi - 1e-15) / L) + 1):
            e_members.setdefault(n, []).append(i)
    f_cols = F.cells[:, 0]
    f_counts, omega, alpha1, alpha2 = {}, {}, {}, {}
    pair_sum, omega_lower_ok, omega_upper_ok, c_lower, c_upper = 0.0, True, True, 0.0, 0.0
    for n in sorted(e_members):
        w_lo, w_hi = (n - 1) * L, (n + 2) * L
        col_mask = (f_cols * h >= w_lo - 1e-15) & (f_cols * h < w_hi - 1e-15)
        f_counts[n] = int(col_mask.sum())
        z_blocks = []
        for i in e_members[n]:
            u = fibers_u[i]
            inside = u[(u * h >= w_lo - 1e-15) & (u * h < w_hi - 1e-15)]
            if inside.size:
                zc = np.empty((inside.size, d + 1), dtype=np.int64)
                zc[:, :d] = fibs.x_cells[i]
                zc[:, d] = inside - fibs.x_cells[i][0]
                z_blocks.append(zc)
        om_cells = sum(len(z) for z in z_blocks)
        omega[n] = om_measure = om_cells * h ** (d + 1)
        pair_sum += om_measure
        e_measure = len(e_members[n]) * h ** d
        lower, upper = 2.0 ** sel.k * e_measure, beta * e_measure
        omega_lower_ok &= not om_measure + 1e-15 < lower
        omega_upper_ok &= not om_measure > 2.0 * upper + 1e-15
        c_lower = max(c_lower, lower / om_measure if om_measure > 0 else math.inf)
        c_upper = max(c_upper, om_measure / upper if upper > 0 else math.inf)
        if z_blocks:
            zc = np.concatenate(z_blocks, axis=0)
            alpha1[n] = om_measure / (len(np.unique(zc[:, :d], axis=0)) * h ** d)
            alpha2[n] = om_measure / (len(np.unique(pi2_cells(model, zc, h), axis=0)) * h ** d)
        else:
            alpha1[n] = alpha2[n] = 0.0
    total_pair = float(fibs.measures[sel.indices].sum()) * h ** d
    return {
        "interval_length": L,
        "e_counts": {n: len(v) for n, v in e_members.items()},
        "f_counts": f_counts,
        "omega_measure": omega,
        "alpha1": alpha1,
        "alpha2": alpha2,
        "verdicts": {
            "localized_ok": pair_sum >= total_pair - 1e-12,
            "omega_lower_ok": omega_lower_ok,
            "omega_upper_ok": omega_upper_ok,
            "c_prime_lower": c_lower,
            "c_prime_upper": c_upper,
        },
    }


@pytest.mark.parametrize("k", [6, 7])
def test_partition_matches_reference_on_slab(parabola, k):
    h = 2.0 ** -k
    F = LatticeSet.from_box([0.2, -0.9], [0.26, 0.9], h)
    fibs = to_pi_fibers(superlevel_set(parabola, F, beta=0.05))
    strat = stratify(fibs, eta=0.125, c_eta=0.25)
    assert vars(partition(parabola, fibs, strat, F, C=8.0)) == reference_partition(parabola, fibs, strat, F, 8.0)


@pytest.mark.parametrize("name", ["parabola", "cubic"])
def test_partition_matches_reference_on_random_sets(models, name):
    model = models[name]
    h = 2.0 ** -5 if model.d == 2 else 2.0 ** -4
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(3):
        box = LatticeSet.from_box([-0.3] * model.d, [0.3] * model.d, h)
        F = LatticeSet(h, box.cells[rng.random(box.n_cells) < 0.3])
        for k in range(6):  # layers (2^(k-1) h, 2^k h]
            sl = superlevel_set(model, F, h * 2.0 ** (k - 1))
            if sl.is_empty:
                continue
            fibs = to_pi_fibers(sl)
            strat = stratify(fibs, eta=float(rng.uniform(0.1, 0.6)), c_eta=float(rng.uniform(0.05, 0.3)))
            C = float(rng.choice([4.0, 8.0]))
            if C * 2.0 ** strat.selected.m * fibs.beta <= h:
                continue
            part = partition(model, fibs, strat, F, C=C)
            assert vars(part) == reference_partition(model, fibs, strat, F, C)
            assert list(part.e_counts) == sorted(part.e_counts)  # partition.csv row order
            checked += 1
    assert checked >= 6


class TestOmegaStats:
    def test_full_box(self, parabola):
        h = 2.0 ** -5
        omega = LatticeSet.from_box([-0.5, -0.5, -0.25], [0.5, 0.5, 0.25], h)
        stats = omega_stats(parabola, omega)
        # alpha1 = t-fiber length over the x-shadow
        assert stats.alpha1 == pytest.approx(0.5, rel=0.1)
        assert stats.alpha == min(stats.alpha1, stats.alpha2)

    def test_single_cell(self, parabola):
        h = 2.0 ** -5
        omega = LatticeSet(h, np.array([[0, 0, 0]]))
        stats = omega_stats(parabola, omega)
        assert stats.alpha1 == pytest.approx(h)
        assert stats.alpha2 == pytest.approx(h)

    def test_ball_alphas_track_radii(self, parabola):
        d = 2.0 ** -4
        ball = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, d / 8)
        stats = omega_stats(parabola, ball.cells)
        assert d / 4 <= stats.alpha1 <= 4 * d
        assert d / 4 <= stats.alpha2 <= 4 * d

    def test_empty_error(self, parabola):
        with pytest.raises(DegenerateError):
            omega_stats(parabola, LatticeSet.empty(0.25, 3))


class TestDenseBallSearch:
    def test_self_ball(self, parabola):
        d = 2.0 ** -4
        h = d / 8
        ball = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, h)
        res = dense_ball_search(parabola, ball.cells, [(d, d)])
        assert res.density == pytest.approx(1.0)
        assert res.meets_bound and res.meets_swapped

    def test_bad_radii_raise_instead_of_skipping(self, parabola):
        # the caller's error surfaces; it is not reported as "no admissible pair"
        d = 2.0 ** -4
        ball = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, d / 8)
        with pytest.raises(ConfigError, match="radii must lie"):
            dense_ball_search(parabola, ball.cells, [(0.9, 0.9)])

    def test_two_distant_balls(self, parabola):
        d = 2.0 ** -4
        h = d / 8
        b1 = reach_ball(parabola, (-0.5, 0.0, 0.0), d, d, h)
        b2 = reach_ball(parabola, (0.5, 0.0, 0.0), d, d, h)
        omega = b1.cells.union(b2.cells)
        res = dense_ball_search(parabola, omega, [(d, d)], max_centers=24)
        assert res.density >= 0.5

    def test_random_sprinkling(self, parabola, rng):
        h = 2.0 ** -5
        box = LatticeSet.from_box([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5], h)
        keep = rng.random(box.n_cells) < 0.1
        omega = LatticeSet(h, box.cells[keep])
        res = dense_ball_search(parabola, omega, [(0.25, 0.25)], max_centers=8)
        assert res.density >= 0.05
