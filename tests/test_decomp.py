import math

import numpy as np
import pytest

from ccradon.ccball import reach_ball
from ccradon.decomp import (
    CentralSetSpec,
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


def exhaustive_minimal_dyadic(cells, h, eta, c_eta):
    """Independent oracle: enumerate every dyadic interval, test the mass
    condition directly, take the minimal length, leftmost."""
    level = round(math.log2(1.0 / h))
    cells = set(int(c) for c in np.asarray(cells).ravel())
    total = len(cells) * h
    best = None
    for lev in range(0, level + 1):
        length = 2.0 ** -lev
        for index in range(-(1 << lev), 1 << lev):
            b = 1 << (level - lev)
            lo_cell = index * b
            mass = sum(1 for c in cells if lo_cell <= c < lo_cell + b) * h
            if mass >= c_eta * length ** eta * total - 1e-12:
                cand = (lev, index)
                if best is None or cand[0] > best[0]:
                    best = cand
                elif cand[0] == best[0] and cand[1] < best[1]:
                    best = cand
    return best


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
        for key in ("partition_exact", "selected_ge_average", "m_range_ok", "k_range_ok",
                    "count_log2_bound", "count_beta_eta_bound"):
            assert strat.verdicts[key], key

    def test_partition_bounds(self, slab_setup):
        model, F, fibs, strat = slab_setup
        part = partition(model, fibs, strat, F, C=8.0)
        v = part.verdicts
        assert v["localized_ok"]
        assert v["e_overlap_ok"]
        assert v["f_cover_ok"]
        assert v["omega_lower_ok"] and v["omega_upper_ok"]
        assert max(v["c_prime_lower"], v["c_prime_upper"]) <= 4.0

    def test_single_slab_single_triple(self, slab_setup):
        model, F, fibs, strat = slab_setup
        part = partition(model, fibs, strat, F, C=8.0)
        nonempty_e = [n for n in part.n_values if part.e_counts[n] > 0]
        assert max(nonempty_e) - min(nonempty_e) <= 1
        nonempty_f = [n for n in part.n_values if part.f_counts[n] > 0]
        assert max(nonempty_f) - min(nonempty_f) <= 2

    def test_widthbound(self, slab_setup):
        _, _, fibs, strat = slab_setup
        ok, worst = widthbound_check(fibs, strat, n_samples=100, seed=1)
        assert ok, worst

    def test_delta1_bound(self, slab_setup):
        model, F, fibs, strat = slab_setup
        part = partition(model, fibs, strat, F, C=8.0)
        n = max(part.n_values, key=lambda n: part.omega_measure[n])
        sel = strat.selected.indices
        res = delta1_lower_bound_check(fibs, strat, part, n, sel[: max(1, len(sel) // 2)])
        assert res["ok"]

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
        for n in part.n_values:
            w_lo, w_hi = (n - 1) * L, (n + 2) * L
            mask = (F.cells[:, 0] * h >= w_lo - 1e-15) & (F.cells[:, 0] * h < w_hi - 1e-15)
            if mask.any():
                total += mixed_norm_indicator(LatticeSet(h, F.cells[mask]), qc, rc) ** qc
        assert total <= 3.0 * mixed_norm_indicator(F, qc, rc) ** qc + 1e-12


def test_stratify_empty_input_yields_empty_result():
    from ccradon.decomp import PiFibers

    fibs = PiFibers(h=2.0 ** -7, d=2, beta=0.1,
                    x_cells=np.empty((0, 2), dtype=np.int64), fibers_u=[],
                    measures=np.empty(0))
    res = stratify(fibs, eta=0.125, c_eta=0.25)
    assert res.strata == [] and res.selected is None
    assert res.verdicts.get("empty")


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
        res = dense_ball_search(parabola, ball.cells, [(d, d)], varrho=0.1)
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
        res = dense_ball_search(parabola, omega, [(d, d)], varrho=0.1, max_centers=24)
        assert res.density >= 0.5

    def test_random_sprinkling(self, parabola, rng):
        h = 2.0 ** -5
        box = LatticeSet.from_box([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5], h)
        keep = rng.random(box.n_cells) < 0.1
        omega = LatticeSet(h, box.cells[keep])
        res = dense_ball_search(parabola, omega, [(0.25, 0.25)], varrho=0.1, max_centers=8)
        assert res.density >= 0.05
