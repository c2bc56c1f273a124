import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccradon.ccball import ComparabilityWindow
from ccradon.errors import ConfigError, DegenerateError, OrderingError
from ccradon.exponents import (
    INSIDE_RATE,
    OUTSIDE_RATE,
    c_from_pq,
    c_from_pqr,
    classify_triple,
    default_h_rule,
    estimate_region,
    gammas,
    interpolation_window,
)

rationals = st.fractions(min_value=F(1), max_value=F(8), max_denominator=12)


class TestConversions:
    def test_c_from_pq_examples(self):
        assert c_from_pq(F(3, 2), 3).as_floats() == (2.0, 2.0)
        assert c_from_pq(1, math.inf).as_floats() == (1.0, 1.0)
        assert c_from_pq(2, 4).as_floats() == (2.0, 3.0)

    def test_c_from_pq_exact_rational(self):
        ce = c_from_pq(F(3, 2), 3)
        assert ce.c1 == F(2) and ce.c2 == F(2)

    def test_c_from_pq_degenerate(self):
        with pytest.raises(DegenerateError):
            c_from_pq(3, 2)
        with pytest.raises(DegenerateError):
            c_from_pq(2, 2)

    def test_c_from_pqr_examples(self):
        assert c_from_pqr(F(3, 2), 3, 3).as_floats() == (2.0, 2.0)
        assert c_from_pqr(F(5, 3), 3, 3).as_floats() == (2.25, 2.5)
        got = c_from_pqr(1, 5, math.inf)
        assert got.c1 == F(6, 5) and got.c2 == F(1)

    def test_c_from_pqr_degenerate(self):
        with pytest.raises(DegenerateError):
            c_from_pqr(3, 3, 3)

    def test_gammas_examples(self):
        assert gammas(F(3, 2), 3, 3) == (F(2), F(2), F(0))
        assert gammas(F(5, 3), 3, 3) == (F(9, 4), F(5, 2), F(0))
        assert gammas(F(3, 2), 2, 3) == (F(2), F(2), F(1, 2))

    @settings(max_examples=60, deadline=None)
    @given(p=rationals, q=rationals)
    def test_pqr_reduces_to_pq(self, p, q):
        if q <= p:
            return
        assert c_from_pqr(p, q, q) == c_from_pq(p, q)

    @settings(max_examples=60, deadline=None)
    @given(p=rationals, q=rationals, r=rationals)
    def test_gammas_match_c_when_q_equals_r(self, p, q, r):
        # gamma1 = c1 and gamma2 = c2 exactly when q = r
        if r <= p:
            return
        g1, g2, g3 = gammas(p, q, r)
        ce = c_from_pqr(p, r, r)
        assert g1 == ce.c1 and g2 == ce.c2
        if p <= q <= r:
            assert g3 >= 0


class TestInterpolationWindow:
    def test_example(self):
        w = interpolation_window(F(3, 2), 4, 2)
        assert w.s_lo == F(7, 12) and w.s_hi == F(3, 4)

    def test_boundary_equalizes(self):
        w = interpolation_window(F(3, 2), 4, 2)
        p1, q1, r1 = w.triple_at(w.s_lo)
        assert p1 == q1

    def test_midpoint_ordered(self):
        w = interpolation_window(F(3, 2), 4, 2)
        p1, q1, r1 = w.triple_at(w.midpoint)
        assert r1 >= q1 >= p1

    def test_requires_q_gt_r_gt_p(self):
        with pytest.raises(OrderingError):
            interpolation_window(F(3, 2), 2, 4)

    def test_rejects_s_off_the_window(self):
        w = interpolation_window(F(3, 2), 4, 2)
        with pytest.raises(ConfigError, match=r"must lie in \(0, 1\)"):
            w.triple_at(1)
        # s = 1/2 < s_lo = 7/12 maps (3/2, 4, 2) to reciprocals (1/3, 1/2, 0)
        with pytest.raises(OrderingError, match="not ordered at this s"):
            w.triple_at(F(1, 2))

    def test_degenerate_window(self):
        # p = 1 and q = inf give s_lo = 1/q + 1 - 1/p = 0
        with pytest.raises(ConfigError, match="degenerate interpolation window"):
            interpolation_window(1, math.inf, 2)


class TestRegionStructure:
    def test_region_monotone_infimum(self, parabola):
        # cached tiny region: infimum nondecreasing in each exponent since
        # all radii are <= 1
        from ccradon.exponents import estimate_region

        reg = estimate_region(
            parabola,
            windows=None,
            delta_grid=(2.0 ** -4, 2.0 ** -5),
            c1_grid=np.arange(1.5, 2.6, 0.5),
            c2_grid=np.arange(1.5, 2.6, 0.5),
        )
        inf = reg.infimum
        assert np.all(np.diff(inf, axis=0) >= -1e-12)
        assert np.all(np.diff(inf, axis=1) >= -1e-12)

    def test_classify_requires_region(self, parabola):
        from ccradon.exponents import estimate_region

        reg = estimate_region(
            parabola,
            delta_grid=(2.0 ** -4, 2.0 ** -5),
            c1_grid=np.arange(1.0, 3.05, 0.1),
            c2_grid=np.arange(1.0, 3.05, 0.1),
        )
        with pytest.raises(OrderingError):
            classify_triple((2, 3, 1.5), reg)

    def test_region_plans_each_ball_once(self, parabola):
        grid = (2.0 ** -4, 2.0 ** -5)
        kwargs = dict(
            windows=[ComparabilityWindow(theta=1.0, bigA=1.0)],
            delta_grid=grid,
            z_samples=[(0, 0, 0), (0.0, 0.0, 0.0)],
            c1_grid=np.arange(1.5, 2.6, 0.5),
            c2_grid=np.arange(1.5, 2.6, 0.5),
        )
        planned = []

        def counting_map(fn, jobs):
            planned.extend(jobs)
            return [fn(job) for job in jobs]

        reg = estimate_region(parabola, pool_map=counting_map, **kwargs)
        # both orientations of the theta = 1 window share the radii, and the
        # int and float centres share one key: one batched job per radius,
        # holding the one de-duplicated centre
        assert planned == [(((0.0, 0.0, 0.0),), d, d, default_h_rule(d, d)) for d in grid]
        ref = estimate_region(parabola, **kwargs)
        assert len(reg.sequences) == 2
        np.testing.assert_array_equal(reg.infimum, ref.infimum)
        np.testing.assert_array_equal(reg.worst_rate, ref.worst_rate)
        np.testing.assert_array_equal(reg.classification, ref.classification)
        assert reg.meta == ref.meta


def _square_volume_map(n_cells):
    """A pool_map that skips the balls: every centre gets volume (d1 d2)^2
    and ``n_cells`` cells, so each path's volume rate is 2 (e1 + e2).  Each
    job's result has the shape of the estimator's own: the (volume, cells)
    pairs, then the rounds and seconds of its record, here 0."""

    def pool_map(fn, jobs):
        return [([((d1 * d2) ** 2, n_cells) for _ in centres], 0, 0.0) for centres, d1, d2, _h in jobs]

    return pool_map


class TestRegionRule:
    def test_labels_follow_the_node_rule(self, parabola):
        reg = estimate_region(parabola, pool_map=_square_volume_map(100))
        assert reg.sequences and not reg.meta["resolution_limited"] and np.all(reg.infimum > 0)
        assert reg.meta["z_spread_ok"] is True
        for seq in reg.sequences:
            rate = 2 * (seq.e1 + seq.e2)
            assert rate in (3.0, 3.5, 4.0)
            assert seq.raw_rate == pytest.approx(rate, abs=1e-9) and seq.snapped
        assert reg.label_at(2.2, 2.2) == "inside"
        assert reg.label_at(1.5, 1.5) == "outside"
        assert reg.label_at(2.0, 2.0) == "edge"
        assert classify_triple((1, math.inf, math.inf), reg) == "outside"  # c = (1, 1)

        n1, n2 = reg.classification.shape
        inside = np.zeros((n1, n2), dtype=bool)
        for i, c1 in enumerate(reg.c1_values):
            for j, c2 in enumerate(reg.c2_values):
                worst = max(2 * (s.e1 + s.e2) - (c1 * s.e1 + c2 * s.e2) for s in reg.sequences)
                assert reg.worst_rate[i, j] == worst
                if worst >= OUTSIDE_RATE:
                    want = "outside"
                elif worst <= INSIDE_RATE:
                    want = "inside"
                else:
                    want = "inconclusive"
                assert reg.classification[i, j] == want
                inside[i, j] = want == "inside"
        for i in range(n1):
            for j in range(n2):
                neighbours = inside[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
                assert reg.edge[i, j] == (inside[i, j] and not neighbours.all())

    def test_few_cells_leave_no_node_inside(self, parabola):
        reg = estimate_region(parabola, pool_map=_square_volume_map(5))
        assert reg.meta["resolution_limited"] is True
        assert not np.any(reg.classification == "inside")
        assert not reg.edge.any()
        assert reg.label_at(1.5, 1.5) == "outside"
        assert classify_triple((F(3, 2), 3, 3), reg) == "inconclusive"

    def test_z_spread_is_reported(self, parabola):
        # volumes 1, 3 and 5 times (d1 d2)^2 at the three default centres
        def spread_map(fn, jobs):
            return [([((2 * k + 1) * (d1 * d2) ** 2, 100) for k in range(len(centres))], 0, 0.0)
                    for centres, d1, d2, _h in jobs]

        reg = estimate_region(parabola, pool_map=spread_map)
        assert reg.meta["z_spread_ok"] is False

    def test_classify_triple_checks_the_ordering(self, parabola):
        reg = estimate_region(parabola, pool_map=_square_volume_map(100))
        # c = (2, 2) is an edge node: inside, with non-inside nodes in its margin ball
        assert classify_triple((F(3, 2), 3, 3), reg) == "boundary"
        with pytest.raises(OrderingError) as exc:
            classify_triple((2, 3, F(3, 2)), reg)
        assert str(exc.value) == ("triple (p, q, r) = (2, 3, 3/2) violates p <= q <= r; "
                                  "for q > r use the interpolation analysis (interpolation_window)")
        with pytest.raises(OrderingError) as exc:
            classify_triple((2, 2, 2), reg)
        assert str(exc.value) == "triple (p, q, r) = (2, 2, 2) requires r > p"
        with pytest.raises(ConfigError, match=r"exponent must lie in \[1, inf\], got 0.5"):
            classify_triple((0.5, 3, 3), reg)

    def test_empty_node_grid_is_rejected(self, parabola):
        with pytest.raises(ConfigError, match="at least one node"):
            estimate_region(parabola, c1_grid=[], pool_map=_square_volume_map(100))
