import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccradon.ccball import ComparabilityWindow
from ccradon.errors import DegenerateError, OrderingError
from ccradon.exponents import (
    ExponentTriple,
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

    def test_exponent_triple_ordering(self):
        ExponentTriple.make(F(3, 2), 3, 3).require_ordered()
        with pytest.raises(OrderingError):
            ExponentTriple.make(2, 3, F(3, 2)).require_ordered()


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
