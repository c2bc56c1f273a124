import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccradon.errors import ConfigError, DegenerateError
from ccradon.lattice import LatticeSet
from ccradon.mixednorm import (
    GridFunctionY,
    conjugate,
    exponent,
    holder_lower_bound,
    mixed_norm_grid,
    mixed_norm_indicator,
    reciprocal,
)
from ccradon.radon import grid_from_lattice

H = 2.0 ** -7


def box(a0, a1, b0, b1, h=H):
    return LatticeSet.from_box([a0, b0], [a1, b1], h)


@pytest.mark.parametrize("spelling, value", [
    ("inf", math.inf), ("Infinity", math.inf), (None, math.inf), (math.inf, math.inf),
    ("5/3", Fraction(5, 3)), ("1.5", Fraction(3, 2)), ("1", Fraction(1)),
    (1, 1), (2.5, 2.5), (Fraction(7, 4), Fraction(7, 4)),
])
def test_exponent_spellings(spelling, value):
    got = exponent(spelling)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("bad, message", [
    (0.5, r"must lie in \[1, inf\], got 0.5"), (-2, r"must lie in \[1, inf\], got -2"),
    (math.nan, r"must lie in \[1, inf\], got nan"), ("1/2", r"must lie in \[1, inf\], got 1/2"),
    (-math.inf, r"must lie in \[1, inf\], got -inf"),
    ("abc", r"exponent must be a number, a fraction such as '5/3' or 'inf', got 'abc'"),
    (True, r"must be a number, .* got True"), ([2], r"must be a number, .* got \[2\]"),
])
def test_exponent_rejects(bad, message):
    with pytest.raises(ConfigError, match=message):
        exponent(bad)


def test_reciprocal():
    assert reciprocal(math.inf) == 0.0 and reciprocal("inf") == 0.0
    assert reciprocal(4) == 0.25 and reciprocal(Fraction(5, 3)) == 1.0 / float(Fraction(5, 3))
    with pytest.raises(ConfigError, match="got 0.5"):
        reciprocal(0.5)


def test_norms_check_their_exponents():
    F = box(0.0, 0.25, 0.0, 0.5)
    for q, r in ((0.5, 2.0), (2.0, 0.5)):
        with pytest.raises(ConfigError, match="got 0.5"):
            mixed_norm_indicator(F, q, r)
        with pytest.raises(ConfigError, match="got 0.5"):
            mixed_norm_grid(np.ones((4, 4)), H, q, r)


def test_conjugate():
    assert conjugate(1) == math.inf
    assert conjugate(math.inf) == 1.0
    assert conjugate(2.0) == 2.0
    assert conjugate(3.0) == pytest.approx(1.5)
    with pytest.raises(ConfigError):
        conjugate(0.5)


def test_product_set_value():
    a, b = 0.25, 0.5
    F = box(0.0, a, 0.0, b)
    for q, r in ((3.0, 2.0), (1.5, 4.0), (math.inf, 2.0), (2.0, math.inf)):
        qc, rc = conjugate(q), conjugate(r)
        got = mixed_norm_indicator(F, qc, rc)
        iqc = 0.0 if qc == math.inf else 1.0 / qc
        irc = 0.0 if rc == math.inf else 1.0 / rc
        want = a ** iqc * b ** irc
        assert got == pytest.approx(want, rel=2 * H / min(a, b))


def test_q_equals_r_plain_norm():
    F = box(0.1, 0.4, -0.3, 0.2)
    for e in (1.0, 2.0, 3.5):
        got = mixed_norm_indicator(F, e, e)
        plain = F.measure ** (1.0 / e)
        assert got == pytest.approx(plain, rel=1e-12)


def test_two_disjoint_slabs():
    a, b, c = 0.125, 0.25, 0.5
    F = box(0.0, a, 0.0, b).union(box(c, c + a, 0.0, b))
    qc, rc = 3.0, 1.5
    want = 2.0 ** (1.0 / qc) * a ** (1.0 / qc) * b ** (1.0 / rc)
    assert mixed_norm_indicator(F, qc, rc) == pytest.approx(want, rel=1e-9)


def test_grid_function_matches_indicator():
    F = box(0.0, 0.25, 0.0, 0.5)
    g = grid_from_lattice(F)
    for q, r in ((2.5, 1.5), (2.5, math.inf), (math.inf, math.inf)):
        assert g.norm(q, r) == pytest.approx(mixed_norm_indicator(F, q, r), rel=1e-12)


def test_empty_set_norm_is_zero():
    assert mixed_norm_indicator(LatticeSet.empty(H, 2), 2.0, 3.0) == 0.0
    # a grid with no cells follows the same rule
    for r in (3.0, math.inf):
        assert mixed_norm_grid(np.zeros((0, 4)), H, 2.0, r) == 0.0


@settings(max_examples=30, deadline=None)
@given(lam=st.one_of(st.just(0.0), st.floats(0.01, 10.0)), q=st.floats(1.0, 6.0), r=st.floats(1.0, 6.0))
def test_homogeneity(lam, q, r):
    F = box(0.0, 0.25, 0.0, 0.5)
    g = grid_from_lattice(F)
    scaled = GridFunctionY(h=g.h, origin=g.origin, values=lam * g.values)
    assert scaled.norm(q, r) == pytest.approx(lam * g.norm(q, r), rel=1e-12, abs=1e-300)


def test_set_monotonicity(rng):
    small = box(0.0, 0.25, 0.0, 0.25)
    big = small.union(box(-0.5, 0.0, -0.5, 0.0))
    for q, r in ((2.0, 1.5), (1.0, math.inf), (4.0, 4.0)):
        assert mixed_norm_indicator(small, q, r) <= mixed_norm_indicator(big, q, r) + 1e-15


def test_product_nesting_in_r():
    # product sets: the norm is a^(1/q') b^(1/r'), and with slice mass b <= 1
    # the value grows with r' (b^(1/r') increases toward 1)
    a, b = 0.5, 0.25
    F = box(0.0, a, 0.0, b)
    qc = 3.0
    vals = [mixed_norm_indicator(F, qc, rc) for rc in (1.0, 1.5, 2.0, 4.0)]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
    for rc in (1.0, 1.5, 2.0, 4.0):
        assert mixed_norm_indicator(F, qc, rc) == pytest.approx(a ** (1 / qc) * b ** (1 / rc), rel=1e-9)


class TestHolder:
    def test_product_equality(self):
        F = box(0.0, 0.25, 0.0, 0.5)
        hb = holder_lower_bound(F, q=1.5, r=3.0)
        assert hb.lhs == pytest.approx(hb.rhs, rel=1e-9)
        assert hb.holds

    def test_staircase_strict(self):
        # two slabs of different heights: strict inequality
        F = box(0.0, 0.25, 0.0, 0.5).union(box(0.25, 0.5, 0.0, 0.25))
        hb = holder_lower_bound(F, q=1.5, r=3.0)
        assert hb.lhs > hb.rhs * (1.0 + 1e-6)

    def test_q_equals_r(self):
        F = box(0.0, 0.25, 0.0, 0.5).union(box(0.5, 0.8, -0.4, 0.1))
        hb = holder_lower_bound(F, q=2.5, r=2.5)
        assert hb.lhs == pytest.approx(F.measure ** (1.0 / conjugate(2.5)), rel=1e-12)
        assert hb.rhs == pytest.approx(hb.lhs, rel=1e-12)

    def test_random_slab_unions(self, rng):
        for _ in range(100):
            n_slabs = int(rng.integers(1, 4))
            F = None
            for _ in range(n_slabs):
                lo = rng.uniform(-0.8, 0.5, size=2)
                wid = rng.uniform(0.1, 0.4, size=2)
                piece = LatticeSet.from_box(lo, lo + wid, H)
                F = piece if F is None else F.union(piece)
            q = float(rng.uniform(1.0, 4.0))
            r = float(rng.uniform(q, 5.0))
            hb = holder_lower_bound(F, q=q, r=r)
            assert hb.lhs >= hb.rhs * (1.0 - max(hb.eps_lattice, 1e-12))

    def test_one_dimensional_set(self):
        # no slice directions: the feature size is the Pi measure alone
        F = LatticeSet.from_box([0.0], [0.25], H)
        hb = holder_lower_bound(F, q=2.0, r=3.0)
        assert hb.holds and hb.eps_lattice == 3.0 * H / F.measure

    def test_requires_r_ge_q(self):
        with pytest.raises(ConfigError):
            holder_lower_bound(box(0.0, 0.25, 0.0, 0.5), q=3.0, r=2.0)

    def test_empty(self):
        with pytest.raises(DegenerateError):
            holder_lower_bound(LatticeSet.empty(H, 2), q=1.5, r=3.0)
