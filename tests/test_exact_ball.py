"""The exact-ball oracle of ``exact_ball``: its anchors and the convergence of c_H."""
import numpy as np
import pytest

from exact_ball import amax_grid, c_h

# (P, Q) -> Amax: the closed diamond loop, the half diamonds to (+-1, 0), the
# straight corner path and the diamond arc to (1, 1/2)
ANCHORS = {(0.0, 0.0): 1 / 8, (1.0, 0.0): 1 / 4, (-1.0, 0.0): 1 / 4, (1.0, 1.0): 0.0, (1.0, 0.5): 3 / 16}


@pytest.mark.parametrize("n", [32, 64])
def test_amax_anchors_exact(n):
    amax = amax_grid(n)
    got = {pq: float(amax[int(pq[0] * n) + n, int(pq[1] * n) + n]) for pq in ANCHORS}
    assert got == ANCHORS


def test_amax_symmetries():
    # the symmetries of the l-infinity unit ball map paths to paths and keep
    # the largest |area|, which Amax is, since reflecting a path in its chord
    # flips the sign of its area
    amax = amax_grid(32)
    assert np.array_equal(amax, amax[::-1, :])
    assert np.array_equal(amax, amax[:, ::-1])
    assert np.array_equal(amax, amax.T)
    assert amax.min() == 0.0


def test_c_h_converges_to_31_over_9():
    c = [c_h(n) for n in (32, 64, 128)]
    ratio = (c[1] - c[0]) / (c[2] - c[1])
    assert abs(ratio - 4.0) <= 0.5, f"difference ratio {ratio:.4f}, want 4 +- 0.5 ({c})"
    richardson = c[2] + (c[2] - c[1]) / 3.0
    assert abs(richardson - 31 / 9) <= 1e-3, f"Richardson c_H {richardson:.6f}, want 31/9 +- 1e-3"
