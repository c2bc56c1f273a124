import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccradon import calibration, ccball
from ccradon.ccball import (
    ComparabilityWindow,
    _farthest_per_key,
    _integrate_paths,
    default_tau,
    lemma_balls_report,
    mc_ball,
    reach_ball,
    reach_balls,
    slab_profile,
)
from ccradon.errors import ChartDomainError, ConfigError, ResolutionError
from ccradon.geometry import as_zarray
from ccradon.lattice import encode_cells, points_to_cells


def test_window_relation():
    w = ComparabilityWindow(theta=0.5, bigA=2.0)
    assert w.contains(0.01, 0.1)
    assert not w.contains(1e-6, 0.5)
    with pytest.raises(ConfigError):
        ComparabilityWindow(theta=0.0, bigA=1.0)
    with pytest.raises(ConfigError):
        ComparabilityWindow(theta=0.5, bigA=0.5)


class TestReachBall:
    def test_seed_cell_present(self, parabola):
        d = 2.0 ** -4
        ball = reach_ball(parabola, (0.1, -0.05, 0.02), d, d, d / 8)
        seed = points_to_cells(np.array([[0.1, -0.05, 0.02]]), d / 8)
        assert ball.cells.contains_cells(seed).all()

    def test_t_extent_within_factor_two(self, parabola):
        # reachable |t| <= d1 + d2, so the extent is ~2 delta within factor 2
        d = 2.0 ** -4
        h = d / 8
        ball = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, h)
        tcells = ball.cells.cells[:, 2]
        extent = (tcells.max() - tcells.min() + 1) * h
        assert d <= extent <= 4 * d + 2 * h

    def test_v1_segment_occupied(self, parabola):
        d = 2.0 ** -4
        h = d / 8
        ball = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, h)
        n = int(d / h)
        segment = np.zeros((2 * n - 1, 3), dtype=np.int64)
        segment[:, 2] = np.arange(-(n - 1), n)
        assert ball.cells.contains_cells(segment).all()

    def test_pi_extent_le_two_delta1(self, parabola):
        # Pi pi2 moves only through a1, so the extent is exactly ~2 d1
        for d1, d2 in ((2.0 ** -4, 2.0 ** -4), (2.0 ** -5, 2.0 ** -3)):
            ball = reach_ball(parabola, (0.0, 0.0, 0.0), d1, d2, min(d1, d2) / 8)
            assert ball.pi_extent <= 2 * d1 + 3 * ball.h
            assert ball.pi_extent >= d1

    def test_monotone_in_radii_up_to_one_cell(self, parabola):
        d = 2.0 ** -4
        h = d / 8
        small = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, h)
        big = reach_ball(parabola, (0.0, 0.0, 0.0), 2 * d, 2 * d, h)
        assert small.cells.issubset(big.cells.dilate(1))

    def test_reversibility_one_cell(self, parabola, rng):
        d = 2.0 ** -4
        h = d / 8
        ball = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, h)
        z0_cell = points_to_cells(np.zeros((1, 3)), h)
        idx = rng.choice(ball.cells.n_cells, size=5, replace=False)
        for cell in ball.cells.cells[idx]:
            z = cell * h
            back = reach_ball(parabola, z, d, d, h)
            assert back.cells.dilate(1).contains_cells(z0_cell).all()

    def test_resolution_guard(self, parabola):
        with pytest.raises(ResolutionError):
            reach_ball(parabola, (0.0, 0.0, 0.0), 2.0 ** -4, 2.0 ** -4, 2.0 ** -4)

    def test_radius_guard(self, parabola):
        with pytest.raises(ConfigError):
            reach_ball(parabola, (0.0, 0.0, 0.0), 0.9, 0.1, 0.01)

    def test_center_outside(self, parabola):
        with pytest.raises(ChartDomainError):
            reach_ball(parabola, (2.0, 0.0, 0.0), 0.1, 0.1, 0.01)

    def test_truncation_flag(self, parabola):
        ball = reach_ball(parabola, (0.0, 0.0, 0.9), 0.125, 0.125, 2.0 ** -5)
        assert ball.truncated

    def test_translate_congruence(self, parabola):
        # the fields do not depend on x, so moving the centre by whole cells
        # along x1 adds that many to the x1 index of every cell of the ball
        # and of both projections; necessity_union tiles balls on this
        d = 2.0 ** -4
        h = d / 8
        a = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, h)
        b = reach_ball(parabola, (32 * h, 0.0, 0.0), d, d, h)
        for near, far in ((a.cells, b.cells), (a.proj1, b.proj1), (a.proj2, b.proj2)):
            moved = near.cells.copy()
            moved[:, 0] += 32
            assert np.array_equal(moved, far.cells)
        assert np.array_equal(a.pi_cols + 32, b.pi_cols)

    def test_higher_dimensional_model(self, cubic):
        # d = 3: the incidence lattice has four axes; extents follow the radii
        d = 2.0 ** -3
        h = d / 8
        ball = reach_ball(cubic, (0.0, 0.0, 0.0, 0.0), d, d, h)
        assert ball.cells.dim == 4
        assert ball.volume > 0
        tcells = ball.cells.cells[:, 3]
        assert d <= (tcells.max() - tcells.min() + 1) * h <= 4 * d + 2 * h
        assert ball.pi_extent <= 2 * d + 3 * h


# Doubled and h0/2 balls of the theta = 0.5 lemma sweep (d2 = d1 ** theta).
# Their farthest-point dedup and floor cell assignment react to the last bit
# of the flow: a closed-form step that differs from RK4 by roundoff moves them
# by 55, 43, 8 and 42 cells.  The last five cover a four-axis lattice, the
# quartic, d1 > d2, an off-centre ball and a ball the chart truncates.
ORIGIN = (0.0, 0.0, 0.0)
PINNED_BALLS = (
    ("parabola", ORIGIN, 2 * 2.0 ** -4, 2 * (2.0 ** -4) ** 0.5, 2.0 ** -6, 1323,
     "d86bae9dc6bf2cb86aff44c43e13f75158a637d9f8ba19710cf08ef816761162"),
    ("parabola", ORIGIN, 2.0 ** -4, (2.0 ** -4) ** 0.5, 2.0 ** -7, 1001,
     "951ffbe6184cb35f13c8a2cb9c380b07d7a98863a23bdbd9bfc6acea8dea4a78"),
    ("parabola", ORIGIN, 2.0 ** -5, (2.0 ** -5) ** 0.5, 2.0 ** -8, 1071,
     "2234a35865058dc100449fadb9f8266815908397d10d857e033c6f3f00cee6e2"),
    ("parabola", ORIGIN, 2 * 2.0 ** -5, 2 * (2.0 ** -5) ** 0.5, 2.0 ** -7, 1310,
     "b74345bb448aa06b7d4690abef31ad7ce3f90c7713de84183cf6f590ff1c579b"),
    ("cubic", (0.0, 0.0, 0.0, 0.0), 2.0 ** -3, 2.0 ** -3, 2.0 ** -7, 2461,
     "c1a979f11e6d3a4412c97fab432be7bf57a9c78272c2addacc17cd7b40e04a1b"),
    ("quartic", ORIGIN, 2.0 ** -3, 2.0 ** -3, 2.0 ** -7, 2404,
     "abc9b281e0addf55cf3c8534b7802928b30271e73a1ed3f90b8f740d2e5d2bfe"),
    ("parabola", ORIGIN, 2.0 ** -3, 2.0 ** -5, 2.0 ** -8, 1441,
     "ec13bc54780721059425d0d688f73f4bb746288af57ab899a6e0da0baabc0eb3"),
    ("parabola", (0.1, -0.05, 0.2), 2.0 ** -4, 2.0 ** -4, 2.0 ** -8, 1626,
     "cafe23458e41c16bc66fa1c7297109f6ad10969d7a6fac3dce0945b4c1785717"),
    ("parabola", (0.9, 0.0, 0.9), 2.0 ** -3, 2.0 ** -3, 2.0 ** -7, 2192,
     "5853db739f147b50d515e48c4c4637616ad311644f85df784a560de43c0c11c2"),
)


def test_reach_ball_cells_pinned(models):
    for name, z0, d1, d2, h, n_cells, digest in PINNED_BALLS:
        cells = np.ascontiguousarray(reach_ball(models[name], z0, d1, d2, h).cells.cells, dtype="<i8")
        cells = cells[np.lexsort(cells.T[::-1])]
        assert (cells.shape[0], hashlib.sha256(cells.tobytes()).hexdigest()) == (n_cells, digest), (name, z0, d1, d2, h)


def _lexsort_first_of_group(keys, dist):
    """Oracle: the first row of each key group under np.lexsort((-dist, keys))."""
    order = np.lexsort((-dist, keys))
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = keys[order][1:] != keys[order][:-1]
    return order[first]


class TestFarthestPerKey:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 4)), min_size=1, max_size=60),
    )
    def test_matches_lexsort_rule(self, rows):
        # few keys and few distance values, so exact ties are common
        keys = np.array([k for k, _ in rows], dtype=np.int64)
        dist = np.array([0.25 * d for _, d in rows])
        got = _farthest_per_key(keys, dist)
        assert got.tolist() == _lexsort_first_of_group(keys, dist).tolist()

    def test_equidistant_points_in_one_refined_cell(self):
        # two distinct points, same refined cell, the same distance to the
        # centre bit for bit: the lower pool index wins either way round
        h_rep = 1.0 / 64.0
        a, b = [0.1 * h_rep, 0.2 * h_rep, 0.0], [0.2 * h_rep, 0.1 * h_rep, 0.0]
        for pool in (np.array([a, b]).T, np.array([b, a]).T):
            keys = encode_cells(np.floor(pool / h_rep + 0.5).astype(np.int64).T)
            dist = np.sum(pool.T ** 2, axis=1)
            assert keys[0] == keys[1] and dist[0] == dist[1]
            assert _farthest_per_key(keys, dist).tolist() == [0]


def test_diagnostics_count_the_fixpoint(parabola):
    ball = reach_ball(parabola, (0.0, 0.0, 0.9), 0.125, 0.125, 2.0 ** -5)
    assert ball.active_per_round.shape == (ball.rounds,)
    assert int(ball.new_cells_per_round.sum()) + 1 == ball.cells.n_cells
    assert ball.truncated and ball.dropped_per_round.sum() > 0
    inside = reach_ball(parabola, (0.0, 0.0, 0.0), 0.125, 0.125, 2.0 ** -5)
    assert not inside.truncated and not inside.dropped_per_round.any()
    assert (inside.active_per_round > 0).all()


def _assert_same_ball(got, want):
    assert got.center == want.center
    assert np.array_equal(got.cells.cells, want.cells.cells), got.center
    for name in ("active_per_round", "new_cells_per_round", "dropped_per_round"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), (got.center, name)
    assert got.truncated == want.truncated


def test_round_chunks_do_not_change_the_ball(parabola, monkeypatch):
    # a round steps and keys active points in chunks; ragged chunks, chunks
    # where the chart drops points and chunks that straddle two jobs of a
    # batch give the same cells and counts
    centers = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.9))
    whole = [reach_ball(parabola, z0, 0.125, 0.125, 2.0 ** -5) for z0 in centers]
    with monkeypatch.context() as patch:
        patch.setattr(ccball, "ROUND_CHUNK", 7)
        chunked = [reach_ball(parabola, z0, 0.125, 0.125, 2.0 ** -5) for z0 in centers]
        batched = reach_balls(parabola, centers, 0.125, 0.125, 2.0 ** -5)
    for want, got, got_batched in zip(whole, chunked, batched):
        _assert_same_ball(got, want)
        _assert_same_ball(got_batched, want)


BATCHES = (
    # the first and last parabola centres leave the chart (truncated balls)
    ("parabola", ((0.5, 0.5, 0.6), (0.0, 0.0, 0.0), (-0.9, 0.9, -0.9)), 0.25, 0.7071, 2.0 ** -5),
    ("quartic", ((0.1, 0.0, 0.2), (0.0, 0.0, 0.0), (-0.5, 0.3, 0.1)), 2.0 ** -3, 2.0 ** -4, 2.0 ** -7),
    ("cubic", ((0.0, 0.0, 0.0, 0.0), (0.7, 0.1, 0.0, 0.8), (-0.2, 0.1, 0.1, -0.3)), 2.0 ** -3, 2.0 ** -3, 2.0 ** -6),
)


@pytest.mark.parametrize("name, centers, d1, d2, h", BATCHES, ids=[b[0] for b in BATCHES])
def test_reach_balls_equal_per_centre_runs(models, name, centers, d1, d2, h):
    balls = reach_balls(models[name], centers, d1, d2, h)
    assert len(balls) == len(centers)
    for z0, ball in zip(centers, balls):
        _assert_same_ball(ball, reach_ball(models[name], z0, d1, d2, h))
    if name == "parabola":
        assert [ball.truncated for ball in balls] == [True, False, True]


def test_reach_balls_split_into_batches(parabola, monkeypatch):
    # nine centres run as two fixpoints, of MAX_BATCH = 8 jobs and of 1
    centers = [(0.1 * k - 0.4, 0.05 * k, 0.0) for k in range(9)]
    sizes = []
    expand = ccball._expand

    def counting_expand(model, active, job, a1, a2, tau, z0s, h_rep):
        sizes.append(z0s.shape[1])
        return expand(model, active, job, a1, a2, tau, z0s, h_rep)

    with monkeypatch.context() as patch:
        patch.setattr(ccball, "_expand", counting_expand)
        balls = reach_balls(parabola, centers, 2.0 ** -4, 2.0 ** -4, 2.0 ** -6)
    rounds = balls[0].rounds
    assert ccball.MAX_BATCH == 8
    assert sizes == [8] * rounds + [1] * rounds
    for z0, ball in zip(centers, balls):
        _assert_same_ball(ball, reach_ball(parabola, z0, 2.0 ** -4, 2.0 ** -4, 2.0 ** -6))


def test_packing_limit_named_by_reach_ball(models):
    # a four-axis lattice packs |index| < 2^14: h = 2^-15 puts x1 = 0.75 at 24576
    with pytest.raises(ConfigError, match=r"4-axis lattice keys need \|index\| < 2\^14, got max \|index\| 24576"):
        reach_ball(models["cubic"], (0.75, 0.0, 0.0, 0.0), 2.0 ** -12, 2.0 ** -12, 2.0 ** -15)


class TestMcBall:
    def test_zero_controls_stay_home(self, parabola):
        z0 = as_zarray((0.1, 0.0, 0.0), 3)
        controls = np.zeros((10, 8, 2))
        pts, alive = _integrate_paths(parabola, z0, controls)
        assert alive.all()
        assert np.allclose(pts, z0, atol=1e-12)

    def test_agreement_band(self, parabola):
        d = 2.0 ** -4
        h = d / 8
        ball = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, h)
        mc = mc_ball(parabola, (0.0, 0.0, 0.0), d, d, paths=100_000, seed=11, h=h)
        lo, hi = calibration.MC_AGREEMENT_BAND
        assert lo <= mc.volume / ball.volume <= hi

    def test_requires_paths(self, parabola):
        with pytest.raises(ConfigError):
            mc_ball(parabola, (0.0, 0.0, 0.0), 0.1, 0.1, paths=10, seed=0)

    def test_deterministic_given_seed(self, parabola):
        d = 2.0 ** -4
        a = mc_ball(parabola, (0.0, 0.0, 0.0), d, d, paths=2000, seed=3, h=d / 8)
        b = mc_ball(parabola, (0.0, 0.0, 0.0), d, d, paths=2000, seed=3, h=d / 8)
        assert a.volume == b.volume


class TestSlabProfile:
    def test_partition_of_volume(self, parabola):
        d = 2.0 ** -4
        ball = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, d / 8)
        total = sum(f for _, f in slab_profile(ball)) * ball.h
        assert total == pytest.approx(ball.volume, rel=1e-12)

    def test_support_within_pi_extent(self, parabola):
        d = 2.0 ** -4
        ball = reach_ball(parabola, (0.1, 0.0, 0.0), d, d, d / 8)
        center = parabola.pi_pi2(np.array([0.1, 0.0, 0.0]))
        for t, f in slab_profile(ball):
            if f > 0:
                assert abs(t - center) <= ball.c_geom * ball.delta1 + ball.h


class TestLemmaReport:
    def test_exponent_identities(self, parabola):
        # with q = r, ratio (iv) equals ratio (ii_2)^(-1/r') and the ratio (v)
        # quotient follows from (ii_1) and (iv) by pure algebra
        d = 2.0 ** -4
        rep = lemma_balls_report(parabola, (0.0, 0.0, 0.0), d, d, q=3.0, r=3.0, h=d / 8, p=2.0)
        rc = 1.5  # conjugate of 3
        assert rep["ratios"]["iv"] == pytest.approx(rep["ratios"]["ii_2"] ** (-1.0 / rc), rel=1e-9)
        expected_v = rep["ratios"]["ii_1"] ** (1.0 / 2.0) / rep["ratios"]["iv"]
        assert rep["ratios"]["v"] == pytest.approx(expected_v, rel=1e-9)

    def test_window_validation(self, parabola):
        with pytest.raises(ConfigError):
            lemma_balls_report(
                parabola, (0.0, 0.0, 0.0), 2.0 ** -10, 0.25, 3.0, 3.0, 2.0 ** -12,
                window=ComparabilityWindow(theta=1.0, bigA=1.0),
            )

    def test_resolution_error_on_tiny_projection(self, parabola):
        # the coarsest lattice the radii admit (h = min / 4) leaves 9 proj1 cells
        with pytest.raises(ResolutionError, match=r"proj1 of the ball has 9 cells \(< MIN_PROJ_CELLS = 10\)"):
            lemma_balls_report(parabola, (0.0, 0.0, 0.0), 2.0 ** -4, 2.0 ** -4, 3.0, 3.0, 2.0 ** -6)


def test_default_tau_strides():
    # stride of the fastest control is at most one cell
    for d1, d2, h in ((0.1, 0.1, 0.01), (0.02, 0.3, 0.005), (0.25, 0.25, 0.05)):
        tau = default_tau(d1, d2, h)
        assert (d1 + d2) * tau <= h + 1e-12 or tau == 1.0 / 32.0
