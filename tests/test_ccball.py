import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccradon import calibration, ccball
from ccradon.ccball import (
    JOB_SHIFT,
    ComparabilityWindow,
    _box_strides,
    _expand,
    _farthest_in_box,
    default_tau,
    lemma_balls_report,
    mc_ball,
    reach_ball,
    reach_balls,
    slab_profile,
)
from ccradon.errors import ChartDomainError, ConfigError, ResolutionError
from ccradon.geometry import as_zarray, integrate
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


@pytest.mark.parametrize("name", ["parabola", "quartic", "cubic"])
@pytest.mark.parametrize("t_cell", [0, 5, -13])
def test_whole_cell_translate_is_the_shifted_ball(models, name, t_cell):
    # V1 and V2 have coefficients in t alone, so B((x0, t0)) = x0 + B((0, t0)).
    # On the lattice this holds exactly only for a dyadic round length: at
    # (1/8, 1/8, 2^-7) every model runs 32 rounds, tau = 1/32, and with
    # dyadic h each step's sums stay exact.  At 40 and 48 rounds whole-cell
    # translates differ from the shifted ball by up to 13 of 4,069 cells
    # (CHANGES.md, FOUND on reach_balls translation equivariance).
    model = models[name]
    h = 2.0 ** -7
    shift = np.array([37, -21, 12][:model.d] + [0])
    centre = np.zeros(model.dim_z)
    centre[-1] = t_cell * h
    home, moved = reach_balls(model, [centre, centre + shift * h], 0.125, 0.125, h)
    assert home.rounds == 32
    assert np.array_equal(home.cells.cells + shift, moved.cells.cells)


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
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(-3, 3), st.integers(-2, 2), st.integers(0, 4)),
            min_size=1, max_size=60,
        ),
    )
    def test_matches_lexsort_rule(self, rows):
        # (job, x offset, t offset, distance) rows with few values, so exact
        # ties are common.  The compacted packed (job, cell) keys, and the
        # dense and the compacted box index, pick the same points in the same
        # order: the box index orders like the packed keys.
        job = np.array([r[0] for r in rows], dtype=np.int64)
        rel = np.array([[r[1] for r in rows], [r[2] for r in rows]], dtype=np.int64)
        dist = np.array([0.25 * r[3] for r in rows])
        keys = encode_cells(rel.T) | (job << JOB_SHIFT)
        want = _lexsort_first_of_group(keys, dist).tolist()
        assert _farthest_in_box(keys, dist, keys.max() + 1).tolist() == want
        lo = rel.min(axis=1)
        strides, box = _box_strides(lo, rel.max(axis=1), 3)
        idx = strides @ (rel - lo[:, None]) + job * (box // 3)
        assert idx.min() >= 0 and idx.max() < box
        for factor in (1 << 40, 0):  # every box dense, every box compacted
            with mock.patch.object(ccball, "DENSE_BOX_FACTOR", factor):
                assert _farthest_in_box(idx, dist, box).tolist() == want, factor

    def test_equidistant_points_in_one_refined_cell(self):
        # two distinct points, same refined cell, the same distance to the
        # centre bit for bit: the lower pool index wins either way round
        h_rep = 1.0 / 64.0
        a, b = [0.1 * h_rep, 0.2 * h_rep, 0.0], [0.2 * h_rep, 0.1 * h_rep, 0.0]
        for pool in (np.array([a, b]).T, np.array([b, a]).T):
            keys = encode_cells(np.floor(pool / h_rep + 0.5).astype(np.int64).T)
            dist = np.sum(pool.T ** 2, axis=1)
            assert keys[0] == keys[1] and dist[0] == dist[1]
            assert _farthest_in_box(keys, dist, keys.max() + 1).tolist() == [0]
            assert _farthest_in_box(np.zeros(2, dtype=np.int64), dist, 1).tolist() == [0]


def test_box_index_range_named():
    # four offset axes spanning 2^16 cells each make a 2^64-cell box
    lo, hi = np.full(4, -(1 << 15), dtype=np.int64), np.full(4, (1 << 15) - 1, dtype=np.int64)
    with pytest.raises(ConfigError, match=r"dedup box index out of int64 range: the box needs < 2\^63 cells, "
                                          r"got 18446744073709551616"):
        _box_strides(lo, hi, 1)


@pytest.mark.parametrize("name, centers, d1, d2", [
    ("parabola", ((0.0, 0.0, 0.0), (0.0, 0.0, 0.96), (0.5, -0.97, 0.3)), 0.125, 0.125),
    ("cubic", ((0.97, 0.1, 0.0, -0.2), (0.0, 0.0, 0.0, 0.0)), 2.0 ** -4, 2.0 ** -3),
], ids=["parabola", "cubic"])
def test_expand_index_matches_packed_offsets(models, name, centers, d1, d2, monkeypatch):
    # seeded actives on one side of each centre, some of whose steps leave
    # the chart, in chunks of 7 that straddle jobs.  Oracle: the refined cell
    # offsets from the centre's cell, zeroed outside the chart, packed under
    # the job bits; the box is the product of their spans (offset 0 among
    # them, which no inside point has) per job
    model = models[name]
    rng = np.random.default_rng(7)
    z0s = np.array(centers).T
    sizes = [5, 17, 9][:z0s.shape[1]]
    job = np.repeat(np.arange(len(sizes)), sizes)
    active = z0s[:, job] + rng.uniform(0.01, 0.05, size=(model.dim_z, job.size))
    active = np.clip(active, -1.0, 1.0)
    a1, a2 = np.array([[-d1, 0.0, d1], [-d2, 0.0, d2]])[:, :, None]
    h_rep = 2.0 ** -8
    monkeypatch.setattr(ccball, "ROUND_CHUNK", 7)
    pool, idx, box, dist, inside = _expand(model, active, job, a1, a2, 1.0 / 32.0, z0s, h_rep)
    assert inside is not None and not inside.all()
    pool_job = np.tile(job, 9)
    assert np.array_equal(inside, model.contains(pool))
    rel = points_to_cells(pool, h_rep) - points_to_cells(z0s, h_rep)[:, pool_job]
    assert (rel[:, inside] > 0).all()
    rel[:, ~inside] = 0
    keys = encode_cells(rel.T) | (pool_job << JOB_SHIFT)
    assert box == len(sizes) * int(np.prod(rel.max(axis=1) - rel.min(axis=1) + 1))
    want_dist = np.sum((pool - z0s[:, pool_job]).T ** 2, axis=1)
    assert dist.tobytes() == want_dist.tobytes()
    kept = np.flatnonzero(inside)
    assert idx[kept].min() >= 0 and idx[kept].max() < box
    want = kept[_lexsort_first_of_group(keys[kept], want_dist[kept])]
    assert np.array_equal(kept[_farthest_in_box(idx[kept], dist[kept], box)], want)


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


@pytest.mark.parametrize("name, centers, d1, d2, h", BATCHES, ids=[b[0] for b in BATCHES])
def test_sorted_dedup_does_not_change_the_ball(models, name, centers, d1, d2, h, monkeypatch):
    # DENSE_BOX_FACTOR = 0 compacts the box index of every round to its
    # distinct values; every pick is the same as on the full dense table
    dense = reach_balls(models[name], centers, d1, d2, h)
    monkeypatch.setattr(ccball, "DENSE_BOX_FACTOR", 0)
    for want, got in zip(dense, reach_balls(models[name], centers, d1, d2, h)):
        _assert_same_ball(got, want)
        assert np.array_equal(got.box_cells_per_round, want.box_cells_per_round)


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


def test_refined_cells_need_no_key_packing(cubic):
    # refined cells at h/4 = 2^-15 put x1 = 0.6 at index 19661, past the
    # 2^14 a four-axis key packs, while the ball's own cells at h pack; the
    # fields do not depend on x, so the ball is the x1 = 0.1 ball moved by
    # 0.5 / h = 4096 cells
    h = 2.0 ** -13
    far = reach_ball(cubic, (0.6, 0.0, 0.0, 0.0), 2.0 ** -11, 2.0 ** -11, h)
    near = reach_ball(cubic, (0.1, 0.0, 0.0, 0.0), 2.0 ** -11, 2.0 ** -11, h)
    moved = near.cells.cells.copy()
    moved[:, 0] += 4096
    assert far.cells.n_cells == 89
    assert np.array_equal(far.cells.cells, moved)


class TestMcBall:
    def test_zero_controls_stay_home(self, parabola):
        z0 = as_zarray((0.1, 0.0, 0.0), 3)
        controls = np.zeros((10, 8, 2))
        pts, stayed = integrate(parabola, np.tile(z0[:, None], (1, 10)), controls, 1.0 / 8.0)
        assert (stayed == 8).all()
        assert np.allclose(pts.T, z0, atol=1e-12)

    def test_agreement_band(self, parabola):
        d = 2.0 ** -4
        h = d / 8
        ball = reach_ball(parabola, (0.0, 0.0, 0.0), d, d, h)
        mc = mc_ball(parabola, (0.0, 0.0, 0.0), d, d, paths=100_000, seed=11, h=h)
        lo, hi = calibration.MC_AGREEMENT_BAND
        assert lo <= mc.volume / ball.volume <= hi

    # (model, centre, endpoint rows, escaped paths, sha256 of the endpoint
    # bytes) of 2,000 paths, seed 5, radii (1/4, 1/2): x1 moves by -a2, so
    # paths from x1 = 0.9 leave the chart, and the last cubic centre leaves
    # through t as well
    PINNED_MC = (
        ("parabola", (0.0, 0.0, 0.0), 2000, 0, "8f289f2e54992fedb700db7a1d520babf21d33a5d3e7cbf444f01bdac8bd00fc"),
        ("parabola", (0.9, 0.0, 0.0), 1465, 535, "6554b6facd9226dc0d4ba202cc6caf81c4dcbbec3da1a41eae1d4597f445450f"),
        ("quartic", (0.1, 0.0, 0.2), 2000, 0, "2decf5cb3c411890bddfd1897de93fbd4cbc9a744bdd4a2c42902da31ceda26c"),
        ("quartic", (0.9, 0.0, 0.0), 1465, 535, "902e99c2e9573c14d26a7ae9924ec8b8bdcd64d07d3117bfb3116f887f1e922d"),
        ("cubic", (0.0, 0.0, 0.0, 0.0), 2000, 0, "b1ee0c0f7e65b079af1122ac39d6f109fc5e67e829c982e6601e70575a2e6353"),
        ("cubic", (0.9, 0.0, 0.0, 0.0), 1465, 535, "c382789522711f1124b36a1f7074317749190c9a168d4d623bfe95b2715b9c9d"),
        ("cubic", (0.9, 0.0, 0.0, 0.9), 894, 1106, "7078c70b3fc238bdd24661aa646b8bc4b571a76f0806bf10ea9a86aabe2a27ef"),
    )

    # the pins come from drawing and stepping all paths at once; 333-path
    # blocks split each case into 7 blocks, the last one partial
    @pytest.mark.parametrize("block", [None, 333], ids=["default", "block333"])
    def test_endpoints_pinned(self, models, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(ccball, "ROUND_CHUNK", block)
        for name, z0, n_end, n_escaped, digest in self.PINNED_MC:
            mc = mc_ball(models[name], z0, 0.25, 0.5, paths=2000, seed=5, h=2.0 ** -5)
            endpoints = np.ascontiguousarray(mc.endpoints, dtype="<f8")
            assert endpoints.shape == (n_end, len(z0)), (name, z0)
            assert (mc.n_escaped, hashlib.sha256(endpoints.tobytes()).hexdigest()) == (n_escaped, digest), (name, z0)

    def test_requires_paths(self, parabola):
        with pytest.raises(ConfigError):
            mc_ball(parabola, (0.0, 0.0, 0.0), 0.1, 0.1, paths=10, seed=0, h=0.1 / 8)

    def test_center_outside(self, parabola):
        # every path from x1 = 1.05 counts as escaped; the centre is refused before any draw, as reach_balls does
        with pytest.raises(ChartDomainError, match=r"ball center \[1\.05, 0\.0, 0\.0\] outside chart domain"):
            mc_ball(parabola, (1.05, 0.0, 0.0), 1 / 8, 1 / 8, paths=1000, seed=1, h=1 / 32)

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

    def test_t_is_a_cell_centre(self, parabola):
        # a cell (i, j, k) has Pi pi2 = (i + k) h at its centre (gamma_1 = t),
        # and each slab is one Pi column of such cells
        d = 2.0 ** -4
        ball = reach_ball(parabola, (0.1, 0.0, 0.0), d, d, d / 8)
        cells = ball.cells.cells
        centres = set(((cells[:, 0] + cells[:, 2]) * ball.h).tolist())
        ts = [t for t, _ in slab_profile(ball)]
        assert ts[0] == 0.0390625
        assert ts == sorted(centres)


class TestLemmaReport:
    def test_exponent_identities(self, parabola):
        # with q = r, ratio (iv) equals ratio (ii_2)^(-1/r') and the ratio (v)
        # quotient follows from (ii_1) and (iv) by pure algebra
        d = 2.0 ** -4
        rep, _, _ = lemma_balls_report(parabola, (0.0, 0.0, 0.0), d, d, q=3.0, r=3.0, h=d / 8, p=2.0)
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
