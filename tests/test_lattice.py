import numpy as np
import pytest

from ccradon.ccball import JOB_SHIFT, reach_ball
from ccradon.errors import ConfigError, DegenerateError
from ccradon.lattice import LatticeSet, _packing, decode_keys, encode_cells, points_to_cells


def test_encode_decode_roundtrip(rng):
    for dim in (1, 2, 3, 4):
        cells = rng.integers(-500, 500, size=(200, dim))
        assert np.array_equal(decode_keys(encode_cells(cells), dim), cells)


def test_encode_rejects_large_indices():
    with pytest.raises(ConfigError, match=r"2-axis lattice keys need \|index\| < 2\^19, got max \|index\| 1048576"):
        encode_cells(np.array([[1 << 20, 0]]))
    encode_cells(np.array([[(1 << 19) - 1, 0, -((1 << 19) - 1)]]))
    with pytest.raises(ConfigError, match=r"3-axis lattice keys need \|index\| < 2\^19, got max \|index\| 524288"):
        encode_cells(np.array([[0, -(1 << 19), 5]]))
    encode_cells(np.array([[(1 << 14) - 1, 0, 0, 0]]))
    with pytest.raises(ConfigError, match=r"4-axis lattice keys need \|index\| < 2\^14, got max \|index\| 16384"):
        encode_cells(np.array([[0, 0, 1 << 14, 0]]))


def test_keys_leave_the_job_bits_free():
    # a batched reach_balls fixpoint keeps its job index in key bits 60-62,
    # so no supported lattice may pack a cell key past bit 59
    for dim in (1, 2, 3, 4):
        offset, stride = _packing(dim)
        assert stride ** dim <= 1 << JOB_SHIFT, dim
        worst = encode_cells(np.array([[offset - 1] * dim]))
        assert 0 <= int(worst[0]) < 1 << JOB_SHIFT
    with pytest.raises(ConfigError, match="dim <= 4"):
        _packing(5)


def test_points_to_cells_centered():
    h = 0.25
    pts = np.array([[0.0], [0.124], [0.126], [-0.126]])
    assert points_to_cells(pts, h).ravel().tolist() == [0, 0, 1, -1]


def test_box_measure_exact():
    h = 2.0 ** -6
    box = LatticeSet.from_box([0.0, 0.0], [0.25, 0.5], h)
    assert box.measure == pytest.approx(0.125)
    assert box.n_cells == 16 * 32


def test_empty_box():
    with pytest.raises(DegenerateError):
        LatticeSet.from_box([0.0], [0.0], 0.25)


def test_set_algebra():
    h = 0.125
    a = LatticeSet.from_box([0.0, 0.0], [0.5, 0.5], h)
    b = LatticeSet.from_box([0.25, 0.0], [0.75, 0.5], h)
    union = a.union(b)
    inter = a.intersection(b)
    diff = a.difference(b)
    assert union.n_cells == a.n_cells + b.n_cells - inter.n_cells
    assert diff.n_cells == a.n_cells - inter.n_cells
    assert inter.issubset(a) and inter.issubset(b)


def test_projection_and_histogram():
    h = 0.25
    s = LatticeSet(h, np.array([[0, 0], [0, 1], [1, 0], [2, 5]]))
    proj = s.project([0])
    assert proj.n_cells == 3
    bins, counts = s.first_axis_histogram()
    assert bins.tolist() == [0, 1, 2]
    assert counts.tolist() == [2, 1, 1]


def test_dilate():
    s = LatticeSet(0.5, np.array([[0, 0]]))
    assert s.dilate(1).n_cells == 9


def test_mismatched_h():
    a = LatticeSet(0.5, np.array([[0, 0]]))
    b = LatticeSet(0.25, np.array([[0, 0]]))
    with pytest.raises(ConfigError):
        a.union(b)


def test_contains_points():
    h = 0.25
    s = LatticeSet(h, np.array([[0, 0], [1, 1]]))
    hits = s.contains_points(np.array([[0.05, -0.05], [0.25, 0.25], [0.6, 0.6]]))
    assert hits.tolist() == [True, True, False]


def test_cells_in_key_order_x1_major(rng, parabola):
    # every constructor and operation leaves cells unique and lexicographically
    # ascending (x1 first), checked against a plain Python sort of the rows
    def assert_ordered(ls):
        rows = ls.cells.tolist()
        assert rows == sorted(map(list, set(map(tuple, rows))))
        assert np.array_equal(ls.keys(), encode_cells(ls.cells))

    h = 2.0 ** -5
    a = LatticeSet.from_box([-0.3, -0.5], [0.2, 0.1], h)
    b = LatticeSet.from_points(rng.uniform(-0.6, 0.6, size=(400, 2)), h)
    c3 = LatticeSet(h, rng.integers(-20, 20, size=(300, 3)))
    sets = [a, b, c3, a.union(b), a.intersection(b), a.difference(b), b.difference(a),
            c3.project([2, 0]), c3.project([0, 1]), b.dilate(2)]
    ball = reach_ball(parabola, (0.0, 0.0, 0.0), 2.0 ** -4, 2.0 ** -4, 2.0 ** -7)
    sets += [ball.cells, ball.proj1, ball.proj2]
    for ls in sets:
        assert ls.n_cells > 1
        assert_ordered(ls)
