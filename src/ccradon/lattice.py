"""Discrete carriers for Lebesgue measure: sets of occupied cells on a cubic lattice.

Cell convention: cell index ``j`` along an axis covers the half-open interval
``[j*h - h/2, j*h + h/2)`` and has center ``j*h``.  Centering cells on lattice
points keeps sets built around the origin from straddling cell boundaries.
Indices are global (signed), so sets living on the same ``h`` are directly
comparable regardless of their bounding boxes.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateError

# int64 key packing, dimension-adaptive: |index| < 2**19 for dim <= 3,
# |index| < 2**14 for dim 4 (i.e. h >~ 2**-13 on [-1,1] for 4-axis lattices).
_MAX_DIM = 4


def _packing(dim: int) -> tuple:
    if dim <= 3:
        return 1 << 19, 1 << 20
    if dim == 4:
        return 1 << 14, 1 << 15
    raise ConfigError(f"lattice keys support dim <= {_MAX_DIM}, got {dim}")


def encode_cells(cells: np.ndarray) -> np.ndarray:
    """Pack integer cell rows into scalar int64 keys (order-preserving per axis)."""
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim != 2:
        raise ConfigError("cells must be a (n, dim) integer array")
    dim = cells.shape[1]
    offset, stride = _packing(dim)
    if cells.size:
        worst = int(np.abs(cells).max())
        if worst >= offset:
            raise ConfigError(
                f"cell index out of packing range: {dim}-axis lattice keys need |index| < "
                f"2^{offset.bit_length() - 1}, got max |index| {worst}; lattice too fine"
            )
    keys = np.zeros(cells.shape[0], dtype=np.int64)
    for axis in range(dim):
        keys = keys * stride + (cells[:, axis] + offset)
    return keys


def decode_keys(keys: np.ndarray, dim: int) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64)
    offset, stride = _packing(dim)
    out = np.empty((keys.shape[0], dim), dtype=np.int64)
    rem = keys.copy()
    for axis in range(dim - 1, -1, -1):
        out[:, axis] = rem % stride - offset
        rem //= stride
    return out


def points_to_cells(points: np.ndarray, h: float) -> np.ndarray:
    """Cell index of each coordinate: floor(p / h + 1/2), the cell whose
    center is nearest, with ties going to the upper cell."""
    return np.floor(np.asarray(points, dtype=float) / h + 0.5).astype(np.int64)


class LatticeSet:
    """An immutable set of occupied cells of edge ``h`` in ``dim`` axes.

    ``measure`` is cell count times ``h**dim``.  The rows of ``cells`` are
    unique and in ascending key order, which is lexicographic order with x1
    most significant, so each x1 column is one contiguous run of rows; the
    radon incidence join slices rows by x1 on that.
    """

    __slots__ = ("h", "cells", "_keys")

    def __init__(self, h: float, cells: np.ndarray, _sorted: bool = False):
        if h <= 0:
            raise ConfigError("cell edge h must be positive")
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2:
            raise ConfigError("cells must be a (n, dim) array")
        keys = encode_cells(cells)
        if not _sorted:
            keys, idx = np.unique(keys, return_index=True)
            cells = cells[idx]
        self.h = float(h)
        self.cells = cells
        self._keys = keys

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_points(cls, points: np.ndarray, h: float) -> "LatticeSet":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return cls(h, points_to_cells(points, h))

    @classmethod
    def from_box(cls, lo, hi, h: float) -> "LatticeSet":
        """Cells whose centers lie in the box prod [lo_i, hi_i)."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        axes = []
        for a, b in zip(lo, hi):
            j0 = int(np.ceil(a / h - 1e-12))
            j1 = int(np.ceil(b / h - 1e-12))  # exclusive
            if j1 <= j0:
                raise DegenerateError("empty box")
            axes.append(np.arange(j0, j1, dtype=np.int64))
        n_total = int(np.prod([len(a) for a in axes]))
        if n_total > 50_000_000:
            raise ConfigError("box rasterization too large")
        mesh = np.meshgrid(*axes, indexing="ij")
        cells = np.stack([m.ravel() for m in mesh], axis=1)
        return cls(h, cells)

    @classmethod
    def empty(cls, h: float, dim: int) -> "LatticeSet":
        return cls(h, np.empty((0, dim), dtype=np.int64), _sorted=True)

    # -- basic queries ----------------------------------------------------
    @property
    def dim(self) -> int:
        return self.cells.shape[1]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.cells.shape[0] == 0

    @property
    def measure(self) -> float:
        return self.n_cells * self.h ** self.dim

    def keys(self) -> np.ndarray:
        return self._keys

    def bounds(self):
        """Per-axis (min index, max index) pairs; raises on empty set."""
        if self.is_empty:
            raise DegenerateError("empty lattice set has no bounds")
        return self.cells.min(axis=0), self.cells.max(axis=0)

    # -- set algebra ------------------------------------------------------
    def _check_mate(self, other: "LatticeSet"):
        if abs(other.h - self.h) > 1e-15 * self.h or other.dim != self.dim:
            raise ConfigError("lattice sets must share h and dim")

    def _from_keys(self, keys: np.ndarray) -> "LatticeSet":
        """A set on this lattice from sorted unique keys."""
        out = LatticeSet.__new__(LatticeSet)
        out.h = self.h
        out.cells = decode_keys(keys, self.dim)
        out._keys = keys
        return out

    def union(self, other: "LatticeSet") -> "LatticeSet":
        self._check_mate(other)
        return self._from_keys(np.union1d(self._keys, other._keys))

    def intersection(self, other: "LatticeSet") -> "LatticeSet":
        self._check_mate(other)
        return self._from_keys(np.intersect1d(self._keys, other._keys, assume_unique=True))

    def difference(self, other: "LatticeSet") -> "LatticeSet":
        self._check_mate(other)
        return self._from_keys(np.setdiff1d(self._keys, other._keys, assume_unique=True))

    def issubset(self, other: "LatticeSet") -> bool:
        self._check_mate(other)
        return bool(np.isin(self._keys, other._keys, assume_unique=True).all())

    def contains_cells(self, cells: np.ndarray) -> np.ndarray:
        return np.isin(encode_cells(cells), self._keys)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self.contains_cells(points_to_cells(points, self.h))

    def dilate(self, radius: int = 1) -> "LatticeSet":
        """Chebyshev dilation by ``radius`` cells."""
        if self.is_empty or radius == 0:
            return self
        offs = np.arange(-radius, radius + 1, dtype=np.int64)
        mesh = np.meshgrid(*([offs] * self.dim), indexing="ij")
        offsets = np.stack([m.ravel() for m in mesh], axis=1)
        fat = (self.cells[:, None, :] + offsets[None, :, :]).reshape(-1, self.dim)
        return LatticeSet(self.h, fat)

    # -- projections ------------------------------------------------------
    def project(self, axes) -> "LatticeSet":
        axes = list(axes)
        return LatticeSet(self.h, self.cells[:, axes])

    def first_axis_histogram(self):
        """(sorted first-axis indices, counts) over occupied cells."""
        if self.is_empty:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.unique(self.cells[:, 0], return_counts=True)

    def __repr__(self):
        return f"LatticeSet(dim={self.dim}, h={self.h:g}, n_cells={self.n_cells})"
