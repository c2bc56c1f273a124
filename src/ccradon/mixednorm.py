"""Mixed L^q(L^r) norms of grid functions sliced by the distinguished first axis.

A slice is the lattice hyperplane of thickness h at a fixed first-coordinate
cell; slice measure is counting measure times h^(d-1), the outer integral
carries weight h per slice.  Infinity exponents are essential suprema.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DegenerateError
from .lattice import LatticeSet

INF = math.inf


def exponent(value):
    """The one parser and range check for an exponent in [1, inf].

    "inf", "Infinity" and None read as infinity, other strings as Fractions
    ("5/3", "1.5"), and real numbers are returned as given.  ConfigError for
    a string that does not parse, a value that is no real number (a bool, a
    list), and a value below 1 or NaN.
    """
    if value in ("inf", "Infinity", None):
        return INF
    parsed = value
    if isinstance(value, str):
        try:
            parsed = Fraction(value)
        except ValueError:
            parsed = None
    if isinstance(parsed, bool) or not isinstance(parsed, numbers.Real):
        raise ConfigError(f"exponent must be a number, a fraction such as '5/3' or 'inf', got {value!r}")
    if not parsed >= 1:
        raise ConfigError(f"exponent must lie in [1, inf], got {parsed}")
    return parsed


def conjugate(e) -> float:
    """Conjugate exponent with the 1 <-> infinity convention."""
    e = exponent(e)
    if e == 1:
        return INF
    if e == INF:
        return 1.0
    return e / (e - 1.0)


def reciprocal(e) -> float:
    """1/e with 1/infinity = 0."""
    e = exponent(e)
    return 0.0 if e == INF else 1.0 / float(e)


@dataclass
class GridFunctionY:
    """A nonnegative-or-signed grid function over Y with the first axis as Pi.

    ``origin`` is the global lattice index of values[0, ..., 0].
    """

    h: float
    origin: tuple
    values: np.ndarray

    def norm(self, q: float, r: float) -> float:
        return mixed_norm_grid(self.values, self.h, q, r)


def _outer_norm(slice_norms: np.ndarray, h: float, q: float) -> float:
    if q == INF:
        return float(slice_norms.max())
    return float((np.sum(slice_norms ** q) * h) ** (1.0 / q))


def mixed_norm_grid(values: np.ndarray, h: float, q: float, r: float) -> float:
    """Mixed norm of a dense grid function (axis 0 is the Pi direction); 0 with no cells."""
    q, r = exponent(q), exponent(r)
    vals = np.abs(np.asarray(values, dtype=float))
    if not vals.size:
        return 0.0
    flat = vals.reshape(vals.shape[0], -1)
    d = vals.ndim
    if r == INF:
        slice_norms = flat.max(axis=1)
    else:
        slice_norms = (np.sum(flat ** r, axis=1) * h ** (d - 1)) ** (1.0 / r)
    return _outer_norm(slice_norms, h, q)


def mixed_norm_indicator(F: LatticeSet, q: float, r: float) -> float:
    """Mixed norm of the indicator of F, computed from per-slice cell counts."""
    q, r = exponent(q), exponent(r)
    if F.is_empty:
        return 0.0
    _, counts = F.first_axis_histogram()
    masses = counts * F.h ** (F.dim - 1)
    if r == INF:
        slice_norms = np.ones_like(masses, dtype=float)
    else:
        slice_norms = masses ** (1.0 / r)
    return _outer_norm(slice_norms, F.h, q)


@dataclass(frozen=True)
class HolderBound:
    lhs: float
    rhs: float
    eps_lattice: float

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs * (1.0 - max(self.eps_lattice, 1e-12))


def holder_lower_bound(F: LatticeSet, q: float, r: float) -> HolderBound:
    """Lower bound ||chi_F||_{q', r'} >= |F|^{1/r'} |Pi(F)|^{1/q' - 1/r'} for r >= q.

    On the lattice both sides are computed from the same cell masses, so the
    inequality is exact up to float roundoff; eps_lattice reports the
    feature-size-driven uncertainty of interpreting the result in the continuum.
    """
    if not (r >= q):
        raise ConfigError("holder_lower_bound requires r >= q")
    if F.is_empty:
        raise DegenerateError("holder_lower_bound: empty set")
    qc = conjugate(q)
    rc = conjugate(r)
    lhs = mixed_norm_indicator(F, qc, rc)
    _, counts = F.first_axis_histogram()
    pi_measure = len(counts) * F.h
    vol = F.measure
    inv_rc, inv_qc = reciprocal(rc), reciprocal(qc)
    rhs = vol ** inv_rc * pi_measure ** (inv_qc - inv_rc)
    min_slice = counts.min() * F.h ** (F.dim - 1)
    if F.dim >= 2:
        feature = min(pi_measure, min_slice ** (1.0 / (F.dim - 1)))
    else:
        feature = pi_measure
    eps = 3.0 * F.h / feature if feature > 0 else 1.0
    return HolderBound(lhs=lhs, rhs=rhs, eps_lattice=eps)
