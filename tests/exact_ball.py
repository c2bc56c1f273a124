"""Exact ball of the parabola model, in numpy alone (no ccradon import).

The parabola model is the Heisenberg group with a box control norm.  With
p = x1 + t, q = x1 and Z = x2 + x1^2 (Jacobian 1) the flow of a1 V1 + a2 V2
reads p' = a1, q' = -a2, Z' = 2 p q'.  Set P = (p - p0)/delta1 and
Q = (q - q0)/delta2.  The ball B(z0, delta1, delta2) is the set of points with
(P, Q) in [-1, 1]^2 and

    |Z - Z0 - 2 p0 (q - q0) - delta1 delta2 P Q| <= 2 delta1 delta2 Amax(P, Q),

where Amax(P, Q) is the largest signed area between the chord and a path from
0 to (P, Q) in unit time with |P'|, |Q'| <= 1 (Dido's problem in the
l-infinity plane).  Its volume is c_H delta1^2 delta2^2 at every centre, with
c_H the integral of 4 Amax over [-1, 1]^2.

``amax_grid(n)`` runs a forward dynamic programme over lattice paths of n
steps of length dt = 1/n with velocities in {-1, 0, 1}^2.  A straight step
from (x, y) with velocity (u, v) sweeps the signed area 1/2 (x v - y u) dt
against the origin, the same at every point of the step, so the area of a
lattice path is exact.  Areas are kept as integers in units of dt^2 / 2.
"""
from __future__ import annotations

import numpy as np

_UNREACHED = np.iinfo(np.int64).min // 2


def amax_grid(n: int) -> np.ndarray:
    """Amax at the lattice points (i/n, j/n), i, j = -n..n; entry [i + n, j + n].

    Each entry is the largest area over lattice paths of n steps, a lower
    bound of the continuum Amax that meets it at the anchors (0, 0),
    (+-1, 0), (1, 1) and (1, 1/2).
    """
    size = 2 * n + 1
    idx = np.arange(-n, n + 1, dtype=np.int64)
    x, y = idx[:, None], idx[None, :]
    best = np.full((size, size), _UNREACHED, dtype=np.int64)
    best[n, n] = 0
    # a step may start only where the start point stays in [-n, n]^2 after it
    for _ in range(n):
        nxt = np.full_like(best, _UNREACHED)
        for u in (-1, 0, 1):
            for v in (-1, 0, 1):
                src = (slice(max(0, -u), size - max(0, u)), slice(max(0, -v), size - max(0, v)))
                dst = (slice(max(0, u), size - max(0, -u)), slice(max(0, v), size - max(0, -v)))
                gain = (x * v - y * u)[src]  # twice the area, in units of dt^2
                np.maximum(nxt[dst], best[src] + gain, out=nxt[dst])
        best = nxt
    return best / (2.0 * n * n)


def c_h(n: int) -> float:
    """Trapezoid rule for c_H = integral of 4 Amax over [-1, 1]^2 on the n-step grid."""
    weights = np.ones(2 * n + 1)
    weights[[0, -1]] = 0.5
    return float(weights @ (4.0 * amax_grid(n)) @ weights) / (n * n)
