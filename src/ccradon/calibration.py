"""Frozen empirical bands for the parabola reference model.

The comparability statements behind the ball facts hold with implicit
constants; these bands were calibrated once (scripts/calibrate_bands.py) on
the weakly comparable grid {d2 = d1^theta, theta in {0.5, 0.75, 1},
d1 in 2^-3..2^-5} at the standard lattice rule and its h/2 refinement, then
widened by a factor 1.5 on each side.  Tests assert stability against these
numbers; they are not fitted per run.
"""

# lemma_balls_report ratio bands, keyed like its "ratios" payload
LEMMA_BANDS = {
    "i": (2.433, 29.22),
    "ii_1": (0.4673, 2.74),
    "ii_2": (0.3724, 1.527),
    "iii": (1.375, 3.75),
    "iv": (0.6586, 2.212),
    "v": (0.3808, 2.013),
}

# slab profile: max_t f(t) <= C |B| / delta1 across the calibration grid
SLAB_MAX_F_CONST = 0.8696

# positive restricted-weak-type sweep at (5/3, 3, 3) on ball pairs
RWT_BOUND_533 = 0.8291

# Z-lattice pairing vs the continuum box integral over the node window,
# at h = 2^-7 (stated, not calibrated)
PAIRING_BAND = (0.9, 1.1)

# "doubles per halving, within 25%" (stated, not calibrated)
DOUBLING_BAND = (1.5, 2.5)

# reach_ball vs mc_ball occupied-volume agreement (stated, not calibrated)
MC_AGREEMENT_BAND = (0.25, 4.0)
