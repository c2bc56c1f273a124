#!/usr/bin/env python3
"""Regenerate the frozen bands in src/ccradon/calibration.py.

Runs the weakly comparable calibration grid on the parabola model at the
standard lattice rule and its h/2 refinement, prints envelope bands widened by
1.5x per side, plus the slab-profile constant and the positive-triple
restricted-weak-type bound.  Paste the output into calibration.py.
"""
import math
import sys
import time

import numpy as np

from ccradon.ccball import lemma_balls_report, reach_ball, slab_profile
from ccradon.exponents import default_h_rule
from ccradon.geometry import builtin_models
from ccradon.radon import rwt_ratio

WIDEN = 1.5


def main():
    model = builtin_models()["parabola"]
    grid = [(theta, 2.0 ** -k) for theta in (0.5, 0.75, 1.0) for k in (3, 4, 5)]
    env = {}
    slab_consts = []
    # theta = 1 balls at h0 are the rwt sweep's reach_ball(d, d, default_h_rule(d, d))
    rwt_balls = {}
    t0 = time.time()
    for theta, d1 in grid:
        d2 = d1 ** theta
        h0 = default_h_rule(d1, d2)
        for h in (h0, h0 / 2.0):
            rep, ball, _ = lemma_balls_report(model, (0.0, 0.0, 0.0), d1, d2, q=3.0, r=3.0, h=h, p=2.0)
            for key, val in rep["ratios"].items():
                lo, hi = env.get(key, (math.inf, -math.inf))
                env[key] = (min(lo, val), max(hi, val))
            if theta == 1.0 and h == h0:
                rwt_balls[d1] = ball
            fmax = max(f for _, f in slab_profile(ball))
            slab_consts.append(fmax * d1 / ball.volume)
            print(f"theta={theta} d1={d1:g} h={h:g} ratios=" +
                  " ".join(f"{k}:{v:.3f}" for k, v in rep["ratios"].items()), file=sys.stderr)
    print(f"# grid time {time.time() - t0:.1f}s", file=sys.stderr)

    rwt_vals = []
    for k in (3, 4, 5, 6):
        d = 2.0 ** -k
        ball = rwt_balls.get(d)
        if ball is None:
            ball = reach_ball(model, (0.0, 0.0, 0.0), d, d, default_h_rule(d, d))
        rwt_vals.append(rwt_ratio(model, ball.proj1, ball.proj2, 5.0 / 3.0, 3.0, 3.0))
    print(f"# rwt(5/3,3,3) sweep: {rwt_vals}", file=sys.stderr)

    print("LEMMA_BANDS = {")
    for key in ("i", "ii_1", "ii_2", "iii", "iv", "v"):
        lo, hi = env[key]
        print(f'    "{key}": ({lo / WIDEN:.4g}, {hi * WIDEN:.4g}),')
    print("}")
    print(f"SLAB_MAX_F_CONST = {max(slab_consts) * WIDEN:.4g}")
    print(f"RWT_BOUND_533 = {max(rwt_vals) * WIDEN:.4g}")


if __name__ == "__main__":
    main()
