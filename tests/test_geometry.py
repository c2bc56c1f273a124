import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccradon import geometry
from ccradon.errors import ChartDomainError, ConfigError, FlowExitError
from ccradon.geometry import (
    ModelFamily,
    bracket_rank,
    builtin_models,
    check_v1_normalization,
    eval_fields,
    flow,
    lie_bracket,
    lie_bracket_exact,
    load_model,
    rk4_many,
)


def closed_flow_parabola(x1, x2, t, a1, a2, s):
    """Constant-control flow of the parabola model in closed form.

    t(s) = t + (a1+a2) s and x(s) = x - a2 (gamma(t(s)) - gamma(t)) / (a1+a2)
    when a1 + a2 != 0, else x(s) = x - a2 gamma'(t) s.
    """
    b = a1 + a2
    tn = t + b * s
    if b != 0.0:
        dx1 = -a2 * (tn - t) / b
        dx2 = -a2 * (tn * tn - t * t) / b
    else:
        dx1 = -a2 * s
        dx2 = -a2 * 2.0 * t * s
    return np.array([x1 + dx1, x2 + dx2, tn])


def exact_constant_control_step(curve, x, t, a1, a2, tau):
    """Exact endpoint of a constant-control flow, in rationals.

    t moves to t + v tau (v = a1 + a2) and x to x - a2 (gamma(t + v tau) -
    gamma(t)) / v, or x - a2 tau gamma'(t) when v = 0.
    """
    t, a1, a2, tau = (Fraction(c) for c in (t, a1, a2, tau))
    v = a1 + a2
    tn = t + v * tau
    out = []
    for xi, coeffs in zip(x, curve):
        c = [Fraction(ck) for ck in coeffs]
        if v:
            dx = sum(ck * (tn ** k - t ** k) for k, ck in enumerate(c)) / v
        else:
            dx = tau * sum(k * ck * t ** (k - 1) for k, ck in enumerate(c) if k)
        out.append(Fraction(xi) - a2 * dx)
    return out + [tn]


EXTRA_CURVES = {
    "degree8": [[0, 1], [0, 0.3, 1, -0.5, 0.2, 0.7, -0.1, 0.4, 0.9]],
    "signed_zero": [[0, 1], [-0.0, -0.0, 1]],
    "flat": [[0, 1], [0]],
}


def textbook_rk4_step(curve, z, a1, a2, dt):
    """One classical RK4 step of phi' = a1 V1 + a2 V2 from the point z.

    V1 = d/dt and V2 = d/dt - sum_i gamma_i'(t) d/dx_i, with gamma_i' from
    np.polyval; k1..k4 and their weighted sum in the classical order.
    """
    dgammas = [np.polyder(np.array(coeffs[::-1], dtype=float)) for coeffs in curve]

    def field(p):
        return np.array([-a2 * np.polyval(dg, p[-1]) for dg in dgammas] + [a1 + a2])

    k1 = field(z)
    k2 = field(z + dt / 2 * k1)
    k3 = field(z + dt / 2 * k2)
    k4 = field(z + dt * k3)
    return z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def fifth_derivative_bound(coeffs, t_abs_max):
    """Upper bound of |gamma_i^(5)| on |t| <= t_abs_max from the coefficients."""
    return sum(
        abs(ck) * math.perm(k, 5) * t_abs_max ** (k - 5) for k, ck in enumerate(coeffs) if k >= 5
    )


class TestFields:
    def test_parabola_origin(self, parabola):
        v1, v2 = eval_fields(parabola, (0.0, 0.0, 0.0))
        assert v1.tolist() == [0.0, 0.0, 1.0]
        assert np.allclose(v2, (-1.0, 0.0, 1.0))

    def test_parabola_half(self, parabola):
        _, v2 = eval_fields(parabola, (0.0, 0.0, 0.5))
        assert np.allclose(v2, (-1.0, -1.0, 1.0))

    def test_projection_kernels(self, parabola, cubic, rng):
        # D pi1 . V1 = 0 and D pi2 . V2 = 0 componentwise, every sampled point
        for model in (parabola, cubic):
            d = model.d
            for _ in range(20):
                z = rng.uniform(-0.8, 0.8, size=d + 1)
                v1, v2 = eval_fields(model, z)
                assert np.all(v1[:d] == 0.0)
                dpi2_v2 = v2[:d] + model.dgamma(z[-1]) * v2[d]
                assert np.allclose(dpi2_v2, 0.0, atol=1e-14)

    def test_outside_domain(self, parabola):
        with pytest.raises(ChartDomainError):
            eval_fields(parabola, (1.5, 0.0, 0.0))


class TestFlow:
    def test_v1_flow_translates_t(self, parabola):
        end = flow(parabola, (0.2, -0.1, 0.0), (1.0, 0.0), 0.3)
        assert np.allclose(end, (0.2, -0.1, 0.3), atol=1e-12)

    def test_v2_flow_closed_form(self, parabola, rng):
        for _ in range(10):
            x1, x2, t = rng.uniform(-0.3, 0.3, size=3)
            s = rng.uniform(-0.3, 0.3)
            end = flow(parabola, (x1, x2, t), (0.0, 1.0), s)
            assert np.allclose(end, closed_flow_parabola(x1, x2, t, 0.0, 1.0, s), atol=1e-8)

    def test_rk4_step_exact_for_builtin_curves(self, models, rng):
        # gamma' has degree <= 3 for the built-in curves, so one step is exact
        # to roundoff, also where the closed form divides by a tiny v
        tau = 0.125
        for name in ("parabola", "cubic", "quartic"):
            model = models[name]
            n = 16
            for speed in (0.0, 1e-12, 1e-6, 0.3):
                pts = rng.uniform(-0.5, 0.5, size=(n, model.dim_z))
                a2 = rng.uniform(-0.5, 0.5, size=n)
                a1 = np.where(np.arange(n) % 2, speed, -speed) - a2
                per_path = rk4_many(model, pts.T, a1, a2, tau)[:, 0].T
                scalar = rk4_many(model, pts.T, float(a1[0]), float(a2[0]), tau)[:, 0].T
                for i in range(n):
                    exact = exact_constant_control_step(model.curve, pts[i, :-1], pts[i, -1], a1[i], a2[i], tau)
                    err = max(abs(float(Fraction(got) - want)) for got, want in zip(per_path[i], exact))
                    assert err <= 1e-14, (name, speed, i, err)
                    exact = exact_constant_control_step(model.curve, pts[i, :-1], pts[i, -1], a1[0], a2[0], tau)
                    err = max(abs(float(Fraction(got) - want)) for got, want in zip(scalar[i], exact))
                    assert err <= 1e-14, (name, speed, i, err)

    def test_rk4_control_rows_match_single_steps(self, models, rng):
        # row i q + k of a (p, 1) x (q, 1) control grid is the step under
        # (a1[i], a2[k]), the order of np.repeat(a1, q) with np.tile(a2, p),
        # and equals the single-control step bit for bit
        tau = 1.0 / 64.0
        a2 = np.array([-0.125, 0.0, 0.125])
        for name in ("parabola", "cubic"):
            model = models[name]
            pts = rng.uniform(-0.5, 0.5, size=(model.dim_z, 7))
            for a1 in (np.array([-0.125, 0.0, 0.125]), np.array([0.25, -0.0625])):
                block = rk4_many(model, pts, a1[:, None], a2[:, None], tau)
                assert block.shape == (model.dim_z, a1.size * a2.size, 7)
                for c, (b1, b2) in enumerate(zip(np.repeat(a1, a2.size), np.tile(a2, a1.size))):
                    one = rk4_many(model, pts, b1, b2, tau)[:, 0]
                    assert one.tobytes() == np.ascontiguousarray(block[:, c]).tobytes(), (name, c)
                    per_point = rk4_many(model, pts, np.full(7, b1), np.full(7, b2), tau)[:, 0]
                    assert per_point.tobytes() == one.tobytes(), (name, c)

    @pytest.mark.parametrize("name", ["parabola", "quartic", "cubic", "degree8", "signed_zero"])
    def test_rk4_many_is_textbook_rk4_bit_for_bit(self, models, rng, name, monkeypatch):
        # the 3 x 3 grid of extreme controls (speed 0 among them) and one
        # control per point.  Grid rows with a2 = 0 copy x, since x + (signed
        # zero) is x, unless some x coordinate is -0.0, which it would flip:
        # the first point set has signed zeros in t only and takes the copy
        # path, the second has -0.0 in x too and steps every row.  The -0.0
        # coefficient makes gamma_2'(-0.0) = -0.0 but gamma_2'(+0.0) = +0.0,
        # so a speed-0 node t + 0.0 differs from t there.
        model = models.get(name) or load_model({"curve": EXTRA_CURVES[name]})
        stepped = []  # a2 rows of each Simpson node evaluation, (p, q, n) over the grid

        def spy(c, x):
            if np.ndim(x) == 3:
                stepped.append(x.shape[1])
            return horner(c, x)

        horner = geometry._horner
        monkeypatch.setattr(geometry, "_horner", spy)
        n = 12
        t_zeros = rng.uniform(-0.5, 0.5, size=(model.dim_z, n))
        t_zeros[-1, :4] = [0.0, -0.0, -0.0, 0.0]
        x_zeros = t_zeros.copy()
        x_zeros[:-1, :4] = [[0.0, -0.0, 0.0, -0.0]] * model.d
        a1 = rng.uniform(-0.5, 0.5, size=n)
        a2 = rng.uniform(-0.5, 0.5, size=n)
        a1[:3], a2[:3] = 0.0, 0.0
        a1[3:6] = -a2[3:6]
        for pts, grid_rows in ((t_zeros, 2), (x_zeros, 3)):
            for dt in (1.0 / 64.0, -0.125, 1.0 / 3.0):
                for d1, d2 in ((0.125, 0.125), (0.3, 0.0625)):
                    b1s, b2s = np.array([-d1, 0.0, d1]), np.array([-d2, 0.0, d2])
                    stepped.clear()
                    rows = rk4_many(model, pts, b1s[:, None], b2s[:, None], dt)
                    assert stepped == [grid_rows, grid_rows]
                    assert rows.shape == (model.dim_z, 9, n)
                    for c, (b1, b2) in enumerate(zip(np.repeat(b1s, 3), np.tile(b2s, 3))):
                        want = np.array([textbook_rk4_step(model.curve, pts[:, i], b1, b2, dt) for i in range(n)]).T
                        assert np.ascontiguousarray(rows[:, c]).tobytes() == want.tobytes(), (name, dt, d1, d2, c)
                per_point = rk4_many(model, pts, a1, a2, dt)[:, 0]
                want = np.array([textbook_rk4_step(model.curve, pts[:, i], a1[i], a2[i], dt) for i in range(n)]).T
                assert per_point.tobytes() == want.tobytes(), (name, dt)

    @pytest.mark.parametrize("name", ["parabola", "quartic", "cubic", "degree8", "signed_zero", "flat"])
    def test_horner_is_polyval_bit_for_bit(self, models, rng, name):
        # rk4_many's gamma' evaluations: every column of _dcoef (one constant
        # row for the flat curve) at +-0.0 and at seeded t of both signs, on
        # a one-axis and on a (p, q, n) argument
        model = models.get(name) or load_model({"curve": EXTRA_CURVES[name]})
        t = np.concatenate(([0.0, -0.0], rng.uniform(-1.0, 1.0, size=16)))
        for x in (t, t.reshape(3, 2, 3)):
            want = geometry.npoly.polyval(x, model._dcoef)
            assert geometry._horner(model._dcoef, x).tobytes() == want.tobytes(), name

    def test_rk4_step_within_simpson_bound_for_degree_8(self, rng):
        # Simpson's rule on [t, t + v tau]: |error in x_i| <= |a2| tau (|v| tau)^4 / 2880 max|gamma_i^(5)|
        model = load_model({"curve": EXTRA_CURVES["degree8"]})
        tau = 0.125
        worst = 0.0
        for _ in range(64):
            x1, x2, t = rng.uniform(-0.5, 0.5, size=3)
            a1, a2 = rng.uniform(-0.75, 0.75, size=2)
            got = rk4_many(model, np.array([[x1], [x2], [t]]), a1, a2, tau)[:, 0, 0]
            exact = exact_constant_control_step(model.curve, (x1, x2), t, a1, a2, tau)
            v = a1 + a2
            reach = max(abs(t), abs(t + v * tau))
            for i, coeffs in enumerate(model.curve):
                bound = abs(a2) * tau * (abs(v) * tau) ** 4 / 2880.0 * fifth_derivative_bound(coeffs, reach)
                err = abs(float(Fraction(got[i]) - exact[i]))
                assert err <= bound + 1e-14, (i, err, bound)
                worst = max(worst, err)
        # the oracle sees the integration error of a degree-8 curve
        assert worst > 1e-12

    def test_zero_duration(self, parabola):
        z = (0.1, 0.2, 0.05)
        assert flow(parabola, z, (0.7, -0.3), 0.0) == pytest.approx(z)

    def test_exit_error_carries_time(self, parabola):
        with pytest.raises(FlowExitError) as err:
            flow(parabola, (0.0, 0.0, 0.9), (1.0, 0.0), 0.5)
        # t passes 1 on the fourth of 16 steps of 1/32
        assert err.value.exit_time == 0.125
        assert str(err.value) == "trajectory exited chart domain near time 0.125"

    @settings(max_examples=25, deadline=None)
    @given(
        a1=st.floats(-0.5, 0.5),
        a2=st.floats(-0.5, 0.5),
        s1=st.floats(0.01, 0.2),
        s2=st.floats(0.01, 0.2),
    )
    def test_group_law(self, a1, a2, s1, s2):
        model = builtin_models()["parabola"]
        z = (0.0, 0.0, 0.0)
        two_step = flow(model, flow(model, z, (a1, a2), s1), (a1, a2), s2)
        one_step = flow(model, z, (a1, a2), s1 + s2)
        assert np.allclose(two_step, one_step, atol=1e-7)


class TestNormalization:
    def test_parabola(self, parabola):
        assert check_v1_normalization(parabola, (0.0, 0.0, 0.0), 0.1) <= 1e-6

    def test_zero(self, parabola):
        assert check_v1_normalization(parabola, (0.1, 0.1, 0.1), 0.0) == 0.0

    def test_cubic_negative_s(self, cubic):
        assert check_v1_normalization(cubic, (0.0,) * 4, -0.05) <= 1e-6


class TestBrackets:
    def test_parabola_bracket(self, parabola, rng):
        for _ in range(5):
            z = rng.uniform(-0.5, 0.5, size=3)
            fd = lie_bracket(parabola, z, 1, 2)
            assert np.allclose(fd, (0.0, -2.0, 0.0), atol=1e-9)

    def test_antisymmetry(self, parabola):
        z = (0.1, 0.2, 0.3)
        b11 = lie_bracket(parabola, z, 1, 1)
        assert np.allclose(b11, 0.0)
        b12 = lie_bracket(parabola, z, 1, 2)
        b21 = lie_bracket(parabola, z, 2, 1)
        assert np.allclose(b12, -b21, atol=1e-12)

    @pytest.mark.parametrize("bracket", [lie_bracket, lie_bracket_exact])
    def test_field_index_rejected(self, parabola, bracket):
        for i, j in ((1, 3), (0, 2)):
            with pytest.raises(ConfigError, match="field index must be 1 or 2"):
                bracket(parabola, (0.0, 0.0, 0.0), i, j)

    def test_cubic_bracket_origin(self, cubic):
        ex = lie_bracket_exact(cubic, (0.0,) * 4, 1, 2)
        assert np.allclose(ex, (0.0, -2.0, 0.0, 0.0))

    def test_fd_convergence_order(self, quartic):
        # gamma has a degree-4 coordinate, so the symmetric difference carries
        # a genuine O(h^2) error term
        z = (0.0, 0.0, 0.25)
        exact = lie_bracket_exact(quartic, z, 1, 2)
        errs = []
        for k in range(4, 9):
            fd = lie_bracket(quartic, z, 1, 2, step=2.0 ** -k)
            errs.append(np.abs(fd - exact).max())
        slopes = np.diff(-np.log2(errs))
        assert np.all(slopes >= 1.9)


class TestBracketRank:
    def test_parabola(self, parabola):
        assert bracket_rank(parabola, (0.0, 0.0, 0.0), 1) == 2
        assert bracket_rank(parabola, (0.0, 0.0, 0.0), 2) == 3

    def test_cubic(self, cubic):
        assert bracket_rank(cubic, (0.0,) * 4, 3) == 4

    def test_rescale_invariance(self, parabola, cubic):
        for model, depth, dim in ((parabola, 2, 3), (cubic, 3, 4)):
            z = (0.1,) * dim
            base = bracket_rank(model, z, depth)
            for lam in (0.5, 2.0, -3.0):
                assert bracket_rank(model, z, depth, v1_scale=lam) == base


class TestModelCatalog:
    def test_load_by_name(self):
        m = load_model("parabola")
        assert m.d == 2

    def test_load_dict(self):
        m = load_model({"d": 2, "curve": [[0, 1], [0, 0, 1]], "domain": [[-1, 1]]})
        assert m.d == 2
        assert len(m.domain) == 3

    def test_gamma1_must_be_t(self):
        with pytest.raises(ConfigError):
            ModelFamily(name="bad", curve=((0.0, 2.0), (0.0, 0.0, 1.0)), domain=((-1, 1),) * 3)

    def test_degree_cap(self):
        with pytest.raises(ConfigError):
            ModelFamily(name="bad", curve=((0.0, 1.0), tuple([0.0] * 10 + [1.0])), domain=((-1, 1),) * 3)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            load_model("nonexistent-model")
