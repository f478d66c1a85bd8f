import math

import numpy as np
import pytest

from effort_map import ZEROED_ROWS, build_by, build_d, linear_model
from plant_state import Inputs, PlantState
from staballoc.controllers import C_ALPHA_DEFAULT, bn_is_invertible, \
    build_bn
from staballoc.linmodel import build_bl, build_bv, linearize, \
    reduced_derivative
from staballoc.plant import state_derivative

STATIC_STEER = (0.0, 0.0, 0.0, 0.0)


def static_normals(p):
    return (p.N_front_static, p.N_front_static,
            p.N_rear_static, p.N_rear_static)


class TestOneModel:
    def test_reduced_field_matches_plant_at_free_rolling(self, params):
        # with zero torque and w_i = Vx/R_w the tire-curve longitudinal
        # force is zero, as is the reduced model's T_i/R_w, so both vector
        # fields must agree on the 17 control states
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = PlantState.cruising(rng.uniform(5.0, 30.0), params)
            s.Vy = rng.uniform(-2.0, 2.0)
            s.r = rng.uniform(-0.5, 0.5)
            for name in ("z", "phi", "theta"):
                setattr(s, name, rng.uniform(-0.03, 0.03))
            for name in ("zd", "phid", "thetad"):
                setattr(s, name, rng.uniform(-0.3, 0.3))
            for w in ("fl", "fr", "rl", "rr"):
                setattr(s, f"z_u{w}", rng.uniform(-0.01, 0.01))
                setattr(s, f"zd_u{w}", rng.uniform(-0.2, 0.2))
            u = np.zeros(12)
            u[0:4] = rng.uniform(-0.4, 0.4, 4)
            u[8:12] = rng.uniform(-4000.0, 4000.0, 4)
            x = s.as_list()
            terms = Inputs(u[0:4], u[4:8], u[8:12]).terms(params)
            full = state_derivative(x, terms, params)
            red = reduced_derivative(x[:17], u, params)
            np.testing.assert_allclose(full[:17], red, rtol=1e-9, atol=0.0)


class TestLinearize:
    def test_rejects_nonpositive_speed(self, params):
        with pytest.raises(ValueError):
            linearize(params, 0.0)
        with pytest.raises(ValueError):
            linearize(params, -5.0)

    def test_torque_sensitivity_of_speed(self, params):
        # analytic partial: traction T/R_w acting on the mass
        lm = linear_model(params, 20.0)
        expected = 1.0 / (params.m * params.R_w)
        assert expected == pytest.approx(2.331e-3, abs=1e-6)
        for col in (4, 5, 6, 7):
            assert lm.b_u[0, col] == pytest.approx(expected, rel=1e-5)

    def test_disturbance_is_drag_and_its_pitch_moment(self, params):
        lm = linear_model(params, 20.0)
        drag = 0.5 * 20.0 ** 2 * params.rho * params.C_d * params.A_f
        assert drag == pytest.approx(161.7, abs=0.01)
        assert lm.d[0] == pytest.approx(-drag / params.m, rel=1e-6)
        # drag decelerates the body, which pitches it through the
        # load-transfer term
        assert lm.d[8] == pytest.approx(drag * params.h / params.I_y,
                                        rel=1e-6)
        assert np.max(np.abs(np.delete(lm.d, [0, 8]))) < 1e-9

    def test_heave_stiffness_entry(self, params):
        lm = linear_model(params, 20.0)
        expected = -(2 * params.k_sf + 2 * params.k_sr) / params.m
        assert lm.a[4, 3] == pytest.approx(expected, rel=1e-5)
        assert lm.a[4, 3] < 0.0

    def test_heave_and_unsprung_rows_zeroed(self, params):
        lm = linear_model(params, 15.0)
        for row in ZEROED_ROWS:
            assert np.all(lm.b_u[row, :] == 0.0)
        nonzero = sorted(set(range(17)) - set(ZEROED_ROWS) - {5, 7})
        assert nonzero == [0, 1, 2, 6, 8]

    def test_local_linearization_error_is_second_order(self, params):
        lm = linear_model(params, 20.0)
        x0 = np.zeros(17)
        x0[0] = 20.0
        u0 = np.zeros(12)
        f0 = reduced_derivative(x0, u0, params)
        rng = np.random.default_rng(3)
        direction = rng.standard_normal(17)
        direction /= np.linalg.norm(direction)

        def err(scale):
            dx = scale * direction
            f1 = reduced_derivative(x0 + dx, u0, params)
            return np.linalg.norm(f1 - f0 - lm.a @ dx)

        ratio = err(1e-2) / err(5e-3)
        assert 2.5 <= ratio <= 6.0


class TestFactorization:
    def test_identity_on_randomized_operating_points(self, params):
        rng = np.random.default_rng(11)
        b_l = build_bl(params, C_ALPHA_DEFAULT)
        for _ in range(100):
            steer = rng.uniform(-math.radians(30), math.radians(30), 4)
            normals = rng.uniform(500.0, 6000.0, 4)
            b_y = build_by(steer, normals, params)
            b_n = build_bn(steer, normals, params)
            assert np.linalg.norm(b_y - b_l @ np.diag(b_n)) < 1e-9

    def test_bn_static_entries(self, params):
        b_n = build_bn(STATIC_STEER, static_normals(params), params)
        expected = 4.0 * params.N_front_static / params.m
        assert b_n[0] == pytest.approx(expected)
        assert expected == pytest.approx(10.791, abs=1e-3)
        assert tuple(b_n[8:]) == (1.0, 1.0, 1.0, 1.0)
        assert bn_is_invertible(b_n)

    def test_bn_flags_right_angle_steer(self, params):
        steer = (math.pi / 2.0, 0.0, 0.0, 0.0)
        b_n = build_bn(steer, static_normals(params), params)
        assert not bn_is_invertible(b_n)

    def test_bn_negative_entries_are_invertible(self, params):
        # the allocator's unclipped steering command can pass 90 deg,
        # flipping the sign of cos(d) but not the invertibility
        steer = (2.0, -2.0, 0.0, 0.0)
        b_n = build_bn(steer, static_normals(params), params)
        assert np.min(b_n) < 0.0
        assert bn_is_invertible(b_n)

    def test_by_torque_columns_at_zero_steer(self, params):
        b_y = build_by(STATIC_STEER, static_normals(params), params)
        rw, hw = params.R_w, 0.5 * params.w
        # left wheels carry -w/2, right wheels +w/2
        for col, sign in ((4, -1.0), (5, 1.0), (6, -1.0), (7, 1.0)):
            np.testing.assert_allclose(
                b_y[:, col], [1.0 / rw, 0.0, sign * hw, 0.0, 0.0])

    def test_by_suspension_column(self, params):
        b_y = build_by(STATIC_STEER, static_normals(params), params)
        np.testing.assert_allclose(b_y[:, 8], [0, 0, 0, 0.8, -1.125])

    def test_by_steering_entry(self, params):
        steer = (0.05, 0.0, 0.0, 0.0)
        b_y = build_by(steer, (3507.0, 3507.0, 2869.0, 2869.0), params,
                       c_alpha=8.0)
        expected = 8.0 * 3507.0 * math.cos(0.05)
        assert b_y[1, 0] == pytest.approx(expected)
        assert expected == pytest.approx(28021.0, abs=1.0)

    def test_bl_suspension_column(self, params):
        b_l = build_bl(params, C_ALPHA_DEFAULT)
        np.testing.assert_allclose(b_l[:, 8], [0, 0, 0, 0.8, -1.125])
        np.testing.assert_allclose(b_l[:, 9], [0, 0, 0, -0.8, -1.125])

    def test_bv_maps_efforts_to_inertias(self, params):
        b_v = build_bv(params)
        assert b_v.shape == (17, 5)
        assert b_v[0, 0] == pytest.approx(1.0 / params.m)
        assert b_v[1, 1] == pytest.approx(1.0 / params.m)
        assert b_v[2, 2] == pytest.approx(1.0 / params.I_z)
        assert b_v[6, 3] == pytest.approx(1.0 / params.I_x)
        assert b_v[8, 4] == pytest.approx(1.0 / params.I_y)
        assert np.count_nonzero(b_v) == 5

    def test_d_vector(self, params):
        d = build_d(20.0, params)
        q = 0.5 * 400.0 * params.rho * params.C_d * params.A_f
        np.testing.assert_allclose(d, [q, 0.0, 0.0, -q, 0.0])
        assert q == pytest.approx(161.7, abs=0.01)

    def test_bn_invertible_over_actuator_envelope(self, params):
        rng = np.random.default_rng(5)
        for _ in range(200):
            steer = rng.uniform(-math.radians(30), math.radians(30), 4)
            normals = rng.uniform(500.0, 6000.0, 4)
            assert bn_is_invertible(build_bn(steer, normals, params))
