import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_profile import profile_value
from staballoc.controllers import (ControllerState, DriverInput, Gains,
                                   PiecewiseLinear, baseline_rear_steer,
                                   baseline_suspension, baseline_traction,
                                   virtual_control, yaw_rate_reference)
from staballoc.params import G, ConfigError
from staballoc.scenario import parse_scenario


def zero_meas(**overrides):
    meas = {"Vx": 15.0, "F": 0.0, "beta": 0.0, "r": 0.0,
            "phi": 0.0, "phid": 0.0, "theta": 0.0, "thetad": 0.0}
    meas.update(overrides)
    return meas


class TestProfiles:
    def test_interpolation_and_extrapolation(self):
        prof = PiecewiseLinear(((1.0, 0.0), (2.0, 4.0)))
        assert prof(0.0) == 0.0
        assert prof(1.5) == 2.0
        assert prof(3.0) == 4.0

    def test_unsorted_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(((2.0, 0.0), (1.0, 1.0)))

    @pytest.mark.parametrize("points", [
        ((0.0, math.nan),), ((0.0, math.inf),), ((0.0, 0.0), (1.0, -math.inf)),
        ((math.nan, 0.0), (1.0, 0.2)), ((0.0, 0.0), (math.inf, 1.0)),
        ((-math.inf, 0.0),)])
    def test_non_finite_breakpoint_rejected(self, points):
        # a NaN steer value used to reach the plant and a NaN time passed
        # the sort check
        with pytest.raises(ConfigError, match="finite"):
            PiecewiseLinear(points)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bisect_equals_the_scan(self, data):
        # breakpoint times on and off the step grid, some repeated; probes
        # at every breakpoint and one ulp either side, past both ends and
        # on the k * dt grid the harness evaluates
        dt = data.draw(st.sampled_from([1e-3, 2e-3, 5e-3]))
        time = st.one_of(st.integers(-500, 4000).map(lambda k: k * dt),
                         st.floats(-0.5, 4.0))
        times = sorted(data.draw(st.lists(time, min_size=1, max_size=8)))
        for _ in range(data.draw(st.integers(0, 3))):
            times.insert(0, data.draw(st.sampled_from(times)))
        times.sort()
        values = data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=len(times), max_size=len(times)))
        points = tuple(zip(times, values))
        prof = PiecewiseLinear(points)
        probes = [math.nan, -math.inf, math.inf, times[0] - 1.0,
                  times[-1] + 1.0]
        for tb in times:
            probes += [tb, math.nextafter(tb, -math.inf),
                       math.nextafter(tb, math.inf)]
        probes += [k * dt for k in range(int(4.2 / dt))]
        for t in probes:
            assert prof(t).hex() == profile_value(points, t).hex(), t

    def test_driver_force_is_pedal_minus_brake(self):
        drv = DriverInput(steer=PiecewiseLinear(((0.0, 0.0),)),
                          pedal=PiecewiseLinear(((0.0, 500.0),)),
                          brake=PiecewiseLinear(((0.0, 2000.0),)))
        assert drv.force_ref(1.0) == -1500.0

    def test_steer_clamped_to_actuator_range(self):
        drv = DriverInput(steer=PiecewiseLinear(((0.0, 1.0),)),
                          pedal=PiecewiseLinear(((0.0, 0.0),)),
                          brake=PiecewiseLinear(((0.0, 0.0),)))
        assert drv.steer_at(0.0) == pytest.approx(math.radians(30.0))


class TestYawRateReference:
    def test_zero_steer_gives_zero(self, params):
        assert yaw_rate_reference(0.0, 20.0, Gains(), params) == 0.0

    def test_kinematic_value(self, params):
        g = Gains(k_understeer=0.0)
        assert yaw_rate_reference(0.05, 10.0, g, params) == \
            pytest.approx(10.0 * 0.05 / 2.5)
        assert yaw_rate_reference(0.05, 10.0, g, params) == \
            pytest.approx(0.2)

    def test_friction_circle_limit(self, params):
        r = yaw_rate_reference(0.3, 30.0, Gains(), params)
        assert r == pytest.approx(G / 30.0)
        assert abs(r) <= 0.328


class TestVirtualControl:
    def test_zero_errors_give_zero_output(self, params):
        v, r_ref = virtual_control(0.0, 0.0, zero_meas(), Gains(),
                                   ControllerState(), 1e-3, params)
        assert r_ref == 0.0
        np.testing.assert_allclose(v, np.zeros(5), atol=1e-12)

    def test_lateral_force_proportional_term(self, params):
        g = Gains(kp_fy=5000.0, ki_fy=0.0)
        v, _ = virtual_control(0.0, 0.0, zero_meas(beta=0.1), g,
                               ControllerState(), 1e-3, params)
        assert v[1] == pytest.approx(-500.0, rel=1e-6)

    def test_roll_moment_proportional_term(self, params):
        g = Gains(kp_roll=2.0e4, kd_roll=0.0, ki_roll=0.0)
        v, _ = virtual_control(0.0, 0.0, zero_meas(phi=0.05), g,
                               ControllerState(), 1e-3, params)
        assert v[3] == pytest.approx(-1000.0, rel=1e-6)

    def test_demand_caps_apply(self, params):
        g = Gains()
        v, _ = virtual_control(0.0, 1.0e6, zero_meas(), g,
                               ControllerState(), 1e-3, params)
        assert v[0] == g.v_max_f

    def test_output_is_floats_and_nan_passes_the_caps(self, params):
        v, r_ref = virtual_control(0.0, 1.0e6, zero_meas(phi=math.nan),
                                   Gains(), ControllerState(), 1e-3, params)
        assert all(type(x) is float for x in v) and type(r_ref) is float
        assert v[0] == Gains().v_max_f
        assert math.isnan(v[3])

    @given(delta=st.floats(-0.3, 0.3), beta=st.floats(-0.3, 0.3),
           r=st.floats(-0.5, 0.5), phi=st.floats(-0.1, 0.1))
    @settings(max_examples=40)
    def test_mirror_symmetry(self, params, delta, beta, r, phi):
        g = Gains()
        v1, rr1 = virtual_control(delta, 0.0,
                                  zero_meas(beta=beta, r=r, phi=phi),
                                  g, ControllerState(), 1e-3, params)
        v2, rr2 = virtual_control(-delta, 0.0,
                                  zero_meas(beta=-beta, r=-r, phi=-phi),
                                  g, ControllerState(), 1e-3, params)
        assert rr2 == pytest.approx(-rr1, abs=1e-12)
        assert v2[1] == pytest.approx(-v1[1], abs=1e-9)  # lateral force
        assert v2[2] == pytest.approx(-v1[2], abs=1e-9)  # yaw moment
        assert v2[3] == pytest.approx(-v1[3], abs=1e-9)  # roll moment
        assert v2[0] == pytest.approx(v1[0], abs=1e-9)   # traction
        assert v2[4] == pytest.approx(v1[4], abs=1e-9)   # pitch moment

    @given(data=st.lists(st.tuples(st.floats(-1e5, 1e5),
                                   st.floats(-1.0, 1.0),
                                   st.floats(-2.0, 2.0)),
                         min_size=1, max_size=200))
    @settings(max_examples=25)
    def test_anti_windup_bounds_hold(self, params, data):
        g = Gains()
        cs = ControllerState()
        for f_err, beta, r in data:
            virtual_control(0.0, f_err,
                            zero_meas(beta=beta, r=r, phi=beta,
                                      theta=beta), g, cs, 1e-3, params)
            assert abs(cs.i_force) <= g.i_max_f
            assert abs(cs.i_yaw) <= g.i_max_r
            assert abs(cs.i_beta_mz) <= g.i_max_beta
            assert abs(cs.i_beta_fy) <= g.i_max_beta
            assert abs(cs.i_roll) <= g.i_max_roll
            assert abs(cs.i_pitch) <= g.i_max_pitch

    def test_rejects_bad_dt(self, params):
        with pytest.raises(ValueError):
            virtual_control(0.0, 0.0, zero_meas(), Gains(),
                            ControllerState(), 0.0, params)


class TestBaselineRearSteer:
    def test_low_speed_limit(self, params):
        k = baseline_rear_steer(1.0, 1e-6, 7014.15, 5738.85, params, 30.0)
        assert k == pytest.approx(-params.b / params.a, rel=1e-4)
        assert k == pytest.approx(-1.2222, abs=1e-3)

    def test_crossover_sign_change(self, params):
        c_a = 30.0
        n_f, n_r = 7014.15, 5738.85
        v_star = math.sqrt(params.b * params.L * c_a * n_r
                           / (params.m * params.a))
        below = baseline_rear_steer(1.0, 0.9 * v_star, n_f, n_r, params, c_a)
        above = baseline_rear_steer(1.0, 1.1 * v_star, n_f, n_r, params, c_a)
        at = baseline_rear_steer(1.0, v_star, n_f, n_r, params, c_a)
        assert below < 0.0 < above
        assert abs(at) < 1e-9

    def test_equal_loads_cancel_trailing_ratio(self, params):
        c_a, n = 8.0, 3000.0
        v = 15.0
        k = baseline_rear_steer(1.0, v, n, n, params, c_a)
        mv2 = params.m * v * v
        expected = (mv2 * params.a - params.b * params.L * c_a * n) / \
            (mv2 * params.b + params.a * params.L * c_a * n)
        assert k == pytest.approx(expected)


class TestBaselineTraction:
    def test_equal_loads_pass_force_through(self, params):
        n = params.weight / 4.0
        torques = baseline_traction(400.0, (n,) * 4, params)
        for t in torques:
            assert t == pytest.approx(400.0)

    def test_inverse_proportionality(self, params):
        t1 = baseline_traction(400.0, (3000.0,) * 4, params)[0]
        t2 = baseline_traction(400.0, (6000.0, 3000, 3000, 3000),
                               params)[0]
        assert t2 == pytest.approx(0.5 * t1)

    def test_hand_value(self, params):
        t = baseline_traction(400.0, (3507.075,) * 4, params)[0]
        assert t == pytest.approx(400 * 12753.0 / (4 * 3507.075))
        assert t == pytest.approx(363.6, abs=0.05)


class TestBaselineSuspension:
    def test_zero_at_rest(self, params):
        f = baseline_suspension(0.0, 0.0, Gains(), ControllerState(), 1e-3)
        assert f == (0.0, 0.0, 0.0, 0.0)

    def test_distribution_arithmetic(self):
        # choose gains so one sample yields f_pitch = 10, f_roll = 5
        g = Gains(kp_pitch_base=10.0, ki_pitch_base=0.0, kp_roll_base=5.0,
                  ki_roll_base=0.0)
        f = baseline_suspension(-1.0, -1.0, g, ControllerState(), 1e-3)
        assert f == pytest.approx((-5.0, -15.0, 15.0, 5.0))

    def test_pure_roll_equal_front_rear(self):
        g = Gains(kp_pitch_base=0.0, ki_pitch_base=0.0)
        f = baseline_suspension(0.0, 0.02, g, ControllerState(), 1e-3)
        assert f[0] == pytest.approx(f[2])
        assert f[1] == pytest.approx(f[3])


class TestGainOverrides:
    HEAD = "[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n[gains]\n"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="kp_nonexistent"):
            parse_scenario(self.HEAD + "kp_nonexistent = 1\n")

    def test_override_round_trip(self):
        g = parse_scenario(self.HEAD + "kp_mz = 123\n").gains
        assert g.kp_mz == 123.0
        assert g.ki_mz == Gains().ki_mz

    LIMITS = ("i_max_f", "i_max_r", "i_max_beta", "i_max_roll",
              "i_max_pitch", "v_max_f", "v_max_fy", "v_max_mz", "v_max_mx",
              "v_max_my")

    @pytest.mark.parametrize("name", LIMITS)
    @pytest.mark.parametrize("value", [-1.0, -13000.0, math.nan, math.inf])
    def test_negative_or_non_finite_limit_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            Gains(**{name: value})

    @pytest.mark.parametrize("name", LIMITS)
    def test_zero_limit_accepted(self, name):
        assert getattr(Gains(**{name: 0.0}), name) == 0.0
