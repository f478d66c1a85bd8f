import math

import pytest
from hypothesis import given, strategies as st

from reference_plant import (longitudinal_slip, magic_formula,
                             rolling_resistance, slip_angles,
                             wheel_frame_to_body)


class TestLongitudinalSlip:
    def test_zero_slip_when_rolling(self):
        assert longitudinal_slip(20.0, 20.0 / 0.33, 0.33) == 0.0

    def test_driving_branch(self):
        # hand evaluation: (w R - Vx) / (w R)
        expected = (70.0 * 0.33 - 20.0) / (70.0 * 0.33)
        assert longitudinal_slip(20.0, 70.0, 0.33) == pytest.approx(expected)
        assert expected == pytest.approx(0.13420, abs=1e-5)

    def test_braking_branch(self):
        expected = (50.0 * 0.33 - 20.0) / 20.0
        assert longitudinal_slip(20.0, 50.0, 0.33) == pytest.approx(expected)
        assert expected == pytest.approx(-0.175)

    def test_clamped_to_unit_range(self):
        assert longitudinal_slip(30.0, 0.0, 0.33) == -1.0
        assert longitudinal_slip(0.0, 300.0, 0.33) == 1.0

    @given(v=st.floats(0.5, 50.0), omega=st.floats(0.0, 200.0))
    def test_slip_sign(self, v, omega):
        lam = longitudinal_slip(v, omega, 0.33)
        wr = omega * 0.33
        if wr > v:
            assert lam > 0.0
        elif wr < v:
            assert lam < 0.0

    def test_standstill_is_regular(self):
        assert longitudinal_slip(0.0, 0.0, 0.33) == 0.0


class TestSlipAngles:
    def test_straight_rolling_is_zero(self, params):
        assert slip_angles(20.0, 0.0, 0.0, (0, 0, 0, 0), params) == \
            (0.0, 0.0, 0.0, 0.0)

    def test_pure_lateral_velocity_all_equal(self, params):
        alphas = slip_angles(20.0, 1.0, 0.0, (0, 0, 0, 0), params)
        expected = -math.atan(1.0 / 20.0)
        for a in alphas:
            assert a == pytest.approx(expected)

    def test_front_left_hand_formula(self, params):
        # direct evaluation with the hub-angle geometry
        gf = math.atan(0.8 / 1.125)
        num = 0.4 + 0.1 * 1.125 * math.cos(gf)
        den = 20.0 - 0.1 * 1.125 * math.sin(gf)
        expected = 0.05 - math.atan(num / den)
        alphas = slip_angles(20.0, 0.4, 0.1, (0.05, 0, 0, 0), params)
        assert alphas[0] == pytest.approx(expected, rel=1e-12)


class TestMagicFormula:
    def test_zero_slip_zero_force(self):
        assert magic_formula(0.0, 10.0, 1.9, 0.97, 3500.0) == 0.0

    def test_scalar_oracle(self):
        # independent scalar evaluation of the closed form
        b, c, e, d, s = 10.0, 1.9, 0.97, 3500.0, 0.1
        bs = b * s
        expected = d * math.sin(c * math.atan(bs - e * (bs - math.atan(bs))))
        assert magic_formula(s, b, c, e, d) == pytest.approx(expected)
        assert expected == pytest.approx(3345.45, abs=0.01)

    @given(s=st.floats(-2.0, 2.0), d=st.floats(0.0, 8000.0))
    def test_bounded_by_peak(self, s, d):
        assert abs(magic_formula(s, 10.0, 1.9, 0.97, d)) <= d + 1e-9

    @given(s=st.floats(0.001, 1.0))
    def test_odd_symmetry(self, s):
        f = magic_formula(s, 8.5, 1.3, -1.2, 3000.0)
        assert magic_formula(-s, 8.5, 1.3, -1.2, 3000.0) == pytest.approx(-f)


class TestRollingResistance:
    def test_zero_load(self):
        assert rolling_resistance(0.0, 20.0, 0.009, 0.002, 0.0003) == 0.0

    def test_standstill_keeps_constant_term(self):
        assert rolling_resistance(3000.0, 0.0, 0.009, 0.002, 0.0003) == \
            pytest.approx(27.0)

    def test_hand_value(self):
        # 27 + 6 + 0.9 at full speed ratio
        assert rolling_resistance(3000.0, 30.0, 0.009, 0.002, 0.0003) == \
            pytest.approx(33.9)


class TestWheelFrameToBody:
    def test_identity_rotation(self):
        assert wheel_frame_to_body(100.0, 50.0, 0.0) == (100.0, 50.0)

    def test_quarter_rotation(self):
        fx, fy = wheel_frame_to_body(100.0, 50.0, math.pi / 2.0)
        assert fx == pytest.approx(-50.0)
        assert fy == pytest.approx(100.0)

    def test_thirty_degrees(self):
        fx, fy = wheel_frame_to_body(100.0, 50.0, math.radians(30.0))
        assert fx == pytest.approx(100 * math.cos(math.radians(30))
                                   - 50 * math.sin(math.radians(30)))
        assert fx == pytest.approx(61.603, abs=1e-3)
        assert fy == pytest.approx(93.301, abs=1e-3)

    @given(fx=st.floats(-5000, 5000), fy=st.floats(-5000, 5000),
           d=st.floats(-0.6, 0.6))
    def test_norm_preserved(self, fx, fy, d):
        bx, by = wheel_frame_to_body(fx, fy, d)
        assert math.hypot(bx, by) == pytest.approx(math.hypot(fx, fy),
                                                   abs=1e-6)
