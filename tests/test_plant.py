import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_plant as ref
from plant_state import Inputs, PlantState
from reference_plant import (body_accelerations, longitudinal_slip,
                             magic_formula, rk4, slip_angles,
                             vertical_derivatives, wheel_spin_derivative,
                             yaw_acceleration)
from staballoc.linmodel import reduced_derivative
from staballoc.params import G, ConfigError, VehicleParams
from staballoc.plant import (STATE_NAMES, V_EPS, PlantDiverged, bind,
                             clip_u, normal_forces, state_derivative,
                             step_rk4)

ZERO4 = (0.0, 0.0, 0.0, 0.0)


def derivative(x, u, p):
    """state_derivative at the named inputs u, through the terms that
    bind(p).step_inputs forms of them, as step_rk4 hands them over."""
    return state_derivative(x, u.terms(p), p)


class TestParams:
    def test_defaults_are_stock_set(self, params):
        assert params.m == 1300.0
        assert params.I_z == 1300.0
        assert params.k_sf == 21e3
        assert params.L == 2.5

    def test_static_split_matches_weight(self, params):
        assert params.N_front_static == pytest.approx(
            1300 * G * 1.375 / 5.0)
        total = 2 * (params.N_front_static + params.N_rear_static)
        assert total == pytest.approx(params.weight)

    @pytest.mark.parametrize("field", ["m", "I_x", "R_w", "k_sf", "mu"])
    def test_positivity_enforced(self, field):
        for value in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                VehicleParams(**{field: value})

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(
        VehicleParams) if f.init])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_field_must_be_finite(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            VehicleParams(**{field: value})

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError):
            VehicleParams(c_sf=-1.0)

    def test_fields_hold_the_vehicle_not_the_plant_constants(self):
        # 31 settable entries, 8 geometry and statics and the bound plant;
        # the constants of the plant equations are formed by bind
        fields = dataclasses.fields(VehicleParams)
        assert (len(fields), sum(f.init for f in fields)) == (40, 31)
        assert not {f.name for f in fields} & {"hw", "drag_k", "k_heave",
                                               "k_roll", "a_ksf", "k_tf"}

    def test_plant_bound_once_per_parameter_set(self):
        # bind keeps the equations on the frozen params; neither equality
        # nor a replaced copy sees them
        p = VehicleParams()
        plant = bind(p)
        assert bind(p) is plant
        assert p == VehicleParams() and hash(p) == hash(VehicleParams())
        other = dataclasses.replace(p, mu=0.5)
        assert bind(other) is not plant
        assert "_plant" not in repr(p)


class TestEnvelope:
    """The actuator envelope has one home, plant.clip_u, applied once per
    step to the command; the plant takes its inputs as given."""

    def test_saturation_applied_by_clip_u(self):
        u = clip_u([1.0, -1.0, 0.1, 0.0, 2000.0, -2000.0, 0.0, 0.0,
                    9000.0, -9000.0, 0.0, 0.0])
        lim = math.radians(30.0)
        assert u[0] == pytest.approx(lim)
        assert u[1] == pytest.approx(-lim)
        assert u[2] == 0.1
        assert u[4] == 1500.0 and u[5] == -1500.0
        assert u[8] == 5000.0 and u[9] == -5000.0

    def test_inputs_inside_the_envelope_are_kept(self):
        steer = [0.1, -0.2, 0.0, -0.0]
        u = clip_u(steer + [1500.0, -1500.0, 3.0, 0.0] + [0.0] * 4)
        assert u[0:4] == steer
        assert u[4:8] == [1500.0, -1500.0, 3.0, 0.0]
        assert math.copysign(1.0, u[3]) == -1.0

    def test_any_sequence_becomes_a_list(self):
        for seq in (tuple, list, np.array):
            u = clip_u(seq([0.1, 0.0, 0.0, 0.0] + [0.0] * 4
                           + [9000.0, 0.0, 0.0, 0.0]))
            assert type(u) is list and len(u) == 12
            assert u[0:4] == [0.1, 0.0, 0.0, 0.0]
            assert u[8:12] == [5000.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_nan_passes_the_envelope(self, order):
        torque = [1.0, 2000.0, -3.0, 0.0]
        torque.insert(order, math.nan)
        u = clip_u([0.0] * 4 + torque[:4] + [0.0] * 4)
        assert math.isnan(u[4 + order])
        assert all(abs(t) <= 1500.0 for t in u[4:8]
                   if not math.isnan(t))

    def test_inputs_are_not_clamped_again(self, params):
        # a torque beyond the envelope reaches the wheel as given
        x = PlantState().as_list()
        d = derivative(x, Inputs(torque=(3000.0, 0.0, 0.0, 0.0)), params)
        assert d[17] == pytest.approx(2.0 * derivative(
            x, Inputs(torque=(1500.0, 0.0, 0.0, 0.0)), params)[17])


class TestStateVector:
    def test_as_list_follows_state_names(self):
        s = PlantState(*[float(i) for i in range(len(STATE_NAMES))])
        assert s.as_list() == [getattr(s, n) for n in STATE_NAMES]
        assert PlantState.from_list(s.as_list()) == s
        assert len(s.as_list()) == len(STATE_NAMES) == 24


class TestPointwiseDynamics:
    def test_rest_equilibrium_has_zero_derivative(self, params):
        d = derivative(PlantState().as_list(), Inputs(), params)
        assert max(abs(v) for v in d) == 0.0

    def test_pure_drag_deceleration(self, params):
        s = PlantState.cruising(20.0, params)
        d = derivative(s.as_list(), Inputs(), params)
        drag = 0.5 * 0.3 * 1.225 * 2.2 * 400.0
        assert drag == pytest.approx(161.7, abs=0.01)
        assert d[0] == pytest.approx(-drag / 1300.0)

    def test_body_acceleration_ratio(self, params):
        a_x, a_y = body_accelerations(0.0, 1300.0, 0.0, params)
        assert a_y == pytest.approx(1.0)
        assert a_x == 0.0

    def test_yaw_acceleration_single_wheel(self, params):
        acc = yaw_acceleration((0.0, 100.0, 0.0, 0.0), ZERO4, params)
        assert acc == pytest.approx(0.8 * 100.0 / 1300.0)
        assert acc == pytest.approx(0.061538, abs=1e-6)

    def test_yaw_acceleration_front_lateral(self, params):
        acc = yaw_acceleration(ZERO4, (100.0, 100.0, 0.0, 0.0), params)
        assert acc == pytest.approx(200 * 1.125 / 1300.0)
        assert acc == pytest.approx(0.173077, abs=1e-6)

    def test_yaw_acceleration_balanced(self, params):
        assert yaw_acceleration((50.0,) * 4, (10.0, 10.0,
                                              10.0 * 1.125 / 1.375,
                                              10.0 * 1.125 / 1.375),
                                params) == pytest.approx(0.0)

    def test_wheel_spin_hand_value(self, params):
        acc = wheel_spin_derivative(100.0, 0.0, 200.0, params)
        assert acc == pytest.approx((100 - 66) / 2.7)
        assert acc == pytest.approx(12.593, abs=1e-3)

    def test_wheel_spin_torque_balance(self, params):
        t_drive = 5.0 + 200.0 * 0.33
        assert wheel_spin_derivative(t_drive, 5.0, 200.0, params) \
            == pytest.approx(0.0)


class TestVerticalBlock:
    def test_equilibrium(self, params):
        out = vertical_derivatives([0.0] * 24, ZERO4, 0.0, 0.0, ZERO4,
                                   params)
        assert max(abs(v) for v in out) == 0.0

    def test_pitch_load_transfer_term(self, params):
        _, thetadd, _, *_ = vertical_derivatives([0.0] * 24, ZERO4, 3.0,
                                                 0.0, ZERO4, params)
        assert thetadd == pytest.approx(-1300 * 3 * 0.375 / 1000.0)
        assert thetadd == pytest.approx(-1.4625)

    def test_suspension_force_moments(self, params):
        _, thetadd, phidd, *_ = vertical_derivatives(
            [0.0] * 24, (100.0, 0.0, 0.0, 0.0), 0.0, 0.0, ZERO4, params)
        assert phidd == pytest.approx(0.8 * 100 / 250.0)  # +w/2 / I_x
        assert phidd == pytest.approx(0.32)
        assert thetadd == pytest.approx(-1.125 * 100 / 1000.0)
        assert thetadd == pytest.approx(-0.1125)


class TestNormalForces:
    def test_static_rest_equals_weight_split(self, params):
        n = normal_forces(ZERO4, ZERO4, params)
        assert n[0] == pytest.approx(1300 * G * 1.375 / 5.0)
        assert n[0] == pytest.approx(3507.1, abs=0.05)
        assert sum(n) == pytest.approx(1300 * G)

    def test_deflection_term_alone_vanishes_at_contact(self, params):
        # with z_u = z_r the tire-spring term contributes nothing beyond
        # the static preload
        n_rest = normal_forces(ZERO4, ZERO4, params)
        n_moved = normal_forces((0.01,) * 4, (0.01,) * 4, params)
        assert n_moved == pytest.approx(n_rest)

    def test_lift_off_clamps_to_zero(self, params):
        n = normal_forces((1.0, 0.0, 0.0, 0.0), ZERO4, params)
        assert n[0] == 0.0

    def test_wheel_drop_increases_load(self, params):
        n = normal_forces((-0.001, 0.0, 0.0, 0.0), ZERO4, params)
        assert n[0] == pytest.approx(params.N_front_static + 200.0)


class TestForceBounds:
    def test_tire_forces_below_friction_peak_during_maneuver(self, params):
        x = PlantState.cruising(15.0, params).as_list()
        u = Inputs(steer=(0.08, 0.08, 0.0, 0.0), torque=(300.0,) * 4)
        for k in range(600):
            x = step_rk4(x, u.terms(params), params, 1e-3)
            if k % 50 == 0:
                normals = normal_forces(x[9:17:2], u.z_road, params)
                alphas = slip_angles(x[0], x[1], x[2], u.steer, params)
                for i in range(4):
                    peak = params.mu * normals[i]
                    lam = longitudinal_slip(x[0], x[17 + i], params.R_w)
                    f_x = magic_formula(lam, params.B1, params.C1,
                                        params.E1, peak)
                    f_y = magic_formula(alphas[i], params.B2, params.C2,
                                        params.E2, peak)
                    assert abs(f_x) <= peak + 1e-9
                    assert abs(f_y) <= peak + 1e-9


class TestIntegrator:
    def test_generic_exponential_step(self):
        x = rk4(lambda v: [-v[0]], [1.0], 0.1)
        assert x[0] == pytest.approx(0.9048375, abs=1e-7)
        assert x[0] == pytest.approx(math.exp(-0.1), abs=1e-7)

    def test_zero_derivative_fixed_point(self, params):
        x = PlantState().as_list()
        assert step_rk4(x, Inputs().terms(params), params, 1e-3) == x

    def test_convergence_order(self, params):
        # free suspension transient: smooth, oscillatory, and short enough
        # that the strongly damped wheel-hop modes have not yet contracted
        # away the accumulated error
        u = Inputs()
        x0 = PlantState(z=0.02, phi=0.01, theta=0.005).as_list()

        def solve(dt, t_end=0.1):
            x = x0
            for _ in range(int(round(t_end / dt))):
                x = step_rk4(x, u.terms(params), params, dt)
            return x

        ref = solve(3.125e-5)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            x = solve(dt)
            errs.append(math.sqrt(sum((a - b) ** 2
                                      for a, b in zip(x, ref))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for p_obs in orders:
            assert 3.5 <= p_obs <= 4.5

    def test_divergence_raised_on_unstable_step(self, params):
        # 50 ms steps are far beyond the stability limit of the
        # wheel-hop modes
        x = PlantState(z=0.01).as_list()
        u = Inputs()
        with pytest.raises(PlantDiverged):
            for _ in range(200):
                x = step_rk4(x, u.terms(params), params, 0.05)

    def test_non_finite_state_raises_on_every_step(self, params):
        x = PlantState(z=float("nan")).as_list()
        for _ in range(2):
            with pytest.raises(PlantDiverged):
                step_rk4(x, Inputs().terms(params), params, 1e-3)

    @pytest.mark.parametrize("entry, value, reason", [
        # NaN spreads into Vx' (through r*Vy and the tire forces), and Vx
        # comes before the entry that was set
        ("Vy", math.nan, "Vx=nan"),
        ("w_rr", math.inf, "Vx=nan"),
        # the pose feeds no derivative, so it is the only bad entry
        ("X", 2e6, "X=2000000.0"),
        ("Y", -math.inf, "Y=-inf"),
        ("psi", -1.5e6, "psi=-1500000.0"),
        # a stage raises: (Vx/30)**4 in the rolling resistance overflows,
        # at once for Vx=1e80 and at the third stage for Vy=1e308, and
        # cos(inf) is a domain error; the bad input entry is named
        ("Vy", 1e308, "Vy=1e+308"),
        ("Vx", 1e80, "Vx=1e+80"),
        ("psi", math.inf, "psi=inf"),
    ])
    def test_divergence_names_the_first_bad_entry(self, params, entry,
                                                  value, reason):
        x = PlantState().as_list()
        x[STATE_NAMES.index(entry)] = value
        with pytest.raises(PlantDiverged) as err:
            step_rk4(x, Inputs().terms(params), params, 1e-3)
        assert str(err.value) == reason

    def test_stage_error_without_a_bad_entry_propagates(self, params):
        with pytest.raises(ValueError, match="not enough values"):
            step_rk4([0.0] * 23, Inputs().terms(params), params, 1e-3)


class TestTrajectoryInvariants:
    def test_settles_from_perturbation(self, params):
        x = PlantState(z=5e-5, phi=0.02, theta=5e-4).as_list()
        u = Inputs()
        for _ in range(5000):
            x = step_rk4(x, u.terms(params), params, 1e-3)
        s = PlantState.from_list(x)
        assert abs(s.zd) < 1e-6
        assert abs(s.phid) < 1e-6
        assert abs(s.thetad) < 1e-6
        n = normal_forces((s.z_ufl, s.z_ufr, s.z_url, s.z_urr), ZERO4,
                          params)
        assert sum(n) == pytest.approx(params.weight, rel=0.005)

    def test_mirror_symmetry(self, params):
        def run(sign):
            x = PlantState.cruising(15.0, params).as_list()
            u = Inputs(steer=(sign * 0.05,) * 4)
            out = []
            for k in range(1500):
                x = step_rk4(x, u.terms(params), params, 1e-3)
                if k % 100 == 0:
                    s = PlantState.from_list(x)
                    out.append((s.Y, s.psi, s.phi, s.Vy))
            return out

        left = run(+1.0)
        right = run(-1.0)
        for (y1, p1, f1, v1), (y2, p2, f2, v2) in zip(left, right):
            assert y1 == pytest.approx(-y2, abs=1e-9)
            assert p1 == pytest.approx(-p2, abs=1e-9)
            assert f1 == pytest.approx(-f2, abs=1e-9)
            assert v1 == pytest.approx(-v2, abs=1e-9)

    def test_derivative_is_deterministic(self, params):
        s = PlantState.cruising(17.3, params)
        s.phi = 0.01
        u = Inputs(steer=(0.03, 0.03, -0.01, -0.01),
                   torque=(120.0, 80.0, 60.0, 40.0))
        d1 = derivative(s.as_list(), u, params)
        d2 = derivative(s.as_list(), u, params)
        assert d1 == d2


# ---------------------------------------------------------------------------
# the straight-line kernel against the helper-built reference, bit for bit

P_STOCK = VehicleParams()


def hexes(values):
    return [float(v).hex() for v in values]


def signed(bound):
    return st.floats(-bound, bound)


def clamped(steer, torque, f_z, **env):
    """Named inputs of the command as the harness clamps it, by clip_u;
    draws beyond the envelope land on its bounds."""
    u = clip_u([*steer, *torque, *f_z])
    return Inputs(u[0:4], u[4:8], u[8:12], **env)


@st.composite
def kernel_cases(draw):
    """Vehicle parameters, a plant state and inputs, with the edge regions
    of the tire and suspension equations drawn on purpose."""
    p = VehicleParams(mu=draw(st.sampled_from([1.0, 0.35, 1.1])),
                      a=draw(st.sampled_from([1.125, 1.1371])),
                      b=draw(st.sampled_from([1.375, 1.4093])),
                      w=draw(st.sampled_from([1.6, 1.47])),
                      k_sf=draw(st.sampled_from([21.0e3, 20517.3])),
                      k_sr=draw(st.sampled_from([21.0e3, 19873.9])),
                      c_sf=draw(st.sampled_from([1000.0, 0.0, 1234.5])),
                      h=draw(st.sampled_from([0.375, 0.52])))
    lift = p.N_front_static / p.k_uf   # tire deflection at wheel lift-off
    v_x = draw(st.one_of(signed(V_EPS), signed(45.0),
                         st.sampled_from([0.0, -0.0, V_EPS, -V_EPS])))
    z_road = tuple(draw(st.one_of(st.just(0.0), signed(0.05)))
                   for _ in range(4))
    x = [v_x, draw(signed(5.0)), draw(signed(1.5)), draw(signed(0.1)),
         draw(signed(1.0)), draw(signed(0.2)), draw(signed(2.0)),
         draw(signed(0.1)), draw(signed(1.0))]
    for zr in z_road:
        lifted = zr + draw(st.floats(lift, 5.0 * lift))
        x += [draw(st.one_of(signed(0.05), st.just(lifted))),
              draw(signed(2.0))]
    for _ in range(4):
        x.append(draw(st.one_of(
            st.just(v_x / p.R_w),                   # free rolling
            st.just(0.0), st.just(-0.0),            # locked
            st.floats(-150.0, -0.001),              # reversed
            signed(150.0))))
    x += [draw(signed(500.0)), draw(signed(500.0)), draw(signed(7.0))]
    u = clamped(
        steer=tuple(draw(signed(0.6)) for _ in range(4)),
        torque=tuple(draw(signed(1600.0)) for _ in range(4)),
        f_z=tuple(draw(signed(5500.0)) for _ in range(4)),
        z_road=z_road,
        lat_scale=tuple(draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
                        for _ in range(4)))
    return p, x, u


class TestKernel:
    @given(case=kernel_cases())
    @settings(max_examples=200, deadline=None)
    def test_state_derivative_matches_reference(self, case):
        p, x, u = case
        assert hexes(derivative(x, u, p)) == \
            hexes(ref.state_derivative(x, u, p))

    @given(case=kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_reduced_derivative_matches_reference_chassis(self, case):
        p, x, u = case
        cmd = [*u.steer, *u.torque, *u.f_z]
        expected = ref.chassis_derivative(
            x[:17], [t / p.R_w for t in u.torque], u.steer, u.f_z,
            (0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0), p)
        assert hexes(reduced_derivative(x[:17], cmd, p)) == hexes(expected)

    def test_seeded_random_states_match_reference(self):
        # a reordered sum or product changes the result only for some
        # roundings; thousands of plain random states hit those reliably
        rng = random.Random(2020)
        fleet = [P_STOCK] + [
            VehicleParams(**{name: getattr(P_STOCK, name)
                             * rng.uniform(0.8, 1.25) for name in (
                                 "m", "a", "b", "w", "h", "I_x", "I_y",
                                 "I_z", "k_sf", "k_sr", "c_sf", "c_sr",
                                 "k_uf", "k_ur", "C_d", "A_f", "mu")})
            for _ in range(15)]
        scales = (40.0, 5.0, 1.5, 0.05, 1.0, 0.2, 2.0, 0.1, 1.0,
                  0.02, 2.0, 0.02, 2.0, 0.02, 2.0, 0.02, 2.0,
                  150.0, 150.0, 150.0, 150.0, 500.0, 500.0, 7.0)

        def draw(bound, n=4):
            return tuple(rng.uniform(-bound, bound) for _ in range(n))

        for k in range(3000):
            p = fleet[k % len(fleet)]
            x = [rng.uniform(-s, s) for s in scales]
            u = clamped(steer=draw(0.6), torque=draw(1500.0),
                        f_z=draw(5000.0), z_road=draw(0.03),
                        lat_scale=tuple(rng.uniform(0.05, 1.0)
                                        for _ in range(4)))
            assert hexes(derivative(x, u, p)) == \
                hexes(ref.state_derivative(x, u, p)), k
            expected = ref.chassis_derivative(
                x[:17], [t / p.R_w for t in u.torque], u.steer, u.f_z,
                (0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0), p)
            cmd = [*u.steer, *u.torque, *u.f_z]
            assert hexes(reduced_derivative(x[:17], cmd, p)) == \
                hexes(expected), k

    @given(case=kernel_cases(), dt=st.sampled_from([5e-4, 1e-3, 2e-3]))
    @settings(max_examples=50, deadline=None)
    def test_rk4_step_matches_reference(self, case, dt):
        p, x, u = case
        expected = ref.rk4(lambda v: ref.state_derivative(v, u, p), x, dt)
        try:
            nxt = step_rk4(x, u.terms(p), p, dt)
        except PlantDiverged:
            return
        assert hexes(nxt) == hexes(expected)
