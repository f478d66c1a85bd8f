import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_plant as ref
from plant_state import Inputs, PlantState
from staballoc import harness
from staballoc.allocator import AdaptiveAllocator
from staballoc.cli import main as cli_main
from staballoc.controllers import (C_ALPHA_DEFAULT, AllocatorConfig,
                                   ControllerState, Gains, build_bn,
                                   measured_net)
from staballoc.harness import (BETA_LIMIT, _Loop, apply_faults, clip_u,
                               friction_scale, measure, override,
                               road_elevation, run_scenario, sweep_max_speed)
from staballoc.linmodel import build_bl
from staballoc.logio import CSV_COLUMNS, RunLog
from staballoc.metrics import compute_metrics
from staballoc.params import VehicleParams
from staballoc.plant import (ACTUATOR_NAMES, BLOW_UP_LIMIT, STATE_NAMES,
                             U_LIMITS, ZERO4, bind, step_rk4)
from staballoc.scenario import (ConfigError, Event, Events, load_scenario,
                                parse_scenario)
from staballoc.stability import closed_loop_matrix, max_closed_loop_eig

SHORT = """
[scenario]
name = short
v0 = 13.0
horizon = 2.0
dt = 0.001

[driver]
steer = 0:0 0.5:0.05 1.5:-0.05 2:0
pedal = 0:0
brake = 0:0
"""

STRAIGHT = """
[scenario]
name = straight
v0 = 13.0
horizon = 2.0
dt = 0.001
"""


class TestFaultInjection:
    def test_no_events_is_identity(self):
        u = np.arange(12.0)
        out = apply_faults(u, Events(()), 5.0)
        np.testing.assert_array_equal(out, u)

    def test_unit_multiplier_is_identity(self):
        u = np.arange(12.0)
        events = Events((Event(1.0, "effectiveness", "T_fl", 1.0),))
        np.testing.assert_array_equal(apply_faults(u, events, 2.0), u)

    def test_rear_right_traction_and_steer_scaled(self):
        u = np.ones(12)
        events = Events((Event(1.0, "effectiveness", "d_rr", 0.10),
                         Event(1.0, "effectiveness", "T_rr", 0.10)))
        out = apply_faults(u, events, 1.0)
        assert out[3] == pytest.approx(0.10)
        assert out[7] == pytest.approx(0.10)
        assert np.sum(np.asarray(out) == 1.0) == 10
        # inactive before the event time
        np.testing.assert_array_equal(apply_faults(u, events, 0.5), u)

    def test_rear_right_suspension_scaled(self):
        u = np.ones(12)
        events = Events((Event(1.0, "effectiveness", "fz_rr", 0.10),))
        out = apply_faults(u, events, 1.5)
        assert out[11] == pytest.approx(0.10)

    def test_friction_scale_sets(self):
        events = Events((Event(4.0, "friction", "right", 0.6),))
        assert friction_scale(events, 3.0) == (1.0, 1.0, 1.0, 1.0)
        assert friction_scale(events, 4.0) == (1.0, 0.6, 1.0, 0.6)

    @given(u=st.lists(st.floats(), min_size=12, max_size=12),
           faults=st.lists(st.tuples(st.sampled_from(ACTUATOR_NAMES),
                                     st.floats(0.0, 1.0, exclude_min=True)),
                           max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_one_clamp_holds_the_envelope(self, u, faults):
        # the loop clamps the command once; a fault factor in (0, 1] never
        # takes it out of the envelope, and NaN passes through both
        events = Events(Event(0.5, "effectiveness", target, factor)
                        for target, factor in faults)
        out = apply_faults(clip_u(u), events, 1.0)
        assert len(out) == 12
        for x, y, lim in zip(u, out, U_LIMITS):
            if math.isnan(x):
                assert math.isnan(y)
            else:
                assert -lim <= y <= lim

    def test_elevation_steps_accumulate(self):
        events = Events((Event(1.0, "elevation", "fl", 0.02),
                         Event(2.0, "elevation", "fl", 0.01)))
        assert road_elevation(events, 1.5) == (0.02, 0.0, 0.0, 0.0)
        assert road_elevation(events, 2.5) == \
            pytest.approx((0.03, 0.0, 0.0, 0.0))


def sense(x, u, p):
    """measure after a step at the named inputs u, through the terms
    bind(p).step_inputs forms of them, as the loop hands them over."""
    return measure(x, u.terms(p), p)


class TestMeasurements:
    def test_side_slip_definition(self, params):
        s = PlantState.cruising(20.0, params)
        s.Vy = 1.0
        meas = sense(s.as_list(), Inputs(), params)
        assert meas["beta"] == pytest.approx(math.atan(1.0 / 20.0))

    def test_normals_at_rest(self, params):
        meas = sense(PlantState().as_list(), Inputs(), params)
        assert meas["N"][0] == pytest.approx(params.N_front_static)

    def test_traction_step_on_level_road_recovers_torque_force(self):
        # drag-free, rolling-resistance-free vehicle driven by four 200 N m
        # torques on a level road: at the quasi-steady point the wheels
        # spin up with the body, so the reconstructed longitudinal effort
        # is sum(T)/R_w less the share that accelerates the wheel inertia
        p = VehicleParams(C_d=1e-12, p0=0.0, p1=0.0, p2=0.0)
        torque = 200.0
        total = 4.0 * torque / p.R_w
        u = Inputs(torque=(torque,) * 4)
        x = PlantState.cruising(15.0, p).as_list()
        for _ in range(1000):
            x = step_rk4(x, u.terms(p), p, 1e-3)
        meas = sense(x, u, p)
        net = measured_net(meas["ax"], meas["ay"], meas["yaw_acc"],
                           meas["roll_acc"], meas["pitch_acc"],
                           meas["Vx"], p)
        expected = total * p.m / (p.m + 4.0 * p.I_w / p.R_w ** 2)
        assert net[0] == pytest.approx(expected, rel=0.02)


class TestDriverSteer:
    def test_driver_steer_added_to_front_channels(self, params):
        # the proposed command is the allocator's output with the driver's
        # steer added on the two front steering channels only
        b_l = build_bl(params, C_ALPHA_DEFAULT)
        meas = sense(PlantState.cruising(20.0, params).as_list(), Inputs(),
                     params)
        loop = _Loop(mode="proposed", gains=Gains(), cs=ControllerState(),
                     allocator=AdaptiveAllocator(b_l, AllocatorConfig()))
        u, v, _, _ = loop.command(0.02, 0.0, meas, 1e-3, params)

        twin = AdaptiveAllocator(b_l, AllocatorConfig())
        normals = meas["N"]
        realized = measured_net(meas["ax"], meas["ay"], meas["yaw_acc"],
                                meas["roll_acc"], meas["pitch_acc"],
                                meas["Vx"], params)
        res = twin.step(v, realized, build_bn((0.0,) * 4, normals, params),
                        1e-3)
        allocated = clip_u(res.u.tolist())
        assert u[0] == res.u[0] + 0.02
        assert u[1] == res.u[1] + 0.02
        assert u[2:] == allocated[2:]


class TestRunScenario:
    def test_zero_input_travels_straight(self):
        log = run_scenario(parse_scenario(STRAIGHT))
        assert abs(log.cols["Y"][-1]) < 0.01
        assert abs(log.cols["psi"][-1]) < 1e-3
        assert not log.diverged

    def test_low_speed_yaw_reference_overshoot(self, scenario_dir):
        # the shipped gain set tracks the yaw-rate reference with under 5%
        # peak overshoot in the no-fault low-speed maneuver
        from staballoc.scenario import load_scenario
        log = run_scenario(load_scenario(scenario_dir / "low_speed.scn"),
                           controller="proposed")
        peak_ref = max(abs(v) for v in log.r_ref)
        peak_r = max(abs(v) for v in log.cols["r"])
        assert peak_r <= 1.05 * peak_ref

    def test_virtual_control_stays_zero_at_rest(self):
        # zero driver input with the plant at rest: v is identically zero
        # for the whole run and the vehicle does not move
        text = "[scenario]\nname = rest\nv0 = 0\nhorizon = 1.0\ndt = 0.001\n"
        log = run_scenario(parse_scenario(text), controller="proposed")
        for ch in ("v1", "v2", "v3", "v4", "v5"):
            assert all(v == 0.0 for v in log.cols[ch])
        assert log.cols["X"][-1] == 0.0

    def test_baseline_leaves_the_unused_integrators_at_zero(self,
                                                             monkeypatch):
        # the baseline reads only the traction demand of the virtual
        # control, so the yaw and side-slip integrators never move; the
        # traction integrator and the roll and pitch integrators, which its
        # suspension shares with the moment PIDs, do
        states = []

        def recorded():
            states.append(ControllerState())
            return states[-1]
        monkeypatch.setattr(harness, "ControllerState", recorded)
        log = run_scenario(parse_scenario(SHORT), controller="baseline")
        assert not log.diverged and len(states) == 1
        cs = states[0]
        for name in ("i_yaw", "i_beta"):
            assert float.hex(getattr(cs, name)) == "0x0.0p+0", name
        assert cs.i_force != 0.0 and cs.i_roll != 0.0 and cs.i_pitch != 0.0

    def test_hybrid_never_runs_the_moment_pids(self, monkeypatch):
        # the hybrid's suspension is the baseline's: it does not compute the
        # roll and pitch moments, and logs them as 0
        def raises(*args):
            raise AssertionError("attitude_moments called")
        monkeypatch.setattr(harness, "attitude_moments", raises)
        scn = parse_scenario(SHORT)
        log = run_scenario(scn, controller="hybrid")
        assert len(log) == 2000 and not log.diverged
        assert not any(log.cols["v4"]) and not any(log.cols["v5"])
        with pytest.raises(AssertionError, match="attitude_moments"):
            run_scenario(scn, controller="proposed")

    def test_all_controllers_complete_short_run(self):
        scn = parse_scenario(SHORT)
        for ctrl in ("proposed", "baseline", "hybrid"):
            log = run_scenario(scn, controller=ctrl)
            assert len(log) == 2000
            assert not log.diverged

    def test_log_schema_complete(self):
        log = run_scenario(parse_scenario(SHORT))
        for c in CSV_COLUMNS:
            assert len(log.cols[c]) == len(log)
        assert len(log.r_ref) == len(log)

    def test_diverged_run_stops_early_with_partial_log(self):
        text = ("[scenario]\nname = blowup\nv0 = 13\nhorizon = 1.0\n"
                "dt = 0.05\n[driver]\nsteer = 0:0.3\n")
        log = run_scenario(parse_scenario(text))
        assert log.diverged
        assert log.stopped_at is not None
        assert len(log) < 20
        assert all(math.isfinite(v) for v in log.cols["Vx"])
        # the reason names the first bad state entry and its value
        found = re.fullmatch(r"non-finite or out-of-bound state "
                             r"(\w+)=(\S+) after step (\d+)",
                             log.stop_reason)
        assert found, log.stop_reason
        name, value, step = found.groups()
        assert name in STATE_NAMES
        assert not -BLOW_UP_LIMIT <= float(value) <= BLOW_UP_LIMIT
        assert int(step) == len(log) - 1

    def test_applied_inputs_stay_inside_the_envelope(self, scenario_dir):
        # every input the plant is stepped with, after the fault scaling,
        # lies inside the envelope that clip_u clamped the command to; the
        # run pushes the command of the faulted rear-right steer onto its
        # bound and a healthy channel's applied input onto its own
        scn = load_scenario(scenario_dir / "actuator_fault.scn")
        made, applied = [], []

        def recording(x, u, p, dt):
            assert u == made[-1].terms(p)
            applied.append([*made[-1].steer, *made[-1].torque,
                            *made[-1].f_z])
            return step_rk4(x, u, p, dt)
        with pytest.MonkeyPatch.context() as mp:
            record_inputs(mp, made)
            mp.setattr(harness, "step_rk4", recording)
            log = run_scenario(scn, controller="proposed")
        assert len(applied) == len(log) == 10000
        for u in applied:
            for x, lim in zip(u, U_LIMITS):
                assert -lim <= x <= lim
        assert any(abs(u[1]) == U_LIMITS[1] for u in applied)
        assert any(abs(d) == U_LIMITS[3] for d in log.cols["d_rr"])

    def test_repeated_runs_are_bit_identical(self):
        scn = parse_scenario(SHORT)
        l1 = run_scenario(scn)
        l2 = run_scenario(scn)
        for c in CSV_COLUMNS:
            assert l1.cols[c] == l2.cols[c]

    def test_gain_overrides_flow_through(self):
        text = SHORT + "\n[gains]\nkp_mz = 0\nki_mz = 0\n"
        log_weak = run_scenario(parse_scenario(text))
        log_strong = run_scenario(parse_scenario(SHORT))
        # without yaw-moment feedback the yaw response differs
        assert log_weak.cols["r"][1500] != log_strong.cols["r"][1500]

    # 1e-9 and 1e-300 give more than MAX_STEPS steps, and 1e-320 more
    # steps than an int can hold
    @pytest.mark.parametrize("dt", [0.0, -0.001, 0.003, math.nan, math.inf,
                                    1e-9, 1e-300, 1e-320])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ConfigError, match="dt"):
            run_scenario(override(parse_scenario(SHORT), None, dt))

    def test_explicit_dt_sets_the_step(self):
        log = run_scenario(override(parse_scenario(SHORT), None, 0.002))
        assert log.dt == 0.002
        assert len(log) == 1000

    def test_unknown_controller_rejected(self):
        with pytest.raises(ConfigError, match="magic"):
            run_scenario(parse_scenario(SHORT), controller="magic")

    def test_empty_controller_rejected_before_any_step(self, monkeypatch):
        # an empty name is a controller name like any other, not "the
        # scenario's own"
        steps = []
        monkeypatch.setattr(harness, "step_rk4",
                            lambda *args: steps.append(args))
        with pytest.raises(ConfigError, match="controller ''"):
            run_scenario(parse_scenario(SHORT), controller="")
        assert steps == []

    @pytest.mark.parametrize("name", ["k_understeer", "kp_f"])
    def test_non_finite_replaced_gain_rejected_before_any_step(
            self, monkeypatch, name):
        steps = []
        monkeypatch.setattr(harness, "step_rk4",
                            lambda *args: steps.append(args))
        scn = parse_scenario(SHORT)
        with pytest.raises(ConfigError, match=name):
            run_scenario(replace(scn, gains=Gains(**{name: math.nan})))
        assert steps == []

    def test_unknown_allocator_override_rejected(self):
        text = SHORT + "\n[allocator]\nbogus = 1\n"
        with pytest.raises(ValueError):
            run_scenario(parse_scenario(text))


class TestBetaLimit:
    """A run with beta_limit ends after the first step whose logged |beta|
    reaches it: the baseline at 26 m/s on actuator_fault crosses 15 deg at
    step 4160 of a 5 s horizon."""

    @pytest.fixture(scope="class")
    def scn(self, scenario_dir):
        return replace(load_scenario(scenario_dir / "actuator_fault.scn"),
                       v0=26.0, horizon=5.0)

    @pytest.fixture(scope="class")
    def full(self, scn):
        return run_scenario(scn, controller="baseline")

    @pytest.fixture(scope="class")
    def counted(self, scn):
        # the limited run, with its calls of measure, step_rk4 and append
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        with pytest.MonkeyPatch.context() as mp:
            for owner, name in ((harness, "measure"), (harness, "step_rk4"),
                                (RunLog, "append")):
                mp.setattr(owner, name, counting(name, getattr(owner, name)))
            log = run_scenario(scn, controller="baseline",
                               beta_limit=BETA_LIMIT)
        return log, calls

    def test_log_is_a_bit_exact_prefix_of_the_full_run(self, full, counted):
        log, _ = counted
        n = len(log)
        assert n < len(full)
        for c in CSV_COLUMNS:
            assert [v.hex() for v in log.cols[c]] == \
                [v.hex() for v in full.cols[c][:n]], c
        assert [v.hex() for v in log.r_ref] == \
            [v.hex() for v in full.r_ref[:n]]

    def test_ends_at_the_first_row_at_the_limit(self, full, counted):
        log, _ = counted
        first = next(k for k, b in enumerate(full.cols["beta"])
                     if abs(b) >= BETA_LIMIT)
        assert first == 4160
        assert len(log) == first + 1
        assert all(abs(b) < BETA_LIMIT for b in log.cols["beta"][:-1])
        assert log.stopped_at == log.cols["t"][-1] == full.cols["t"][first]
        assert "|beta| reached the limit of 15 deg" in log.stop_reason
        assert not log.diverged
        assert full.stopped_at is None and full.stop_reason == ""

    def test_one_measure_step_and_append_per_row(self, counted):
        log, calls = counted
        assert calls == {"measure": len(log), "step_rk4": len(log),
                         "append": len(log)}

    @pytest.mark.parametrize("limit", [0.0, -0.1, math.nan])
    def test_non_positive_limit_rejected(self, limit):
        with pytest.raises(ConfigError, match="beta_limit"):
            run_scenario(parse_scenario(SHORT), beta_limit=limit)


ORACLE_RUN = """
[scenario]
name = oracle
v0 = 15.0
horizon = 0.3
dt = 0.001

[driver]
steer = 0:0 0.05:0.06 0.3:-0.02
pedal = 0:0
brake = 0:0

[events]
0.05  elevation      fl     0.01
0.1   elevation      rear  -0.02
0.12  friction       front  0.6
0.15  effectiveness  d_fl   0.5
0.2   effectiveness  fz_rr  0.3
"""


def hexes(values):
    return [float(v).hex() for v in values]


def record_inputs(mp, made):
    """Record in made, as named Inputs, each actuator vector, road steps and
    friction scales the loop hands bind(p).step_inputs; the loop hands
    step_rk4 and the next measurement the terms it forms of them."""
    def recorded_bind(p):
        plant = bind(p)

        def step_inputs(u, z_road, lat_scale):
            made.append(Inputs(tuple(u[0:4]), tuple(u[4:8]), tuple(u[8:12]),
                               z_road, lat_scale))
            return plant.step_inputs(u, z_road, lat_scale)
        return plant._replace(step_inputs=step_inputs)
    mp.setattr(harness, "bind", recorded_bind)


class TestPlantPathAgainstOracle:
    """The closed loop steps and measures the plant as the helper-built
    oracle (tests/reference_plant.py) does, by float.hex, on a short run
    whose steer, road elevation, friction and actuator faults all change:
    the plant forms the input-only terms once per step, so a stale one
    would show here."""

    @pytest.mark.parametrize("controller", ["proposed", "baseline",
                                            "hybrid"])
    def test_every_step_and_measurement(self, monkeypatch, controller):
        # made[-1] is the inputs of this step in step_rk4, and those of the
        # previous step (at first, the road and friction at t = 0) in
        # measure; each is handed over as the terms formed of it
        made, applied = [], []

        def checked_step(x, terms, p, dt):
            u = made[-1]
            assert terms == u.terms(p)
            nxt = step_rk4(x, terms, p, dt)
            want = ref.rk4(lambda v: ref.state_derivative(v, u, p), x, dt)
            assert hexes(nxt) == hexes(want), len(applied)
            applied.append(u)
            return nxt

        def checked_measure(x, prev_terms, p):
            prev_inputs = made[-1]
            assert prev_terms == prev_inputs.terms(p)
            meas = measure(x, prev_terms, p)
            d = ref.state_derivative(x, prev_inputs, p)
            v_x, v_y, r = x[0], x[1], x[2]
            got = [meas[k] for k in ("ax", "ay", "yaw_acc", "roll_acc",
                                     "pitch_acc")]
            assert hexes(got) == hexes([d[0] - r * v_y, d[1] + r * v_x,
                                        d[2], d[6], d[8]]), len(applied)
            return meas

        record_inputs(monkeypatch, made)
        monkeypatch.setattr(harness, "step_rk4", checked_step)
        monkeypatch.setattr(harness, "measure", checked_measure)
        log = run_scenario(parse_scenario(ORACLE_RUN), controller=controller)
        assert len(applied) == len(log) == 300 and not log.diverged
        # every hoisted input moved during the run
        assert {tuple(u.z_road) for u in applied} == {
            ZERO4, (0.01, 0.0, 0.0, 0.0), (0.01, 0.0, -0.02, -0.02)}
        assert min(min(u.lat_scale) for u in applied) == 0.6
        assert len({tuple(u.steer) for u in applied}) > 100
        assert len({tuple(u.f_z) for u in applied}) > 100
        faulted = [k for k, u in enumerate(applied)
                   if u.steer[0] != log.cols["d_fl"][k]]
        assert faulted[0] == 150


class TestMetrics:
    def make_log(self, n=1200, x_step=0.1, psi=lambda k: 0.0,
                 y=lambda k: 0.0):
        log = RunLog(scenario="t", controller="proposed", dt=0.001)
        for k in range(n):
            row = {c: 0.0 for c in CSV_COLUMNS}
            row["t"] = k * 0.001
            row["psi"] = psi(k)
            row["X"] = x_step * k
            row["Y"] = y(k)
            log.append([row[c] for c in CSV_COLUMNS], 0.0)
        return log

    def test_zero_log_has_zero_metrics(self):
        m = compute_metrics(self.make_log(x_step=0.0))
        assert m.max_beta == 0.0
        assert not m.spin
        assert m.rms_roll == 0.0
        assert m.rms_pitch == 0.0
        assert math.isnan(m.lateral_offset)

    def test_sustained_heading_error_raises_spin(self):
        m = compute_metrics(self.make_log(psi=lambda k: 2.0))
        assert m.spin

    def test_short_heading_excursion_does_not(self):
        # 0.3 s excursion < 0.5 s hold
        log = self.make_log(psi=lambda k: 2.0 if 300 <= k < 600 else 0.0)
        assert not compute_metrics(log).spin

    def test_excursion_past_the_hold_spins(self):
        # 0.6 s excursion > 0.5 s hold, so the case above can fail
        log = self.make_log(psi=lambda k: 2.0 if 300 <= k < 900 else 0.0)
        assert compute_metrics(log).spin

    def test_lateral_offset_interpolated_at_line(self):
        # X reaches the line a third of the way from row 333 to row 334
        log = self.make_log(x_step=0.3, y=lambda k: 0.005 * k)
        m = compute_metrics(log)
        assert m.lateral_offset == pytest.approx(0.005 * 100.0 / 0.3,
                                                 rel=1e-9)


class TestSweep:
    def test_degenerate_range_returns_endpoint_when_stable(self):
        scn = parse_scenario(SHORT)
        assert sweep_max_speed(scn, "baseline", 5.0, 5.0,
                               resolution=0.25) == 5.0

    def test_failing_degenerate_range_runs_once(self, monkeypatch):
        speeds = []

        def run(scn, controller=None, beta_limit=math.inf):
            speeds.append(scn.v0)
            return scn.v0
        monkeypatch.setattr(harness, "run_scenario", run)
        monkeypatch.setattr(harness, "compute_metrics", lambda v0: (
            SimpleNamespace(spin=True, diverged=False, max_beta=0.0)))
        got = sweep_max_speed(parse_scenario(SHORT), "baseline", 5.0, 5.0,
                              resolution=0.25)
        assert math.isnan(got) and speeds == [5.0]

    def test_empty_range_rejected(self):
        scn = parse_scenario(SHORT)
        with pytest.raises(ValueError):
            sweep_max_speed(scn, "baseline", 10.0, 5.0, resolution=0.25)

    @pytest.mark.parametrize("v_min, v_max", [
        (10.0, math.inf), (-5.0, -5.0), (-1.0, 5.0), (-math.inf, 5.0),
        (math.nan, 5.0), (5.0, math.nan)])
    def test_unsearchable_range_rejected_before_any_run(self, monkeypatch,
                                                        v_min, v_max):
        # an infinite top never ends the bisection, and a negative speed
        # runs a reversing car; neither may reach a run
        def no_run(*args, **kwargs):
            raise AssertionError("the sweep ran a scenario")
        monkeypatch.setattr(harness, "run_scenario", no_run)
        with pytest.raises(ConfigError, match="speed range"):
            sweep_max_speed(parse_scenario(SHORT), "baseline", v_min, v_max,
                            resolution=0.25)


    @pytest.mark.parametrize("survives, answer, visited", [
        # the top survives: one run, even though the bottom would fail
        (lambda v: v >= 20.0, 26.0, [26.0]),
        # the top fails: bisection to 4 m/s; a midpoint survived, so the
        # bottom is never run
        (lambda v: v <= 18.8, 18.0, [26.0, 18.0, 22.0]),
        # nothing survives: the top, every midpoint, then the bottom
        (lambda v: False, math.nan, [26.0, 18.0, 14.0, 10.0]),
        # the bottom would fail, but a midpoint survives: the bisection
        # answer, and the bottom is never run
        (lambda v: 12.0 < v <= 18.8, 18.0, [26.0, 18.0, 22.0]),
        # no midpoint survives, the bottom does: the bottom is run last
        (lambda v: v <= 12.0, 10.0, [26.0, 18.0, 14.0, 10.0])])
    def test_top_of_the_range_is_run_first(self, monkeypatch, survives,
                                           answer, visited):
        speeds = []

        def run(scn, controller=None, beta_limit=math.inf):
            speeds.append(scn.v0)
            return scn.v0

        def metrics(v0):
            return SimpleNamespace(spin=False, diverged=False,
                                   max_beta=0.0 if survives(v0) else 1.0)
        monkeypatch.setattr(harness, "run_scenario", run)
        monkeypatch.setattr(harness, "compute_metrics", metrics)
        got = sweep_max_speed(parse_scenario(SHORT), "baseline", 10.0, 26.0,
                              resolution=4.0)
        assert speeds == visited
        assert got == answer or math.isnan(got) and math.isnan(answer)


    @pytest.mark.parametrize("survives, answer", [
        (lambda v: v <= 18.8, 18.8), (lambda v: False, math.nan)])
    def test_bisection_ends_at_the_float_spacing(self, monkeypatch,
                                                  survives, answer):
        # a resolution below the float spacing of the range: the bisection
        # stops once the midpoint rounds to an end, about 50 halvings in
        speeds = []

        def run(scn, controller=None, beta_limit=math.inf):
            if len(speeds) == 70:
                raise AssertionError("the sweep did not end in 70 runs")
            speeds.append(scn.v0)
            return scn.v0

        def metrics(v0):
            return SimpleNamespace(spin=False, diverged=False,
                                   max_beta=0.0 if survives(v0) else 1.0)
        monkeypatch.setattr(harness, "run_scenario", run)
        monkeypatch.setattr(harness, "compute_metrics", metrics)
        got = sweep_max_speed(parse_scenario(SHORT), "baseline", 10.0, 26.0,
                              resolution=1e-300)
        assert got == answer or math.isnan(got) and math.isnan(answer)
        assert len(speeds) == len(set(speeds)) < 70


class TestStabilityCheck:
    def test_reference_dynamics_scale(self, params):
        # the allocator reference matrix is -10 I by default
        eigs = np.linalg.eigvals(
            AdaptiveAllocator(build_bl(params, C_ALPHA_DEFAULT),
                              AllocatorConfig()).a_m)
        assert np.max(eigs.real) == pytest.approx(-10.0)

    def test_default_gains_stable_at_both_speeds(self, params):
        for v0 in (13.0, 20.0):
            assert max_closed_loop_eig(Gains(), v0, params) < 0.0

    def test_flipped_yaw_gain_detected_unstable(self, params):
        bad = Gains(kp_mz=-Gains().kp_mz, ki_mz=-Gains().ki_mz)
        assert max_closed_loop_eig(bad, 20.0, params) > 0.0

    @pytest.mark.parametrize("ki_beta_mz", [-1000.0, 1000.0, 10000.0])
    @pytest.mark.parametrize("v0", [5.0, 20.0, 30.0])
    def test_one_side_slip_state(self, params, ki_beta_mz, v0):
        # a side-slip moment integral gain adds no state: the side-slip
        # integral that already feeds the lateral force feeds the yaw
        # moment too.  A second state for the same integral would add an
        # exact zero eigenvalue, whose sign is round-off.
        g = Gains(ki_beta_mz=ki_beta_mz)
        assert closed_loop_matrix(g, v0, params).shape == \
            closed_loop_matrix(Gains(ki_beta_mz=0.0), v0, params).shape
        assert max_closed_loop_eig(g, v0, params) < -1e-3


class TestCli:
    def test_run_writes_csv_and_exits_zero(self, tmp_path, scenario_dir):
        scn_file = tmp_path / "short.scn"
        scn_file.write_text(SHORT)
        code = cli_main(["run", str(scn_file), "--out",
                         str(tmp_path / "out"), "--svg"])
        assert code == 0
        assert (tmp_path / "out" / "short_proposed.csv").exists()
        assert (tmp_path / "out" / "short_proposed_trajectory.svg").exists()

    def test_controller_override(self, tmp_path):
        scn_file = tmp_path / "short.scn"
        scn_file.write_text(SHORT)
        code = cli_main(["run", str(scn_file), "--controller", "baseline",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "short_baseline.csv").exists()

    def test_missing_scenario_is_config_error(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "nope.scn")]) == 3

    def test_malformed_scenario_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("[scenario]\nv0 = 10\n")
        assert cli_main(["run", str(bad)]) == 3

    @pytest.mark.parametrize("key", ["bogus", "q", "a_m"])
    def test_unknown_allocator_setting_is_config_error(self, tmp_path, key,
                                                       capsys):
        scn_file = tmp_path / "short.scn"
        scn_file.write_text(SHORT + f"\n[allocator]\n{key} = 1\n")
        assert cli_main(["run", str(scn_file), "--out",
                         str(tmp_path / "out")]) == 3
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("section", [
        "[gains]\nkp_bogus = 1\n", "[allocator]\ngamma = -5000\n",
        "[allocator]\nproj_margin = 1.5\n"])
    def test_bad_setting_is_config_error(self, tmp_path, section, capsys):
        scn_file = tmp_path / "short.scn"
        scn_file.write_text(SHORT + "\n" + section)
        out = tmp_path / "out"
        assert cli_main(["run", str(scn_file), "--out", str(out)]) == 3
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new", [
        ("steer = 0:0 ", "steer = 0:nan "), ("v0 = 13.0", "v0 = nan"),
        # a start wheel speed v0/R_w beyond the divergence bound: 1e79
        # would overflow the first measurement, 3.4e5 and 2e6 diverge at
        # the first step
        ("v0 = 13.0", "v0 = 1e79"), ("v0 = 13.0", "v0 = 2e6"),
        ("v0 = 13.0", "v0 = 3.4e5"),
        ("brake = 0:0", "brake = 0:0\n[events]\nnan friction all 0.9"),
        ("brake = 0:0", "brake = 0:0\n[events]\n1 elevation all inf"),
        ("brake = 0:0", "brake = 0:0\n[gains]\nkp_mz = inf"),
        ("brake = 0:0", "brake = 0:0\n[gains]\nv_max_f = -13000"),
        ("brake = 0:0", "brake = 0:0\n[allocator]\ngamma = nan"),
        ("brake = 0:0", "brake = 0:0\n[allocator]\nc_alpha = 1e300"),
        ("brake = 0:0", "brake = 0:0\n[allocator]\nc_alpha = 1e-300")])
    def test_non_finite_or_negative_limit_is_config_error(self, tmp_path,
                                                          old, new, capsys):
        scn_file = tmp_path / "bad.scn"
        scn_file.write_text(SHORT.replace(old, new, 1))
        out = tmp_path / "out"
        assert cli_main(["run", str(scn_file), "--out", str(out)]) == 3
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_file_that_is_not_utf8_is_config_error(self, tmp_path,
                                                            capsys):
        scn_file = tmp_path / "bad.scn"
        scn_file.write_bytes(SHORT.encode().replace(b"name = short",
                                                    b"name = sh\xffrt"))
        out = tmp_path / "out"
        assert cli_main(["run", str(scn_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "configuration error" in err and str(scn_file) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "figures"])
    def test_output_path_that_is_a_file_is_config_error_before_any_run(
            self, tmp_path, command, capsys, monkeypatch):
        from staballoc import cli

        def no_run(*args, **kwargs):
            raise AssertionError("a scenario ran")
        monkeypatch.setattr(cli, "run_scenario", no_run)
        scn_file = tmp_path / "short.scn"
        scn_file.write_text(SHORT)
        out = tmp_path / "out"
        out.write_text("a file\n")
        argv = ["run", str(scn_file)] if command == "run" else ["figures"]
        assert cli_main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "configuration error" in err and str(out) in err
        assert out.read_text() == "a file\n"

    @pytest.mark.parametrize("dt", ["0", "-0.001", "0.003", "1e-9",
                                    "1e-300", "1e-320"])
    def test_bad_dt_is_config_error_and_writes_nothing(self, tmp_path, dt,
                                                       scenario_dir, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", str(scenario_dir / "high_speed.scn"),
                         "--dt", dt, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("horizon, dt", [
        ("0.2", "1e-320"), ("0.2", "1e-9"), ("0.2", "1e-300"),
        ("1e300", "0.001")])
    def test_step_count_past_the_bound_is_config_error_and_writes_nothing(
            self, tmp_path, horizon, dt, capsys):
        scn_file = tmp_path / "long.scn"
        scn_file.write_text(STRAIGHT.replace("horizon = 2.0",
                                             f"horizon = {horizon}")
                            .replace("dt = 0.001", f"dt = {dt}"))
        out = tmp_path / "out"
        assert cli_main(["run", str(scn_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1
        assert f"dt={float(dt)!r}" in err and "horizon" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "high_speed.scn", "--dt", "abc"],
        ["run", "high_speed.scn", "--controller", "pid"],
        ["run", "high_speed.scn", "--dt", "-inf"],
        ["run", "--out", "out"],
        []])
    def test_usage_error_is_config_error_and_writes_nothing(
            self, tmp_path, scenario_dir, monkeypatch, capsys, argv):
        # exit 2 would read as a diverged plant
        monkeypatch.chdir(tmp_path)
        argv = [str(scenario_dir / a) if a.endswith(".scn") else a
                for a in argv]
        assert cli_main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: ")
        assert captured.err.count("\n") == 1 and not captured.out
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli_main(["run", "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: staballoc run")

    def test_module_entry_point_runs_from_a_checkout(self, tmp_path,
                                                    scenario_dir):
        # `python -m staballoc` with only the source tree on the path
        src = Path(__file__).resolve().parents[1] / "src"
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "staballoc", "run",
             str(scenario_dir / "high_speed.scn"), "--dt", "0.003",
             "--out", str(out)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "configuration error" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--vmin", "10", "--vmax", "5"],
        ["--vmin", "5", "--vmax", "10", "--resolution", "0"],
        ["--vmin", "5", "--vmax", "10", "--resolution", "inf"],
        ["--vmin", "10", "--vmax", "inf"], ["--vmin", "-5", "--vmax", "-5"]])
    def test_bad_sweep_range_is_config_error(self, tmp_path, argv, capsys,
                                             monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the sweep ran a scenario")
        monkeypatch.setattr(harness, "run_scenario", no_run)
        scn_file = tmp_path / "short.scn"
        scn_file.write_text(SHORT)
        assert cli_main(["sweep", str(scn_file), "--controller",
                         "baseline", *argv]) == 3
        assert "configuration error" in capsys.readouterr().err

    def test_dt_that_leaves_an_event_unfired_is_config_error(self, tmp_path,
                                                            capsys):
        # the last step starts at 0.999 s at the file's dt, so the event at
        # 0.9985 s fires; at --dt 0.002 the last step starts at 0.998 s
        scn_file = tmp_path / "late.scn"
        scn_file.write_text("[scenario]\nname = late\nv0 = 13\n"
                            "horizon = 1.0\ndt = 0.001\n"
                            "[events]\n0.9985 friction all 0.5\n")
        assert load_scenario(scn_file).events[-1].time == 0.9985
        out = tmp_path / "out"
        assert cli_main(["run", str(scn_file), "--dt", "0.002",
                         "--out", str(out)]) == 3
        assert "never fire" in capsys.readouterr().err
        assert not out.exists()

    def test_non_positive_stability_speed_is_config_error(self, capsys):
        # outside [V_EPS, BLOW_UP_LIMIT * R_w]: the assembled matrix would
        # hold inf at the extremes
        for v0 in ("0", "0.09", "3.4e5", "1e10", "1e200", "1e300", "1e-310",
                   "5e-324", "nan", "inf"):
            assert cli_main(["stability", "--v0", v0]) == 3, v0
            captured = capsys.readouterr()
            assert captured.err.startswith("configuration error"), v0
            assert captured.err.count("\n") == 1 and not captured.out, v0

    def test_failure_inside_a_run_is_not_a_config_error(self, tmp_path,
                                                        monkeypatch, capsys):
        from staballoc import harness

        def broken_step(*args, **kwargs):
            raise ValueError("math domain error")
        monkeypatch.setattr(harness, "step_rk4", broken_step)
        scn_file = tmp_path / "short.scn"
        scn_file.write_text(SHORT)
        with pytest.raises(ValueError, match="math domain error"):
            cli_main(["run", str(scn_file), "--out", str(tmp_path / "out")])
        assert "configuration error" not in capsys.readouterr().err

    def test_figures_runs_every_pair(self, tmp_path, monkeypatch, capsys):
        from staballoc import cli
        (tmp_path / "short.scn").write_text(SHORT)
        monkeypatch.setattr(cli, "SCENARIO_DIR", tmp_path)
        monkeypatch.setattr(cli, "FIGURE_PAIRS",
                            (("short", ("proposed", "baseline")),))
        out = tmp_path / "out"
        assert cli_main(["figures", "--out", str(out)]) == 0
        for ctrl in ("proposed", "baseline"):
            assert (out / f"short_{ctrl}.csv").exists()
            assert (out / f"short_{ctrl}_trajectory.svg").exists()
        assert capsys.readouterr().out.count("max|beta|=") == 2

    def test_figure_pairs_name_shipped_scenarios(self, scenario_dir):
        from staballoc import cli
        from staballoc.scenario import CONTROLLERS
        assert cli.SCENARIO_DIR == scenario_dir
        for name, controllers in cli.FIGURE_PAIRS:
            assert (scenario_dir / f"{name}.scn").is_file()
            assert set(controllers) <= set(CONTROLLERS)

    def test_diverged_run_exit_code(self, tmp_path):
        scn_file = tmp_path / "blowup.scn"
        scn_file.write_text("[scenario]\nname = blowup\nv0 = 13\n"
                            "horizon = 1.0\ndt = 0.05\n"
                            "[driver]\nsteer = 0:0.3\n")
        code = cli_main(["run", str(scn_file), "--out",
                         str(tmp_path / "out")])
        assert code == 2

    def test_start_below_the_bound_that_blows_up_is_a_divergence(
            self, tmp_path, capsys):
        # v0/R_w is within BLOW_UP_LIMIT at 3e5 m/s, so the scenario is
        # valid, but its first step spins the wheels past the bound
        scn_file = tmp_path / "fast.scn"
        scn_file.write_text(SHORT.replace("v0 = 13.0", "v0 = 3e5", 1))
        code = cli_main(["run", str(scn_file), "--out",
                         str(tmp_path / "out")])
        assert code == 2
        assert re.search(r"DIVERGED at t=0\.001: .* w_fl=\S+ after step 0",
                         capsys.readouterr().err)

    def test_stability_subcommand(self, capsys):
        # 0.1 and 3.3e5 m/s are the ends of the speed range
        for v0 in ("20", "0.1", "3.3e5"):
            assert cli_main(["stability", "--v0", v0]) == 0, v0
            out = capsys.readouterr().out
            assert "internally stable" in out, v0

    def test_sweep_subcommand(self, tmp_path, capsys):
        scn_file = tmp_path / "short.scn"
        scn_file.write_text(SHORT)
        code = cli_main(["sweep", str(scn_file), "--controller", "baseline",
                         "--vmin", "5", "--vmax", "5"])
        assert code == 0
        assert "5.00 m/s" in capsys.readouterr().out

    def test_sweep_without_a_stable_speed_says_so(self, tmp_path, capsys,
                                                  monkeypatch):
        from staballoc import cli
        monkeypatch.setattr(cli, "sweep_max_speed",
                            lambda *args, **kwargs: math.nan)
        scn_file = tmp_path / "short.scn"
        scn_file.write_text(SHORT)
        code = cli_main(["sweep", str(scn_file), "--controller", "baseline",
                         "--vmin", "5", "--vmax", "7.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "no stable speed in [5, 7.5] m/s (baseline)\n"
        assert "nan" not in out
