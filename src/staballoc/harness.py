"""Closed-loop scenario driver and fault injection.

Per step (scn.n_steps of them): measurements are formed from the current
state and the input-only terms of the previous step (the IMU sees what
actually happened), the selected controller produces an actuator command,
clamped once to the actuator envelope (clip_u), effectiveness faults scale
it element-wise, and the plant advances one fixed step with the effective
inputs held constant.

Controllers:
  proposed  - virtual control + adaptive allocation over all 12 actuators
  baseline  - driver front steer, speed-scheduled rear steer, normal-force
              proportional traction, independent suspension PIs
  hybrid    - proposed traction/steering channels with the baseline
              suspension controller (the roll/pitch moment channels are
              not computed and are logged as 0)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .controllers import (ControllerState, Gains, attitude_moments,
                          baseline_rear_steer, baseline_suspension,
                          baseline_traction, build_bn, measured_net,
                          traction_demand, virtual_control,
                          yaw_rate_reference)
from .logio import RunLog
from .metrics import compute_metrics
from .params import VehicleParams
from .plant import (ZERO4, PlantDiverged, _reg, bind, clip_u, normal_forces,
                    state_derivative, step_rk4)
from .scenario import ConfigError, Events, Scenario, check_events

if TYPE_CHECKING:
    from .allocator import AdaptiveAllocator

BETA_LIMIT = math.radians(15.0)  # a sweep run survives below this max|beta|
V_ZERO = (0.0,) * 5  # the virtual control a baseline run logs


def apply_faults(u_commanded: Sequence[float], events: Events,
                 t: float) -> List[float]:
    """A copy of the command list scaled element-wise by the active fault
    events, one factor at a time in event order."""
    u = list(u_commanded)
    for i, factor in events.faults_at(t):
        u[i] *= factor
    return u


def friction_scale(events: Events, t: float,
                   ) -> Tuple[float, float, float, float]:
    """Per-tire lateral friction multipliers from the active events."""
    return events.at("friction", t)


def road_elevation(events: Events, t: float,
                   ) -> Tuple[float, float, float, float]:
    """Road elevation steps [m] accumulated from the active events."""
    return events.at("elevation", t)


def measure(x: List[float], prev_inputs: tuple, p: VehicleParams) -> Dict:
    """Sensor picture at the state list x: body rates and angles, inertial
    accelerations realized under the previously applied inputs, side slip,
    and the four tire normal loads as one tuple N; prev_inputs is the
    terms bind(p).step_inputs formed of those inputs for the last step."""
    deriv = state_derivative(x, prev_inputs, p)
    v_x, v_y, r = x[0], x[1], x[2]
    a_x = deriv[0] - r * v_y
    a_y = deriv[1] + r * v_x
    return {
        "Vx": v_x,
        "beta": math.atan(v_y / _reg(v_x)),
        "r": r,
        "phi": x[5], "phid": x[6],
        "theta": x[7], "thetad": x[8],
        "ax": a_x, "ay": a_y,
        "yaw_acc": deriv[2], "roll_acc": deriv[6], "pitch_acc": deriv[8],
        "F": p.m * a_x,
        "N": normal_forces(x[9:17:2], prev_inputs[1], p),
    }


@dataclass
class _Loop:
    """Mutable per-run controller assembly."""
    mode: str
    gains: Gains
    cs: ControllerState
    allocator: Optional[AdaptiveAllocator]
    # the previous command's allocated steer, before the driver's is added
    steer_prev: Sequence[float] = field(init=False, default=ZERO4)

    def command(self, delta_in: float, f_ref: float,
                meas: Dict, dt: float, p: VehicleParams,
                ) -> Tuple[List[float], Sequence[float], float, float]:
        """Returns (u_commanded, v, r_ref, residual), all in floats."""
        normals = meas["N"]
        if self.mode == "baseline":
            # of the virtual control, the baseline uses only the traction
            # demand and logs v as zeros
            r_ref = yaw_rate_reference(delta_in, meas["Vx"], self.gains, p)
            f_c = traction_demand(f_ref, meas["F"], self.gains, self.cs, dt)
            d_r = baseline_rear_steer(delta_in, meas["Vx"],
                                      normals[0] + normals[1],
                                      normals[2] + normals[3],
                                      p, self.gains.c_alpha_rear_steer)
            torques = baseline_traction(f_c, normals, p)
            f_z = baseline_suspension(meas["theta"], meas["phi"],
                                      self.gains, self.cs, dt)
            u = [delta_in, delta_in, d_r, d_r, *torques, *f_z]
            return clip_u(u), V_ZERO, r_ref, 0.0

        v, r_ref = virtual_control(delta_in, f_ref, meas, self.gains,
                                   self.cs, dt, p)
        v += (attitude_moments(meas, self.gains, self.cs, dt)
              if self.mode == "proposed" else [0.0, 0.0])
        realized = measured_net(meas["ax"], meas["ay"], meas["yaw_acc"],
                                meas["roll_acc"], meas["pitch_acc"],
                                meas["Vx"], p)
        bn = build_bn(self.steer_prev, normals, p)
        res = self.allocator.step(v, realized, bn, dt)
        u = res.u.tolist()
        self.steer_prev = u[0:4]
        u[0] += delta_in
        u[1] += delta_in
        if self.mode == "hybrid":
            u[8:12] = baseline_suspension(meas["theta"], meas["phi"],
                                          self.gains, self.cs, dt)
        return clip_u(u), v, r_ref, res.residual


def override(scn: Scenario, controller: Optional[str],
             dt: Optional[float]) -> Scenario:
    """scn with the controller and step that are given (not None) in place
    of its own, through dataclasses.replace, so the Scenario rules hold for
    them too.  A dt that replaces the scenario's must also leave no event
    after the last step.  Raises ConfigError otherwise."""
    run = replace(scn, dt=scn.dt if dt is None else dt,
                  controller=scn.controller if controller is None
                  else controller)
    if run.dt != scn.dt:
        check_events(run)
    return run


def run_scenario(scn: Scenario, controller: Optional[str] = None,
                 beta_limit: float = math.inf) -> RunLog:
    """Simulate one scenario on the stock vehicle and return the per-step log.

    The scenario carries every setting of the run; a controller, when
    given, replaces its own (override).  A bad one, or a beta_limit that
    is not positive, raises ConfigError before any step.  The run stops early
    with a partial log when the plant diverges, or after the first step
    whose logged |beta| reaches beta_limit; up to there the log is the same
    as that of the full run.  Only the allocator modes import the array
    code (allocator, linmodel) and with it NumPy.
    """
    if not beta_limit > 0.0:
        raise ConfigError(f"beta_limit {beta_limit!r} is not positive")
    scn = override(scn, controller, None)
    dt, mode = scn.dt, scn.controller
    p = VehicleParams()

    allocator = None
    if mode in ("proposed", "hybrid"):
        from .allocator import AdaptiveAllocator
        from .linmodel import build_bl
        allocator = AdaptiveAllocator(build_bl(p, scn.allocator.c_alpha),
                                      scn.allocator)
    loop = _Loop(mode=mode, gains=scn.gains, cs=ControllerState(),
                 allocator=allocator)

    # straight driving at v0 with freely rolling wheels
    x = [scn.v0] + [0.0] * 16 + [scn.v0 / p.R_w] * 4 + [0.0] * 3
    events, driver = scn.events, scn.driver
    # each step's input-only terms, formed once for its step_rk4 and the
    # next step's measurement; before the first step, no actuator acts
    step_inputs = bind(p).step_inputs
    prev_inputs = step_inputs((0.0,) * 12, road_elevation(events, 0.0),
                              friction_scale(events, 0.0))
    log = RunLog(scenario=scn.name, controller=mode, dt=dt)

    for k in range(scn.n_steps):
        t = k * dt
        meas = measure(x, prev_inputs, p)
        delta_in = driver.steer_at(t)
        f_ref = driver.force_ref(t)
        u_cmd, v, r_ref, resid = loop.command(delta_in, f_ref, meas, dt, p)
        u_eff = apply_faults(u_cmd, events, t)
        inputs = step_inputs(u_eff, road_elevation(events, t),
                             friction_scale(events, t))
        # one row in CSV_COLUMNS order
        log.append([t, x[0], x[1], x[2], meas["beta"], x[3], x[5], x[7],
                    x[21], x[22], x[23], *u_cmd, *meas["N"], *v, resid],
                   r_ref)
        try:
            x = step_rk4(x, inputs, p, dt)
        except PlantDiverged as exc:
            log.mark_diverged(t + dt, f"non-finite or out-of-bound state "
                                      f"{exc} after step {k}")
            break
        if abs(meas["beta"]) >= beta_limit:
            log.mark_stopped(t, f"|beta| reached the limit of "
                                f"{math.degrees(beta_limit):g} deg at "
                                f"step {k}")
            break
        prev_inputs = inputs
    return log


def sweep_max_speed(scn: Scenario, controller: str,
                    v_min: float, v_max: float, resolution: float) -> float:
    """Largest initial speed in [v_min, v_max] the controller survives.

    Survival: no spin flag, no divergence, and max |beta| below BETA_LIMIT.
    A failing run ends at the step whose |beta| reaches BETA_LIMIT, since
    the rest of it cannot change the verdict.  The top of the range is run
    first and returned if it survives; otherwise the speed is bisected to
    the given resolution, assuming a single stability threshold in the
    range; it stops early once the midpoint rounds to either end (a
    resolution below the float spacing of the range).  v_min is run last,
    and only if no midpoint survived: NaN if it fails.  So a range whose
    top or any visited midpoint survives gives that answer even if its
    bottom fails, and a range where nothing survives costs the top, every
    halving and the bottom, all stopped early.  Raises ConfigError unless
    0 <= v_min <= v_max < inf and 0 < resolution < inf.
    """
    if not 0.0 <= v_min <= v_max < math.inf:
        raise ConfigError(f"speed range [{v_min!r}, {v_max!r}] must have "
                          f"0 <= vmin <= vmax < inf")
    if not 0.0 < resolution < math.inf:
        raise ConfigError(f"resolution {resolution!r} is not in (0, inf)")

    def stable(v0: float) -> bool:
        log = run_scenario(replace(scn, v0=v0), controller=controller,
                           beta_limit=BETA_LIMIT)
        m = compute_metrics(log)
        return (not m.spin) and (not m.diverged) and m.max_beta < BETA_LIMIT

    if stable(v_max):
        return v_max
    lo, hi = v_min, v_max
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if stable(mid):
            lo = mid
        else:
            hi = mid
    if lo == v_min and (v_min == v_max or not stable(v_min)):
        return float("nan")
    return lo
