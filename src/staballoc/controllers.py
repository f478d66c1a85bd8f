"""Virtual-control-input generation and the baseline controller.

The high-level controller turns driver commands and measurements into the
five-entry virtual control v = [F_c, F_yc, M_z, M_x, M_y]: a traction-force
PI (traction_demand), a side-slip lateral-force PI and a yaw moment built
from a yaw-rate PI plus a side-slip PI (virtual_control, entries 1-3), and
roll/pitch damping PIDs (attitude_moments, entries 4-5).  The baseline
controller is the classical alternative: speed-scheduled rear steering
proportional to the front command, traction split inversely proportional
to the normal loads, and independent roll/pitch suspension PIs.

There is one integrator per integrand (ControllerState), advanced by
explicit Euler with clamping anti-windup.
The allocator's settings (AllocatorConfig) and its per-step inputs, the
diagonal of B_n(t) and the net efforts reconstructed from the IMU, are
formed here in plain floats; the array code is in allocator.py, which only
the allocator modes import.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from typing import Dict, List, Sequence, Tuple

from .params import G, ConfigError, VehicleParams
from .plant import STEER_LIMIT, clip

C_ALPHA_DEFAULT = 8.0  # per-unit-normal-force cornering gain [1/rad]
# the c_alpha a run accepts; far outside it (about 1e+-155) the squared
# column norms of the effort map overflow or vanish, and no allocator exists
C_ALPHA_RANGE = (1.0e-3, 1.0e3)

BN_EPS = 1.0e-6  # |diagonal entries| below this flag B_n as non-invertible


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear time profile over time-sorted, finite breakpoints
    (at least one; ConfigError otherwise); constant extrapolation past the
    ends."""
    points: Tuple[Tuple[float, float], ...]
    times: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigError("profile needs at least one breakpoint")
        if not all(math.isfinite(x) for point in self.points for x in point):
            raise ConfigError(f"breakpoints {self.points} must be finite")
        ts = tuple(t for t, _ in self.points)
        if any(t1 < t0 for t0, t1 in zip(ts, ts[1:])):
            raise ConfigError(f"breakpoint times {list(ts)} must be sorted")
        object.__setattr__(self, "times", ts)

    def __call__(self, t: float) -> float:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if not t < pts[-1][0]:   # a NaN time too takes the last value
            return pts[-1][1]
        # the first segment with t0 <= t <= t1: times[i - 1] < t <= times[i]
        i = bisect_left(self.times, t)
        (t0, v0), (t1, v1) = pts[i - 1], pts[i]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


@dataclass(frozen=True)
class DriverInput:
    """Scripted driver: steering angle [rad], pedal and brake mapped to a
    traction-force demand [N] over the scenario horizon."""
    steer: PiecewiseLinear
    pedal: PiecewiseLinear
    brake: PiecewiseLinear

    def steer_at(self, t: float) -> float:
        return clip(self.steer(t), STEER_LIMIT)

    def force_ref(self, t: float) -> float:
        return self.pedal(t) - self.brake(t)


@dataclass(frozen=True)
class Gains:
    """Controller gains; defaults are the shipped tuned set.

    The stock vehicle has load-proportional cornering stiffness, so the
    understeer gradient defaults to neutral (0).  Every gain must be finite;
    feedback gains take either sign, while the anti-windup bounds `i_max_*`
    and the demand limits `v_max_*` must also be non-negative (ConfigError).
    """
    # traction force PI (virtual control entry 1)
    kp_f: float = 2.0
    ki_f: float = 8.0
    # yaw-rate moment PI (M1)
    kp_mz: float = 20000.0
    ki_mz: float = 40000.0
    # side-slip moment PI (M2)
    kp_beta_mz: float = 30000.0
    ki_beta_mz: float = 0.0
    # side-slip lateral-force PI
    kp_fy: float = 50000.0
    ki_fy: float = 100000.0
    # roll moment PID
    kp_roll: float = 300000.0
    kd_roll: float = 15000.0
    ki_roll: float = 500000.0
    # pitch moment PID
    kp_pitch: float = 400000.0
    kd_pitch: float = 30000.0
    ki_pitch: float = 600000.0
    # understeer gradient for the yaw-rate reference [s^2/m]
    k_understeer: float = 0.0
    # baseline rear-steer schedule: cornering gain per unit axle load
    # [1/rad]; places the sign-crossover speed of the rear-steer ratio
    # near 20 m/s for the stock vehicle
    c_alpha_rear_steer: float = 30.0
    # baseline suspension PIs (force units per rad); the corner force maps
    # to a moment through 2L (pitch) and 2w (roll), so these defaults give
    # the same static authority as the moment PIDs above
    kp_pitch_base: float = 80000.0
    ki_pitch_base: float = 120000.0
    kp_roll_base: float = 93750.0
    ki_roll_base: float = 156250.0
    # anti-windup accumulator bounds (per integrand, in its own units)
    i_max_f: float = 5000.0
    i_max_r: float = 0.5
    i_max_beta: float = 0.2
    i_max_roll: float = 0.5
    i_max_pitch: float = 0.5
    # demand limits per virtual-control channel [N, N, N m, N m, N m];
    # roughly the friction/actuator envelope of the stock vehicle
    v_max_f: float = 13000.0
    v_max_fy: float = 13000.0
    v_max_mz: float = 20000.0
    v_max_mx: float = 16000.0
    v_max_my: float = 25000.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            limit = f.name.startswith(("i_max_", "v_max_"))
            if not math.isfinite(value) or (limit and value < 0.0):
                rule = "non-negative and finite" if limit else "finite"
                raise ConfigError(f"gain {f.name} must be {rule}, not "
                                  f"{value!r}")


@dataclass(frozen=True)
class AllocatorConfig:
    """Adaptation configuration; defaults match the shipped scenarios.

    Every setting is checked when the config is built (ConfigError)."""
    am_scale: float = 10.0        # A_m = -am_scale * I
    gamma: float = 5000.0         # adaptation rate (normalized coordinates)
    v_scale: float = 1.0e4        # effort pre-scaling to order one
    theta_bound_factor: float = 50.0   # box half-width, per-entry, x|theta0|
    theta_bound_floor: float = 5.0     # box half-width where theta0 is ~0
    proj_margin: float = 0.05     # boundary-layer fraction of box width
    c_alpha: float = C_ALPHA_DEFAULT

    def __post_init__(self) -> None:
        for name in ("am_scale", "gamma", "v_scale", "theta_bound_factor",
                     "theta_bound_floor"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"allocator {name} must be positive and "
                                  f"finite, not {value!r}")
        low, high = C_ALPHA_RANGE
        if not low <= self.c_alpha <= high:
            raise ConfigError(f"allocator c_alpha must be in [{low:g}, "
                              f"{high:g}] 1/rad, not {self.c_alpha!r}")
        if not 0.0 < self.proj_margin < 1.0:
            raise ConfigError(f"allocator proj_margin must be in (0, 1), "
                              f"not {self.proj_margin!r}")


@dataclass
class ControllerState:
    """Integrator accumulators, one per integrand, owned by one simulation
    instance.  i_beta feeds the lateral-force and the side-slip moment PI;
    i_roll and i_pitch feed the moment PIDs or the baseline suspension,
    whichever of the two laws the run uses."""
    i_force: float = 0.0
    i_yaw: float = 0.0
    i_beta: float = 0.0
    i_roll: float = 0.0
    i_pitch: float = 0.0


def yaw_rate_reference(delta_in: float, v_x: float, g: Gains,
                       p: VehicleParams) -> float:
    """Steady-state yaw-rate reference from the linear single-track model,
    magnitude-limited by the friction circle mu*G/Vx; the comparisons are
    those of max(v_x, 0.1) and max(-limit, min(limit, r_ref))."""
    v = 0.1 if 0.1 > v_x else v_x
    r_ref = v * delta_in / (p.L + g.k_understeer * v * v)
    limit = p.mu * G / v
    r_ref = r_ref if r_ref < limit else limit
    return r_ref if r_ref > -limit else -limit


def traction_demand(f_ref: float, F: float, g: Gains, cs: ControllerState,
                    dt: float) -> float:
    """Entry 1 of the virtual control: the traction-force PI on the demand
    f_ref and the measured force F, clamped to v_max_f; advances
    cs.i_force."""
    f_err = f_ref - F
    cs.i_force = clip(cs.i_force + f_err * dt, g.i_max_f)
    return clip(g.kp_f * f_err + g.ki_f * cs.i_force, g.v_max_f)


def virtual_control(delta_in: float, f_ref: float, meas: Dict[str, float],
                    g: Gains, cs: ControllerState, dt: float,
                    p: VehicleParams) -> Tuple[List[float], float]:
    """Entries 1-3 of the virtual control (traction force, lateral force,
    yaw moment) and the yaw-rate reference for one sample.

    Each entry is clamped to its demand limit; a NaN passes through so the
    plant's divergence check sees it.

    meas must provide F (longitudinal force m*a_x), beta, r and Vx.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    r_ref = yaw_rate_reference(delta_in, meas["Vx"], g, p)
    f_c = traction_demand(f_ref, meas["F"], g, cs, dt)

    beta = meas["beta"]
    r_err = r_ref - meas["r"]
    cs.i_yaw = clip(cs.i_yaw + r_err * dt, g.i_max_r)
    cs.i_beta = clip(cs.i_beta + beta * dt, g.i_max_beta)
    m1 = g.kp_mz * r_err + g.ki_mz * cs.i_yaw
    m2 = g.kp_beta_mz * beta + g.ki_beta_mz * cs.i_beta
    f_yc = -g.kp_fy * beta - g.ki_fy * cs.i_beta
    return [f_c, clip(f_yc, g.v_max_fy), clip(m1 + m2, g.v_max_mz)], r_ref


def attitude_moments(meas: Dict[str, float], g: Gains, cs: ControllerState,
                     dt: float) -> List[float]:
    """Entries 4-5 of the virtual control: the roll and pitch moment PIDs
    on phi, phid, theta and thetad, clamped like the other entries;
    advances cs.i_roll and cs.i_pitch."""
    cs.i_roll = clip(cs.i_roll + meas["phi"] * dt, g.i_max_roll)
    m_x = -g.kp_roll * meas["phi"] - g.kd_roll * meas["phid"] \
        - g.ki_roll * cs.i_roll
    cs.i_pitch = clip(cs.i_pitch + meas["theta"] * dt, g.i_max_pitch)
    m_y = -g.kp_pitch * meas["theta"] - g.kd_pitch * meas["thetad"] \
        - g.ki_pitch * cs.i_pitch
    return [clip(m_x, g.v_max_mx), clip(m_y, g.v_max_my)]


def baseline_rear_steer(delta_f: float, v_x: float, n_front: float,
                        n_rear: float, p: VehicleParams,
                        c_alpha: float) -> float:
    """Rear steering proportional to the front command.

    The speed-scheduled ratio is negative at low speed (maneuverability) and
    positive at high speed (stability).  Each axle load is floored at
    1 N as max(n, 1.0) does it.
    """
    n_f = 1.0 if 1.0 > n_front else n_front
    n_r = 1.0 if 1.0 > n_rear else n_rear
    mv2 = p.m * v_x * v_x
    k_s = ((mv2 * p.a - p.b * p.L * c_alpha * n_r)
           / (mv2 * p.b + p.a * p.L * c_alpha * n_f)) * (n_f / n_r)
    return k_s * delta_f


def baseline_traction(f_c: float, normals: Sequence[float],
                      p: VehicleParams) -> Tuple[float, float, float, float]:
    """Wheel torque split inversely proportional to the normal loads, each
    floored at 1 N as max(n, 1.0) does it (a NaN load passes through)."""
    fw = f_c * p.weight
    n0, n1, n2, n3 = normals
    return (fw / (4.0 * (1.0 if 1.0 > n0 else n0)),
            fw / (4.0 * (1.0 if 1.0 > n1 else n1)),
            fw / (4.0 * (1.0 if 1.0 > n2 else n2)),
            fw / (4.0 * (1.0 if 1.0 > n3 else n3)))


def baseline_suspension(theta: float, phi: float, g: Gains,
                        cs: ControllerState, dt: float,
                        ) -> Tuple[float, float, float, float]:
    """Independent roll/pitch PI control mapped to the four corners; it
    advances the same i_pitch and i_roll as attitude_moments."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    cs.i_pitch = clip(cs.i_pitch + theta * dt, g.i_max_pitch)
    cs.i_roll = clip(cs.i_roll + phi * dt, g.i_max_roll)
    f_pitch = -g.kp_pitch_base * theta - g.ki_pitch_base * cs.i_pitch
    f_roll = -g.kp_roll_base * phi - g.ki_roll_base * cs.i_roll
    return (-f_pitch + f_roll,
            -f_pitch - f_roll,
            f_pitch + f_roll,
            f_pitch - f_roll)


def build_bn(steer: Sequence[float], normals: Sequence[float],
             p: VehicleParams) -> Tuple[float, ...]:
    """Diagonal of the time-varying factor of the effort map B_y(t) =
    B_l B_n(t) (linmodel.build_bl is B_l): 4*N_i*cos(d_i)/m for the
    steering channels, cos(d_i) for the torque channels, 1 for
    suspension."""
    cd = [math.cos(s) for s in steer]
    return (4.0 * normals[0] * cd[0] / p.m,
            4.0 * normals[1] * cd[1] / p.m,
            4.0 * normals[2] * cd[2] / p.m,
            4.0 * normals[3] * cd[3] / p.m,
            cd[0], cd[1], cd[2], cd[3],
            1.0, 1.0, 1.0, 1.0)


def bn_is_invertible(bn_diag: Sequence[float]) -> bool:
    """True when every diagonal entry of B_n is bounded away from zero; a
    NaN entry is not."""
    return all(abs(b) > BN_EPS for b in bn_diag)


def measured_net(a_x: float, a_y: float, yaw_acc: float, roll_acc: float,
                 pitch_acc: float, v_x: float, p: VehicleParams,
                 ) -> Tuple[float, float, float, float, float]:
    """Net actuator-generated efforts reconstructed from IMU accelerations.

    Known non-actuator contributions are removed: drag is added back on the
    longitudinal channel and the load-transfer moments are compensated out
    of the roll and pitch channels, so at rest the result is all zeros.
    """
    drag = 0.5 * p.rho * p.C_d * p.A_f * v_x * v_x
    return (p.m * a_x + drag,
            p.m * a_y,
            p.I_z * yaw_acc,
            p.I_x * roll_acc + p.m * a_y * p.h,
            p.I_y * pitch_acc + p.m * a_x * p.h)
