"""Test oracle for the virtual control and the baseline suspension.

The controllers used to keep eight integrators for five integrands: the
side-slip integral twice (one for the yaw moment, one for the lateral
force) and the roll and pitch integrals twice (once for the moment PIDs,
once for the baseline suspension), and `virtual_control` produced all five
entries at once.  `controllers.virtual_control` now gives entries 1-3,
`attitude_moments` entries 4-5, and both share one integrator per
integrand with `baseline_suspension`; together they must give the same
floats bit for bit.  The old functions and their state are kept here,
unchanged, so the tests can compare the two.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from staballoc.controllers import Gains, yaw_rate_reference
from staballoc.params import VehicleParams
from staballoc.plant import clip


@dataclass
class ControllerState:
    """Integrator accumulators, owned by one simulation instance."""
    i_force: float = 0.0
    i_yaw: float = 0.0
    i_beta_mz: float = 0.0
    i_beta_fy: float = 0.0
    i_roll: float = 0.0
    i_pitch: float = 0.0
    i_roll_base: float = 0.0
    i_pitch_base: float = 0.0


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
    """One sample of the virtual control vector and the yaw-rate reference.

    Each entry is clamped to its demand limit; a NaN passes through so the
    plant's divergence check sees it.

    meas must provide F (longitudinal force m*a_x), beta, r, Vx, phi, phid,
    theta, thetad.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    r_ref = yaw_rate_reference(delta_in, meas["Vx"], g, p)
    f_c = traction_demand(f_ref, meas["F"], g, cs, dt)

    beta = meas["beta"]
    r_err = r_ref - meas["r"]
    cs.i_yaw = clip(cs.i_yaw + r_err * dt, g.i_max_r)
    cs.i_beta_mz = clip(cs.i_beta_mz + beta * dt, g.i_max_beta)
    m1 = g.kp_mz * r_err + g.ki_mz * cs.i_yaw
    m2 = g.kp_beta_mz * beta + g.ki_beta_mz * cs.i_beta_mz
    m_z = m1 + m2

    cs.i_beta_fy = clip(cs.i_beta_fy + beta * dt, g.i_max_beta)
    f_yc = -g.kp_fy * beta - g.ki_fy * cs.i_beta_fy

    cs.i_roll = clip(cs.i_roll + meas["phi"] * dt, g.i_max_roll)
    m_x = -g.kp_roll * meas["phi"] - g.kd_roll * meas["phid"] \
        - g.ki_roll * cs.i_roll

    cs.i_pitch = clip(cs.i_pitch + meas["theta"] * dt, g.i_max_pitch)
    m_y = -g.kp_pitch * meas["theta"] - g.kd_pitch * meas["thetad"] \
        - g.ki_pitch * cs.i_pitch

    return [f_c, clip(f_yc, g.v_max_fy),
            clip(m_z, g.v_max_mz), clip(m_x, g.v_max_mx),
            clip(m_y, g.v_max_my)], r_ref


def baseline_suspension(theta: float, phi: float, g: Gains,
                        cs: ControllerState, dt: float,
                        ) -> Tuple[float, float, float, float]:
    """Independent roll/pitch PI control mapped to the four corners."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    cs.i_pitch_base = clip(cs.i_pitch_base + theta * dt, g.i_max_pitch)
    cs.i_roll_base = clip(cs.i_roll_base + phi * dt, g.i_max_roll)
    f_pitch = -g.kp_pitch_base * theta - g.ki_pitch_base * cs.i_pitch_base
    f_roll = -g.kp_roll_base * phi - g.ki_roll_base * cs.i_roll_base
    return (-f_pitch + f_roll,
            -f_pitch - f_roll,
            f_pitch + f_roll,
            f_pitch - f_roll)
