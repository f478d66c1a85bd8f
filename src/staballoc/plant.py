"""Nonlinear 14-DOF vehicle plant.

Degrees of freedom: body translation (Vx, Vy) and heave, body rotation
(roll, pitch, yaw), four wheel spins and four unsprung elevations.  The
vertical states are deviations from static equilibrium, so gravity does not
appear explicitly and the static tire loads enter through a constant
preload in :func:`normal_forces`.

Frame: x forward, y left, z up.  Pitch is positive nose-down, roll is
positive left-side-up; yaw is positive counter-clockwise seen from above.
Inertial pose (X, Y, psi) is carried along for trajectory logging.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence, Tuple

from .params import G, VehicleParams
from .tires import (longitudinal_slip, magic_formula, rolling_resistance,
                    slip_angles, wheel_frame_to_body)

# actuator envelope, applied when PlantInputs is built
STEER_LIMIT = math.radians(30.0)   # rad
TORQUE_LIMIT = 1500.0              # N m
SUSPENSION_LIMIT = 5000.0          # N

BLOW_UP_LIMIT = 1.0e6  # any |state entry| beyond this marks the run diverged

STATE_NAMES = (
    "Vx", "Vy", "r", "z", "zd", "phi", "phid", "theta", "thetad",
    "z_ufl", "zd_ufl", "z_ufr", "zd_ufr", "z_url", "zd_url", "z_urr", "zd_urr",
    "w_fl", "w_fr", "w_rl", "w_rr", "X", "Y", "psi",
)


@dataclass
class PlantState:
    """Plant state; the first 17 entries form the control-oriented state."""
    Vx: float = 0.0
    Vy: float = 0.0
    r: float = 0.0
    z: float = 0.0
    zd: float = 0.0
    phi: float = 0.0
    phid: float = 0.0
    theta: float = 0.0
    thetad: float = 0.0
    z_ufl: float = 0.0
    zd_ufl: float = 0.0
    z_ufr: float = 0.0
    zd_ufr: float = 0.0
    z_url: float = 0.0
    zd_url: float = 0.0
    z_urr: float = 0.0
    zd_urr: float = 0.0
    w_fl: float = 0.0
    w_fr: float = 0.0
    w_rl: float = 0.0
    w_rr: float = 0.0
    X: float = 0.0
    Y: float = 0.0
    psi: float = 0.0
    diverged: bool = False

    def as_list(self) -> List[float]:
        """The 24 state entries in STATE_NAMES order."""
        return [self.Vx, self.Vy, self.r, self.z, self.zd, self.phi,
                self.phid, self.theta, self.thetad,
                self.z_ufl, self.zd_ufl, self.z_ufr, self.zd_ufr,
                self.z_url, self.zd_url, self.z_urr, self.zd_urr,
                self.w_fl, self.w_fr, self.w_rl, self.w_rr,
                self.X, self.Y, self.psi]

    @classmethod
    def from_list(cls, values: Sequence[float]) -> "PlantState":
        return cls(*values)

    @classmethod
    def cruising(cls, v0: float, p: VehicleParams) -> "PlantState":
        """Straight driving at v0 with freely rolling wheels."""
        w = v0 / p.R_w
        return cls(Vx=v0, w_fl=w, w_fr=w, w_rl=w, w_rr=w)


def clip(x: float, lim: float) -> float:
    """Clamp x to [-lim, lim]; NaN passes through, as with numpy.clip."""
    if x > lim:
        return lim
    if x < -lim:
        return -lim
    return x


def _inside(xs: Sequence[float], lim: float) -> bool:
    """True only if clipping xs to [-lim, lim] would leave every entry as
    it is."""
    return -lim <= min(xs) and max(xs) <= lim


@dataclass(frozen=True)
class PlantInputs:
    """Actuator and environment inputs, held constant over one step.

    Actuator entries are clamped to the physical envelope at construction:
    steering +-30 deg, wheel torque +-1500 N m, suspension force +-5000 N.
    """
    steer: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    torque: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    f_z: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    z_road: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    slope: float = 0.0
    lat_scale: Tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        for name, lim in (("steer", STEER_LIMIT), ("torque", TORQUE_LIMIT),
                          ("f_z", SUSPENSION_LIMIT)):
            xs = getattr(self, name)
            if type(xs) is not tuple or not _inside(xs, lim):
                object.__setattr__(self, name,
                                   tuple([clip(x, lim) for x in xs]))

    @classmethod
    def from_u(cls, u: Sequence[float], **env) -> "PlantInputs":
        """Build from the 12-entry actuator vector
        (d_fl, d_fr, d_rl, d_rr, T_fl..T_rr, fz_fl..fz_rr)."""
        return cls(steer=tuple(u[0:4]), torque=tuple(u[4:8]),
                   f_z=tuple(u[8:12]), **env)


def normal_forces(z_u: Sequence[float], z_road: Sequence[float],
                  p: VehicleParams) -> Tuple[float, float, float, float]:
    """Tire normal loads: static preload plus tire-spring deflection, clamped
    at zero (wheel lift-off)."""
    n_fl = p.N_front_static - p.k_uf * (z_u[0] - z_road[0])
    n_fr = p.N_front_static - p.k_uf * (z_u[1] - z_road[1])
    n_rl = p.N_rear_static - p.k_ur * (z_u[2] - z_road[2])
    n_rr = p.N_rear_static - p.k_ur * (z_u[3] - z_road[3])
    return (n_fl if n_fl > 0.0 else 0.0,
            n_fr if n_fr > 0.0 else 0.0,
            n_rl if n_rl > 0.0 else 0.0,
            n_rr if n_rr > 0.0 else 0.0)


def body_accelerations(f_x_total: float, f_y_total: float, v_x: float,
                       slope: float, p: VehicleParams) -> Tuple[float, float]:
    """Inertial accelerations; the relative air speed is taken as Vx."""
    drag = 0.5 * p.C_d * p.rho * p.A_f * v_x * v_x
    a_x = (f_x_total - drag - p.m * G * math.sin(slope)) / p.m
    a_y = f_y_total / p.m
    return a_x, a_y


def yaw_acceleration(fx_body: Sequence[float], fy_body: Sequence[float],
                     p: VehicleParams) -> float:
    """Yaw acceleration: right-side longitudinal forces act at +w/2, left at
    -w/2; front lateral forces at +a, rear at -b."""
    return (0.5 * p.w * (fx_body[1] + fx_body[3] - fx_body[0] - fx_body[2])
            + p.a * (fy_body[0] + fy_body[1])
            - p.b * (fy_body[2] + fy_body[3])) / p.I_z


def wheel_spin_derivative(torque: float, rolling: float, f_x_tire: float,
                          p: VehicleParams) -> float:
    """Wheel spin acceleration from the torque balance about the axle."""
    return (torque - rolling - f_x_tire * p.R_w) / p.I_w


def vertical_derivatives(state: Sequence[float], f_z: Sequence[float],
                         a_x: float, a_y: float, z_road: Sequence[float],
                         p: VehicleParams) -> Tuple[float, ...]:
    """Heave, roll and pitch accelerations plus the four unsprung-mass
    accelerations (fl, fr, rl, rr).

    Suspension forces follow from the corner elevations of the body
    (z -/+ a,b*sin(theta) +/- w/2*sin(phi)); longitudinal and lateral
    load transfer enter as -m*a_x*h on pitch and -m*a_y*h on roll.
    """
    z, zd = state[3], state[4]
    phi, phid = state[5], state[6]
    theta, thetad = state[7], state[8]
    zu = (state[9], state[11], state[13], state[15])
    zud = (state[10], state[12], state[14], state[16])

    sth = math.sin(theta)
    cth = math.cos(theta)
    sph = math.sin(phi)
    cph = math.cos(phi)

    ksf, csf, ksr, csr = p.k_sf, p.c_sf, p.k_sr, p.c_sr
    a, b, w = p.a, p.b, p.w
    hw = 0.5 * w

    zdd = (-(2.0 * ksf + 2.0 * ksr) * z - (2.0 * csf + 2.0 * csr) * zd
           + (2.0 * a * ksf - 2.0 * b * ksr) * sth
           + (2.0 * a * csf - 2.0 * b * csr) * thetad * cth
           + ksf * (zu[0] + zu[1]) + csf * (zud[0] + zud[1])
           + ksr * (zu[2] + zu[3]) + csr * (zud[2] + zud[3])
           + f_z[0] + f_z[1] + f_z[2] + f_z[3]) / p.m

    thetadd = ((2.0 * a * ksf - 2.0 * b * ksr) * z
               + (2.0 * a * csf - 2.0 * b * csr) * zd
               - (2.0 * a * a * ksf + 2.0 * b * b * ksr) * sth
               - (2.0 * a * a * csf + 2.0 * b * b * csr) * thetad * cth
               - a * ksf * (zu[0] + zu[1]) - a * csf * (zud[0] + zud[1])
               + b * ksr * (zu[2] + zu[3]) + b * csr * (zud[2] + zud[3])
               - p.m * a_x * p.h
               - a * (f_z[0] + f_z[1]) + b * (f_z[2] + f_z[3])) / p.I_y

    phidd = (-hw * hw * (2.0 * ksf + 2.0 * ksr) * sph
             - hw * hw * (2.0 * csf + 2.0 * csr) * phid * cph
             + hw * (ksf * (zu[0] - zu[1]) + csf * (zud[0] - zud[1]))
             + hw * (ksr * (zu[2] - zu[3]) + csr * (zud[2] - zud[3]))
             - p.m * a_y * p.h
             + hw * (f_z[0] - f_z[1] + f_z[2] - f_z[3])) / p.I_x

    zudd_fl = (ksf * z + csf * zd - a * ksf * sth - a * csf * thetad * cth
               + hw * ksf * sph + hw * csf * phid * cph
               - (ksf + p.k_uf) * zu[0] - csf * zud[0]
               + p.k_uf * z_road[0] - f_z[0]) / p.m_uf
    zudd_fr = (ksf * z + csf * zd - a * ksf * sth - a * csf * thetad * cth
               - hw * ksf * sph - hw * csf * phid * cph
               - (ksf + p.k_uf) * zu[1] - csf * zud[1]
               + p.k_uf * z_road[1] - f_z[1]) / p.m_uf
    zudd_rl = (ksr * z + csr * zd + b * ksr * sth + b * csr * thetad * cth
               + hw * ksr * sph + hw * csr * phid * cph
               - (ksr + p.k_ur) * zu[2] - csr * zud[2]
               + p.k_ur * z_road[2] - f_z[2]) / p.m_ur
    zudd_rr = (ksr * z + csr * zd + b * ksr * sth + b * csr * thetad * cth
               - hw * ksr * sph - hw * csr * phid * cph
               - (ksr + p.k_ur) * zu[3] - csr * zud[3]
               + p.k_ur * z_road[3] - f_z[3]) / p.m_ur

    return zdd, thetadd, phidd, zudd_fl, zudd_fr, zudd_rl, zudd_rr


def chassis_derivative(x: Sequence[float], f_x: Sequence[float],
                       steer: Sequence[float], f_z: Sequence[float],
                       z_road: Sequence[float], lat_scale: Sequence[float],
                       slope: float, p: VehicleParams) -> List[float]:
    """Derivatives of the 17 control-oriented states.

    The tire-frame longitudinal forces f_x are given; the lateral forces
    follow from the tire curve at the slip angles and normal loads implied
    by the state, with the peak scaled per tire by lat_scale.
    """
    v_x, v_y, r = x[0], x[1], x[2]
    normals = normal_forces((x[9], x[11], x[13], x[15]), z_road, p)
    alphas = slip_angles(v_x, v_y, r, steer, p)
    fx_body = [0.0] * 4
    fy_body = [0.0] * 4
    for i in range(4):
        f_y = magic_formula(alphas[i], p.B2, p.C2, p.E2,
                            p.mu * normals[i] * lat_scale[i])
        fx_body[i], fy_body[i] = wheel_frame_to_body(f_x[i], f_y, steer[i])

    a_x, a_y = body_accelerations(sum(fx_body), sum(fy_body), v_x, slope, p)
    rdot = yaw_acceleration(fx_body, fy_body, p)

    zdd, thetadd, phidd, zudd_fl, zudd_fr, zudd_rl, zudd_rr = \
        vertical_derivatives(x, f_z, a_x, a_y, z_road, p)

    return [
        a_x + r * v_y,          # Vx' (body frame rotating at r)
        a_y - r * v_x,          # Vy'
        rdot,                   # r'
        x[4], zdd,              # z', zd'
        x[6], phidd,            # phi', phid'
        x[8], thetadd,          # theta', thetad'
        x[10], zudd_fl, x[12], zudd_fr, x[14], zudd_rl, x[16], zudd_rr,
    ]


def state_derivative(x: Sequence[float], u: PlantInputs,
                     p: VehicleParams) -> List[float]:
    """Full state derivative; pure and deterministic in its arguments."""
    v_x, v_y, r = x[0], x[1], x[2]
    normals = normal_forces((x[9], x[11], x[13], x[15]), u.z_road, p)

    f_x = [0.0] * 4
    wdot = [0.0] * 4
    for i in range(4):
        n = normals[i]
        omega = x[17 + i]
        f_x[i] = magic_formula(longitudinal_slip(v_x, omega, p.R_w),
                               p.B1, p.C1, p.E1, p.mu * n)
        sgn = 1.0 if omega > 0.0 else (-1.0 if omega < 0.0 else 0.0)
        wdot[i] = wheel_spin_derivative(
            u.torque[i], rolling_resistance(n, v_x, p.p0, p.p1, p.p2) * sgn,
            f_x[i], p)

    out = chassis_derivative(x, f_x, u.steer, u.f_z, u.z_road, u.lat_scale,
                             u.slope, p)
    psi = x[23]
    cpsi = math.cos(psi)
    spsi = math.sin(psi)
    out += wdot
    out += (v_x * cpsi - v_y * spsi,   # X'
            v_x * spsi + v_y * cpsi,   # Y'
            r)                         # psi'
    return out


def rk4(f: Callable[[Sequence[float]], Sequence[float]],
        x: Sequence[float], dt: float) -> List[float]:
    """One classical 4th-order step of x' = f(x)."""
    k1 = f(x)
    h = 0.5 * dt
    k2 = f([xi + h * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + h * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + dt * ki for xi, ki in zip(x, k3)])
    s = dt / 6.0
    return [xi + s * (a + 2.0 * (b + c) + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def step_rk4(state: PlantState, inputs: PlantInputs, p: VehicleParams,
             dt: float) -> PlantState:
    """Advance one fixed step with inputs held constant (zero-order hold).

    The diverged flag is raised, never silently clamped, when any entry of
    the result is non-finite or exceeds the blow-up bound.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if state.diverged:
        return state
    nxt = rk4(lambda v: state_derivative(v, inputs, p), state.as_list(), dt)
    # a finite sum means every entry is finite (inf or NaN would propagate)
    if not (math.isfinite(sum(nxt))
            and -BLOW_UP_LIMIT <= min(nxt) and max(nxt) <= BLOW_UP_LIMIT):
        return replace(state, diverged=True)
    return PlantState.from_list(nxt)
