"""Test oracle for the plant kernel.

The plant's derivative used to be assembled from small tire and chassis
helpers.  `plant.state_derivative` and `plant.chassis_derivative` are now
straight-line kernels that must give the same floats bit for bit; the
helpers are kept here, unchanged, so the tests can compare the two and can
still check each piece of the physics on its own.
"""
from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

from plant_state import Inputs
from staballoc.params import VehicleParams
from staballoc.plant import _reg, normal_forces


def left_sum(values: Sequence[float]) -> float:
    """0.0 plus each value in turn: the additions Python 3.11's sum()
    makes, which sum() no longer makes from 3.12 on (it compensates)."""
    total = 0.0
    for v in values:
        total += v
    return total


# ---------------------------------------------------------------------------
# tire primitives


def longitudinal_slip(v_x: float, omega: float, r_w: float) -> float:
    """Slip ratio with separate driving/braking branches.

    Driving (w*Rw >= Vx): (w*Rw - Vx) / w*Rw.  Braking: (w*Rw - Vx) / Vx.
    Result is clamped to [-1, 1].
    """
    wr = omega * r_w
    denom = _reg(wr) if wr >= v_x else _reg(v_x)
    lam = (wr - v_x) / denom
    if lam > 1.0:
        return 1.0
    if lam < -1.0:
        return -1.0
    return lam


def slip_angles(v_x: float, v_y: float, r: float,
                steer: Sequence[float], p: VehicleParams,
                ) -> Tuple[float, float, float, float]:
    """Per-wheel slip angles (fl, fr, rl, rr) from body velocities, yaw rate
    and the individual steering angles, using the hub-angle geometry."""
    ra = r * p.a
    rb = r * p.b
    num_f = v_y + ra * p.cos_gf
    num_r = v_y - rb * p.cos_gr
    a_fl = steer[0] - math.atan(num_f / _reg(v_x - ra * p.sin_gf))
    a_fr = steer[1] - math.atan(num_f / _reg(v_x + ra * p.sin_gf))
    a_rl = steer[2] - math.atan(num_r / _reg(v_x - rb * p.sin_gr))
    a_rr = steer[3] - math.atan(num_r / _reg(v_x + rb * p.sin_gr))
    return a_fl, a_fr, a_rl, a_rr


def magic_formula(slip: float, b: float, c: float, e: float, peak: float) -> float:
    """force = peak * sin(c * atan(b*s - e*(b*s - atan(b*s))))."""
    bs = b * slip
    return peak * math.sin(c * math.atan(bs - e * (bs - math.atan(bs))))


def rolling_resistance(n: float, v_x: float,
                       p0: float, p1: float, p2: float) -> float:
    """Rolling-resistance torque magnitude for one wheel at normal load n."""
    ratio = v_x / 30.0
    return n * (p0 + p1 * ratio + p2 * ratio ** 4)


def wheel_frame_to_body(f_x: float, f_y: float, delta: float) -> Tuple[float, float]:
    """Rotate a tire-frame force pair into the body frame by steer angle."""
    cd = math.cos(delta)
    sd = math.sin(delta)
    return f_x * cd - f_y * sd, f_y * cd + f_x * sd

# ---------------------------------------------------------------------------
# chassis pieces


def body_accelerations(f_x_total: float, f_y_total: float, v_x: float,
                       p: VehicleParams) -> Tuple[float, float]:
    """Inertial accelerations on a level road; the relative air speed is
    taken as Vx."""
    drag = 0.5 * p.C_d * p.rho * p.A_f * v_x * v_x
    a_x = (f_x_total - drag) / p.m
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

# ---------------------------------------------------------------------------
# vector fields and the integrator


def chassis_derivative(x: Sequence[float], f_x: Sequence[float],
                       steer: Sequence[float], f_z: Sequence[float],
                       z_road: Sequence[float], lat_scale: Sequence[float],
                       p: VehicleParams) -> List[float]:
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

    a_x, a_y = body_accelerations(left_sum(fx_body), left_sum(fy_body),
                                  v_x, p)
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


def state_derivative(x: Sequence[float], u: Inputs,
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
                             p)
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
