"""Nonlinear 14-DOF vehicle plant.

Degrees of freedom: body translation (Vx, Vy) and heave, body rotation
(roll, pitch, yaw), four wheel spins and four unsprung elevations.  The
vertical states are deviations from static equilibrium, so gravity does not
appear explicitly and the static tire loads enter through a constant
preload in :func:`normal_forces`.  The road is level: it has no grade, only
elevation steps under the tires.

Frame: x forward, y left, z up.  Pitch is positive nose-down, roll is
positive left-side-up; yaw is positive counter-clockwise seen from above.
Inertial pose (X, Y, psi) is carried along for trajectory logging.  A step
takes an Inputs tuple or the input-only terms bind(p).step_inputs formed
of it (step_rk4); state_derivative takes the terms only.
"""
from __future__ import annotations

import math
from math import atan, cos, sin
from typing import (Callable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .params import VehicleParams

# the 12-entry actuator vector and its envelope, which the harness applies
# once per step with clip_u
ACTUATOR_NAMES = ("d_fl", "d_fr", "d_rl", "d_rr",
                  "T_fl", "T_fr", "T_rl", "T_rr",
                  "fz_fl", "fz_fr", "fz_rl", "fz_rr")
STEER_LIMIT = math.radians(30.0)   # rad
TORQUE_LIMIT = 1500.0              # N m
SUSPENSION_LIMIT = 5000.0          # N
U_LIMITS = (STEER_LIMIT,) * 4 + (TORQUE_LIMIT,) * 4 + (SUSPENSION_LIMIT,) * 4

BLOW_UP_LIMIT = 1.0e6  # any |state entry| beyond this marks the run diverged

V_EPS = 0.1  # m/s, slip denominator floor

# the plant state is a flat list of 24 floats in this order; the first 17
# entries form the control-oriented state
STATE_NAMES = (
    "Vx", "Vy", "r", "z", "zd", "phi", "phid", "theta", "thetad",
    "z_ufl", "zd_ufl", "z_ufr", "zd_ufr", "z_url", "zd_url", "z_urr", "zd_urr",
    "w_fl", "w_fr", "w_rl", "w_rr", "X", "Y", "psi",
)

ZERO4 = (0.0, 0.0, 0.0, 0.0)


class Inputs(NamedTuple):
    """Actuator and environment inputs, four per-wheel values each (fl, fr,
    rl, rr), held constant over one step.  The actuator entries are taken
    as given: the harness clamps them to the envelope (steering +-30 deg,
    wheel torque +-1500 N m, suspension force +-5000 N) once, by clip_u."""
    steer: Sequence[float] = ZERO4
    torque: Sequence[float] = ZERO4
    f_z: Sequence[float] = ZERO4
    z_road: Sequence[float] = ZERO4
    lat_scale: Sequence[float] = (1.0, 1.0, 1.0, 1.0)


class PlantDiverged(ArithmeticError):
    """A step left the plant state non-finite or beyond BLOW_UP_LIMIT; the
    message names the first such entry in STATE_NAMES order, e.g. Vy=inf."""


def _reg(x: float) -> float:
    """Sign-preserving denominator floor at V_EPS (zero maps to +V_EPS), so
    slip and side slip stay finite at standstill and at locked wheels."""
    if x >= 0.0:
        return x if x > V_EPS else V_EPS
    return x if x < -V_EPS else -V_EPS


def clip(x: float, lim: float) -> float:
    """Clamp x to [-lim, lim]; NaN passes through, as with numpy.clip."""
    if x > lim:
        return lim
    if x < -lim:
        return -lim
    return x


def clip_u(u: Sequence[float]) -> List[float]:
    """The 12-entry actuator vector clamped to the physical envelope."""
    return [clip(x, lim) for x, lim in zip(u, U_LIMITS)]


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


class Plant(NamedTuple):
    """The plant equations of one VehicleParams, its constants bound as
    closure locals; bind(p) makes it.

    step_inputs(u) forms the input-only terms once per step, as a tuple
    (torque, z_road, ci); chassis(x, f_x, normals, ci) and derivative(x,
    si) then evaluate the 17 control-oriented and the full 24 derivatives
    at any number of states.
    """
    step_inputs: Callable[[Inputs], tuple]
    chassis: Callable[..., List[float]]
    derivative: Callable[..., List[float]]


def _make_plant(p: VehicleParams) -> Plant:
    # every constant the equations read, read once from p
    a, b, m, mu = p.a, p.b, p.m, p.mu
    cos_gf, sin_gf, cos_gr, sin_gr = p.cos_gf, p.sin_gf, p.cos_gr, p.sin_gr
    B1, C1, E1, B2, C2, E2 = p.B1, p.C1, p.E1, p.B2, p.C2, p.E2
    R_w, I_w, I_x, I_y, I_z, h = p.R_w, p.I_w, p.I_x, p.I_y, p.I_z, p.h
    p0, p1, p2 = p.p0, p.p1, p.p2
    ksf, csf, ksr, csr = p.k_sf, p.c_sf, p.k_sr, p.c_sr
    k_uf, k_ur, m_uf, m_ur = p.k_uf, p.k_ur, p.m_uf, p.m_ur
    n_front, n_rear = p.N_front_static, p.N_rear_static
    eps, meps = V_EPS, -V_EPS
    # the products and sums of the equations, formed once here with the
    # operands in the order the logs are pinned to bit for bit
    hw = 0.5 * p.w                                      # half track
    drag_k = 0.5 * p.C_d * p.rho * p.A_f
    k_heave, c_heave = 2.0 * ksf + 2.0 * ksr, 2.0 * csf + 2.0 * csr
    k_hp = 2.0 * a * ksf - 2.0 * b * ksr                # heave-pitch
    c_hp = 2.0 * a * csf - 2.0 * b * csr
    k_pitch = 2.0 * a * a * ksf + 2.0 * b * b * ksr
    c_pitch = 2.0 * a * a * csf + 2.0 * b * b * csr
    k_roll, c_roll = hw * hw * k_heave, hw * hw * c_heave
    a_ksf, a_csf, b_ksr, b_csr = a * ksf, a * csf, b * ksr, b * csr
    hw_ksf, hw_csf, hw_ksr, hw_csr = hw * ksf, hw * csf, hw * ksr, hw * csr
    k_tf, k_tr = ksf + k_uf, ksr + k_ur                 # suspension + tire

    def step_inputs(u: Inputs) -> tuple:
        """The input-only terms at the inputs u: the torques and road
        steps, and for the chassis ci, the steer angles with their cos and
        sin, the lateral friction scales, the suspension forces with their
        pitch and roll moments, and the road steps times the tire
        springs."""
        steer, torque, f_z, z_road, lat_scale = u
        d0, d1, d2, d3 = steer
        fz0, fz1, fz2, fz3 = f_z
        zr0, zr1, zr2, zr3 = z_road
        ls0, ls1, ls2, ls3 = lat_scale
        return torque, z_road, (
            d0, d1, d2, d3, cos(d0), sin(d0), cos(d1), sin(d1),
            cos(d2), sin(d2), cos(d3), sin(d3), ls0, ls1, ls2, ls3,
            fz0, fz1, fz2, fz3, a * (fz0 + fz1), b * (fz2 + fz3),
            hw * (fz0 - fz1 + fz2 - fz3),
            k_uf * zr0, k_uf * zr1, k_ur * zr2, k_ur * zr3)

    def chassis(x: Sequence[float], f_x: Sequence[float],
                normals: Sequence[float], ci: tuple) -> List[float]:
        """Derivatives of the 17 control-oriented states.

        The tire-frame longitudinal forces f_x and the normal loads are
        given, the inputs as step_inputs formed them; lateral forces
        follow from the tire curve at the slip angles of the state
        (hub-angle geometry), its peak mu*N scaled per tire by lat_scale.
        Suspension forces follow from the body corner elevations
        z -/+ a,b*sin(theta) +/- w/2*sin(phi); load transfer enters as
        -m*a_x*h on pitch and -m*a_y*h on roll; the air speed is taken as
        Vx.  Straight-line on purpose: it is the plant's hot path, and
        every sum and product keeps the operand order the logs are pinned
        to bit for bit; each slip denominator is floored at V_EPS as _reg
        does it.
        """
        (v_x, v_y, r, z, zd, phi, phid, theta, thetad,
         zu0, zud0, zu1, zud1, zu2, zud2, zu3, zud3, *_) = x
        fx0, fx1, fx2, fx3 = f_x
        n0, n1, n2, n3 = normals
        (d0, d1, d2, d3, cd0, sd0, cd1, sd1, cd2, sd2, cd3, sd3,
         ls0, ls1, ls2, ls3, fz0, fz1, fz2, fz3, a_fz, b_fz, hw_fz,
         kzr0, kzr1, kzr2, kzr3) = ci

        # lateral tire forces: magic formula at slip angle d - atan(num/den)
        ra, rb = r * a, r * b
        num_f, num_r = v_y + ra * cos_gf, v_y - rb * cos_gr
        sf, sr = ra * sin_gf, rb * sin_gr
        den = v_x - sf
        den = den if den > eps or den < meps else eps if den >= 0.0 else meps
        bs = B2 * (d0 - atan(num_f / den))
        fy0 = mu * n0 * ls0 * sin(C2 * atan(bs - E2 * (bs - atan(bs))))
        den = v_x + sf
        den = den if den > eps or den < meps else eps if den >= 0.0 else meps
        bs = B2 * (d1 - atan(num_f / den))
        fy1 = mu * n1 * ls1 * sin(C2 * atan(bs - E2 * (bs - atan(bs))))
        den = v_x - sr
        den = den if den > eps or den < meps else eps if den >= 0.0 else meps
        bs = B2 * (d2 - atan(num_r / den))
        fy2 = mu * n2 * ls2 * sin(C2 * atan(bs - E2 * (bs - atan(bs))))
        den = v_x + sr
        den = den if den > eps or den < meps else eps if den >= 0.0 else meps
        bs = B2 * (d3 - atan(num_r / den))
        fy3 = mu * n3 * ls3 * sin(C2 * atan(bs - E2 * (bs - atan(bs))))

        # tire frame -> body frame
        fxb0, fyb0 = fx0 * cd0 - fy0 * sd0, fy0 * cd0 + fx0 * sd0
        fxb1, fyb1 = fx1 * cd1 - fy1 * sd1, fy1 * cd1 + fx1 * sd1
        fxb2, fyb2 = fx2 * cd2 - fy2 * sd2, fy2 * cd2 + fx2 * sd2
        fxb3, fyb3 = fx3 * cd3 - fy3 * sd3, fy3 * cd3 + fx3 * sd3

        a_x = (sum((fxb0, fxb1, fxb2, fxb3)) - drag_k * v_x * v_x) / m
        a_y = sum((fyb0, fyb1, fyb2, fyb3)) / m
        rdot = (hw * (fxb1 + fxb3 - fxb0 - fxb2) + a * (fyb0 + fyb1)
                - b * (fyb2 + fyb3)) / I_z

        # heave, pitch, roll and the four unsprung masses
        sth, cth = sin(theta), cos(theta)
        sph, cph = sin(phi), cos(phi)
        zu_f, zud_f, zu_r, zud_r = zu0 + zu1, zud0 + zud1, zu2 + zu3, \
            zud2 + zud3

        zdd = (-k_heave * z - c_heave * zd + k_hp * sth
               + c_hp * thetad * cth + ksf * zu_f + csf * zud_f
               + ksr * zu_r + csr * zud_r + fz0 + fz1 + fz2 + fz3) / m
        thetadd = (k_hp * z + c_hp * zd - k_pitch * sth
                   - c_pitch * thetad * cth - a_ksf * zu_f - a_csf * zud_f
                   + b_ksr * zu_r + b_csr * zud_r - m * a_x * h
                   - a_fz + b_fz) / I_y
        phidd = (-k_roll * sph - c_roll * phid * cph
                 + hw * (ksf * (zu0 - zu1) + csf * (zud0 - zud1))
                 + hw * (ksr * (zu2 - zu3) + csr * (zud2 - zud3))
                 - m * a_y * h + hw_fz) / I_x

        front = ksf * z + csf * zd - a_ksf * sth - a_csf * thetad * cth
        rear = ksr * z + csr * zd + b_ksr * sth + b_csr * thetad * cth
        roll_f, rolld_f = hw_ksf * sph, hw_csf * phid * cph
        roll_r, rolld_r = hw_ksr * sph, hw_csr * phid * cph
        zudd0 = (front + roll_f + rolld_f - k_tf * zu0 - csf * zud0
                 + kzr0 - fz0) / m_uf
        zudd1 = (front - roll_f - rolld_f - k_tf * zu1 - csf * zud1
                 + kzr1 - fz1) / m_uf
        zudd2 = (rear + roll_r + rolld_r - k_tr * zu2 - csr * zud2
                 + kzr2 - fz2) / m_ur
        zudd3 = (rear - roll_r - rolld_r - k_tr * zu3 - csr * zud3
                 + kzr3 - fz3) / m_ur

        return [a_x + r * v_y,      # Vx' (body frame rotating at r)
                a_y - r * v_x,      # Vy'
                rdot, zd, zdd, phid, phidd, thetad, thetadd,
                zud0, zudd0, zud1, zudd1, zud2, zudd2, zud3, zudd3]

    def derivative(x: Sequence[float], si: tuple) -> List[float]:
        """Full state derivative at the inputs step_inputs formed; see
        state_derivative."""
        (v_x, v_y, r, _, _, _, _, _, _, zu0, _, zu1, _, zu2, _, zu3, _,
         w0, w1, w2, w3, _, _, psi) = x
        (t0, t1, t2, t3), (zr0, zr1, zr2, zr3), ci = si
        n0 = n_front - k_uf * (zu0 - zr0)
        n1 = n_front - k_uf * (zu1 - zr1)
        n2 = n_rear - k_ur * (zu2 - zr2)
        n3 = n_rear - k_ur * (zu3 - zr3)
        n0 = n0 if n0 > 0.0 else 0.0
        n1 = n1 if n1 > 0.0 else 0.0
        n2 = n2 if n2 > 0.0 else 0.0
        n3 = n3 if n3 > 0.0 else 0.0
        ratio = v_x / 30.0
        rr = p0 + p1 * ratio + p2 * ratio ** 4
        v_den = v_x if v_x > eps or v_x < meps else eps if v_x >= 0.0 \
            else meps

        wr = w0 * R_w
        den = (wr if wr > eps or wr < meps else eps if wr >= 0.0 else meps) \
            if wr >= v_x else v_den
        lam = (wr - v_x) / den
        bs = B1 * (1.0 if lam > 1.0 else -1.0 if lam < -1.0 else lam)
        fx0 = mu * n0 * sin(C1 * atan(bs - E1 * (bs - atan(bs))))
        sgn = 1.0 if w0 > 0.0 else -1.0 if w0 < 0.0 else 0.0
        wd0 = (t0 - n0 * rr * sgn - fx0 * R_w) / I_w
        wr = w1 * R_w
        den = (wr if wr > eps or wr < meps else eps if wr >= 0.0 else meps) \
            if wr >= v_x else v_den
        lam = (wr - v_x) / den
        bs = B1 * (1.0 if lam > 1.0 else -1.0 if lam < -1.0 else lam)
        fx1 = mu * n1 * sin(C1 * atan(bs - E1 * (bs - atan(bs))))
        sgn = 1.0 if w1 > 0.0 else -1.0 if w1 < 0.0 else 0.0
        wd1 = (t1 - n1 * rr * sgn - fx1 * R_w) / I_w
        wr = w2 * R_w
        den = (wr if wr > eps or wr < meps else eps if wr >= 0.0 else meps) \
            if wr >= v_x else v_den
        lam = (wr - v_x) / den
        bs = B1 * (1.0 if lam > 1.0 else -1.0 if lam < -1.0 else lam)
        fx2 = mu * n2 * sin(C1 * atan(bs - E1 * (bs - atan(bs))))
        sgn = 1.0 if w2 > 0.0 else -1.0 if w2 < 0.0 else 0.0
        wd2 = (t2 - n2 * rr * sgn - fx2 * R_w) / I_w
        wr = w3 * R_w
        den = (wr if wr > eps or wr < meps else eps if wr >= 0.0 else meps) \
            if wr >= v_x else v_den
        lam = (wr - v_x) / den
        bs = B1 * (1.0 if lam > 1.0 else -1.0 if lam < -1.0 else lam)
        fx3 = mu * n3 * sin(C1 * atan(bs - E1 * (bs - atan(bs))))
        sgn = 1.0 if w3 > 0.0 else -1.0 if w3 < 0.0 else 0.0
        wd3 = (t3 - n3 * rr * sgn - fx3 * R_w) / I_w

        out = chassis(x, (fx0, fx1, fx2, fx3), (n0, n1, n2, n3), ci)
        cpsi, spsi = cos(psi), sin(psi)
        out += (wd0, wd1, wd2, wd3,
                v_x * cpsi - v_y * spsi,   # X'
                v_x * spsi + v_y * cpsi,   # Y'
                r)                         # psi'
        return out

    return Plant(step_inputs, chassis, derivative)


def bind(p: VehicleParams) -> Plant:
    """The plant equations of p, made on the first call and kept on p
    (VehicleParams is frozen), so a run builds them once."""
    plant = p._plant
    if plant is None:
        plant = _make_plant(p)
        object.__setattr__(p, "_plant", plant)
    return plant


def state_derivative(x: Sequence[float], si: tuple,
                     p: VehicleParams) -> List[float]:
    """Full state derivative; pure and deterministic in its arguments.

    si is the terms bind(p).step_inputs formed of the step's Inputs, which
    step_rk4 forms once for its four stages.

    Wheel i: slip ratio lam = (w*Rw - Vx) / (w*Rw if w*Rw >= Vx else Vx),
    the denominator floored at V_EPS and lam clamped to [-1, 1]; the tire
    curve gives f_x = mu*N*sin(C*atan(B*lam - E*(B*lam - atan(B*lam))));
    the spin balance is I_w*w' = T - sgn(w)*N*rr(Vx) - f_x*R_w with the
    rolling-resistance coefficient rr = p0 + p1*Vx/30 + p2*(Vx/30)^4.
    """
    return bind(p).derivative(x, si)


def _diverged(x: Sequence[float]) -> Optional[PlantDiverged]:
    """PlantDiverged naming the first entry of x that is non-finite or
    beyond BLOW_UP_LIMIT, or None if there is none."""
    for name, value in zip(STATE_NAMES, x):
        if not -BLOW_UP_LIMIT <= value <= BLOW_UP_LIMIT:
            return PlantDiverged(f"{name}={value!r}")
    return None


def step_rk4(x: List[float], u: Union[Inputs, tuple], p: VehicleParams,
             dt: float) -> List[float]:
    """Advance the state list one fixed step with the inputs held constant
    (zero-order hold).

    u is the Inputs, or the terms bind(p).step_inputs formed of them: the
    closed loop forms them once per step and hands them to its next
    measurement too.  It is the one entry of the plant that takes either.

    Raises PlantDiverged, never silently clamps, when any entry of the
    result is non-finite or exceeds the blow-up bound, and also when a
    stage raises OverflowError or ValueError at an input or stage state
    with such an entry; any other error propagates unchanged.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    # classical RK4; the input-only terms are formed at most once for the
    # four stages, and each stage looks state_derivative up as a global
    h = 0.5 * dt
    stage = x
    try:
        si = bind(p).step_inputs(u) if type(u) is Inputs else u
        k1 = state_derivative(x, si, p)
        stage = [xi + h * ki for xi, ki in zip(x, k1)]
        k2 = state_derivative(stage, si, p)
        stage = [xi + h * ki for xi, ki in zip(x, k2)]
        k3 = state_derivative(stage, si, p)
        stage = [xi + dt * ki for xi, ki in zip(x, k3)]
        k4 = state_derivative(stage, si, p)
    except (OverflowError, ValueError) as exc:
        diverged = _diverged(x) or _diverged(stage)
        if diverged is None:
            raise
        raise diverged from exc
    s = dt / 6.0
    nxt = [xi + s * (a + 2.0 * (b + c) + d)
           for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
    # a finite sum means every entry is finite (inf or NaN would propagate)
    if not (math.isfinite(sum(nxt))
            and -BLOW_UP_LIMIT <= min(nxt) and max(nxt) <= BLOW_UP_LIMIT):
        raise _diverged(nxt)
    return nxt
