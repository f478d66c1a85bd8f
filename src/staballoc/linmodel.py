"""Allocation-oriented linear model and the exact factorization of its
input matrix.

The 17-state control model drops the wheel-spin states: wheel torque is
treated as a direct traction force T/R_w (quasi-static torque balance), so
the input matrix has the nonzero sensitivities the allocator needs.  A run
uses four pieces of it: the state matrix A at straight cruising and the
effort-to-state map B_v (both for the closed-loop stability check), the
constant factor B_l, and the diagonal B_n(t), which carries all time
dependence (normal loads and steering angles).  Moment-arm signs in B_l
are taken from the yaw, roll and pitch equations of the plant, so the
effort map B_y(t) = B_l * B_n(t) holds exactly.  B_n(t) is formed every
step, in plain floats, by controllers.build_bn; this module holds the
array code.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .params import VehicleParams
from .plant import ZERO4, Inputs, bind, normal_forces

N_X = 17
N_U = 12
N_V = 5

FD_STEP = 1.0e-6  # central-difference step, relative to max(1, |x0_j|)


def reduced_derivative(x: Sequence[float], u: Sequence[float],
                       p: VehicleParams) -> np.ndarray:
    """Control-oriented vector field on the 17 states.

    Wheels are eliminated quasi-statically: the traction force of wheel i is
    T_i/R_w, with rolling resistance deliberately left unmodeled here (the
    closed loop treats it as a disturbance).  Lateral forces use the full
    tire curve at the slip angles implied by the state; the road is flat
    with nominal friction, as the Inputs defaults have it.
    """
    plant = bind(p)
    f_x = [t / p.R_w for t in u[4:8]]
    normals = normal_forces((x[9], x[11], x[13], x[15]), ZERO4, p)
    _, _, ci = plant.step_inputs(Inputs(u[0:4], u[4:8], u[8:12]))
    return np.array(plant.chassis(x, f_x, normals, ci))


def linearize(p: VehicleParams, v0: float) -> np.ndarray:
    """State matrix A (17 x 17) of the control-oriented model, by central
    differences at straight driving with speed v0, zero inputs and static
    normal loads."""
    if v0 <= 0.0:
        raise ValueError("v0 must be positive")
    x0 = np.zeros(N_X)
    x0[0] = v0
    u0 = np.zeros(N_U)

    a = np.zeros((N_X, N_X))
    for j in range(N_X):
        h = FD_STEP * max(1.0, abs(x0[j]))
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += h
        xm[j] -= h
        a[:, j] = (reduced_derivative(xp, u0, p)
                   - reduced_derivative(xm, u0, p)) / (2.0 * h)
    return a


def build_bv(p: VehicleParams) -> np.ndarray:
    """Map the 5 generalized efforts [F, Fy, Mz, Mx, My] onto the state rows
    (Vx', Vy', r', phid', thetad') with the inverse inertias."""
    b_v = np.zeros((N_X, N_V))
    b_v[0, 0] = 1.0 / p.m
    b_v[1, 1] = 1.0 / p.m
    b_v[2, 2] = 1.0 / p.I_z
    b_v[6, 3] = 1.0 / p.I_x
    b_v[8, 4] = 1.0 / p.I_y
    return b_v


def build_bl(p: VehicleParams, c_alpha: float) -> np.ndarray:
    """Constant factor of the effort map, columns ordered as the actuator
    vector (4 steer, 4 torque, 4 suspension)."""
    a, b, w, rw, m = p.a, p.b, p.w, p.R_w, p.m
    cm4 = c_alpha * m / 4.0
    hw = 0.5 * w
    cols = [
        [0.0, cm4, a * cm4, 0.0, 0.0],       # d_fl
        [0.0, cm4, a * cm4, 0.0, 0.0],       # d_fr
        [0.0, cm4, -b * cm4, 0.0, 0.0],      # d_rl
        [0.0, cm4, -b * cm4, 0.0, 0.0],      # d_rr
        [1.0 / rw, 0.0, -hw, 0.0, 0.0],      # T_fl (left wheels: -w/2)
        [1.0 / rw, 0.0, hw, 0.0, 0.0],       # T_fr
        [1.0 / rw, 0.0, -hw, 0.0, 0.0],      # T_rl
        [1.0 / rw, 0.0, hw, 0.0, 0.0],       # T_rr
        [0.0, 0.0, 0.0, hw, -a],             # fz_fl
        [0.0, 0.0, 0.0, -hw, -a],            # fz_fr
        [0.0, 0.0, 0.0, hw, b],              # fz_rl
        [0.0, 0.0, 0.0, -hw, b],             # fz_rr
    ]
    return np.array(cols).T
