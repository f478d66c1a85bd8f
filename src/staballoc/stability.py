"""Linear closed-loop stability check.

The virtual-control loop is assembled in state space around the linearized
plant x' = A x + B_v v: there is one integrator state per integrand whose
channels have a nonzero integral gain, as in ControllerState (the side-slip
integral feeds two channels, the lateral force and the yaw moment), the
derivative terms act on the roll/pitch rate states directly, and the
longitudinal force feedback
F = m*ax closes through an algebraic loop that is solved exactly.  The
verdict is the largest real part over the eigenvalues of the assembled
matrix.

A is the state matrix of a 17-state control model, taken by central
differences over the plant's chassis core.  It drops the wheel-spin
states: wheel torque acts directly as the traction force T/R_w
(quasi-static torque balance).  B_v maps the five efforts onto the state
rows.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .controllers import Gains
from .params import VehicleParams
from .plant import ZERO4, bind, normal_forces

N_X = 17
N_U = 12

FD_STEP = 1.0e-6  # central-difference step, relative to max(1, |x0_j|)

# control-state indices
IX_VY, IX_R, IX_PHI, IX_PHID, IX_THETA, IX_THETAD = 1, 2, 5, 6, 7, 8


def reduced_derivative(x: Sequence[float], u: Sequence[float],
                       p: VehicleParams) -> np.ndarray:
    """Control-oriented vector field on the 17 states.

    Wheels are eliminated quasi-statically: the traction force of wheel i is
    T_i/R_w, with rolling resistance deliberately left unmodeled here (the
    closed loop treats it as a disturbance).  Lateral forces use the full
    tire curve at the slip angles implied by the state at the 12-entry
    actuator vector u, on a flat road with unit friction scales.
    """
    plant = bind(p)
    f_x = [t / p.R_w for t in u[4:8]]
    normals = normal_forces((x[9], x[11], x[13], x[15]), ZERO4, p)
    _, _, ci = plant.step_inputs(u, ZERO4, (1.0, 1.0, 1.0, 1.0))
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
    b_v = np.zeros((N_X, 5))
    b_v[0, 0] = 1.0 / p.m
    b_v[1, 1] = 1.0 / p.m
    b_v[2, 2] = 1.0 / p.I_z
    b_v[6, 3] = 1.0 / p.I_x
    b_v[8, 4] = 1.0 / p.I_y
    return b_v


def closed_loop_matrix(g: Gains, v0: float, p: VehicleParams) -> np.ndarray:
    """Closed-loop matrix over the 17 plant states plus one state per
    integrand whose channels have a nonzero integral gain; the beta state
    feeds channel 1 with -ki_fy and channel 2 with ki_beta_mz."""
    a = linearize(p, v0)
    b_v = build_bv(p)
    n = a.shape[0]

    beta_row = np.zeros(n)
    beta_row[IX_VY] = 1.0 / v0
    r_row = np.zeros(n)
    r_row[IX_R] = 1.0

    # longitudinal force output: a static drag map of the speed state plus
    # a unit feedthrough of v1 (F would otherwise be m times the same model
    # row that drives Vx, leaving the force integrator linearly dependent
    # on the speed state).  The proportional part of channel 1 closes an
    # algebraic loop: v1 (1 + kp_f) = -kp_f (force_row x) + ki_f qF
    den = 1.0 + g.kp_f
    force_row = np.zeros(n)
    force_row[0] = p.rho * p.C_d * p.A_f * v0

    g_x = np.zeros((5, n))
    g_x[0, :] = -g.kp_f * force_row / den
    g_x[1, :] = -g.kp_fy * beta_row
    g_x[2, :] = -g.kp_mz * r_row + g.kp_beta_mz * beta_row
    g_x[3, IX_PHI] = -g.kp_roll
    g_x[3, IX_PHID] = -g.kd_roll
    g_x[4, IX_THETA] = -g.kp_pitch
    g_x[4, IX_THETAD] = -g.kd_pitch

    # integrators: (integrand on x, integrand on v, {channel: gain on v_c})
    unit = np.eye(n)
    specs = [(-force_row, np.array([-1.0, 0, 0, 0, 0]), {0: g.ki_f / den}),
             (beta_row, 0.0, {1: -g.ki_fy, 2: g.ki_beta_mz}),
             (-r_row, 0.0, {2: g.ki_mz}),
             (unit[IX_PHI], 0.0, {3: -g.ki_roll}),
             (unit[IX_THETA], 0.0, {4: -g.ki_pitch})]
    specs = [spec for spec in specs if any(spec[2].values())]

    n_q = len(specs)
    g_q = np.zeros((5, n_q))
    q_x = np.zeros((n_q, n))
    q_v = np.zeros((n_q, 5))
    for j, (x_row, v_row, chan_gains) in enumerate(specs):
        q_x[j, :] = x_row
        q_v[j, :] = v_row
        for chan, gain in chan_gains.items():
            g_q[chan, j] = gain

    a_cl = np.zeros((n + n_q, n + n_q))
    a_cl[:n, :n] = a + b_v @ g_x
    a_cl[:n, n:] = b_v @ g_q
    a_cl[n:, :n] = q_x + q_v @ g_x
    a_cl[n:, n:] = q_v @ g_q
    return a_cl


def max_closed_loop_eig(g: Gains, v0: float, p: VehicleParams) -> float:
    """Largest real part of the closed-loop eigenvalues; negative means the
    loop is internally stable at this operating speed."""
    a_cl = closed_loop_matrix(g, v0, p)
    eig = np.linalg.eigvals(a_cl)
    if not np.all(np.isfinite(eig)):
        raise ArithmeticError("closed-loop assembly produced non-finite "
                              "eigenvalues")
    return float(np.max(eig.real))
