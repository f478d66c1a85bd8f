"""Linear closed-loop stability check.

The virtual-control loop is assembled in state space around the linearized
plant x' = A x + B_v v: each PI/PID channel with a nonzero integral gain
contributes one integrator state (the yaw channel can carry both a
yaw-rate and a side-slip integrator), the derivative terms act on the
roll/pitch rate states directly, and the longitudinal force feedback
F = m*ax closes through an algebraic loop that is solved exactly.  The
verdict is the largest real part over the eigenvalues of the assembled
matrix.
"""
from __future__ import annotations

import numpy as np

from .controllers import Gains
from .linmodel import build_bv, linearize
from .params import VehicleParams

# control-state indices
IX_VY, IX_R, IX_PHI, IX_PHID, IX_THETA, IX_THETAD = 1, 2, 5, 6, 7, 8


def closed_loop_matrix(g: Gains, v0: float, p: VehicleParams) -> np.ndarray:
    """Closed-loop matrix over the 17 plant states plus one state per
    active controller integrator."""
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

    # integrators: (integrand on x, integrand on v, channel, gain on v_c);
    # only channels with a nonzero integral gain carry a state
    specs = []
    if g.ki_f != 0.0:
        specs.append((-force_row, np.array([-1.0, 0, 0, 0, 0]),
                      0, g.ki_f / den))
    if g.ki_fy != 0.0:
        specs.append((beta_row, np.zeros(5), 1, -g.ki_fy))
    if g.ki_mz != 0.0:
        specs.append((-r_row, np.zeros(5), 2, g.ki_mz))
    if g.ki_beta_mz != 0.0:
        specs.append((beta_row, np.zeros(5), 2, g.ki_beta_mz))
    if g.ki_roll != 0.0:
        row = np.zeros(n)
        row[IX_PHI] = 1.0
        specs.append((row, np.zeros(5), 3, -g.ki_roll))
    if g.ki_pitch != 0.0:
        row = np.zeros(n)
        row[IX_THETA] = 1.0
        specs.append((row, np.zeros(5), 4, -g.ki_pitch))

    n_q = len(specs)
    g_q = np.zeros((5, n_q))
    q_x = np.zeros((n_q, n))
    q_v = np.zeros((n_q, 5))
    for j, (x_row, v_row, chan, gain) in enumerate(specs):
        g_q[chan, j] = gain
        q_x[j, :] = x_row
        q_v[j, :] = v_row

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
