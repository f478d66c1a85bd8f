"""Test oracles for the linear model and the adaptive allocator.

`build_by` writes the time-varying effort map B_y(t) out column by column,
straight from the yaw, roll and pitch arms of the plant, so the tests can
check B_y(t) == B_l @ diag(B_n(t)) against an independent construction.
`linear_model` adds the input matrix B_u and the residual D to the state
matrix that `staballoc.stability.linearize` returns, and `theta_star` and
`lyapunov_value` evaluate the allocator's adaptation law for a known
effectiveness diagonal.  A run needs none of them.
"""
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from staballoc.allocator import AdaptiveAllocator, init_theta
from staballoc.controllers import C_ALPHA_DEFAULT
from staballoc.params import VehicleParams
from staballoc.stability import FD_STEP, N_U, N_X, linearize, \
    reduced_derivative

# rows of the control state corresponding to heave and unsprung elevations;
# actuator sensitivities on these rows are zeroed so every input acts as a
# pure force/moment generator on (Vx, Vy, r, phi, theta)
ZEROED_ROWS = (3, 4, 9, 10, 11, 12, 13, 14, 15, 16)


def build_by(steer: Sequence[float], normals: Sequence[float],
             p: VehicleParams, c_alpha: float = C_ALPHA_DEFAULT) -> np.ndarray:
    """Time-varying effort map, columns written out explicitly.

    Steering columns generate lateral force c_alpha*N*cos(d) with yaw arm
    +a (front) / -b (rear); torque columns generate traction cos(d)/R_w
    with yaw arm -w/2 (left) / +w/2 (right); suspension columns generate
    roll/pitch moments with arms +-w/2 and -a / +b.
    """
    a, b, w, rw = p.a, p.b, p.w, p.R_w
    hw = 0.5 * w
    cd = [math.cos(s) for s in steer]
    cn = [c_alpha * normals[i] * cd[i] for i in range(4)]
    cols = [
        [0.0, cn[0], a * cn[0], 0.0, 0.0],
        [0.0, cn[1], a * cn[1], 0.0, 0.0],
        [0.0, cn[2], -b * cn[2], 0.0, 0.0],
        [0.0, cn[3], -b * cn[3], 0.0, 0.0],
        [cd[0] / rw, 0.0, -hw * cd[0], 0.0, 0.0],
        [cd[1] / rw, 0.0, hw * cd[1], 0.0, 0.0],
        [cd[2] / rw, 0.0, -hw * cd[2], 0.0, 0.0],
        [cd[3] / rw, 0.0, hw * cd[3], 0.0, 0.0],
        [0.0, 0.0, 0.0, hw, -a],
        [0.0, 0.0, 0.0, -hw, -a],
        [0.0, 0.0, 0.0, hw, b],
        [0.0, 0.0, 0.0, -hw, b],
    ]
    return np.array(cols).T


@dataclass(frozen=True)
class LinearModel:
    """x' = A x + B_u u + D around straight cruising.

    A and D are held at the operating point; B_u is the input matrix at the
    operating point with heave and unsprung rows zeroed.  D is the vector
    field residual f(x0, 0), in deviation coordinates.
    """
    a: np.ndarray       # 17 x 17
    b_u: np.ndarray     # 17 x 12
    d: np.ndarray       # 17


def linear_model(p: VehicleParams, v0: float) -> LinearModel:
    """A from `linearize`, and B_u by central differences in each input at
    straight driving with speed v0, zero steering and static normal loads."""
    a = linearize(p, v0)
    x0 = np.zeros(N_X)
    x0[0] = v0
    u0 = np.zeros(N_U)

    b_u = np.zeros((N_X, N_U))
    for j in range(N_U):
        h = FD_STEP
        up = u0.copy()
        um = u0.copy()
        up[j] += h
        um[j] -= h
        b_u[:, j] = (reduced_derivative(x0, up, p)
                     - reduced_derivative(x0, um, p)) / (2.0 * h)
    b_u[list(ZEROED_ROWS), :] = 0.0

    d = reduced_derivative(x0, u0, p)
    return LinearModel(a=a, b_u=b_u, d=d)


def build_d(v0: float, p: VehicleParams) -> np.ndarray:
    """Constant disturbance efforts at the linearization speed."""
    q = 0.5 * v0 * v0 * p.rho * p.C_d * p.A_f
    return np.array([q, 0.0, 0.0, -q, 0.0])


def theta_star(al: AdaptiveAllocator, lam: np.ndarray) -> np.ndarray:
    """Minimum-norm ideal parameters for a known effectiveness diagonal,
    in the allocator's normalized coordinates."""
    return init_theta(al.b_hat * np.asarray(lam))


def lyapunov_value(al: AdaptiveAllocator, lam: np.ndarray,
                   th_star: np.ndarray) -> float:
    """e'P e + tr(theta_err' Lambda theta_err)/gamma for a known Lambda."""
    e = al.xi
    err = al.theta - th_star
    weighted = np.asarray(lam)[:, None] * err
    return float(e @ al.p @ e + np.trace(err.T @ weighted) / al.cfg.gamma)
