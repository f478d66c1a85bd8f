"""Adaptive control allocation.

The allocator maintains a parameter matrix theta mapping the 5-entry
virtual control v onto the 12-entry intermediate command u_bar, and an
auxiliary state xi integrating the mismatch between the realized net
efforts and v.  Its reference model xi_m' = A_m xi_m has no input and
starts at zero, so xi_m stays zero and the tracking error is xi itself.
theta is adjusted online with a Lyapunov-based law under an entrywise box
projection, so the realized efforts converge to v without identifying
which actuators lost effectiveness.  The allocated command is
u = B_n(t)^-1 u_bar; the harness adds the driver's front steering to it.

The effort map factors exactly as B_y(t) = B_l B_n(t).  The constant B_l
(build_bl) takes its moment-arm signs from the plant's yaw, roll and
pitch equations; the diagonal B_n(t) carries all time dependence (normal
loads and steering angles).  The settings (AllocatorConfig) and the
per-step inputs (the diagonal of B_n and the IMU net efforts) are plain
floats from controllers.py, so only the allocator modes import this
module and NumPy.

Effort channels are pre-scaled to order one (forces and moments are in the
kN range) so a single scalar adaptation rate is meaningful.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .controllers import AllocatorConfig, bn_is_invertible
from .params import VehicleParams


def solve_lyapunov(a_m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A_m^T P + P A_m = -Q for symmetric positive definite P.

    Small dense problem; solved exactly through the Kronecker form.
    Raises ValueError if A_m is not Hurwitz or Q is not symmetric positive
    definite.
    """
    a_m = np.asarray(a_m, dtype=float)
    q = np.asarray(q, dtype=float)
    n = a_m.shape[0]
    if a_m.shape != (n, n) or q.shape != (n, n):
        raise ValueError("A_m and Q must be square and of equal size")
    if np.max(np.linalg.eigvals(a_m).real) >= 0.0:
        raise ValueError("A_m must be Hurwitz")
    if not np.allclose(q, q.T) or np.min(np.linalg.eigvalsh(q)) <= 0.0:
        raise ValueError("Q must be symmetric positive definite")
    eye = np.eye(n)
    k = np.kron(eye, a_m.T) + np.kron(a_m.T, eye)
    p = np.linalg.solve(k, -q.reshape(n * n)).reshape(n, n)
    return 0.5 * (p + p.T)


def init_theta(b_l: np.ndarray) -> np.ndarray:
    """Minimum-norm right inverse of the effort map: B_l @ theta0 = I.

    Rejects rank-deficient maps.
    """
    b_l = np.asarray(b_l, dtype=float)
    if np.linalg.matrix_rank(b_l) < b_l.shape[0]:
        raise ValueError("effort map must have full row rank")
    return np.linalg.pinv(b_l)


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


def project_rate(theta: np.ndarray, q: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Entrywise box projection of the update direction, taken and
    returned negated (q = -raw).

    Outward-pointing components are scaled down linearly inside a boundary
    layer of width eps = margin*(hi-lo) and vanish at the box edge.  theta
    lies in [lo, hi], so the room to the bound is never negative; where q
    is +-0 every finite scale keeps its signed zero.
    """
    room = np.where(q < 0.0, hi - theta, theta - lo)
    return q * np.minimum(room / eps, 1.0)


@dataclass
class StepResult:
    u: np.ndarray           # allocated command B_n^-1 u_bar (read only)
    u_bar: np.ndarray       # intermediate command, B_n-space
    residual: float         # |realized - v| in scaled effort units
    bn_ok: bool             # False when B_n was not invertible


class AdaptiveAllocator:
    """Owns theta, xi and P for one simulation instance.

    Works for any effort-map shape (n_v x n_u); the vehicle uses 5 x 12.
    Internally both sides of the map are normalized: efforts by v_scale and
    each actuator channel by the norm of its effort-map column, so theta and
    its update rates are order one on every entry.  The effectiveness matrix
    is diagonal and therefore commutes with the channel scaling, which keeps
    the adaptation law's stability structure intact.
    """

    def __init__(self, b_l: np.ndarray, config: AllocatorConfig):
        self.cfg = config
        b_l = np.asarray(b_l, dtype=float)
        self.n_v, self.n_u = b_l.shape
        col_norms = np.linalg.norm(b_l, axis=0)
        if np.min(col_norms) <= 0.0:
            raise ValueError("effort map has an all-zero column")
        self.u_scale = self.cfg.v_scale / col_norms
        self.b_hat = b_l * (self.u_scale / self.cfg.v_scale)  # unit columns
        self.a_m = -self.cfg.am_scale * np.eye(self.n_v)
        self.p = solve_lyapunov(self.a_m, np.eye(self.n_v))
        self.theta = init_theta(self.b_hat)           # n_u x n_v
        half = self.cfg.theta_bound_factor * np.abs(self.theta)
        half[half == 0.0] = self.cfg.theta_bound_floor
        self.lo = self.theta - half
        self.hi = self.theta + half
        self.eps = self.cfg.proj_margin * (self.hi - self.lo)
        self.xi = np.zeros(self.n_v)
        self.prev_u_ca = np.zeros(self.n_u)
        self.bn_failures = 0

    def step(self, v: Sequence[float], realized: Sequence[float],
             bn_diag: Sequence[float], dt: float) -> StepResult:
        """One explicit-Euler update of the adaptation and the allocation.

        v and realized are in physical effort units; bn_diag is the current
        diagonal of B_n.  Each is any sequence of floats; the harness
        passes a list and two tuples.  When B_n is not invertible the
        previous allocation is held and the result is flagged.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        s = self.cfg.v_scale
        v_s = np.divide(v, s)
        r_s = np.divide(realized, s)

        # q = -raw, so theta + dt*gamma*(projected raw) is theta minus that
        q = np.multiply.outer(self.b_hat.T @ (self.p @ self.xi), v_s)
        q = project_rate(self.theta, q, self.lo, self.hi, self.eps)
        theta = self.theta - dt * (self.cfg.gamma * q)
        self.theta = np.minimum(np.maximum(theta, self.lo), self.hi)

        self.xi = self.xi + dt * (self.a_m @ self.xi + r_s - v_s)

        u_bar = self.u_scale * (self.theta @ v_s)
        bn_ok = bn_is_invertible(bn_diag)
        if bn_ok:
            self.prev_u_ca = u_bar / bn_diag
        else:
            self.bn_failures += 1
        d = r_s - v_s
        return StepResult(u=self.prev_u_ca, u_bar=u_bar,
                          residual=math.sqrt(d.dot(d)), bn_ok=bn_ok)
