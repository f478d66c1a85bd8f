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

Effort channels are pre-scaled to order one (forces and moments are in the
kN range) so a single scalar adaptation rate is meaningful.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linmodel import C_ALPHA_DEFAULT, bn_is_invertible
from .params import ConfigError, VehicleParams


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
                     "theta_bound_floor", "c_alpha"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"allocator {name} must be positive and "
                                  f"finite, not {value!r}")
        if not 0.0 < self.proj_margin < 1.0:
            raise ConfigError(f"allocator proj_margin must be in (0, 1), "
                              f"not {self.proj_margin!r}")


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

    def step(self, v: np.ndarray, realized: np.ndarray,
             bn_diag: np.ndarray, dt: float) -> StepResult:
        """One explicit-Euler update of the adaptation and the allocation.

        v and realized are in physical effort units; bn_diag is the current
        diagonal of B_n.  When B_n is not invertible the previous allocation
        is held and the result is flagged.
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


def measured_net(a_x: float, a_y: float, yaw_acc: float, roll_acc: float,
                 pitch_acc: float, v_x: float, p: VehicleParams) -> np.ndarray:
    """Net actuator-generated efforts reconstructed from IMU accelerations.

    Known non-actuator contributions are removed: drag is added back on the
    longitudinal channel and the load-transfer moments are compensated out
    of the roll and pitch channels, so at rest the result is the zero
    vector.
    """
    drag = 0.5 * p.rho * p.C_d * p.A_f * v_x * v_x
    return np.array([
        p.m * a_x + drag,
        p.m * a_y,
        p.I_z * yaw_acc,
        p.I_x * roll_acc + p.m * a_y * p.h,
        p.I_y * pitch_acc + p.m * a_x * p.h,
    ])
