"""Test oracle for the allocator step.

`AdaptiveAllocator.step` used to form the projected update with two
`np.clip` calls and a nested `np.where` and allocated a new array for every
intermediate.  It now makes fewer, in-place NumPy calls and must give the
same floats bit for bit; the old step, its projection and its B_n check are
kept here, unchanged, so the tests can compare the two.
"""
from __future__ import annotations

import numpy as np

from staballoc.allocator import AdaptiveAllocator, StepResult
from staballoc.controllers import BN_EPS


def project_rate(theta: np.ndarray, raw: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray,
                 margin: float) -> np.ndarray:
    """Entrywise box projection of the update direction.

    Outward-pointing components are scaled down linearly inside a boundary
    layer of width margin*(hi-lo) and vanish at the box edge.
    """
    eps = margin * (hi - lo)
    up = np.clip((hi - theta) / eps, 0.0, 1.0)
    dn = np.clip((theta - lo) / eps, 0.0, 1.0)
    scale = np.where(raw > 0.0, up, np.where(raw < 0.0, dn, 1.0))
    return raw * scale


def bn_is_invertible(bn_diag: np.ndarray) -> bool:
    """True when every diagonal entry of B_n is bounded away from zero."""
    return bool(np.min(np.abs(bn_diag)) > BN_EPS)


class ReferenceAllocator(AdaptiveAllocator):
    """The allocator with the old step, which still carries the reference
    state xi_m and forms the error as xi - xi_m."""

    def __init__(self, b_l: np.ndarray, config) -> None:
        super().__init__(b_l, config)
        self.xi_m = np.zeros(self.n_v)

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
        v_s = np.asarray(v, dtype=float) / s
        r_s = np.asarray(realized, dtype=float) / s

        e = self.xi - self.xi_m
        raw = -np.outer(self.b_hat.T @ (self.p @ e), v_s)
        rate = self.cfg.gamma * project_rate(self.theta, raw,
                                             self.lo, self.hi,
                                             self.cfg.proj_margin)
        self.theta = np.clip(self.theta + dt * rate, self.lo, self.hi)

        self.xi = self.xi + dt * (self.a_m @ self.xi + r_s - v_s)
        self.xi_m = self.xi_m + dt * (self.a_m @ self.xi_m)

        u_bar = self.u_scale * (self.theta @ v_s)
        bn = np.asarray(bn_diag, dtype=float)
        bn_ok = bn_is_invertible(bn)
        if bn_ok:
            self.prev_u_ca = u_bar / bn
        else:
            self.bn_failures += 1
        residual = float(np.linalg.norm(r_s - v_s))
        return StepResult(u=self.prev_u_ca, u_bar=u_bar, residual=residual,
                          bn_ok=bn_ok)
