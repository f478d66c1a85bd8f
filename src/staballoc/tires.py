"""Slip denominator floor.

All slip denominators are floored at ``V_EPS`` (sign preserving) so the
slip ratio, the slip angles and the measured side slip stay finite at
standstill and at locked/spinning wheels.  The tire force curve and the
rolling resistance are written out inside ``plant.state_derivative`` and
``plant.chassis_derivative``.
"""
from __future__ import annotations

V_EPS = 0.1  # m/s, slip denominator floor


def _reg(x: float) -> float:
    """Sign-preserving denominator floor; zero maps to +V_EPS."""
    if x >= 0.0:
        return x if x > V_EPS else V_EPS
    return x if x < -V_EPS else -V_EPS
