"""Test oracle for the input-matrix factorization.

`build_by` writes the time-varying effort map B_y(t) out column by column,
straight from the yaw, roll and pitch arms of the plant, so the tests can
check B_y(t) == B_l @ diag(B_n(t)) against an independent construction.
"""
import math
from typing import Sequence

import numpy as np

from staballoc.linmodel import C_ALPHA_DEFAULT
from staballoc.params import VehicleParams


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
