"""Test oracle for the driver profiles.

`controllers.PiecewiseLinear` used to scan its breakpoint pairs on every
call; it now finds the segment with one bisect over its breakpoint times
and must give the same floats bit for bit.  The scan is kept here,
unchanged, so the tests can compare the two.
"""
from __future__ import annotations

from typing import Sequence, Tuple


def profile_value(pts: Sequence[Tuple[float, float]], t: float) -> float:
    """The value of the time-sorted breakpoints pts at t, by a scan for the
    first segment with t0 <= t <= t1."""
    if t <= pts[0][0]:
        return pts[0][1]
    if t >= pts[-1][0]:
        return pts[-1][1]
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t0 <= t <= t1:
            if t1 == t0:
                return v1
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return pts[-1][1]
