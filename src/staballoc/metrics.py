"""Run metrics: side-slip extrema, spin classification, roll/pitch RMS and
obstacle-line clearance.  All metrics are pure functions of the log."""
from __future__ import annotations

import math
from dataclasses import dataclass
from .logio import OBSTACLE_X, RunLog

SPIN_HEADING_ERR = math.pi / 2.0  # rad
SPIN_HOLD = 0.5               # s a heading error must persist to count


@dataclass(frozen=True)
class Metrics:
    max_beta: float           # rad
    spin: bool                # sustained heading error beyond 90 deg
    diverged: bool
    rms_roll: float           # rad
    rms_pitch: float          # rad
    lateral_offset: float     # |Y| when X first crosses the obstacle line;
                              # NaN if the line is never reached


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values))


def compute_metrics(log: RunLog) -> Metrics:
    """Deterministic metrics of one run.

    The driver-intended heading is the integral of the yaw-rate reference;
    a spin is a heading error beyond SPIN_HEADING_ERR sustained for
    SPIN_HOLD seconds.
    """
    if len(log) == 0:
        raise ValueError("empty log")
    dt = log.dt
    psi_ref = 0.0
    hold_steps = max(1, int(round(SPIN_HOLD / dt)))
    run = 0
    spin = False
    for psi, r_ref in zip(log.cols["psi"], log.r_ref):
        if abs(psi - psi_ref) > SPIN_HEADING_ERR:
            run += 1
            if run >= hold_steps:
                spin = True
                break
        else:
            run = 0
        psi_ref += r_ref * dt

    lateral = float("nan")
    xs = log.cols["X"]
    ys = log.cols["Y"]
    for k in range(len(log)):
        if xs[k] >= OBSTACLE_X:
            if k == 0 or xs[k] == xs[k - 1]:
                lateral = abs(ys[k])
            else:
                f = (OBSTACLE_X - xs[k - 1]) / (xs[k] - xs[k - 1])
                lateral = abs(ys[k - 1] + f * (ys[k] - ys[k - 1]))
            break

    return Metrics(
        max_beta=max(abs(b) for b in log.cols["beta"]),
        spin=spin,
        diverged=log.diverged,
        rms_roll=_rms(log.cols["phi"]),
        rms_pitch=_rms(log.cols["theta"]),
        lateral_offset=lateral,
    )
