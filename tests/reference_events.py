"""Test oracle for the event lookups.

The harness used to rescan every event on each lookup.  `harness.
apply_faults`, `friction_scale` and `road_elevation` now read tables that
`scenario.Events` compiles once and must give the same floats bit for bit;
the scans are kept here, unchanged, so the tests can compare the two.
"""
from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from staballoc.scenario import ACTUATOR_NAMES, TIRE_SETS, Event


def apply_faults(u_commanded: np.ndarray, events: Sequence[Event],
                 t: float) -> np.ndarray:
    """Element-wise effectiveness scaling of the active fault events."""
    u = np.array(u_commanded, dtype=float)
    for ev in events:
        if ev.kind == "effectiveness" and t >= ev.time:
            u[ACTUATOR_NAMES.index(ev.target)] *= ev.factor
    return u


def friction_scale(events: Sequence[Event], t: float,
                   ) -> Tuple[float, float, float, float]:
    """Per-tire lateral friction multipliers from the active events."""
    scale = [1.0, 1.0, 1.0, 1.0]
    for ev in events:
        if ev.kind == "friction" and t >= ev.time:
            for i in TIRE_SETS[ev.target]:
                scale[i] *= ev.factor
    return tuple(scale)


def road_elevation(events: Sequence[Event], t: float,
                   ) -> Tuple[float, float, float, float]:
    """Road elevation steps [m] accumulated from the active events."""
    z = [0.0, 0.0, 0.0, 0.0]
    for ev in events:
        if ev.kind == "elevation" and t >= ev.time:
            for i in TIRE_SETS[ev.target]:
                z[i] += ev.factor
    return tuple(z)
