"""Workload table, seeded input generator, and the body of one pass.

Every workload is one single-threaded closed-loop client: one caller, the
next call starts when the previous one returns, no arrival rate.  The seed
is a benchmark argument; the program only ever receives scenario text.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Workload:
    why: str
    moves: Tuple[str, ...]     # layers whose per-layer metrics it should move
    ops: int                   # checked operations per pass
    first_controller: str      # controller of the pass's first run


WORKLOADS: Dict[str, Workload] = {
    "fault_run": Workload(
        why=("Reproduce-a-figure path: staballoc run --svg on the shipped "
             "actuator and suspension fault scenarios; the allocator runs "
             "every step and CSV+SVG emit is about 13% of the time."),
        moves=("allocator", "linmodel", "logio.emit_csv", "logio.emit_svg",
               "cli", "plant", "controllers"),
        ops=2, first_controller="proposed"),
    "speed_sweep": Workload(
        why=("Criterion-6 shape: bisection sweeps for baseline then proposed, "
             "10 sequential runs, 8 of them without the allocator and no "
             "emit; isolates plant and harness cost."),
        moves=("plant", "harness.runs", "metrics", "controllers.baseline"),
        ops=2, first_controller="baseline"),
    "rough_road": Workload(
        why=("Seeded road profile of 2000 elevation events under the hybrid "
             "controller; every step rescans all events, so event lookup is "
             "about half the run."),
        moves=("harness.events", "scenario.parse", "controllers.baseline",
               "allocator"),
        ops=1, first_controller="hybrid"),
}

FAULT_SCENARIOS = ("actuator_fault.scn", "suspension_fault.scn")

SWEEP_SCENARIO = "actuator_fault.scn"
SWEEP_CONTROLLERS = ("baseline", "proposed")
SWEEP_V_MIN = 10.0           # m/s, criterion 6's range
SWEEP_V_MAX = 26.0
SWEEP_SHIFT = 0.5            # seeded shift of the lower end, +-m/s
SWEEP_HALVINGS = 6           # (26-10)/2**6 = 0.25 m/s, criterion 6's resolution

ROUGH_V0 = 20.0
ROUGH_HORIZON = 10.0
ROUGH_STEPS_PER_TRACK = 500  # x 2 tracks x 2 axles = 2000 events
ROUGH_REVERSION = 0.95       # AR(1) coefficient of the track elevation
ROUGH_SIGMA = 0.003          # m, innovation of the track elevation

# The standard object-avoidance manoeuvre of the shipped scenarios.
MANOEUVRE = """\
[driver]
steer = 0:0  3:0  3.75:0.11  5.25:-0.11  6:0
pedal = 0:0
brake = 0:0  6.5:0  6.6:6000  7.5:6000  7.6:0
"""


def sweep_range(seed: int) -> Tuple[float, float, float]:
    """(v_min, v_max, resolution) of the seeded speed sweep.

    The lower end moves by up to SWEEP_SHIFT so bisection visits other
    speeds; the resolution follows the width so every seed bisects exactly
    SWEEP_HALVINGS times and a pass always makes the same number of runs.
    """
    v_min = SWEEP_V_MIN + random.Random(seed).uniform(-SWEEP_SHIFT,
                                                      SWEEP_SHIFT)
    resolution = (SWEEP_V_MAX - v_min) / 2 ** SWEEP_HALVINGS * 1.01
    return v_min, SWEEP_V_MAX, resolution


def rough_road_text(seed: int, wheelbase: float) -> Tuple[str, int]:
    """Scenario text of the seeded rough road and its number of events.

    Each track (left, right) is an AR(1) elevation profile: Gaussian steps
    of about ROUGH_SIGMA that revert to zero.  The front wheel meets each
    step on an even time grid and the rear wheel of the same track meets it
    wheelbase / v0 later, all within the horizon.
    """
    rng = random.Random(seed)
    delay = wheelbase / ROUGH_V0
    spacing = (ROUGH_HORIZON - delay) / (ROUGH_STEPS_PER_TRACK + 1)
    rows: List[Tuple[float, str, float]] = []
    for front, rear in (("fl", "rl"), ("fr", "rr")):
        z = 0.0
        for k in range(1, ROUGH_STEPS_PER_TRACK + 1):
            z_next = ROUGH_REVERSION * z + rng.gauss(0.0, ROUGH_SIGMA)
            dz = round(z_next - z, 6)
            z = z_next
            t = k * spacing
            rows.append((round(t, 6), front, dz))
            rows.append((round(t + delay, 6), rear, dz))
    rows.sort(key=lambda r: r[0])
    lines = [
        "# Seeded rough road: AR(1) elevation steps on both tracks,",
        f"# seed {seed}, {len(rows)} events.",
        "[scenario]",
        "name = rough_road",
        f"v0 = {ROUGH_V0}",
        f"horizon = {ROUGH_HORIZON}",
        "dt = 0.001",
        "controller = hybrid",
        "",
        MANOEUVRE,
        "[events]",
    ]
    lines += [f"{t:.6f} elevation {target} {dz:.6f}" for t, target, dz in rows]
    return "\n".join(lines) + "\n", len(rows)

