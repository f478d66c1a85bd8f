"""Plant outputs and run metrics that do not depend on the builtin sum().

From Python 3.12 on, sum() of floats compensates its rounding, so a sum()
in the plant or the metrics would make the logs and metrics differ between
interpreters.  Both modules add their floats with explicit additions from
0.0, left to right, which is what Python 3.11's sum() computes.  With sum
shadowed by math.fsum, the correctly rounded sum, in the namespaces of
both modules, no bit of their results may change.
"""
import math
import random

from plant_state import Inputs
from staballoc import metrics, plant
from staballoc.harness import run_scenario
from staballoc.metrics import compute_metrics
from staballoc.params import VehicleParams
from staballoc.scenario import parse_scenario

SCALES = (40.0, 5.0, 1.5, 0.05, 1.0, 0.2, 2.0, 0.1, 1.0,
          0.02, 2.0, 0.02, 2.0, 0.02, 2.0, 0.02, 2.0,
          150.0, 150.0, 150.0, 150.0, 500.0, 500.0, 7.0)

# one second of a baseline lane change, so roll and pitch are not zero
LANE_CHANGE = """
[scenario]
name = lane_change
v0 = 20
horizon = 1.0
dt = 0.001
controller = baseline

[driver]
steer = 0:0  0.2:0.05  0.6:-0.05  0.9:0
brake = 0.5:0  0.6:3000
"""


def seeded_derivatives():
    p = VehicleParams()
    rng = random.Random(2027)
    out = []
    for _ in range(500):
        x = [rng.uniform(-s, s) for s in SCALES]
        u = Inputs(steer=tuple(rng.uniform(-0.5, 0.5) for _ in range(4)),
                   torque=tuple(rng.uniform(-1500, 1500) for _ in range(4)),
                   f_z=tuple(rng.uniform(-5000, 5000) for _ in range(4)),
                   z_road=tuple(rng.uniform(-0.03, 0.03) for _ in range(4)),
                   lat_scale=tuple(rng.uniform(0.05, 1.0) for _ in range(4)))
        out += [v.hex() for v in plant.bind(p).derivative(x, u.terms(p))]
    return out


def metric_hexes(log):
    m = compute_metrics(log)
    return [m.max_beta.hex(), m.rms_roll.hex(), m.rms_pitch.hex(),
            m.lateral_offset.hex()]


def shadow_sum(monkeypatch):
    """From here on, sum is math.fsum in the plant and metrics modules."""
    for module in (plant, metrics):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)


def test_derivative_does_not_use_sum(monkeypatch):
    expected = seeded_derivatives()
    shadow_sum(monkeypatch)
    assert seeded_derivatives() == expected


def test_metrics_do_not_use_sum(monkeypatch):
    log = run_scenario(parse_scenario(LANE_CHANGE))
    expected = metric_hexes(log)
    assert float.fromhex(expected[1]) > 0.0    # rms_roll
    shadow_sum(monkeypatch)
    assert metric_hexes(log) == expected
