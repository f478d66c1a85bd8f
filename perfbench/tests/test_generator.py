from staballoc.params import VehicleParams
from staballoc.scenario import parse_scenario

from perfbench.workloads import (ROUGH_STEPS_PER_TRACK, ROUGH_V0,
                                 SWEEP_HALVINGS, rough_road_text, sweep_range)

WHEELBASE = VehicleParams().L


def test_rough_road_is_deterministic_per_seed():
    assert rough_road_text(7, WHEELBASE) == rough_road_text(7, WHEELBASE)


def test_rough_road_differs_across_seeds():
    texts = {rough_road_text(s, WHEELBASE)[0] for s in range(1, 6)}
    assert len(texts) == 5


def test_rough_road_parses_with_rear_delay():
    text, n = rough_road_text(3, WHEELBASE)
    scn = parse_scenario(text)
    assert n == len(scn.events) == 4 * ROUGH_STEPS_PER_TRACK
    assert scn.controller == "hybrid"
    assert all(e.kind == "elevation" for e in scn.events)
    assert max(e.time for e in scn.events) < scn.horizon
    front = [e for e in scn.events if e.target == "fl"]
    rear = [e for e in scn.events if e.target == "rl"]
    for f, r in zip(front, rear):
        assert r.factor == f.factor
        assert abs(r.time - f.time - WHEELBASE / ROUGH_V0) < 2e-6
    steps = [abs(e.factor) for e in scn.events]
    assert 0.001 < sum(steps) / len(steps) < 0.006


def test_sweep_range_is_seeded_and_bisects_a_fixed_number_of_times():
    assert sweep_range(4) == sweep_range(4)
    lows = {sweep_range(s)[0] for s in range(1, 11)}
    assert len(lows) == 10
    for s in range(1, 11):
        v_min, v_max, res = sweep_range(s)
        assert 9.5 <= v_min <= 10.5
        width, halvings = v_max - v_min, 0
        while width > res:
            width /= 2
            halvings += 1
        assert halvings == SWEEP_HALVINGS
