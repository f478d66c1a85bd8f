import dataclasses
from pathlib import Path

import pytest
import staballoc
from staballoc import harness, plant
from staballoc.scenario import load_scenario

from perfbench.tracing import LayerTrace, Tracer, step_percentiles_us

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_a_nested_call_tree():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        tr.wrap("leaf", leaf)(2.0)
        tr.wrap("leaf", leaf)(0.5)

    def root():
        clock.now += 3.0
        tr.wrap("middle", middle)()
        clock.now += 4.0
        tr.wrap("leaf", leaf)(1.5)

    tr.wrap("root", root)()
    assert tr.total_s("root") == pytest.approx(12.0)
    assert tr.self_s("root") == pytest.approx(7.0)
    assert tr.total_s("middle") == pytest.approx(3.5)
    assert tr.self_s("middle") == pytest.approx(1.0)
    assert tr.calls("leaf") == 3
    assert tr.self_s("leaf") == pytest.approx(4.0)
    assert tr.calls("absent") == 0 and tr.self_s("absent") == 0.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError

    with pytest.raises(ValueError):
        tr.wrap("outer", lambda: tr.wrap("boom", boom)())()
    assert tr.calls("outer") == tr.calls("boom") == 1
    assert tr.self_s("outer") == pytest.approx(0.0)


def test_step_percentiles():
    assert step_percentiles_us([]) == (0.0, 0.0)
    p50, p99 = step_percentiles_us([i * 1e-6 for i in range(1, 1001)])
    assert p50 == pytest.approx(500.5)
    assert 985 < p99 < 995


@pytest.mark.parametrize("controller", ["proposed", "hybrid"])
def test_exact_counters_on_a_short_run(controller):
    scn = load_scenario(SCENARIOS / "actuator_fault.scn")
    scn = dataclasses.replace(scn, horizon=0.05)
    originals = (plant.state_derivative, harness.measure, harness.run_scenario)
    layers = LayerTrace(Tracer())
    layers.install(staballoc)
    try:
        log = harness.run_scenario(scn, controller=controller)
    finally:
        layers.restore()
    assert (plant.state_derivative, harness.measure,
            harness.run_scenario) == originals
    m = layers.metrics()
    assert m["harness.steps"] == len(log) == 50
    assert m["plant.state_derivative.calls"] == 5 * m["harness.steps"]
    assert m["plant.step_rk4.calls"] == m["allocator.step.calls"] == 50
    assert m["harness.events.calls"] == 3 * 50 + 2
    assert m["harness.events.scanned"] == len(scn.events) * (3 * 50 + 2)
    assert m["harness.runs"] == 1
    assert layers.counter_failures() == []
    if controller == "hybrid":
        assert m["controllers.baseline.self_s"] > 0.0
