"""Compiled event schedules against the event-by-event scan.

`reference_events` keeps the scans the harness used before the events were
compiled; the lookups must agree with them bit for bit, on single lookups
and through a whole closed-loop run.
"""
import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_events as ref
from staballoc import harness
from staballoc.controllers import DriverInput, PiecewiseLinear
from staballoc.logio import emit_csv
from staballoc.scenario import (ACTUATOR_NAMES, TIRE_SETS, ConfigError,
                                Event, Events, Scenario, parse_scenario)

DT = 0.001
# decimal-written event times on the step grid (k * DT differs from some
# of them in the last bit) tie often; free times land between steps
GRID_TIMES = st.integers(0, 40).map(lambda k: round(k * DT, 6))
TIMES = st.one_of(GRID_TIMES, st.floats(0.0, 0.05))
# products and sums of these round differently when regrouped:
# (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3), 3 * 0.1 * 0.3 != 3 * (0.1 * 0.3)
FACTORS = st.one_of(st.sampled_from((0.1, 0.3, 0.7, 0.9)),
                    st.floats(0.0, 1.0, exclude_min=True))
ELEVATIONS = st.one_of(st.sampled_from((0.1, 0.2, 0.3, -1.0, 1.0, 1e-16)),
                       st.floats(-1.0, 1.0))
U_VALUES = st.one_of(st.sampled_from((3.0, 7.0, -0.0)),
                     st.floats(-1.0e3, 1.0e3))


@st.composite
def event(draw):
    kind = draw(st.sampled_from(("effectiveness", "friction", "elevation")))
    if kind == "effectiveness":
        target, factor = draw(st.sampled_from(ACTUATOR_NAMES)), draw(FACTORS)
    else:
        target = draw(st.sampled_from(sorted(TIRE_SETS)))
        factor = draw(FACTORS if kind == "friction" else ELEVATIONS)
    return Event(draw(TIMES), kind, target, factor)


def event_lists():
    return st.lists(event(), max_size=24).map(
        lambda evs: sorted(evs, key=lambda e: e.time))


def probe_times(events):
    """Before, at, between and after the event times, and the step grid."""
    times = sorted({e.time for e in events})
    ts = [-1.0, 1.0] + [k * DT for k in range(45)] + times
    ts += [0.5 * (a + b) for a, b in zip(times, times[1:])]
    ts += [math.nextafter(x, -math.inf) for x in times]
    return ts


def hexes(values):
    return [float.hex(float(v)) for v in values]


class TestAgainstScan:
    @settings(max_examples=300, deadline=None)
    @given(events=event_lists(),
           u=st.lists(U_VALUES, min_size=12, max_size=12))
    # T_rr is scaled by 0.1 then 0.3: 3 * 0.1 * 0.3 != 3 * (0.1 * 0.3)
    @example(events=[Event(0.0, "effectiveness", "T_rr", 0.1),
                     Event(0.002, "friction", "right", 0.9),
                     Event(0.002, "elevation", "fl", 0.1),
                     Event(0.002, "elevation", "left", 0.2),
                     Event(0.003, "effectiveness", "T_rr", 0.3),
                     Event(0.003, "friction", "rr", 0.7),
                     Event(0.003, "friction", "all", 0.3),
                     Event(0.004, "elevation", "fl", 0.3)],
             u=[3.0] * 12)
    def test_lookups_match_the_scan_bit_for_bit(self, events, u):
        compiled = Events(events)
        for t in probe_times(events):
            assert hexes(harness.apply_faults(u, compiled, t)) == \
                hexes(ref.apply_faults(u, events, t)), t
            assert hexes(harness.friction_scale(compiled, t)) == \
                hexes(ref.friction_scale(events, t)), t
            assert hexes(harness.road_elevation(compiled, t)) == \
                hexes(ref.road_elevation(events, t)), t


def scenario(events):
    driver = DriverInput(steer=PiecewiseLinear(((0.0, 0.0),)),
                         pedal=PiecewiseLinear(((0.0, 0.0),)),
                         brake=PiecewiseLinear(((0.0, 0.0),)))
    return Scenario(name="s", v0=20.0, horizon=1.0, dt=DT, driver=driver,
                    events=events)


class TestTimeOrder:
    UNSORTED = (Event(0.5, "friction", "all", 0.9),
                Event(0.4, "elevation", "fl", 0.01))

    def test_unsorted_scenario_rejected(self):
        with pytest.raises(ConfigError, match="time order"):
            scenario(self.UNSORTED)

    def test_unsorted_replacement_rejected(self):
        scn = scenario(())
        with pytest.raises(ConfigError, match="time order"):
            dataclasses.replace(scn, events=self.UNSORTED)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(ConfigError, match="finite"):
            scenario((Event(time, "friction", "all", 0.9),))

    @pytest.mark.parametrize("row", [(0.1, "gust", "all", 1.0),
                                     (0.1, "effectiveness", "fl", 0.5),
                                     (0.1, "friction", "T_fl", 0.5)])
    def test_unknown_kind_or_target_rejected(self, row):
        with pytest.raises(ConfigError, match="unknown"):
            scenario((Event(*row),))

    @pytest.mark.parametrize("kind, target, factor", [
        ("friction", "all", 5.0), ("friction", "all", 0.0),
        ("friction", "left", math.nan), ("effectiveness", "T_fl", 0.0),
        ("effectiveness", "T_fl", -1.0), ("effectiveness", "d_rr", 1.5),
        ("effectiveness", "T_rr", math.nan), ("elevation", "fl", math.nan),
        ("elevation", "all", math.inf)])
    def test_factor_out_of_range_rejected(self, kind, target, factor):
        with pytest.raises(ConfigError, match=kind):
            scenario((Event(0.1, kind, target, factor),))

    def test_unsorted_file_rejected(self):
        text = ("[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n[events]\n"
                "0.5 friction all 0.9\n0.4 elevation fl 0.01\n")
        with pytest.raises(ConfigError, match="time order"):
            parse_scenario(text)


def rough_road(seed, n_elevation=300, horizon=0.5):
    """Scenario text: seeded elevation steps on every tire set, a few
    friction changes and two faults on one actuator."""
    rng = random.Random(seed)
    last = horizon - DT
    rows = [(round(rng.uniform(0.0, last), 6), "elevation",
             rng.choice(sorted(TIRE_SETS)), round(rng.gauss(0.0, 0.002), 6))
            for _ in range(n_elevation)]
    rows += [(round(rng.uniform(0.0, last), 6), "friction",
              rng.choice(sorted(TIRE_SETS)), round(rng.uniform(0.6, 1.0), 6))
             for _ in range(6)]
    rows += [(0.1, "effectiveness", "T_rr", 0.3),
             (0.2, "effectiveness", "T_rr", 0.1),
             (0.25, "effectiveness", "d_fl", 0.7)]
    rows.sort(key=lambda r: r[0])
    lines = ["[scenario]", "name = rough", "v0 = 20.0",
             f"horizon = {horizon}", f"dt = {DT}", "controller = hybrid",
             "[driver]", "steer = 0:0  0.1:0  0.4:0.05", "[events]"]
    lines += [f"{t!r} {kind} {target} {factor!r}"
              for t, kind, target, factor in rows]
    return "\n".join(lines) + "\n"


class TestClosedLoop:
    def test_csv_bytes_equal_with_the_scan(self, tmp_path, monkeypatch):
        scn = parse_scenario(rough_road(seed=7))
        assert sum(e.kind == "elevation" for e in scn.events) == 300
        log = harness.run_scenario(scn)
        assert len(log) == 500 and not log.diverged
        compiled = emit_csv(log, tmp_path / "compiled.csv").read_bytes()
        # the oracle returns an array; the harness passes the plant floats
        monkeypatch.setattr(harness, "apply_faults",
                            lambda *a: ref.apply_faults(*a).tolist())
        for name in ("friction_scale", "road_elevation"):
            monkeypatch.setattr(harness, name, getattr(ref, name))
        scanned = emit_csv(harness.run_scenario(scn),
                           tmp_path / "scanned.csv").read_bytes()
        assert compiled == scanned

    def test_events_compiled_once_per_scenario(self):
        scn = parse_scenario(rough_road(seed=1, n_elevation=20))
        assert isinstance(scn.events, Events)
        assert dataclasses.replace(scn, v0=12.0).events is scn.events
        assert dataclasses.replace(scn, horizon=2.0).events is scn.events
