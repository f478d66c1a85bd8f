import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from staballoc.cli import main as cli_main
from staballoc.controllers import C_ALPHA_RANGE, AllocatorConfig, Gains
from staballoc.params import VehicleParams
from staballoc.plant import BLOW_UP_LIMIT
from staballoc.scenario import (EVENT_TARGETS, MAX_NAME_BYTES, ConfigError,
                                Event, Scenario, load_scenario,
                                parse_scenario)

GOOD = """
# a comment
[scenario]
name = demo
v0 = 15.0
horizon = 2.0
dt = 0.001
controller = baseline

[driver]
steer = 0:0 1:0.05
pedal = 0:200
brake = 0:0

[events]
0.5  effectiveness  T_rr  0.5
1.0  friction       right 0.8

[gains]
kp_mz = 12345

[allocator]
gamma = 777
"""


class TestParsing:
    def test_full_round_trip(self):
        scn = parse_scenario(GOOD)
        assert scn.name == "demo"
        assert scn.v0 == 15.0
        assert scn.controller == "baseline"
        assert scn.n_steps == 2000
        assert scn.driver.steer(0.5) == pytest.approx(0.025)
        assert scn.driver.force_ref(0.0) == 200.0
        assert scn.events == (
            Event(0.5, "effectiveness", "T_rr", 0.5),
            Event(1.0, "friction", "right", 0.8),
        )
        assert scn.gains == Gains(kp_mz=12345.0)
        assert scn.allocator == AllocatorConfig(gamma=777.0)

    def test_defaults(self):
        scn = parse_scenario(
            "[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n")
        assert scn.controller == "proposed"
        assert scn.driver.steer(5.0) == 0.0
        assert scn.events == ()
        assert scn.gains == Gains()
        assert scn.allocator == AllocatorConfig()

    def test_with_speed_override(self):
        scn = dataclasses.replace(parse_scenario(GOOD), v0=22.0)
        assert scn.v0 == 22.0
        assert scn.name == "demo"

    def test_shipped_files_parse(self, scenario_dir):
        names = {"low_speed", "high_speed", "varying_road",
                 "actuator_fault", "suspension_fault"}
        found = {load_scenario(path).name
                 for path in scenario_dir.glob("*.scn")}
        assert names <= found

    def test_missing_file_is_config_error(self, scenario_dir):
        with pytest.raises(ConfigError):
            load_scenario(scenario_dir / "does_not_exist.scn")


class TestValidation:
    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            parse_scenario("[scenario]\nv0 = 10\nhorizon = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_scenario("[nonsense]\nx = 1\n")

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ConfigError):
            parse_scenario("[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.3\n")

    @pytest.mark.parametrize("dt, horizon", [
        ("0", "1"), ("-0.001", "1"), ("nan", "1"), ("inf", "1"),
        ("0.001", "inf"), ("0.001", "0"), ("2", "1")])
    def test_non_finite_or_oversized_step_rejected(self, dt, horizon):
        with pytest.raises(ConfigError):
            parse_scenario(f"[scenario]\nv0 = 10\nhorizon = {horizon}\n"
                           f"dt = {dt}\n")

    def test_events_must_be_sorted(self):
        text = ("[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n"
                "[events]\n2.0 friction all 0.9\n1.0 friction all 0.8\n")
        with pytest.raises(ConfigError):
            parse_scenario(text)

    def test_effectiveness_factor_range(self):
        text = ("[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n"
                "[events]\n0.5 effectiveness T_fl 1.5\n")
        with pytest.raises(ConfigError):
            parse_scenario(text)
        text = text.replace("1.5", "0.0")
        with pytest.raises(ConfigError):
            parse_scenario(text)

    def test_unknown_actuator(self):
        text = ("[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n"
                "[events]\n0.5 effectiveness T_xx 0.5\n")
        with pytest.raises(ConfigError):
            parse_scenario(text)

    def test_unknown_controller(self):
        with pytest.raises(ConfigError):
            parse_scenario("[scenario]\nv0 = 10\nhorizon = 1\n"
                           "dt = 0.001\ncontroller = magic\n")

    def test_bad_profile_token(self):
        text = ("[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n"
                "[driver]\nsteer = nonsense\n")
        with pytest.raises(ConfigError):
            parse_scenario(text)

    def test_content_before_section(self):
        with pytest.raises(ConfigError):
            parse_scenario("v0 = 10\n")

    @pytest.mark.parametrize("section", [
        "[gains]\nkp_bogus = 1\n", "[allocator]\nq = 1\n",
        "[gains]\nkp_mz = fast\n", "[gains]\nv_max_f = -13000\n",
        "[allocator]\ngamma = -5000\n"])
    def test_bad_setting_rejected_at_parse(self, section):
        with pytest.raises(ConfigError):
            parse_scenario("[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n"
                           + section)


class TestUnknownKeys:
    """A misspelt key is never dropped: `contoller` used to run the
    default controller and `stear` to run without steering."""
    HEAD = "[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n"

    @pytest.mark.parametrize("text, section, names", [
        (HEAD + "contoller = baseline\n", "scenario", ["contoller"]),
        (HEAD + "speed = 3\nv_0 = 4\n", "scenario", ["speed", "v_0"]),
        (HEAD + "[driver]\nstear = 0:0 0.5:0.1\n", "driver", ["stear"]),
        (HEAD + "[driver]\nsteer = 0:0\nthrottle = 0:100\n", "driver",
         ["throttle"])])
    def test_unknown_key_names_its_section(self, text, section, names):
        with pytest.raises(ConfigError) as err:
            parse_scenario(text)
        assert str(err.value) == f"unknown [{section}] names: {names}"

    @pytest.mark.parametrize("tail", ["contoller = baseline\n",
                                      "[driver]\nstear = 0:0 0.5:0.1\n"])
    def test_unknown_key_is_a_cli_config_error(self, tmp_path, capsys, tail):
        scn_file = tmp_path / "typo.scn"
        scn_file.write_text(self.HEAD + tail)
        assert cli_main(["run", str(scn_file), "--out",
                         str(tmp_path / "out")]) == 3
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestScenarioRules:
    """The Scenario rules hold however a Scenario is built, not only when
    a file is parsed."""
    BASE = "[scenario]\nv0 = 10\nhorizon = 0.5\ndt = 0.001\n"

    @pytest.mark.parametrize("change", [
        {"v0": -5.0}, {"v0": math.nan}, {"v0": math.inf}, {"v0": 2e6},
        {"v0": BLOW_UP_LIMIT}, {"v0": 3.4e5},
        {"controller": "bogus"}, {"dt": 0.003}, {"dt": 0.0},
        {"horizon": math.nan}])
    def test_replacement_rejected(self, change):
        scn = parse_scenario(self.BASE)
        with pytest.raises(ConfigError):
            dataclasses.replace(scn, **change)

    def test_step_count_follows_a_replacement(self):
        scn = parse_scenario(self.BASE)
        assert scn.n_steps == 500
        assert dataclasses.replace(scn, horizon=2.0, dt=0.002).n_steps == 1000
        assert dataclasses.replace(scn, dt=0.0005).n_steps == 1000
        with pytest.raises(ValueError, match="n_steps"):
            dataclasses.replace(scn, n_steps=7)

    def test_speed_up_to_the_start_wheel_speed_bound_accepted(self):
        # the start state spins each wheel at v0 / R_w, which may reach
        # BLOW_UP_LIMIT but not pass it
        scn = parse_scenario(self.BASE)
        r_w = VehicleParams().R_w
        top = BLOW_UP_LIMIT * r_w
        assert top / r_w <= BLOW_UP_LIMIT
        assert dataclasses.replace(scn, v0=top).v0 == top
        above = math.nextafter(top, math.inf)
        assert above / r_w > BLOW_UP_LIMIT
        with pytest.raises(ConfigError, match="v0/R_w"):
            dataclasses.replace(scn, v0=above)


class TestScenarioName:
    """The name is the stem of every output file, f"{name}_{controller}",
    so it must name a file inside the output directory."""
    TAIL = "v0 = 10\nhorizon = 0.5\ndt = 0.001\n"
    BASE = "[scenario]\n" + TAIL
    BAD = ["../escaped", "a/b", "", "a\\b", "nul\0name", "/abs"]

    @pytest.mark.parametrize("name", BAD)
    def test_parsed_name_rejected(self, name):
        with pytest.raises(ConfigError, match="scenario name"):
            parse_scenario(f"[scenario]\nname = {name}\n" + self.TAIL)

    @pytest.mark.parametrize("name", BAD)
    def test_name_in_code_rejected(self, name):
        scn = parse_scenario(self.BASE)
        with pytest.raises(ConfigError, match="scenario name"):
            Scenario(name=name, v0=scn.v0, horizon=scn.horizon, dt=scn.dt,
                     driver=scn.driver)

    @pytest.mark.parametrize("name", BAD)
    def test_replaced_name_rejected(self, name):
        with pytest.raises(ConfigError, match="scenario name"):
            dataclasses.replace(parse_scenario(self.BASE), name=name)

    @pytest.mark.parametrize("name", ["demo", "..", "a.b c", "unnamed"])
    def test_plain_names_accepted(self, name):
        assert dataclasses.replace(parse_scenario(self.BASE),
                                   name=name).name == name

    @pytest.mark.parametrize("name", ["../escaped", "a/b", ""])
    def test_cli_writes_nothing_outside_out(self, tmp_path, capsys, name):
        work = tmp_path / "work"
        work.mkdir()
        scn_file = work / "bad.scn"
        scn_file.write_text(f"[scenario]\nname = {name}\n" + self.TAIL)
        assert cli_main(["run", str(scn_file), "--controller", "baseline",
                         "--out", str(work / "out")]) == 3
        assert "configuration error" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [scn_file]


class TestScenarioNameLength:
    """Every output file name, f"{name}_{controller}_timeseries.svg" the
    longest, must fit the 255 bytes a file system holds."""
    TAIL = "v0 = 10\nhorizon = 0.005\ndt = 0.001\n"
    # MAX_NAME_BYTES in UTF-8: ASCII, and two-byte letters
    AT = ["n" * MAX_NAME_BYTES, "ü" * (MAX_NAME_BYTES // 2) + "n"]
    OVER = ["n" * (MAX_NAME_BYTES + 1), "ü" * (MAX_NAME_BYTES // 2 + 1)]

    def run(self, tmp_path, name):
        work = tmp_path / "work"
        work.mkdir()
        scn_file = work / "long.scn"
        scn_file.write_text(f"[scenario]\nname = {name}\n" + self.TAIL,
                            encoding="utf-8")
        code = cli_main(["run", str(scn_file), "--controller", "baseline",
                         "--svg", "--out", str(work / "out")])
        return code, work / "out"

    def test_bound_leaves_room_for_the_longest_suffix(self):
        assert MAX_NAME_BYTES == 255 - len("_proposed_timeseries.svg")

    @pytest.mark.parametrize("name", AT)
    def test_name_at_the_bound_runs_and_writes_every_file(self, tmp_path,
                                                          capsys, name):
        assert len(name.encode()) == MAX_NAME_BYTES
        code, out = self.run(tmp_path, name)
        assert code == 0, capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            f"{name}_baseline{suffix}" for suffix in
            (".csv", "_timeseries.svg", "_trajectory.svg")]

    @pytest.mark.parametrize("name", OVER)
    def test_name_over_the_bound_is_config_error_and_writes_nothing(
            self, tmp_path, capsys, name):
        assert len(name.encode()) == MAX_NAME_BYTES + 1
        code, out = self.run(tmp_path, name)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("configuration error: scenario name")
        assert captured.err.count("\n") == 1 and not captured.out
        assert not out.exists()

    @pytest.mark.parametrize("name", OVER)
    def test_name_over_the_bound_in_code_rejected(self, name):
        scn = parse_scenario("[scenario]\n" + self.TAIL)
        with pytest.raises(ConfigError, match="scenario name"):
            dataclasses.replace(scn, name=name)


class TestProfileErrors:
    @pytest.mark.parametrize("channel", ["steer", "pedal", "brake"])
    @pytest.mark.parametrize("profile, reason", [
        ("1:0 0:1", "must be sorted"),
        ("", "at least one breakpoint"),
        ("0:0 1:inf", "is not finite")])
    def test_error_names_the_channel(self, channel, profile, reason):
        text = ("[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n"
                f"[driver]\n{channel} = {profile}\n")
        with pytest.raises(ConfigError, match=f"^{channel}: .*{reason}"):
            parse_scenario(text)


# ---------------------------------------------------------------------------
# round trips: a scenario written as text parses back to the same values

FINITE = st.floats(allow_nan=False, allow_infinity=False)
HORIZON = 1.0
DT = 0.001
TIMES = st.floats(0.0, HORIZON - DT)   # events fire up to the last step
UNIT = st.floats(0.0, 1.0, exclude_min=True)
GAIN_FIELDS = tuple(Gains.__dataclass_fields__)
ALLOCATOR_FIELDS = tuple(AllocatorConfig.__dataclass_fields__)


@st.composite
def profiles(draw):
    points = draw(st.lists(st.tuples(FINITE, FINITE), min_size=1,
                           max_size=6))
    return sorted(points, key=lambda tv: tv[0])


@st.composite
def events(draw):
    kind = draw(st.sampled_from(sorted(EVENT_TARGETS)))
    targets = sorted(EVENT_TARGETS[kind])
    factor = draw(FINITE if kind == "elevation" else UNIT)
    return Event(draw(TIMES), kind, draw(st.sampled_from(targets)), factor)


def gain_values(name):
    limit = name.startswith(("i_max_", "v_max_"))
    return st.floats(0.0, 1.0e9) if limit else FINITE


def allocator_values(name):
    if name == "proj_margin":
        return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    if name == "c_alpha":
        return st.floats(*C_ALPHA_RANGE)
    return st.floats(1.0e-9, 1.0e9)


@st.composite
def settings_of(draw, names, values):
    chosen = draw(st.lists(st.sampled_from(names), unique=True, max_size=6))
    return {name: draw(values(name)) for name in chosen}


@st.composite
def scenarios(draw):
    """A valid scenario as lines of text pieces and numbers."""
    evs = sorted(draw(st.lists(events(), max_size=6)), key=lambda e: e.time)
    lines = [["[scenario]"], ["v0 =", draw(st.floats(0.0, 100.0))],
             ["horizon =", HORIZON], ["dt =", DT], ["[driver]"]]
    for channel in ("steer", "pedal", "brake"):
        lines.append([f"{channel} =", *draw(profiles())])
    lines.append(["[events]"])
    lines += [[e.time, e.kind, e.target, e.factor] for e in evs]
    for section, names, values in (("gains", GAIN_FIELDS, gain_values),
                                   ("allocator", ALLOCATOR_FIELDS,
                                    allocator_values)):
        lines.append([f"[{section}]"])
        overrides = draw(settings_of(names, values))
        lines += [[f"{k} =", v] for k, v in overrides.items()]
    return lines


def numbers(lines):
    """Every number of the scenario in text order (profile points count
    as two)."""
    out = []
    for line in lines:
        for item in line:
            if isinstance(item, tuple):
                out += item
            elif isinstance(item, float):
                out.append(item)
    return out


def render(lines, bad_index=None, bad=""):
    """The scenario text; the bad_index-th number is written as `bad`."""
    count = iter(range(len(numbers(lines))))

    def num(x):
        return bad if next(count) == bad_index else repr(x)

    out = []
    for line in lines:
        out.append(" ".join(
            f"{num(item[0])}:{num(item[1])}" if isinstance(item, tuple)
            else num(item) if isinstance(item, float) else item
            for item in line))
    return "\n".join(out) + "\n"


def section_of(lines, header):
    start = lines.index([header]) + 1
    stop = next((i for i in range(start, len(lines))
                 if isinstance(lines[i][0], str)
                 and lines[i][0].startswith("[")), len(lines))
    return lines[start:stop]


def hexes(values):
    return [float.hex(v) for v in values]


class TestRepeats:
    BASE = "[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n"

    @pytest.mark.parametrize("tail, line", [
        ("v0 = 30\n", 5),
        ("[gains]\nkp_mz = 1\nkp_mz = 2\n", 7),
        ("[driver]\nsteer = 0:0\n  steer=0:0.1\n", 7),
        ("[allocator]\ngamma = 10\n# comment\n gamma = 10\n", 8)])
    def test_repeated_key_names_its_line(self, tail, line):
        with pytest.raises(ConfigError, match=f"line {line}: repeated key"):
            parse_scenario(self.BASE + tail)

    @pytest.mark.parametrize("tail, line", [
        ("[gains]\nkp_mz = 1\n[gains]\nkp_fy = 2\n", 7),
        ("[events]\n0.1 friction all 0.9\n[events]\n", 7),
        ("[ Scenario ]\n", 5),
        ("[driver]\n[allocator]\n[driver]\n", 7)])
    def test_repeated_section_names_its_line(self, tail, line):
        with pytest.raises(ConfigError,
                           match=f"line {line}: repeated section"):
            parse_scenario(self.BASE + tail)


class TestEventHorizon:
    @pytest.mark.parametrize("time", ["1.0", "1", "5.0"])
    def test_event_at_or_past_horizon_rejected(self, time):
        text = ("[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n"
                f"[events]\n0.5 friction all 0.9\n{time} friction all 0.5\n")
        with pytest.raises(ConfigError, match="never fire"):
            parse_scenario(text)

    def test_event_after_the_last_step_rejected(self):
        # the last step of 1 s at 1 ms starts at 0.999 s
        text = ("[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n"
                "[events]\n0.9995 friction all 0.5\n")
        with pytest.raises(ConfigError, match="never fire"):
            parse_scenario(text)

    def test_last_step_event_accepted(self):
        text = ("[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n"
                "[events]\n0.999 friction all 0.5\n")
        assert parse_scenario(text).events[-1].time == 0.999

    @given(lines=scenarios(), time=st.floats(HORIZON, 1.0e6),
           kind=st.sampled_from(["friction", "elevation"]))
    @settings(max_examples=60, deadline=None)
    def test_any_event_at_or_past_horizon_is_config_error(self, lines, time,
                                                          kind):
        events_end = lines.index(["[gains]"])
        lines.insert(events_end, [time, kind, "all", 0.5])
        with pytest.raises(ConfigError, match="never fire"):
            parse_scenario(render(lines))


class TestRoundTrip:
    @given(lines=scenarios())
    @settings(max_examples=60, deadline=None)
    def test_written_scenario_parses_back(self, lines):
        scn = parse_scenario(render(lines))
        assert float.hex(scn.v0) == float.hex(lines[1][1])
        for line, profile in zip(lines[5:8], (scn.driver.steer,
                                              scn.driver.pedal,
                                              scn.driver.brake)):
            written = [x for point in line[1:] for x in point]
            parsed = [x for point in profile.points for x in point]
            assert hexes(parsed) == hexes(written)
        written = section_of(lines, "[events]")
        assert [(e.kind, e.target) for e in scn.events] == \
            [(row[1], row[2]) for row in written]
        assert hexes(x for e in scn.events for x in (e.time, e.factor)) == \
            hexes(x for row in written for x in (row[0], row[3]))
        gains = {k[:-2]: v for k, v in section_of(lines, "[gains]")}
        alloc = {k[:-2]: v for k, v in section_of(lines, "[allocator]")}
        assert scn.gains == Gains(**gains)
        assert scn.allocator == AllocatorConfig(**alloc)
        for name, value in gains.items():
            assert float.hex(getattr(scn.gains, name)) == float.hex(value)

    @given(lines=scenarios(), data=st.data(),
           bad=st.sampled_from(["nan", "inf", "-inf", "NaN", "+Infinity"]))
    @settings(max_examples=80, deadline=None)
    def test_any_non_finite_number_is_config_error(self, lines, data, bad):
        index = data.draw(st.integers(0, len(numbers(lines)) - 1))
        with pytest.raises(ConfigError, match="not finite"):
            parse_scenario(render(lines, index, bad))


# an event row: a valid one, or one with a field drawn from anything.
# Times stay up to the last step: a later event is the parser's own
# "never fires" rule.
ANY_FIELD = (
    st.one_of(st.floats(-1.0, HORIZON - DT),
              st.sampled_from([-0.0, math.nan, math.inf, -math.inf])),
    st.sampled_from(sorted(EVENT_TARGETS) + ["gust"]),
    st.sampled_from(sorted({t for ts in EVENT_TARGETS.values() for t in ts})
                    + ["T_xx"]),
    st.one_of(st.floats(-2.0, 2.0), st.sampled_from(
        [0.0, 1.0, 5.0, -1.0, math.nan, math.inf, -math.inf])))


@st.composite
def event_rows(draw):
    kind = draw(st.sampled_from(sorted(EVENT_TARGETS)))
    target = draw(st.sampled_from(sorted(EVENT_TARGETS[kind])))
    row = [draw(TIMES), kind, target,
           draw(FINITE if kind == "elevation" else UNIT)]
    changed = draw(st.sampled_from((None, 0, 1, 2, 3)))
    if changed is not None:
        row[changed] = draw(ANY_FIELD[changed])
    return tuple(row)


class TestOneRule:
    @given(row=event_rows())
    @example(row=(0.5, "friction", "all", 5.0))
    @example(row=(-1.0, "elevation", "fl", 0.01))
    @settings(max_examples=300, deadline=None)
    def test_file_row_rejected_iff_event_is(self, row):
        """A file holding the row fails, naming the row's line, exactly when
        Event(*row) fails: one rule, two entry points."""
        text = (f"[scenario]\nv0 = 10\nhorizon = {HORIZON!r}\n"
                f"dt = {DT!r}\n[events]\n{row[0]!r} {row[1]} {row[2]} "
                f"{row[3]!r}\n")
        try:
            event = Event(*row)
        except ConfigError:
            with pytest.raises(ConfigError, match="^line 6: "):
                parse_scenario(text)
        else:
            assert parse_scenario(text).events == (event,)
