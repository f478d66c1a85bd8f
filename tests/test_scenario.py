import pytest

from staballoc.scenario import (ConfigError, Event, load_scenario,
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
        assert scn.gain_overrides == {"kp_mz": 12345.0}
        assert scn.allocator_overrides == {"gamma": 777.0}

    def test_defaults(self):
        scn = parse_scenario(
            "[scenario]\nv0 = 10\nhorizon = 1\ndt = 0.001\n")
        assert scn.controller == "proposed"
        assert scn.driver.steer(5.0) == 0.0
        assert scn.events == ()

    def test_with_speed_override(self):
        scn = parse_scenario(GOOD).with_speed(22.0)
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
