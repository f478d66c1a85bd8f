"""Scenario files: plain declarative text, hand-editable and diff-able.

Format: ``[section]`` headers with ``key = value`` lines; the ``[events]``
section holds one whitespace-separated row per event.  Profiles are
breakpoint lists ``t:value`` separated by whitespace.

::

    [scenario]
    name = actuator_fault
    v0 = 20.0
    horizon = 10.0
    dt = 0.001
    controller = proposed

    [driver]
    steer = 0:0  3:0  3.75:0.065  5.25:-0.065  6:0
    pedal = 0:0
    brake = 6.5:0  6.6:6000  7.5:6000  7.6:0

    [events]
    # time  kind           target  factor
    1.0     effectiveness  T_rr    0.10
    4.0     friction       all     0.90

``[gains]`` and ``[allocator]`` sections set individual fields of
:class:`Gains` and :class:`AllocatorConfig`; the rest keep their defaults.
Every value rule lives in the object it constrains (:class:`Event`,
:class:`Events`, :class:`Scenario`, the settings and profiles), so it holds
however a Scenario is built; a Scenario also counts its own steps
(``n_steps``).  The parser adds only the rules of the text: no unknown or
repeated section or key, every number finite, and every event fires (no
later than the start of the last step).  All raise ConfigError.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .controllers import AllocatorConfig, DriverInput, Gains, \
    PiecewiseLinear
from .params import ConfigError, VehicleParams
from .plant import ACTUATOR_NAMES, BLOW_UP_LIMIT

CONTROLLERS = ("proposed", "baseline", "hybrid")
SCENARIO_KEYS = ("name", "v0", "horizon", "dt", "controller")
DRIVER_KEYS = ("steer", "pedal", "brake")  # profiles, each "0:0" if absent

R_W = VehicleParams().R_w  # stock wheel radius; a run starts at w = v0/R_W

TIRE_SETS = {
    "fl": (0,), "fr": (1,), "rl": (2,), "rr": (3,),
    "left": (0, 2), "right": (1, 3),
    "front": (0, 1), "rear": (2, 3),
    "all": (0, 1, 2, 3),
}

EVENT_TARGETS = {"effectiveness": ACTUATOR_NAMES, "friction": TIRE_SETS,
                 "elevation": TIRE_SETS}


@dataclass(frozen=True)
class Event:
    """A timed change: actuator effectiveness, lateral friction, or a road
    elevation step [m], applied from `time` onward.  ConfigError unless
    0 <= time < inf, the target suits the kind, and the factor is in (0, 1]
    (finite for an elevation)."""
    time: float
    kind: str
    target: str
    factor: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.time < math.inf:
            raise ConfigError(f"event time {self.time!r} must be finite "
                              f"and non-negative")
        if self.kind not in EVENT_TARGETS:
            raise ConfigError(f"unknown event kind {self.kind!r}")
        if self.target not in EVENT_TARGETS[self.kind]:
            raise ConfigError(f"unknown {self.kind} target {self.target!r}")
        if self.kind == "elevation":
            if not math.isfinite(self.factor):
                raise ConfigError(f"elevation {self.factor!r} is not finite")
        elif not 0.0 < self.factor <= 1.0:
            raise ConfigError(f"{self.kind} factor {self.factor!r} must be "
                              f"in (0, 1]")


class Events(tuple):
    """Time-sorted events, compiled once into piecewise-constant tables.

    The events active at t are those with time <= t, a prefix of the
    sorted tuple, so each lookup is one bisect on a kind's breakpoint
    times.  The tables keep the order of the event-by-event scan: friction
    multipliers are the in-order product per tire, elevations the
    left-to-right sum, and faults stay separate (actuator, factor) pairs,
    because u*f1*f2 is not u*(f1*f2).  Raises ConfigError for events out
    of time order.  Compiled events pass through unchanged.
    """

    def __new__(cls, events: Sequence[Event] = ()) -> "Events":
        if isinstance(events, Events):
            return events
        self = super().__new__(cls, events)
        times = [ev.time for ev in self]
        if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
            raise ConfigError("events must be listed in time order")
        self._fault_times, self._faults = [], []
        self._tables = {"friction": ([], [(1.0, 1.0, 1.0, 1.0)]),
                        "elevation": ([], [(0.0, 0.0, 0.0, 0.0)])}
        for ev in self:
            if ev.kind == "effectiveness":
                self._fault_times.append(ev.time)
                self._faults.append((ACTUATOR_NAMES.index(ev.target),
                                     ev.factor))
                continue
            breaks, values = self._tables[ev.kind]
            value = list(values[-1])
            for i in TIRE_SETS[ev.target]:
                if ev.kind == "friction":
                    value[i] *= ev.factor
                else:
                    value[i] += ev.factor
            breaks.append(ev.time)
            values.append(tuple(value))
        return self

    def faults_at(self, t: float) -> List[Tuple[int, float]]:
        """(actuator index, factor) of the active faults, in event order."""
        return self._faults[:bisect_right(self._fault_times, t)]

    def at(self, kind: str, t: float) -> Tuple[float, float, float, float]:
        """Per-tire friction multipliers or elevations active at t."""
        breaks, values = self._tables[kind]
        return values[bisect_right(breaks, t)]


@dataclass(frozen=True)
class Scenario:
    """One run: vehicle start, driver, events and controller settings.
    ConfigError unless the name is non-empty and holds no '/', '\\' or
    NUL (it is the stem of every output file, which must stay in the
    output directory), the controller is known, v0 >= 0 with its start
    wheel speed v0 / R_w (stock R_w) within BLOW_UP_LIMIT, so a start
    state is never past the plant's divergence bound, and dt and the
    horizon are positive and finite, dt dividing the horizon into a whole
    number n_steps >= 1 of steps, which the Scenario keeps."""
    name: str
    v0: float
    horizon: float
    dt: float
    driver: DriverInput
    controller: str = "proposed"
    events: Tuple[Event, ...] = ()
    gains: Gains = field(default_factory=Gains)
    allocator: AllocatorConfig = field(default_factory=AllocatorConfig)
    n_steps: int = field(init=False, compare=False)

    def __post_init__(self):
        if not self.name or any(c in self.name for c in "/\\\0"):
            raise ConfigError(f"scenario name {self.name!r} must be "
                              f"non-empty and free of '/', '\\' and NUL")
        if self.controller not in CONTROLLERS:
            raise ConfigError(f"unknown controller {self.controller!r}")
        if not (0.0 <= self.v0 and self.v0 / R_W <= BLOW_UP_LIMIT):
            raise ConfigError(f"v0 {self.v0!r} must be in "
                              f"[0, {BLOW_UP_LIMIT * R_W:g}] m/s, so that "
                              f"the wheel speed v0/R_w stays within "
                              f"{BLOW_UP_LIMIT:g}")
        dt, horizon = self.dt, self.horizon
        if not (0.0 < dt < math.inf and 0.0 < horizon < math.inf):
            raise ConfigError(f"dt and horizon must be positive "
                              f"(dt={dt!r}, horizon={horizon!r})")
        steps = horizon / dt
        n = round(steps)
        if n < 1 or abs(steps - n) > 1.0e-6:
            raise ConfigError(f"dt={dt!r} must divide the horizon "
                              f"{horizon!r}")
        object.__setattr__(self, "n_steps", n)
        object.__setattr__(self, "events", Events(self.events))


def check_events(scn: Scenario) -> None:
    """Raises ConfigError if an event of scn would never fire: it fires at
    the first step time k * dt >= its time, and the last step is
    k = scn.n_steps - 1."""
    last = (scn.n_steps - 1) * scn.dt
    latest = max((ev.time for ev in scn.events), default=0.0)
    if latest > last:
        raise ConfigError(f"event at t={latest!r} would never fire: "
                          f"the last step starts at t={last!r}")


def _number(text: str, where: str) -> float:
    """The finite float written in text; anything else is a ConfigError."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {text!r} is not a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {text!r} is not finite")
    return value


def _check_names(values: Dict[str, str], names: Iterable[str],
                 section: str) -> None:
    """ConfigError naming every key of `[section]` that is not in names."""
    unknown = set(values) - set(names)
    if unknown:
        raise ConfigError(f"unknown [{section}] names: {sorted(unknown)}")


def _settings(cls, values: Dict[str, str], section: str):
    """`cls` built from the `[section]` entries, the rest at their defaults.

    A name that is not a field of cls is a ConfigError; cls checks the
    values themselves.
    """
    _check_names(values, {f.name for f in fields(cls)}, section)
    return cls(**{k: _number(v, f"[{section}] {k}")
                  for k, v in values.items()})


def _parse_profile(text: str, where: str) -> PiecewiseLinear:
    points = []
    for token in text.split():
        t_str, sep, v_str = token.partition(":")
        if not sep:
            raise ConfigError(f"{where}: bad breakpoint {token!r}")
        points.append((_number(t_str, where), _number(v_str, where)))
    try:
        return PiecewiseLinear(tuple(points))
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_event(line: str, lineno: int) -> Event:
    parts = line.split()
    if len(parts) != 4:
        raise ConfigError(f"line {lineno}: event rows are 't kind target factor'")
    t_str, kind, target, f_str = parts
    time = _number(t_str, f"line {lineno}: event time")
    factor = _number(f_str, f"line {lineno}: event factor")
    try:
        return Event(time=time, kind=kind, target=target, factor=factor)
    except ConfigError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from exc


def parse_scenario(text: str, name: Optional[str] = None) -> Scenario:
    """Parse scenario text; raises ConfigError on any inconsistency."""
    section = None
    keyvals: Dict[str, Dict[str, str]] = {"scenario": {}, "driver": {},
                                          "gains": {}, "allocator": {}}
    events = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("scenario", "driver", "events",
                               "gains", "allocator"):
                raise ConfigError(f"line {lineno}: unknown section {section!r}")
            if section in seen:
                raise ConfigError(f"line {lineno}: repeated section "
                                  f"[{section}]")
            seen.add(section)
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: content before any section")
        if section == "events":
            events.append(_parse_event(line, lineno))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in keyvals[section]:
            raise ConfigError(f"line {lineno}: repeated key {key!r} in "
                              f"[{section}]")
        keyvals[section][key] = value.strip()

    sc, drv = keyvals["scenario"], keyvals["driver"]
    _check_names(sc, SCENARIO_KEYS, "scenario")
    _check_names(drv, DRIVER_KEYS, "driver")
    try:
        v0, horizon, dt = (_number(sc[k], f"[scenario] {k}")
                           for k in ("v0", "horizon", "dt"))
    except KeyError as exc:
        raise ConfigError(f"[scenario] is missing {exc.args[0]!r}") from exc

    scn = Scenario(
        name=sc.get("name", name or "unnamed"),
        v0=v0, horizon=horizon, dt=dt,
        driver=DriverInput(**{k: _parse_profile(drv.get(k, "0:0"), k)
                              for k in DRIVER_KEYS}),
        controller=sc.get("controller", "proposed"),
        events=tuple(events),
        gains=_settings(Gains, keyvals["gains"], "gains"),
        allocator=_settings(AllocatorConfig, keyvals["allocator"],
                            "allocator"),
    )
    check_events(scn)
    return scn


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text, name=path.stem)
