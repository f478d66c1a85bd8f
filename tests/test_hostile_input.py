"""Hostile input through the command line.

Scenario files are drawn from the scenario grammar with hostile values
(NaN, infinities, +-1e+-300, subnormals, empty values, non-ASCII text and
bytes that are not UTF-8, repeated keys and breakpoints, events at and past
the horizon), and so are `staballoc run` argument vectors (--dt,
--controller, --out, an --out that is an existing file among them).
Whatever the input, `cli.main` returns 0 with its CSV, 2 with the CSV up to
the divergence, or 3 with one line on stderr and nothing written; it never
raises.

The ordinary values keep every run that starts to at most 50 steps (a
horizon of at most 0.025 s at a step of at least 0.5 ms), and every
pairing of a hostile horizon and step either breaks a rule or gives one
step.  --dt takes any text, in the "--dt=x" or the "--dt x" form: what the
parser rejects ("x", "", "-inf" read as an option) is a configuration error
too.
"""
import contextlib
import io
import math
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import event, example, given, settings, strategies as st

from staballoc.cli import main as cli_main
from staballoc.controllers import AllocatorConfig, Gains
from staballoc.scenario import CONTROLLERS, EVENT_TARGETS

HOSTILE = ("nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e-300",
           "-1e-300", "1e-310", "5e-324", "1e-9", "0", "-0.0", "-0.001", "",
           "x", "µ", "1,5", "0x10")
V0 = ("13", "0", "5", "20")
HORIZONS = ("0.02", "0.01", "0.025")
STEPS = ("0.001", "0.0005", "0.002", "0.005")
TIMES = ("0", "0.001", "0.005", "0.009")     # up to the last step
LATE = ("0.0095", "0.01", "0.02", "0.025", "1")   # at or past it, mostly
VALUES = ("0", "0.05", "-0.05", "300", "6000")
FACTORS = ("0.5", "1", "0.01")
HOSTILE_FLOATS = ("nan", "-inf", "1e300", "1e-300", "1e-310", "5e-324",
                  "1e-9", "0", "-0.0", "-0.001")
NAMES = ("über", "a b", "..", "", "x/y", "a\x00b", "x\\y")


def rare(draw):
    """True about one time in sixteen, so that about one file in five has
    no hostile part and runs.  The two values lie inside the range, which
    Hypothesis does not favour as it does the ends."""
    return draw(st.integers(0, 31)) in (5, 10)


def value(draw, ordinary, hostile=HOSTILE):
    """An ordinary value, or now and then a hostile one."""
    return draw(st.sampled_from(hostile if rare(draw) else ordinary))


@st.composite
def key_lines(draw, keys, ordinary):
    """`key = value` lines for a few of the keys, now and then repeated."""
    chosen = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
    if chosen and rare(draw):
        chosen.append(chosen[0])
    return [f"{key} = {value(draw, ordinary)}" for key in chosen]


@st.composite
def profile(draw):
    """Breakpoints in time order, now and then empty, repeated or late."""
    if rare(draw):
        return ""
    times = sorted(draw(st.lists(st.sampled_from(TIMES), min_size=1,
                                 max_size=3, unique=True)), key=float)
    if rare(draw):
        times.append(draw(st.sampled_from(LATE)))
    points = [(value(draw, (t,)), value(draw, VALUES)) for t in times]
    if rare(draw):
        points.append(points[-1])
    return " ".join(f"{t}:{v}" for t, v in points)


@st.composite
def event_row(draw):
    kind = draw(st.sampled_from(sorted(EVENT_TARGETS)))
    target = draw(st.sampled_from(sorted(EVENT_TARGETS[kind])))
    if rare(draw):
        kind, target = draw(st.sampled_from([(kind, "T_xx"),
                                             ("gust", target)]))
    time = draw(st.sampled_from(LATE if rare(draw) else TIMES))
    return f"{value(draw, (time,))} {kind} {target} {value(draw, FACTORS)}"


@st.composite
def scenario_file(draw):
    """The bytes of a scenario file."""
    scenario = []
    if not rare(draw):
        scenario.append(f"name = {value(draw, ('h',), NAMES)}")
    for key, ordinary in (("v0", V0), ("horizon", HORIZONS), ("dt", STEPS)):
        if not rare(draw):
            scenario.append(f"{key} = {value(draw, ordinary)}")
    if draw(st.booleans()):
        scenario.append(f"controller = "
                        f"{value(draw, CONTROLLERS, ('', 'pid'))}")
    if scenario and rare(draw):
        scenario.append(draw(st.sampled_from(scenario)))
    lines = ["[scenario]", *scenario, "[driver]"]
    for key in ("steer", "pedal", "brake"):
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(profile())}")
    lines += ["[events]", *sorted(draw(st.lists(event_row(), max_size=3)))]
    lines += ["[gains]", *draw(key_lines([f.name for f in fields(Gains)]
                                         + ["kp_bogus"], VALUES))]
    lines += ["[allocator]",
              *draw(key_lines([f.name for f in fields(AllocatorConfig)],
                              ("0.5", "0.05", "10")))]
    data = "\n".join(lines).encode()
    if rare(draw):                              # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def run_argv(draw):
    """The options of `staballoc run`, with --out relative to a fresh
    directory that holds an empty directory `dir` and a file `file`."""
    argv = []
    if draw(st.booleans()):
        dt = value(draw, STEPS, HOSTILE_FLOATS + HOSTILE)
        argv += [f"--dt={dt}"] if draw(st.booleans()) else ["--dt", dt]
    if draw(st.booleans()):
        argv += ["--controller", draw(st.sampled_from(CONTROLLERS))]
    argv += ["--out", draw(st.sampled_from(
        ["out", "a/b", "dir", "über", "file", "file/sub"]))]
    if draw(st.booleans()):
        argv.append("--svg")
    return argv


def tree(root):
    """Every path under root, with the bytes of each file."""
    return {p: (p.read_bytes() if p.is_file() else None)
            for p in sorted(root.rglob("*"))}


SHORT = b"[scenario]\nname = h\nv0 = 13\nhorizon = 0.02\ndt = 0.001\n"


@given(data=scenario_file(), options=run_argv())
@example(data=SHORT.replace(b"0.001", b"1e-320"), options=["--out", "out"])
@example(data=SHORT, options=["--dt=1e-300", "--out", "out"])
@example(data=SHORT + b"[allocator]\nc_alpha = 1e300\n",
         options=["--out", "out"])
@example(data=SHORT + b"[allocator]\nc_alpha = 1e-300\n",
         options=["--out", "out"])
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
def test_run_exits_0_2_or_3_and_writes_only_what_it_says(data, options):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "dir").mkdir()
        (root / "file").write_text("a file\n")
        (root / "hostile.scn").write_bytes(data)
        argv = ["run", str(root / "hostile.scn")]
        argv += [str(root / a) if prev == "--out" else a
                 for prev, a in zip(["", *options], options)]
        before = tree(root)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        out, err = out.getvalue(), err.getvalue()
        event(f"exit {code}")
        if code == 3:
            assert err.startswith("configuration error: "), err
            assert err.count("\n") == 1 and not out, (out, err)
            assert tree(root) == before
            return
        assert code in (0, 2), code
        # the CSV holds every logged step; a diverged run says so once
        csv_path = Path(out.splitlines()[0].removeprefix("wrote "))
        steps = int(out.split(" steps=", 1)[1].split()[0])
        rows = csv_path.read_text().splitlines()
        assert steps >= 1 and len(rows) == steps + 1
        assert rows[0].startswith("t,Vx,")
        assert math.isfinite(float(rows[-1].split(",", 1)[0]))
        if code == 0:
            assert not err, err
        else:
            assert err.startswith("DIVERGED at t=") and err.count("\n") == 1
