"""Command-line interface.

Subcommands::

    staballoc run <scenario-file> [--controller proposed|baseline|hybrid]
                  [--dt s] [--out dir] [--svg]
    staballoc figures [--out dir]
    staballoc sweep <scenario-file> --controller X --vmin V --vmax V
                  [--resolution m/s]
    staballoc stability --v0 <m/s>

Exit codes: 0 completed, 2 the plant diverged, 3 configuration error
(ConfigError: a bad scenario file, setting or argument).  Any other error
during a run propagates with its traceback.

Only the commands that use arrays import NumPy: run, figures and sweep
with an allocator controller (proposed, hybrid), and stability.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .controllers import Gains
from .harness import run_scenario, sweep_max_speed
from .logio import emit_csv, emit_svg_plots
from .metrics import compute_metrics
from .params import VehicleParams
from .scenario import CONTROLLERS, ConfigError, load_scenario

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_CONFIG = 3

SCENARIO_DIR = Path(__file__).resolve().parents[2] / "scenarios"

# the shipped scenarios and the controllers each one compares
FIGURE_PAIRS = (
    ("low_speed", ("proposed", "baseline")),
    ("high_speed", ("proposed", "baseline")),
    ("varying_road", ("proposed", "baseline")),
    ("actuator_fault", ("proposed", "baseline")),
    ("suspension_fault", ("proposed", "hybrid")),
)


def _cmd_run(args: argparse.Namespace) -> int:
    scn = load_scenario(args.scenario)
    log = run_scenario(scn, controller=args.controller, dt=args.dt)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{scn.name}_{log.controller}"
    csv_path = emit_csv(log, out_dir / f"{stem}.csv")
    print(f"wrote {csv_path}")
    if args.svg:
        for path in emit_svg_plots(log, out_dir, stem):
            print(f"wrote {path}")
    m = compute_metrics(log)
    print(f"scenario={scn.name} controller={log.controller} "
          f"steps={len(log)}")
    print(f"max|beta|={math.degrees(m.max_beta):.2f} deg  spin={m.spin}  "
          f"rms roll={m.rms_roll:.5f} rad  rms pitch={m.rms_pitch:.5f} rad  "
          f"offset at line={m.lateral_offset:.2f} m")
    if log.diverged:
        print(f"DIVERGED at t={log.stopped_at:.3f}: {log.stop_reason}",
              file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_figures(args: argparse.Namespace) -> int:
    code = EXIT_OK
    for name, controllers in FIGURE_PAIRS:
        for controller in controllers:
            run = argparse.Namespace(scenario=SCENARIO_DIR / f"{name}.scn",
                                     controller=controller, dt=None,
                                     out=args.out, svg=True)
            code = max(code, _cmd_run(run))
    return code


def _cmd_sweep(args: argparse.Namespace) -> int:
    scn = load_scenario(args.scenario)
    v = sweep_max_speed(scn, args.controller, args.vmin, args.vmax,
                        resolution=args.resolution)
    if math.isnan(v):
        print(f"no stable speed in [{args.vmin:g}, {args.vmax:g}] m/s "
              f"({args.controller})")
    else:
        print(f"max stable initial speed ({args.controller}): {v:.2f} m/s")
    return EXIT_OK


def _cmd_stability(args: argparse.Namespace) -> int:
    if not 0.0 < args.v0 < math.inf:
        raise ConfigError(f"--v0 must be positive, not {args.v0!r}")
    from .stability import max_closed_loop_eig
    p = VehicleParams()
    worst = max_closed_loop_eig(Gains(), args.v0, p)
    print(f"max Re(eig) of the closed loop at v0={args.v0:g} m/s: "
          f"{worst:.6f}")
    print("internally stable" if worst < 0.0 else "UNSTABLE")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="staballoc",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario file")
    run.add_argument("scenario")
    run.add_argument("--controller", choices=CONTROLLERS, default=None)
    run.add_argument("--dt", type=float, default=None)
    run.add_argument("--out", default="out")
    run.add_argument("--svg", action="store_true")
    run.set_defaults(func=_cmd_run)

    figs = sub.add_parser("figures",
                          help="run every shipped scenario with the "
                               "controllers it compares, with SVG plots")
    figs.add_argument("--out", default="out")
    figs.set_defaults(func=_cmd_figures)

    sweep = sub.add_parser("sweep", help="find the max stable initial speed")
    sweep.add_argument("scenario")
    sweep.add_argument("--controller", choices=CONTROLLERS, required=True)
    sweep.add_argument("--vmin", type=float, required=True)
    sweep.add_argument("--vmax", type=float, required=True)
    sweep.add_argument("--resolution", type=float, default=0.25)
    sweep.set_defaults(func=_cmd_sweep)

    stab = sub.add_parser("stability",
                          help="linear closed-loop eigenvalue check")
    stab.add_argument("--v0", type=float, required=True)
    stab.set_defaults(func=_cmd_stability)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
