"""Integrated fault-tolerant vehicle stability control workbench.

A 14-DOF nonlinear vehicle plant, a virtual-control-input generator, an
adaptive control allocator that redistributes effort across twelve
redundant actuators without fault identification, a classical baseline
controller, and a scenario harness with fault injection, metrics, and a
linear closed-loop stability check.
"""
from .allocator import AdaptiveAllocator, AllocatorConfig, measured_net, \
    solve_lyapunov
from .controllers import ControllerState, DriverInput, Gains, \
    PiecewiseLinear
from .harness import run_scenario, sweep_max_speed
from .linmodel import build_bl, build_bn, build_bv, linearize
from .logio import RunLog, emit_csv, emit_svg_plots, parse_csv
from .metrics import Metrics, compute_metrics
from .params import G, VehicleParams
from .plant import Inputs, PlantDiverged, step_rk4
from .scenario import ConfigError, Event, Scenario, load_scenario, \
    parse_scenario
from .stability import max_closed_loop_eig

__version__ = "0.1.0"

__all__ = [
    "AdaptiveAllocator",
    "AllocatorConfig",
    "ConfigError",
    "ControllerState",
    "DriverInput",
    "Event",
    "G",
    "Gains",
    "Inputs",
    "Metrics",
    "PiecewiseLinear",
    "PlantDiverged",
    "RunLog",
    "Scenario",
    "VehicleParams",
    "build_bl",
    "build_bn",
    "build_bv",
    "compute_metrics",
    "emit_csv",
    "linearize",
    "emit_svg_plots",
    "load_scenario",
    "max_closed_loop_eig",
    "measured_net",
    "parse_csv",
    "parse_scenario",
    "run_scenario",
    "solve_lyapunov",
    "step_rk4",
    "sweep_max_speed",
    "__version__",
]
