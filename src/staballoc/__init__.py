"""Integrated fault-tolerant vehicle stability control workbench.

A 14-DOF nonlinear vehicle plant, a virtual-control-input generator, an
adaptive control allocator that redistributes effort across twelve
redundant actuators without fault identification, a classical baseline
controller, and a scenario harness with fault injection, metrics, and a
linear closed-loop stability check.
"""
from importlib import import_module

from .controllers import AllocatorConfig, ControllerState, DriverInput, \
    Gains, PiecewiseLinear, build_bn, measured_net
from .harness import run_scenario, sweep_max_speed
from .logio import RunLog, emit_csv, emit_svg_plots
from .metrics import Metrics, compute_metrics
from .params import G, VehicleParams
from .plant import PlantDiverged, step_rk4
from .scenario import ConfigError, Event, Scenario, load_scenario, \
    parse_scenario

# the array code, and with it NumPy, loads on the first use of one of
# these names or modules (PEP 562): a baseline run never needs it
_ARRAY_MODULES = ("allocator", "linmodel", "stability")
_ARRAY_NAMES = {
    "AdaptiveAllocator": "allocator",
    "solve_lyapunov": "allocator",
    "build_bl": "linmodel",
    "build_bv": "linmodel",
    "linearize": "linmodel",
    "max_closed_loop_eig": "stability",
}


def __getattr__(name: str):
    if name in _ARRAY_MODULES:
        return import_module(f".{name}", __name__)
    if name in _ARRAY_NAMES:
        module = import_module(f".{_ARRAY_NAMES[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ARRAY_MODULES, *_ARRAY_NAMES})


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
    "parse_scenario",
    "run_scenario",
    "solve_lyapunov",
    "step_rk4",
    "sweep_max_speed",
    "__version__",
]
