"""Integrated fault-tolerant vehicle stability control workbench.

A 14-DOF nonlinear vehicle plant, a virtual-control-input generator, an
adaptive control allocator that redistributes effort across twelve
redundant actuators without fault identification, a classical baseline
controller, and a scenario harness with fault injection, metrics, and a
linear closed-loop stability check.

Import each name from the module that defines it.
"""
from importlib import import_module

__version__ = "0.1.0"


def __getattr__(name: str):
    # the array modules, and with them NumPy, load on first use (PEP 562):
    # a baseline run never needs them
    if name in ("allocator", "stability"):
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
