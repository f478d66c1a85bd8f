"""Outside-in tracing of the staballoc layers.

`Tracer` aggregates spans in memory (calls, total time, time covered by
child spans) instead of keeping one record per call, so a traced speed
sweep of 100 000 steps stays bounded.  A span's self time is its duration
minus the part covered by its direct child spans.

`LayerTrace.install` wraps module attributes and methods of the package from outside;
no file of the package is changed.  Functions that `harness` and `cli`
import by name are patched at those bindings as well, because that is where
the closed loop looks them up.  Tires are attributed inside
`plant.state_derivative`: wrapping their ~1M calls per run would cost more
than the layer itself.
"""
from __future__ import annotations

import functools
import os
import statistics
import time
from typing import Callable, Dict, List


class Tracer:
    """Aggregated span and counter store for one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: Dict[str, List[float]] = {}   # name -> [calls, total, child]
        self.counters: Dict[str, int] = {}
        self._stack: List[list] = []              # [name, start, child]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def leave(self) -> None:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += child
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, name: str, fn: Callable) -> Callable:
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def calls(self, name: str) -> int:
        agg = self.spans.get(name)
        return int(agg[0]) if agg else 0

    def total_s(self, name: str) -> float:
        agg = self.spans.get(name)
        return agg[1] if agg else 0.0

    def self_s(self, name: str) -> float:
        agg = self.spans.get(name)
        return agg[1] - agg[2] if agg else 0.0


# (span name, owner path, attribute).  Owner paths are resolved against the
# imported package; a binding the program no longer has is skipped.
LAYER_BINDINGS = (
    ("plant.state_derivative", "plant", "state_derivative"),
    ("plant.state_derivative", "harness", "state_derivative"),
    ("plant.step_rk4", "harness", "step_rk4"),
    ("allocator.measured_net", "harness", "measured_net"),
    ("linmodel.build_bn", "harness", "build_bn"),
    ("controllers.virtual_control", "harness", "virtual_control"),
    ("controllers.baseline", "harness", "baseline_rear_steer"),
    ("controllers.baseline", "harness", "baseline_traction"),
    ("controllers.baseline", "harness", "baseline_suspension"),
    ("scenario.parse", "scenario", "parse_scenario"),
    ("scenario.driver", "controllers.DriverInput", "steer_at"),
    ("scenario.driver", "controllers.DriverInput", "force_ref"),
    ("metrics.compute_metrics", "harness", "compute_metrics"),
    ("metrics.compute_metrics", "cli", "compute_metrics"),
    ("logio.append", "logio.RunLog", "append"),
    ("logio.emit_svg", "cli", "emit_svg_plots"),
    ("cli.main", "cli", "main"),
)

# Event lookups and the position of their `events` argument.
EVENT_FUNCTIONS = (("apply_faults", 1), ("friction_scale", 0),
                   ("road_elevation", 0))


def _resolve(pkg, path: str):
    obj = pkg
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class LayerTrace:
    """Installs the layer wrappers on the imported package and turns the
    tracer's aggregates into the benchmark's per-layer metrics."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.installed = set()
        self.step_intervals: List[float] = []
        self._last_measure = None
        self._allocator = None
        self._saved = []                          # (owner, attr, original)

    def _bind(self, owner, attr: str, name: str, hook=None) -> None:
        if owner is None or attr not in getattr(owner, "__dict__", {}):
            return
        original = owner.__dict__[attr]
        fn = self.tracer.wrap(name, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, hook(fn) if hook else fn)
        self.installed.add(name)

    def install(self, pkg) -> None:
        import staballoc.harness  # noqa: F401  (submodules must be loaded)
        import staballoc.cli  # noqa: F401
        for name, path, attr in LAYER_BINDINGS:
            self._bind(_resolve(pkg, path), attr, name)
        harness, cli = pkg.harness, pkg.cli
        for attr, idx in EVENT_FUNCTIONS:
            self._bind(harness, attr, "harness.events",
                       functools.partial(self._events_hook, idx=idx))
        self._bind(harness, "measure", "harness.measure", self._measure_hook)
        for owner in (harness, cli):
            self._bind(owner, "run_scenario", "harness.run_scenario",
                       self._run_hook)
        self._bind(_resolve(pkg, "allocator.AdaptiveAllocator"), "step",
                   "allocator.step", self._alloc_hook)
        self._bind(cli, "emit_csv", "logio.emit_csv", self._csv_hook)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # hooks: each receives the traced function and returns the binding

    def _events_hook(self, fn, idx):
        count = self.tracer.count

        def hook(*args, **kwargs):
            count("harness.events.scanned", len(args[idx]))
            return fn(*args, **kwargs)
        return hook

    def _measure_hook(self, fn):
        clock = self.tracer.clock
        intervals = self.step_intervals

        def hook(*args, **kwargs):
            now = clock()
            if self._last_measure is not None:
                intervals.append(now - self._last_measure)
            self._last_measure = now
            return fn(*args, **kwargs)
        return hook

    def _run_hook(self, fn):
        tr = self.tracer

        def hook(*args, **kwargs):
            self._last_measure = None
            self._allocator = None
            log = fn(*args, **kwargs)
            tr.count("harness.runs")
            tr.count("log.rows", len(log))
            alloc = self._allocator
            if alloc is not None:
                tr.count("log.rows_allocated", len(log))
                at_bound = (alloc.theta <= alloc.lo) | (alloc.theta >= alloc.hi)
                tr.count("allocator.theta_at_bound", int(at_bound.sum()))
            return log
        return hook

    def _alloc_hook(self, fn):
        count = self.tracer.count

        def hook(alloc, *args, **kwargs):
            res = fn(alloc, *args, **kwargs)
            self._allocator = alloc
            if res.bn_ok:
                count("allocator.bn_ok")
            return res
        return hook

    def _csv_hook(self, fn):
        count = self.tracer.count

        def hook(*args, **kwargs):
            path = fn(*args, **kwargs)
            count("logio.emit_csv.bytes", os.path.getsize(path))
            return path
        return hook

    # results

    def metrics(self) -> Dict[str, float]:
        tr = self.tracer
        c = tr.counters
        out: Dict[str, float] = {}
        for name in ("plant.state_derivative", "plant.step_rk4",
                     "allocator.step", "harness.events"):
            out[f"{name}.calls"] = tr.calls(name)
        for name in ("plant.state_derivative", "plant.step_rk4",
                     "allocator.step", "allocator.measured_net",
                     "linmodel.build_bn", "controllers.virtual_control",
                     "controllers.baseline", "harness.run_scenario",
                     "harness.measure", "harness.events", "scenario.parse",
                     "scenario.driver", "metrics.compute_metrics",
                     "logio.append", "logio.emit_csv", "logio.emit_svg",
                     "cli.main"):
            out[f"{name}.self_s"] = tr.self_s(name)
        steps = tr.calls("allocator.step")
        out["allocator.bn_ok_ratio"] = c.get("allocator.bn_ok", 0) / steps \
            if steps else 0.0
        out["allocator.theta_at_bound"] = c.get("allocator.theta_at_bound", 0)
        out["harness.events.scanned"] = c.get("harness.events.scanned", 0)
        out["harness.runs"] = c.get("harness.runs", 0)
        out["harness.steps"] = tr.calls("harness.measure")
        out["logio.emit_csv.bytes"] = c.get("logio.emit_csv.bytes", 0)
        out["harness.step_us_p50"], out["harness.step_us_p99"] = \
            step_percentiles_us(self.step_intervals)
        return out

    def counter_failures(self) -> List[str]:
        """Exact counters that must agree with each other and with the logs.

        A check applies only to layers the program still has, so a later
        change that removes a function is not reported as a wrong result.
        The derivative count must be a whole number of calls per step.
        """
        tr = self.tracer
        rows = tr.counters.get("log.rows", 0)
        failures = []

        def expect(name, got, want):
            if name in self.installed and got != want:
                failures.append(f"{name}: {got} != {want}")

        expect("harness.measure", tr.calls("harness.measure"), rows)
        expect("plant.step_rk4", tr.calls("plant.step_rk4"), rows)
        expect("logio.append", tr.calls("logio.append"), rows)
        expect("allocator.step", tr.calls("allocator.step"),
               tr.counters.get("log.rows_allocated", 0))
        derivs = tr.calls("plant.state_derivative")
        if "plant.state_derivative" in self.installed and rows and \
                derivs % rows:
            failures.append(f"plant.state_derivative: {derivs} calls is not "
                            f"a whole number per step ({rows} steps)")
        return failures


def step_percentiles_us(intervals: List[float]):
    """(p50, p99) of the step intervals in microseconds; zeros if too few."""
    if len(intervals) < 2:
        return 0.0, 0.0
    q = statistics.quantiles(intervals, n=100)
    return q[49] * 1e6, q[98] * 1e6
