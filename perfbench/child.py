"""One pass of a workload in a fresh process.

    python3 perfbench/child.py --workload W --inputs inputs.json \
        --mode pass|traced|setup --out result.json

`setup` times import, scenario load/parse and the first closed-loop step
(initial state and allocator construction) through the public entry points,
then exits.  `pass` runs the workload once and reports wall time, the
simulated/host time of every run_scenario call, peak RSS and what the output
check needs.  `traced` does the same with the layer wrappers installed.

Work done only to check the outputs (metrics of each log, finiteness,
CSV hashes) is timed apart and taken out of wall_s.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def log_summary(log, compute_metrics) -> dict:
    m = compute_metrics(log)
    finite = all(math.isfinite(v) for col in log.cols.values() for v in col)
    offset = m.lateral_offset
    return {
        "rows": len(log), "diverged": bool(log.diverged),
        "spin": bool(m.spin), "finite": finite,
        "max_beta": m.max_beta, "rms_roll": m.rms_roll,
        "rms_pitch": m.rms_pitch,
        "lateral_offset": None if math.isnan(offset) else offset,
    }


class Recorder:
    """Times every run_scenario call and summarises its log for the check."""

    def __init__(self, tracer, summarize: bool, compute_metrics):
        self.tracer = tracer
        self.summarize = summarize
        self.compute_metrics = compute_metrics
        self.sim_s = 0.0
        self.host_s = 0.0
        self.check_s = 0.0
        self.summaries = []

    def wrap(self, fn):
        def run_scenario(*args, **kwargs):
            t = time.perf_counter()
            log = fn(*args, **kwargs)
            self.host_s += time.perf_counter() - t
            self.sim_s += len(log) * log.dt
            if self.summarize:
                with self.checking():
                    self.summaries.append(log_summary(log,
                                                      self.compute_metrics))
            return log
        return run_scenario

    @contextmanager
    def checking(self):
        t = time.perf_counter()
        if self.tracer is not None:
            self.tracer.enter("bench.check")
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.leave()
            self.check_s += time.perf_counter() - t


def _op(name: str, fn) -> dict:
    """Run one checked operation; an exception is recorded, not raised."""
    try:
        return {"name": name, **fn()}
    except Exception:  # the pass keeps going; the check counts it failed
        return {"name": name, "error": traceback.format_exc(limit=3)}


def fault_run(inputs, rec, cli):
    out_dir = Path(inputs["tmp"]) / "out"
    ops, hashes = [], {}
    for fname in inputs["fault_scenarios"]:
        scn_path = ROOT / "scenarios" / fname

        def one():
            n = len(rec.summaries)
            code = cli.main(["run", str(scn_path), "--controller", "proposed",
                             "--svg", "--out", str(out_dir)])
            return {"exit": code, "runs": rec.summaries[n:]}
        ops.append(_op(Path(fname).stem, one))
        with rec.checking():
            for csv in sorted(out_dir.glob("*.csv")):
                hashes[csv.name] = hashlib.sha256(csv.read_bytes()).hexdigest()
            for f in out_dir.glob("*"):
                f.unlink()
    return ops, hashes


def speed_sweep(inputs, harness, scenario):
    scn = scenario.load_scenario(ROOT / "scenarios" / inputs["sweep_scenario"])
    sw = inputs["sweep"]
    ops = []
    for controller in inputs["sweep_controllers"]:
        ops.append(_op(controller, lambda: {"v_max": harness.sweep_max_speed(
            scn, controller, sw["v_min"], sw["v_max"],
            resolution=sw["resolution"])}))
    return ops, {}


def rough_road(inputs, rec, harness, scenario):
    def one():
        scn = scenario.load_scenario(inputs["scenario_file"])
        harness.run_scenario(scn)
        return {"runs": rec.summaries[-1:], "events": len(scn.events)}
    return [_op("rough_road", one)], {}


def setup_probe(name, inputs):
    """Import, load/parse the workload's first scenario and run one step."""
    import staballoc  # noqa: F401
    from staballoc import cli, harness, scenario  # noqa: F401
    if name == "rough_road":
        scn = scenario.load_scenario(inputs["scenario_file"])
    else:
        fname = inputs["fault_scenarios"][0] if name == "fault_run" \
            else inputs["sweep_scenario"]
        scn = scenario.load_scenario(ROOT / "scenarios" / fname)
    one_step = dataclasses.replace(scn, horizon=scn.dt)
    log = harness.run_scenario(one_step, controller=inputs["first_controller"])
    if len(log) != 1:
        raise RuntimeError(f"set-up probe made {len(log)} steps, not 1")
    return time.perf_counter() - T0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=("pass", "traced", "setup"),
                    required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    inputs = json.loads(Path(args.inputs).read_text())
    result = {}

    if args.mode == "setup":
        result["setup_s"] = setup_probe(args.workload, inputs)
        Path(args.out).write_text(json.dumps(result))
        return 0

    import staballoc
    from staballoc import cli, harness, scenario
    from staballoc.metrics import compute_metrics
    if not Path(staballoc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"staballoc imported from {staballoc.__file__}, "
                           f"not from {ROOT / 'src'}")

    tracer = layers = None
    if args.mode == "traced":
        from perfbench.tracing import LayerTrace, Tracer
        tracer = Tracer()
        layers = LayerTrace(tracer)
        layers.install(staballoc)
    rec = Recorder(tracer, args.workload != "speed_sweep", compute_metrics)
    for owner in (harness, cli):
        if "run_scenario" in owner.__dict__:
            owner.run_scenario = rec.wrap(owner.run_scenario)

    if args.workload == "fault_run":
        ops, hashes = fault_run(inputs, rec, cli)
    elif args.workload == "speed_sweep":
        ops, hashes = speed_sweep(inputs, harness, scenario)
    else:
        ops, hashes = rough_road(inputs, rec, harness, scenario)
    t_end = time.perf_counter()

    result.update(
        wall_s=t_end - T0 - rec.check_s,
        sim_s=rec.sim_s, host_s=rec.host_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=ops, csv_sha256=hashes)
    if layers is not None:
        layers.restore()
        result["layers"] = layers.metrics()
        result["counter_failures"] = layers.counter_failures()
        rows = tracer.counters.get("log.rows", 0)
        result["derivative_calls_per_step"] = \
            tracer.calls("plant.state_derivative") / rows if rows else 0.0
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
