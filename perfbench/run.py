"""staballoc benchmark: closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload fault_run|speed_sweep|rough_road|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Each pass is a fresh single-threaded process (BLAS limited to one
thread) driving the package through its public entry points.

--trace 0 repeats passes for about S seconds, times set-up
in SETUP_PROBES more fresh processes (half before, half after the passes),
and reports medians:
  wall_s           wall time of one pass (s)
  realtime_factor  simulated s / host s over the pass's run_scenario calls
                   (s/s)
  setup_s          import + scenario load/parse + first step (s)
  peak_rss_mb      peak resident memory of the pass (MiB)
--trace 1 makes one plain pass and one pass with the layer wrappers of
perfbench/tracing.py installed, and reports the per-layer metrics plus
tracing.overhead_frac = traced wall_s / plain wall_s - 1.

Every pass is checked (perfbench/check.py); failed/attempted counts checked
operations.  The last line of standard output is one JSON object with
keys correct, attempted, failed and metrics; a report with the
environment, the generated inputs, every sample and every failure comes
before it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import check  # noqa: E402
from perfbench.workloads import (FAULT_SCENARIOS, SWEEP_CONTROLLERS,  # noqa: E402
                                 SWEEP_SCENARIO, WORKLOADS, rough_road_text,
                                 sweep_range)

BUDGET_S = 170.0             # one workload must finish within 180 s
SETUP_PROBES = 10
PROBE_RESERVE_S = 1.0          # generous wall time of one set-up probe
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


class Runner:
    """Spawns child passes of one workload inside a private temp dir."""

    def __init__(self, name: str, inputs: dict, tmp: Path, deadline: float):
        self.name = name
        self.tmp = tmp
        self.deadline = deadline
        self.inputs_path = tmp / "inputs.json"
        self.inputs_path.write_text(json.dumps(inputs))
        self.n = 0
        self.errors = []
        env = dict(os.environ, **BLAS_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def spawn(self, mode: str):
        self.n += 1
        out = self.tmp / f"result-{self.n}.json"
        cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
               "--workload", self.name, "--inputs", str(self.inputs_path),
               "--mode", mode, "--out", str(out)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=timeout,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} pass killed after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not out.exists():
            self.errors.append(f"{mode} pass exited {proc.returncode}: "
                               + proc.stderr.strip()[-2000:])
            return None
        return json.loads(out.read_text())


def probe_setup(runner: Runner, n: int) -> list:
    results = (runner.spawn("setup") for _ in range(n))
    return [r["setup_s"] for r in results if r is not None]


def make_inputs(name: str, seed: int, tmp: Path) -> dict:
    inputs = {"seed": seed, "tmp": str(tmp),
              "first_controller": WORKLOADS[name].first_controller,
              "fault_scenarios": list(FAULT_SCENARIOS),
              "sweep_scenario": SWEEP_SCENARIO,
              "sweep_controllers": list(SWEEP_CONTROLLERS)}
    if name == "speed_sweep":
        v_min, v_max, res = sweep_range(seed)
        inputs["sweep"] = {"v_min": v_min, "v_max": v_max, "resolution": res}
    if name == "rough_road":
        from staballoc.params import VehicleParams
        text, inputs["events"] = rough_road_text(seed, VehicleParams().L)
        path = tmp / "rough_road.scn"
        path.write_text(text)
        inputs["scenario_file"] = str(path)
    return inputs


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tmp: Path) -> dict:
    start = time.monotonic()
    tmp.mkdir(parents=True)
    inputs = make_inputs(name, seed, tmp)
    runner = Runner(name, inputs, tmp, start + BUDGET_S)
    reference = check.load_reference()
    wl = WORKLOADS[name]

    runner.spawn("setup")            # fills the bytecode cache; not counted
    passes = []                      # (mode, result)
    setups = []
    if trace:
        passes.append(("pass", runner.spawn("pass")))
        passes.append(("traced", runner.spawn("traced")))
    else:
        # Set-up probes go half before and half after the passes, so they
        # sample the machine at two moments of the run.
        setups += probe_setup(runner, SETUP_PROBES // 2)
        t_measure = time.monotonic()
        reserve = PROBE_RESERVE_S * (SETUP_PROBES - SETUP_PROBES // 2)
        while True:
            t = time.monotonic()
            passes.append(("pass", runner.spawn("pass")))
            now = time.monotonic()
            # Another pass only if it would end nearer the measuring window
            # than stopping now, and well inside the budget.
            if now - t_measure + 0.5 * (now - t) >= seconds or \
                    now + 1.3 * (now - t) + reserve > runner.deadline:
                break
        setups += probe_setup(runner, SETUP_PROBES - SETUP_PROBES // 2)

    attempted = failed = 0
    failures, csvs = [], {}
    for mode, res in passes:
        for op, reasons in check.op_failures(name, inputs, res, reference,
                                             wl.ops):
            attempted += 1
            if reasons:
                failed += 1
                failures.append({"mode": mode, "op": op, "reasons": reasons})
        csvs.update(check.csv_report(res, reference))
    if not trace:                    # a set-up probe is checked by exiting 0
        attempted += SETUP_PROBES
        failed += SETUP_PROBES - len(setups)

    ok = [res for _, res in passes if res is not None]
    samples, values, trace_info = {}, {}, {}
    if trace:
        plain, traced = dict(passes)["pass"], dict(passes)["traced"]
        if plain is not None and traced is not None:
            values = dict(traced["layers"])
            values["tracing.overhead_frac"] = \
                traced["wall_s"] / plain["wall_s"] - 1.0
            trace_info = {k: traced[k] for k in ("derivative_calls_per_step",
                                                 "counter_failures")}
    elif ok:
        samples = {
            "wall_s": [r["wall_s"] for r in ok],
            "realtime_factor": [r["sim_s"] / r["host_s"] for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
            "setup_s": setups,
        }
        values = {k: statistics.median(v) for k, v in samples.items() if v}
    units = declared_units(trace)
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in units.items() if k in values}
    return {
        "workload": name, "why": wl.why, "moves": list(wl.moves),
        "seed": seed, "trace": trace,
        "inputs": {k: v for k, v in inputs.items()
                   if k in ("sweep", "events", "seed")},
        "passes": len(passes), "samples": samples,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures, "errors": runner.errors, "csv": csvs,
        "trace_counters": trace_info, "metrics": metrics,
        "complete": len(metrics) == len(units),
        "elapsed_s": time.monotonic() - start,
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        sha = ref
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "blas_threads": BLAS_ENV,
            "client": "one closed-loop caller, single-threaded, no arrival rate"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=check.load_reference()
                    ["default_seed"])
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "staballoc" / "__init__.py").is_file():
        print(f"no staballoc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # running pass, and the temp dir is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tmp_root = ROOT / ".perfbench_tmp" / str(os.getpid())
    reports = []
    try:
        for name in names:
            reports.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), tmp_root / name))
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_root.parent.rmdir()
        except OSError:
            pass

    print(json.dumps({"environment": environment(), "workloads": reports},
                     indent=1, default=str))
    for r in reports:
        for k, m in r["metrics"].items():
            print(f"{r['workload']:12s} {k:34s} {m['value']:.6g} {m['unit']}")
        print(f"{r['workload']:12s} {'failed_frac':34s} {r['failed_frac']:.6g} "
              f"({r['failed']} of {r['attempted']})")

    prefix = len(reports) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): m
               for r in reports for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if not all(r["complete"] for r in reports):
        print("some metrics could not be measured; see the report above",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
