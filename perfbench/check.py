"""Output check of one pass: which operations failed, and why.

An operation fails if it raised, if `staballoc run` returned another exit
code than 0, or if its verdicts differ from the reference:

- fault_run: each run completes, does not spin or diverge, stays finite;
- speed_sweep: both sweeps find a speed and proposed/baseline >= 1.2;
- rough_road: the run completes, stays finite and does not diverge.

On the recorded inputs (fault_run always; speed_sweep and rough_road on
the default seed) the metrics must also match `reference.json`.  The
closed loop amplifies rounding: reassociating the RK4 sum alone moves the
RMS metrics by up to 0.34%, while a 10% change of the adaptation rate moves
max|beta| by 4%, so metrics get a 2% relative tolerance and sweep speeds
one bisection step.  CSV hashes are reported against the reference but
never fail a pass, so a change that only reassociates floats shows which
files moved.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SWEEP_RATIO_MIN = 1.2        # criterion 6
STEPS = 10000                # every shipped and generated scenario: 10 s at 1 ms
METRIC_KEYS = ("max_beta", "rms_roll", "rms_pitch", "lateral_offset")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _close(got, want, rel_tol: float) -> bool:
    if want is None or got is None:
        return got is want
    return math.isclose(got, want, rel_tol=rel_tol, abs_tol=1e-12)


def _run_failures(summary: dict, want: Optional[dict], rel_tol: float,
                  ) -> List[str]:
    out = []
    if summary["diverged"]:
        out.append("diverged")
    if summary["spin"]:
        out.append("spin")
    if not summary["finite"]:
        out.append("non-finite value in the log")
    if summary["rows"] != STEPS:
        out.append(f"{summary['rows']} steps, expected {STEPS}")
    if want is not None:
        for key in METRIC_KEYS:
            if not _close(summary[key], want[key], rel_tol):
                out.append(f"{key} {summary[key]!r} != reference {want[key]!r}")
    return out


def op_failures(workload: str, inputs: dict, result: Optional[dict],
                reference: dict, n_ops: int) -> List[Tuple[str, List[str]]]:
    """(operation, reasons) for every operation of the pass; an operation
    passed when its reason list is empty."""
    if result is None:
        return [(f"op{i}", ["pass did not produce a result"])
                for i in range(n_ops)]
    ops = result["ops"]
    rel_tol = reference["rel_tol"]
    on_default_seed = inputs["seed"] == reference["default_seed"]
    checked: Dict[str, List[str]] = {}
    for op in ops:
        reasons = checked.setdefault(op["name"], [])
        if "error" in op:
            reasons.append("raised: " + op["error"].strip().splitlines()[-1])
            continue
        if workload == "fault_run":
            if op["exit"] != 0:
                reasons.append(f"exit code {op['exit']}, expected 0")
            if len(op["runs"]) != 1:
                reasons.append(f"{len(op['runs'])} runs, expected 1")
            for s in op["runs"]:
                reasons += _run_failures(
                    s, reference["fault_run"][op["name"]], rel_tol)
        elif workload == "rough_road":
            if op["events"] != inputs["events"]:
                reasons.append(f"{op['events']} events parsed, "
                               f"{inputs['events']} generated")
            for s in op["runs"]:
                want = reference["rough_road"] if on_default_seed else None
                reasons += _run_failures(s, want, rel_tol)
            if len(op["runs"]) != 1:
                reasons.append(f"{len(op['runs'])} runs, expected 1")
        elif workload == "speed_sweep":
            v = op["v_max"]
            if not (isinstance(v, float) and math.isfinite(v)):
                reasons.append(f"no stable speed found ({v!r})")
            elif on_default_seed and abs(v - reference["speed_sweep"][
                    op["name"]]) > inputs["sweep"]["resolution"]:
                reasons.append(f"v_max {v!r} != reference "
                               f"{reference['speed_sweep'][op['name']]!r}")
    if workload == "speed_sweep" and not any(checked.values()):
        speeds = {op["name"]: op["v_max"] for op in ops}
        ratio = speeds["proposed"] / speeds["baseline"]
        if not ratio >= SWEEP_RATIO_MIN:
            checked["proposed"].append(f"speed ratio {ratio:.3f} < "
                                       f"{SWEEP_RATIO_MIN}")
    for reason in result.get("counter_failures", []):
        for reasons in checked.values():
            reasons.append("trace counters: " + reason)
    missing = n_ops - len(checked)
    out = list(checked.items())
    out += [(f"missing{i}", ["operation not reported"]) for i in range(missing)]
    return out


def csv_report(result: Optional[dict], reference: dict) -> Dict[str, dict]:
    """sha256 of every CSV the pass wrote, and whether it matches."""
    if result is None:
        return {}
    want = reference.get("csv_sha256", {})
    return {name: {"sha256": h, "matches_reference": want.get(name) == h}
            for name, h in result.get("csv_sha256", {}).items()}
