"""Golden outputs of `staballoc figures`, checked by tier-1.

`tests/golden/figures.sha256` holds, for each of the ten shipped
(scenario, controller) runs, the sha256 of the bytes `emit_csv` writes and
the run's metrics as `float.hex`, the sha256 of the two SVGs
`emit_svg_plots` writes, plus the linear closed-loop verdict
`max_closed_loop_eig(Gains(), 20.0, VehicleParams())`.  The file is tagged
with the Python version, the NumPy version and the machine it was made on,
because libm `atan`/`sin` may round differently elsewhere: on the same tag
every hash must match, on another one the metrics must agree to 1e-9
relative.

Regenerate it from the repository root (a declared change, with its
reason, whenever an output is meant to change):

    PYTHONPATH=src python tests/golden.py

The script takes no arguments: `--help` prints this text, and any other
argument is an error; neither writes the file.
"""
import argparse
import dataclasses
import hashlib
import math
import platform
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from staballoc.cli import FIGURE_PAIRS, SCENARIO_DIR
from staballoc.controllers import Gains
from staballoc.harness import run_scenario
from staballoc.logio import emit_csv, emit_svg_plots
from staballoc.metrics import Metrics, compute_metrics
from staballoc.params import VehicleParams
from staballoc.scenario import load_scenario
from staballoc.stability import max_closed_loop_eig

GOLDEN = Path(__file__).resolve().parent / "golden" / "figures.sha256"
EIG_KEY = "max_closed_loop_eig@20"
METRICS = tuple(f.name for f in dataclasses.fields(Metrics))


class Golden(NamedTuple):
    tag: str
    hashes: Dict[str, str]               # CSV or SVG name -> sha256
    metrics: Dict[str, Dict[str, str]]   # CSV name -> metric -> text
    eig: str                             # float.hex


def tag() -> str:
    """Where the outputs were made: Python, NumPy and the machine."""
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"machine={platform.system()}-{platform.machine()}")


def metric_text(value) -> str:
    return repr(value) if isinstance(value, bool) else float(value).hex()


def observe(runs, out_dir: Path) -> Golden:
    """The golden entries of `runs`, {(scenario, controller): (log,
    metrics)}; each CSV and SVG is written to out_dir, hashed and
    removed."""
    hashes, metrics = {}, {}
    for (name, ctrl), (log, m) in runs.items():
        stem = f"{name}_{ctrl}"
        csv = emit_csv(log, out_dir / f"{stem}.csv")
        for path in [csv, *emit_svg_plots(log, out_dir, stem)]:
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
        metrics[csv.name] = {k: metric_text(getattr(m, k)) for k in METRICS}
    eig = max_closed_loop_eig(Gains(), 20.0, VehicleParams())
    return Golden(tag(), hashes, metrics, eig.hex())


def render(g: Golden) -> str:
    lines = ["# sha256 of the `staballoc figures` CSVs, with their metrics "
             "(float.hex), and SVGs",
             "# regenerate: PYTHONPATH=src python tests/golden.py",
             f"tag {g.tag}"]
    for name in sorted(g.hashes):
        line = f"{g.hashes[name]}  {name}"
        if name in g.metrics:
            line += "  " + " ".join(f"{k}={g.metrics[name][k]}"
                                    for k in METRICS)
        lines.append(line)
    lines.append(f"{EIG_KEY} {g.eig}")
    return "\n".join(lines) + "\n"


def read(path: Path = GOLDEN) -> Golden:
    tag_, eig, hashes, metrics = "", "", {}, {}
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        if head == "tag":
            tag_ = rest
        elif head == EIG_KEY:
            eig = rest
        else:
            name, *pairs = rest.split()
            hashes[name] = head
            if pairs:
                metrics[name] = dict(pair.split("=", 1) for pair in pairs)
    return Golden(tag_, hashes, metrics, eig)


def metric_close(a: str, b: str, rel: float = 1e-9) -> bool:
    """Equal booleans, both NaN, or floats within `rel` of each other."""
    if a in ("True", "False") or b in ("True", "False"):
        return a == b
    x, y = float.fromhex(a), float.fromhex(b)
    return (math.isnan(x) and math.isnan(y)) or math.isclose(x, y,
                                                             rel_tol=rel)


def compare(expected: Golden, got: Golden) -> Tuple[List[str], List[str]]:
    """(failures, notes).  On the golden file's own tag every hash and the
    eigenvalue must match bit for bit; on another tag the eigenvalue must
    agree to 1e-9 relative and differing hashes are only noted.  The
    metrics must agree to 1e-9 relative on any tag.  CSV and SVG hashes
    are compared alike."""
    same_tag = expected.tag == got.tag
    failures, notes = [], []
    if sorted(expected.hashes) != sorted(got.hashes):
        return [f"runs {sorted(got.hashes)} != golden "
                f"{sorted(expected.hashes)}"], notes
    for name in sorted(expected.hashes):
        if expected.hashes[name] != got.hashes[name]:
            (failures if same_tag else notes).append(
                f"{name}: sha256 {got.hashes[name]} != golden "
                f"{expected.hashes[name]}")
    for name in sorted(expected.metrics):
        for k in METRICS:
            a, b = expected.metrics[name][k], got.metrics[name][k]
            if not metric_close(a, b):
                failures.append(f"{name}: {k} {b} != golden {a}")
    eig_ok = (expected.eig == got.eig if same_tag
              else metric_close(expected.eig, got.eig))
    if not eig_ok:
        failures.append(f"{EIG_KEY}: {got.eig} != golden {expected.eig}")
    return failures, notes


def main(argv: Optional[List[str]] = None) -> None:
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    ).parse_args(argv)
    runs = {}
    for name, controllers in FIGURE_PAIRS:
        scn = load_scenario(SCENARIO_DIR / f"{name}.scn")
        for ctrl in controllers:
            log = run_scenario(scn, controller=ctrl)
            runs[(name, ctrl)] = (log, compute_metrics(log))
    with tempfile.TemporaryDirectory() as tmp:
        golden = observe(runs, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(golden))
    print(f"wrote {GOLDEN} ({golden.tag})")


if __name__ == "__main__":
    main()
