"""Run logs and their CSV/SVG emitters.

CSV values are written with repr(), the shortest round-trip form, so
float() of each cell reproduces every finite float bit-exactly and
repeated runs produce byte-identical files.  SVG plots are written
directly (a few polylines and axis labels), with no plotting dependency.
"""
from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import List, Optional, Sequence, Tuple

from .plant import ACTUATOR_NAMES

OBSTACLE_X = 100.0  # m, obstacle line of the avoidance maneuver

CSV_COLUMNS = (
    "t", "Vx", "Vy", "r", "beta", "z", "phi", "theta", "X", "Y", "psi",
    *ACTUATOR_NAMES, "N_fl", "N_fr", "N_rl", "N_rr",
    "v1", "v2", "v3", "v4", "v5", "resid",
)
_WIDTH = len(CSV_COLUMNS)
_CSV_ROW = ",".join(["%r"] * _WIDTH) + "\n"     # %r of a float is its repr


@dataclass
class RunLog:
    """Per-step record of one closed-loop run.

    `rows` holds every logged value once, as 8-byte doubles, row after row
    in CSV_COLUMNS order (commanded actuator values); `cols[name]` reads one
    column of it.  `r_ref` additionally keeps the yaw-rate reference the
    spin metric integrates, one value per row.  A run that ends before its
    horizon records when and why in `stopped_at` and `stop_reason`;
    `diverged` says whether the plant diverged (stopped_at is then the time
    of the first bad state, which is not logged) or the run was stopped on
    purpose (stopped_at is then the time of the last logged row).
    """
    scenario: str = ""
    controller: str = ""
    dt: float = 0.0
    rows: array = field(default_factory=lambda: array("d"))
    r_ref: array = field(default_factory=lambda: array("d"))
    diverged: bool = False
    stopped_at: Optional[float] = None
    stop_reason: str = ""

    @property
    def cols(self) -> Mapping[str, memoryview]:
        """The columns by name, read-only: each is a strided read-only
        memoryview of `rows`, so it copies nothing and a write through it
        raises TypeError.  While the mapping or one of its views is alive,
        `rows` cannot grow: append then raises BufferError."""
        view = memoryview(self.rows).toreadonly()
        return MappingProxyType({name: view[i::_WIDTH]
                                 for i, name in enumerate(CSV_COLUMNS)})

    def __len__(self) -> int:
        return len(self.rows) // _WIDTH

    def append(self, row: List[float], r_ref: float) -> None:
        """Append one row given as a list in CSV_COLUMNS order.  A row of
        another width raises ValueError and one holding a non-number
        TypeError; either way nothing is appended."""
        if len(row) != _WIDTH:
            raise ValueError(f"a row of {len(row)} values, not {_WIDTH}")
        self.r_ref.append(r_ref)
        try:
            self.rows.fromlist(row)     # all of the row or none of it
        except BaseException:
            self.r_ref.pop()
            raise

    def mark_stopped(self, t: float, reason: str) -> None:
        self.stopped_at = t
        self.stop_reason = reason

    def mark_diverged(self, t: float, reason: str) -> None:
        self.diverged = True
        self.mark_stopped(t, reason)


def emit_csv(log: RunLog, path: str | Path) -> Path:
    path = Path(path)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in zip(*[iter(log.rows)] * _WIDTH):
                fh.write(_CSV_ROW % row)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# SVG emitters


def _svg_header(width: int, height: int) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n')


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _polyline(xs: Sequence[float], ys: Sequence[float],
              bounds: Tuple[float, float, float, float],
              x0: float, y0: float, w: float, h: float,
              stroke_width: float) -> str:
    """The points mapped from bounds (xmin, xmax, ymin, ymax) onto the box
    at (x0, y0) of size w x h, y up."""
    xmin, xmax, ymin, ymax = bounds
    pts = []
    for x, y in zip(xs, ys):
        px = x0 + (x - xmin) / (xmax - xmin) * w
        py = y0 + h - (y - ymin) / (ymax - ymin) * h
        pts.append(f"{_fmt(px)},{_fmt(py)}")
    return (f'<polyline fill="none" stroke="#1f5fbf" '
            f'stroke-width="{stroke_width}" points="{" ".join(pts)}"/>\n')


def _panel(xs: Sequence[float], ys: Sequence[float], label: str,
           x0: float, y0: float, w: float, h: float) -> str:
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    bounds = (xmin, xmax if xmax != xmin else xmin + 1.0,
              ymin, ymax if ymax != ymin else ymin + 1.0)
    out = (f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" '
           f'fill="none" stroke="#999"/>\n')
    out += _polyline(xs, ys, bounds, x0, y0, w, h, 1)
    out += (f'<text x="{x0 + 4}" y="{y0 + 14}" font-size="12" '
            f'font-family="sans-serif">{label} '
            f'[{min(ys):.4g}, {max(ys):.4g}]</text>\n')
    return out


TIMESERIES_SIGNALS = ("beta", "r", "Vx", "phi", "theta")


def emit_svg_plots(log: RunLog, out_dir: str | Path, stem: str) -> List[Path]:
    """Write a stacked time-series SVG and an X-Y trajectory SVG.

    The trajectory plot marks the obstacle line at x = OBSTACLE_X with a
    dash-dotted stroke.
    """
    out_dir = Path(out_dir)
    if len(log) == 0:
        raise ValueError("cannot plot an empty log")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create plot directory {out_dir}: {exc}") from exc

    width, panel_h, margin = 720, 110, 12
    t = log.cols["t"]
    n = len(TIMESERIES_SIGNALS)
    height = margin + n * (panel_h + margin)
    svg = _svg_header(width, height)
    y = float(margin)
    for name in TIMESERIES_SIGNALS:
        svg += _panel(t, log.cols[name], name, margin, y,
                      width - 2 * margin, panel_h)
        y += panel_h + margin
    svg += "</svg>\n"
    ts_path = out_dir / f"{stem}_timeseries.svg"

    xs, ys = log.cols["X"], log.cols["Y"]
    w2, h2, m2 = 720, 320, 30
    xmin, xmax = min(min(xs), 0.0), max(max(xs), OBSTACLE_X + 10.0)
    ymin, ymax = min(min(ys), -1.0), max(max(ys), 1.0)
    traj = _svg_header(w2, h2)
    ox = m2 + (OBSTACLE_X - xmin) / (xmax - xmin) * (w2 - 2 * m2)
    traj += (f'<line x1="{_fmt(ox)}" y1="{m2}" x2="{_fmt(ox)}" '
             f'y2="{h2 - m2}" stroke="#e754a6" stroke-width="2" '
             f'stroke-dasharray="8 3 2 3"/>\n')
    traj += _polyline(xs, ys, (xmin, xmax, ymin, ymax), m2, m2,
                      w2 - 2 * m2, h2 - 2 * m2, 1.5)
    traj += (f'<text x="{m2}" y="{m2 - 8}" font-size="12" '
             f'font-family="sans-serif">trajectory X-Y [m], obstacle line '
             f'at x={OBSTACLE_X:g}</text>\n')
    traj += "</svg>\n"
    traj_path = out_dir / f"{stem}_trajectory.svg"

    try:
        ts_path.write_text(svg)
        traj_path.write_text(traj)
    except OSError as exc:
        raise OSError(f"cannot write SVG under {out_dir}: {exc}") from exc
    return [ts_path, traj_path]
