import dataclasses
import math
import tracemalloc

import pytest

from staballoc.harness import run_scenario
from staballoc.logio import (CSV_COLUMNS, RunLog, emit_csv, emit_svg_plots,
                             parse_csv)
from staballoc.scenario import load_scenario


def make_log(n=20):
    log = RunLog(scenario="demo", controller="proposed", dt=0.001)
    for k in range(n):
        t = k * 0.001
        row = {c: 0.0 for c in CSV_COLUMNS}
        row.update({"t": t, "Vx": 13.0 + 0.1 * k, "X": 1.3 * k,
                    "Y": math.sin(0.2 * k), "beta": 1e-3 * k,
                    "N_fl": 3507.075, "resid": 0.5 / (k + 1)})
        log.append([row[c] for c in CSV_COLUMNS], 0.0)
    return log


def snapshot(log):
    return [list(log.cols[c]) for c in CSV_COLUMNS], list(log.r_ref)


class TestRunLog:
    def test_append_takes_a_row_in_csv_order(self):
        log = RunLog()
        log.append([float(i) for i in range(len(CSV_COLUMNS))], -1.0)
        assert [list(log.cols[c]) for c in CSV_COLUMNS] == \
            [[float(i)] for i in range(len(CSV_COLUMNS))]
        assert list(log.r_ref) == [-1.0] and len(log) == 1

    @pytest.mark.parametrize("width", [32, 34])
    def test_row_of_another_width_is_rejected_whole(self, width):
        log = make_log(3)
        before = snapshot(log)
        with pytest.raises(ValueError, match=f"a row of {width} values"):
            log.append([0.0] * width, 0.0)
        assert snapshot(log) == before and len(log) == 3

    @pytest.mark.parametrize("where", [0, 32, "r_ref"])
    @pytest.mark.parametrize("bad", ["x", None])
    def test_non_number_is_rejected_whole(self, where, bad):
        # a value that is not a number must not reach the CSV
        log = make_log(3)
        before = snapshot(log)
        row, r_ref = [1.0] * len(CSV_COLUMNS), 0.5
        if where == "r_ref":
            r_ref = bad
        else:
            row[where] = bad
        with pytest.raises(TypeError):
            log.append(row, r_ref)
        assert snapshot(log) == before and len(log) == 3

    def test_columns_are_read_only(self):
        log = make_log(3)
        before = snapshot(log)
        with pytest.raises(TypeError):
            log.cols["psi"][0] = 2.0
        with pytest.raises(TypeError):
            log.cols["psi"] = [2.0] * 3
        assert snapshot(log) == before

    def test_append_while_a_column_view_is_held_is_rejected_whole(self):
        log = make_log(3)
        before = snapshot(log)
        t = log.cols["t"]
        with pytest.raises(BufferError):
            log.append([1.0] * len(CSV_COLUMNS), 0.5)
        t.release()
        assert snapshot(log) == before
        log.append([1.0] * len(CSV_COLUMNS), 0.5)
        assert len(log) == 4

    def test_memory_per_logged_value(self):
        # each value is one 8-byte double in the row buffer, not a boxed
        # float; every row holds fresh floats, as a closed-loop run's do
        width = len(CSV_COLUMNS) + 1          # the row and its r_ref
        n = 10_000
        tracemalloc.start()
        try:
            log = RunLog()
            before = tracemalloc.get_traced_memory()[0]
            for k in range(n):
                log.append([k + 1e-3 * i for i in range(width - 1)], k * 0.5)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == n
        assert grown <= 10 * n * width, grown / (n * width)


class TestCsv:
    def test_schema_header(self, tmp_path):
        path = emit_csv(make_log(), tmp_path / "demo.csv")
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header.startswith("t,Vx,Vy,r,beta,z,phi,theta,X,Y,psi,d_fl")
        assert header.endswith("v1,v2,v3,v4,v5,resid")

    def test_round_trip_is_bit_exact(self, tmp_path):
        log = make_log(50)
        path = emit_csv(log, tmp_path / "demo.csv")
        data = parse_csv(path)
        for c in CSV_COLUMNS:
            assert data[c] == list(log.cols[c])

    @pytest.mark.parametrize("controller", ["proposed", "baseline", "hybrid"])
    def test_closed_loop_run_round_trips(self, tmp_path, scenario_dir,
                                         controller):
        # past the 1 s actuator fault, so the plant input differs from the
        # logged command
        scn = load_scenario(scenario_dir / "actuator_fault.scn")
        scn = dataclasses.replace(scn, horizon=1.2)
        log = run_scenario(scn, controller=controller)
        assert len(log) == 1200
        data = parse_csv(emit_csv(log, tmp_path / "run.csv"))
        for c in CSV_COLUMNS:
            # float.hex tells -0.0 from 0.0, so this is bit for bit
            assert list(map(float.hex, data[c])) == \
                list(map(float.hex, log.cols[c])), c
            assert all(type(v) is float for v in log.cols[c]), c
        assert all(type(v) is float for v in log.r_ref)

    def test_repeated_emission_is_byte_identical(self, tmp_path):
        log = make_log(50)
        p1 = emit_csv(log, tmp_path / "a.csv")
        p2 = emit_csv(log, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=r"empty\.csv, line 1: empty"):
            parse_csv(path)

    @pytest.mark.parametrize("width", [32, 34])
    def test_row_of_another_width_names_the_file_and_line(self, tmp_path,
                                                          width):
        # a short row must not leave columns of unequal length, nor a long
        # one lose its extra cells
        path = emit_csv(make_log(5), tmp_path / "ragged.csv")
        lines = path.read_text().splitlines()
        lines[3] = ",".join(["0.0"] * width)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"ragged\.csv, line 4: {width} "
                                             rf"cells, the header has 33"):
            parse_csv(path)

    @pytest.mark.parametrize("cell", ["abc", "", "1.0.0"])
    def test_cell_that_is_not_a_number_names_file_line_and_column(
            self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,Vx\n0.0,1.0\n0.001,{cell}\n")
        with pytest.raises(ValueError, match=rf"bad\.csv, line 3, column Vx: "
                                             rf"{cell!r} is not a number"):
            parse_csv(path)

    def test_io_error_has_path_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv(make_log(), tmp_path / "no" / "such" / "dir" / "x.csv")


class TestSvg:
    def test_files_written_with_obstacle_line(self, tmp_path):
        paths = emit_svg_plots(make_log(), tmp_path, "demo")
        names = {p.name for p in paths}
        assert names == {"demo_timeseries.svg", "demo_trajectory.svg"}
        traj = (tmp_path / "demo_trajectory.svg").read_text()
        assert "stroke-dasharray" in traj       # obstacle line style
        assert "obstacle line" in traj
        ts = (tmp_path / "demo_timeseries.svg").read_text()
        for name in ("beta", "Vx", "phi"):
            assert name in ts

    def test_deterministic_bytes(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        p1 = emit_svg_plots(make_log(), tmp_path / "a", "demo")
        p2 = emit_svg_plots(make_log(), tmp_path / "b", "demo")
        for a, b in zip(p1, p2):
            assert a.read_bytes() == b.read_bytes()

    def test_empty_log_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg_plots(RunLog(), tmp_path, "demo")
